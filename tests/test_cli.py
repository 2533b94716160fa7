import json

import numpy as np
import pytest

from plasso.cli import main
from plasso.io import load_model, read_delimited


def write_training_file(path, seed=0, n=60, p=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    z = rng.integers(0, 2, n).astype(float)
    y = 2.0 * X[:, 0] + X[:, 0] * z + 0.5 * rng.standard_normal(n)
    cols = ["y"] + [f"x{j}" for j in range(p)] + ["w"]
    lines = ["\t".join(cols)]
    for i in range(n):
        cells = [y[i], *X[i], z[i]]
        lines.append("\t".join(repr(float(v)) for v in cells))
    path.write_text("\n".join(lines) + "\n")


class TestFit:
    def test_writes_model_and_metrics(self, tmp_path):
        data = tmp_path / "d.tsv"
        write_training_file(data)
        model = tmp_path / "m.json"
        metrics = tmp_path / "metrics.tsv"
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--metrics", str(metrics),
                   "--nlambda", "10"])
        assert rc == 0
        loaded = load_model(model)
        assert loaded.n_lambdas == 10
        assert loaded.x_columns == ["x0", "x1", "x2", "x3"]
        assert loaded.z_columns == ["w"]
        lines = metrics.read_text().splitlines()
        assert lines[0].startswith("# plasso fit ")
        assert lines[1].split("\t")[:3] == ["lambda", "n_beta",
                                            "n_theta_rows"]
        assert len(lines) == 12  # invocation + header + one row per lambda
        assert lines[2].split("\t")[-1] == "-"  # empty fit at lambda_max
        # capped joint solves per level, in the table and the model file
        col = lines[1].split("\t").index("n_prox_capped")
        capped = [int(ln.split("\t")[col]) for ln in lines[2:]]
        doc = json.loads(model.read_text())
        assert capped == [d["n_prox_capped"] for d in doc["diagnostics"]]
        assert capped == [d["n_prox_capped"] for d in loaded.diagnostics]

    def test_single_lambda_path_is_empty_fit(self, tmp_path):
        data = tmp_path / "d.tsv"
        write_training_file(data)
        model = tmp_path / "m.json"
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--nlambda", "1"])
        assert rc == 0
        doc = json.loads(model.read_text())
        assert len(doc["fits"]) == 1
        assert doc["fits"][0]["beta"] == []
        assert doc["fits"][0]["theta"] == []

    def test_no_standardize_flag(self, tmp_path):
        data = tmp_path / "d.tsv"
        write_training_file(data)
        model = tmp_path / "m.json"
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--nlambda", "5",
                   "--no-standardize"])
        assert rc == 0
        doc = json.loads(model.read_text())
        assert doc["standardization"]["standardize_x"] is False

    def test_z_file_variant(self, tmp_path):
        data = tmp_path / "d.tsv"
        write_training_file(data)
        names, mat = read_delimited(data)
        zf = tmp_path / "z.tsv"
        zf.write_text("w\n" + "\n".join(repr(float(v)) for v in mat[:, -1]) + "\n")
        xonly = tmp_path / "x.tsv"
        keep = [i for i, c in enumerate(names) if c != "w"]
        lines = ["\t".join(names[i] for i in keep)]
        for row in mat:
            lines.append("\t".join(repr(float(row[i])) for i in keep))
        xonly.write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.json"
        rc = main(["fit", "--data", str(xonly), "--z-file", str(zf),
                   "--model", str(model), "--nlambda", "5"])
        assert rc == 0
        assert load_model(model).z_columns == ["w"]


class TestCvAndPredict:
    def test_round_trip_and_in_sample_agreement(self, tmp_path):
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=1)
        model = tmp_path / "m.json"
        table = tmp_path / "cv.tsv"
        rc = main(["cv", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--output", str(table),
                   "--nlambda", "12", "--folds", "4"])
        assert rc == 0
        text = table.read_text()
        assert "# lambda_min\t" in text
        assert "# selected_theta_rows\t" in text
        out = tmp_path / "pred.tsv"
        rc = main(["predict", "--model", str(model), "--data", str(data),
                   "--output", str(out)])
        assert rc == 0
        _, pred = read_delimited(out)
        loaded = load_model(model)
        names, mat = read_delimited(data)
        X = mat[:, 1:5]
        Z = mat[:, 5:6]
        expect = loaded.predict(X, Z)
        np.testing.assert_allclose(pred[:, 0], expect, rtol=0, atol=1e-10)
        y = mat[:, 0]
        assert float(((pred[:, 0] - y) ** 2).mean()) < float(y.var())

    def test_predict_to_stdout_and_index(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=2)
        model = tmp_path / "m.json"
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--nlambda", "6"])
        assert rc == 0
        rc = main(["predict", "--model", str(model), "--data", str(data),
                   "--index", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "prediction"
        assert len(lines) == 62
        # index 0 has no penalized coefficients, but the unpenalized
        # intercepts still split on the binary modifier
        assert len(set(lines[2:])) == 2

    def test_predict_positional_columns(self, tmp_path):
        # a data file without the training column names still works when
        # the column count matches the model
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=3)
        model = tmp_path / "m.json"
        main(["fit", "--data", str(data), "--z-cols", "w",
              "--model", str(model), "--nlambda", "5"])
        names, mat = read_delimited(data)
        anon = tmp_path / "anon.tsv"
        lines = ["\t".join(f"c{i}" for i in range(4))]
        for row in mat[:5]:
            lines.append("\t".join(repr(float(v)) for v in row[1:5]))
        anon.write_text("\n".join(lines) + "\n")
        zf = tmp_path / "z.tsv"
        zf.write_text("w\n" + "\n".join(repr(float(v)) for v in mat[:5, 5]) + "\n")
        out = tmp_path / "p.tsv"
        rc = main(["predict", "--model", str(model), "--data", str(anon),
                   "--z-file", str(zf), "--output", str(out)])
        assert rc == 0
        _, pred = read_delimited(out)
        assert pred.shape == (5, 1)


class TestSimulateDfUnknownzHte:
    def test_simulate_writes_three_files(self, tmp_path):
        prefix = tmp_path / "run"
        rc = main(["simulate", "--spec", "example1", "--seed", "3",
                   "--prefix", str(prefix)])
        assert rc == 0
        names, train = read_delimited(f"{prefix}_train.tsv")
        assert names == ["y"] + [f"x{j}" for j in range(1, 21)] + ["z1"]
        assert train.shape == (100, 22)
        tn, truth = read_delimited(f"{prefix}_truth.tsv")
        assert tn == ["split", "mu"]
        assert truth.shape == (600, 2)

    def test_simulate_truth_extras(self, tmp_path):
        prefix = tmp_path / "u"
        rc = main(["simulate", "--spec", "unknown_z", "--prefix", str(prefix)])
        assert rc == 0
        tn, truth = read_delimited(f"{prefix}_truth.tsv")
        assert tn == ["split", "mu", "z"]
        assert set(np.unique(truth[:, 2])) <= {0.0, 1.0}
        prefix2 = tmp_path / "h"
        main(["simulate", "--spec", "hte_a", "--prefix", str(prefix2)])
        tn2, _ = read_delimited(f"{prefix2}_truth.tsv")
        assert tn2 == ["split", "mu", "effect"]

    def test_df_table(self, tmp_path):
        out = tmp_path / "df.tsv"
        rc = main(["df", "--spec", "df_null", "--B", "5", "--nlambda", "4",
                   "--output", str(out)])
        assert rc == 0
        names, mat = read_delimited(out)
        assert names == ["lambda", "df_cov", "n_beta", "n_nonzero"]
        assert mat.shape == (4, 4)
        assert "# bootstrap_reps\t5" in out.read_text()

    def test_unknownz_table(self, tmp_path):
        prefix = tmp_path / "u"
        main(["simulate", "--spec", "unknown_z", "--prefix", str(prefix)])
        out = tmp_path / "gamma.tsv"
        rc = main(["unknownz", "--data", f"{prefix}_train.tsv",
                   "--cycles", "1", "--folds", "4", "--nlambda", "8",
                   "--output", str(out)])
        assert rc == 0
        names, mat = read_delimited(out)
        assert names == ["predictor", "gamma"]
        assert mat.shape == (12, 2)
        text = out.read_text()
        assert "# lambda\t" in text and "# objective\tinit\t" in text

    def test_hte_table(self, tmp_path):
        out = tmp_path / "hte.tsv"
        rc = main(["hte", "--scenario", "a", "--folds", "4",
                   "--nlambda", "8", "--output", str(out)])
        assert rc == 0
        names, mat = read_delimited(out)
        assert names == ["row", "effect_true", "effect_fit"]
        assert mat.shape == (500, 3)
        assert "# r_squared\t" in out.read_text()


class TestDeterminism:
    def test_cv_outputs_byte_identical(self, tmp_path, monkeypatch):
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=4)
        argv = ["cv", "--data", "../d.tsv", "--z-cols", "w",
                "--model", "m.json", "--output", "cv.tsv",
                "--nlambda", "8", "--folds", "4", "--seed", "9"]
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            assert main(list(argv)) == 0
            blobs.append(((d / "m.json").read_bytes(),
                          (d / "cv.tsv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_simulate_deterministic(self, tmp_path, monkeypatch):
        texts = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            main(["simulate", "--spec", "sim_main", "--seed", "5",
                  "--prefix", "s"])
            texts.append((d / "s_train.tsv").read_bytes())
        assert texts[0] == texts[1]


class TestExitCodes:
    def test_usage_errors_are_1(self, tmp_path, capsys):
        assert main(["fit"]) == 1  # missing required flags
        assert main(["nope"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_value_errors_are_1(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, n=20)
        model = tmp_path / "m.json"
        rc = main(["cv", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--output", str(tmp_path / "o.tsv"),
                   "--folds", "1"])
        assert rc == 1
        assert "n_folds" in capsys.readouterr().err

    def test_index_out_of_range_is_1(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=5)
        model = tmp_path / "m.json"
        main(["fit", "--data", str(data), "--z-cols", "w",
              "--model", str(model), "--nlambda", "4"])
        # 4 levels: indices 0 to 3; -1 must not wrap to the last level
        for index in ("-1", "4", "99"):
            rc = main(["predict", "--model", str(model), "--data", str(data),
                       "--index", index])
            assert rc == 1
            err = capsys.readouterr().err
            assert f"index {index} is out of range" in err
            assert "indices 0 to 3" in err

    def test_malformed_model_is_2(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=5)
        model = tmp_path / "m.json"
        main(["fit", "--data", str(data), "--z-cols", "w",
              "--model", str(model), "--nlambda", "4"])
        saved = model.read_text()
        for mutate, message in (
                (lambda d: d.pop("alpha"), "missing key 'alpha'"),
                (lambda d: d.update(diagnostics=["junk"]),
                 "'diagnostics' has 1 entries, 'lambdas' 4"),
                (lambda d: d["diagnostics"][1].pop("n_prox_capped"),
                 "diagnostics[1]: missing key 'n_prox_capped'"),
                (lambda d: d["diagnostics"][2].update(kkt_max=-1e-9),
                 "diagnostics[2]: 'kkt_max' is not a finite number >= 0")):
            doc = json.loads(saved)
            mutate(doc)
            model.write_text(json.dumps(doc))
            rc = main(["predict", "--model", str(model), "--data", str(data)])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_data_errors_are_2(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "absent.tsv"),
                     "--model", str(tmp_path / "m.json")]) == 2
        bad = tmp_path / "bad.tsv"
        bad.write_text("y\tx0\n1\toops\n")
        assert main(["fit", "--data", str(bad),
                     "--model", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert "not a number" in err

    def test_missing_modifiers_are_2(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=6)
        model = tmp_path / "m.json"
        main(["fit", "--data", str(data), "--z-cols", "w",
              "--model", str(model), "--nlambda", "4"])
        names, mat = read_delimited(data)
        noz = tmp_path / "noz.tsv"
        keep = [i for i, c in enumerate(names) if c not in ("y", "w")]
        lines = ["\t".join(names[i] for i in keep)]
        for row in mat[:4]:
            lines.append("\t".join(repr(float(row[i])) for i in keep))
        noz.write_text("\n".join(lines) + "\n")
        rc = main(["predict", "--model", str(model), "--data", str(noz)])
        assert rc == 2
        assert "modifier" in capsys.readouterr().err

    def test_constant_column_is_2(self, tmp_path, capsys):
        f = tmp_path / "c.tsv"
        f.write_text("y\tx0\tx1\n1\t1\t2\n2\t1\t3\n3\t1\t4\n4\t1\t5\n")
        rc = main(["fit", "--data", str(f),
                   "--model", str(tmp_path / "m.json"), "--nlambda", "3"])
        assert rc == 2
        assert "constant" in capsys.readouterr().err.lower()

    def test_convergence_failure_is_3(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, n=30, p=3)
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(tmp_path / "m.json"),
                   "--nlambda", "3", "--tol", "1e-300"])
        assert rc == 3
        assert "convergence" in capsys.readouterr().err
