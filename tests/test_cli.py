import json

import numpy as np
import pytest

from plasso.cli import main
from plasso.cv import k_fold_cv
from plasso.extras import bootstrap_df
from plasso.io import load_model, read_delimited
from plasso.model import Dataset
from plasso.path import fit_path
from plasso.simulate import SimSpec, generate


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


class TestNoModifiers:
    """K = 0 end to end: the commands read no modifier columns, so every
    file holds a plain lasso path.  Each table equals what the library
    gives with Z=None; the pinned numbers are the outputs of the code
    before K = 0 lost its own branches."""

    def test_fit_cv_and_predict(self, tmp_path):
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=2)  # "w" is a fifth predictor here
        _, mat = read_delimited(data)
        y, X = mat[:, 0], mat[:, 1:]
        metrics = tmp_path / "metrics.tsv"
        assert main(["fit", "--data", str(data), "--model",
                     str(tmp_path / "m.json"), "--metrics", str(metrics),
                     "--nlambda", "8"]) == 0
        assert load_model(tmp_path / "m.json").fits[0].n_modifiers == 0
        rows = [ln.split("\t") for ln in metrics.read_text().splitlines()[2:]]
        assert {r[2] for r in rows} == {"0"} and {r[-1] for r in rows} == {"-"}
        path = fit_path(Dataset(y, X), n_lambda=8)
        assert [float(r[0]) for r in rows] == path.lambdas.tolist()
        mse = ((path.predict(X) - y[:, None]) ** 2).mean(axis=0)
        np.testing.assert_allclose([float(r[7]) for r in rows], mse,
                                   rtol=1e-12)
        assert float(rows[0][0]) == pytest.approx(5.216290674278847, rel=1e-9)
        assert float(rows[-1][7]) == pytest.approx(0.6351917705111352,
                                                   rel=1e-9)

        model = tmp_path / "cv.json"
        table = tmp_path / "cv.tsv"
        assert main(["cv", "--data", str(data), "--model", str(model),
                     "--output", str(table), "--nlambda", "8", "--folds", "4",
                     "--seed", "3"]) == 0
        cv_mean = [float(ln.split("\t")[1])
                   for ln in table.read_text().splitlines()[5:]]
        cv = k_fold_cv(Dataset(y, X), n_folds=4, seed=3, n_lambda=8)
        assert cv_mean == cv.cv_mean.tolist()
        assert (cv.idx_min, cv.idx_1se) == (5, 4)
        assert cv.cv_mean[5] == pytest.approx(0.7562676540791404, rel=1e-9)

        out = tmp_path / "pred.tsv"
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--output", str(out)]) == 0
        _, pred = read_delimited(out)
        np.testing.assert_allclose(pred[:, 0], cv.path.predict(X, index=5),
                                   rtol=0, atol=1e-10)
        assert pred[0, 0] == pytest.approx(0.45638416942595084, rel=1e-9)

    def test_df(self, tmp_path):
        out = tmp_path / "df.tsv"
        assert main(["df", "--spec", "unknown_z", "--B", "3", "--nlambda", "4",
                     "--seed", "1", "--output", str(out)]) == 0
        _, tab = read_delimited(out)
        sim = generate(SimSpec("unknown_z", seed=1))
        grid = fit_path(sim.train, n_lambda=4).lambdas
        est = bootstrap_df(sim.truth.mu_train, 0.25, sim.train.X, None, grid,
                           n_boot=3, seed=2)
        assert tab[:, 0].tolist() == grid.tolist()
        assert tab[:, 1].tolist() == est.df_cov.tolist()
        np.testing.assert_allclose(
            tab[:, 1], [1.2608600222869433, 11.767078156447717,
                        15.882159953830799, 15.882006925496471], rtol=1e-9)


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

    def test_seed_is_a_cv_flag(self, tmp_path, capsys):
        # only cv shuffles folds, so fit takes no --seed
        data = tmp_path / "d.tsv"
        write_training_file(data, n=30)
        model = tmp_path / "m.json"
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--nlambda", "4", "--seed", "1"])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err
        assert not model.exists()
        rc = main(["cv", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--output", str(tmp_path / "o.tsv"),
                   "--nlambda", "4", "--folds", "3", "--seed", "9"])
        assert rc == 0
        assert model.exists()

    def test_value_errors_are_1(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, n=20)
        model = tmp_path / "m.json"
        rc = main(["cv", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--output", str(tmp_path / "o.tsv"),
                   "--folds", "1"])
        assert rc == 1
        assert "--folds must be an integer in [2, 20]" in capsys.readouterr().err

    def test_default_folds_on_five_rows_names_flag_and_rows(self, tmp_path,
                                                             capsys):
        # the default --folds 10 on a 5-row file used to say only
        # "n_folds must lie in [2, N], got 10"
        data = tmp_path / "d.tsv"
        write_training_file(data, n=5)
        model = tmp_path / "m.json"
        rc = main(["cv", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--output", str(tmp_path / "o.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("plasso: --folds must be an integer in [2, 5] for "
                       "data with 5 rows, got 10\n")
        assert not model.exists()

    def test_folds_leaving_one_training_row_is_1(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, n=3)
        model = tmp_path / "m.json"
        rc = main(["cv", "--data", str(data), "--z-cols", "w",
                   "--model", str(model), "--output", str(tmp_path / "o.tsv"),
                   "--folds", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "plasso: --folds=2 leaves 1 training row")
        assert not model.exists()

    def test_non_text_data_is_2(self, tmp_path, capsys):
        # a file that is not UTF-8 text used to exit 1, as a usage error
        data = tmp_path / "d.tsv"
        data.write_bytes(b"y\tx\tw\n1\t\xff\t0\n")
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(tmp_path / "m.json")])
        assert rc == 2
        assert "not a text file" in capsys.readouterr().err

    def test_out_of_range_model_value_is_2(self, tmp_path, capsys):
        # alpha = 1 in a model file used to exit 1 from the fit's own check
        data = tmp_path / "d.tsv"
        write_training_file(data, n=20)
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--z-cols", "w",
                     "--model", str(model), "--nlambda", "3"]) == 0
        doc = json.loads(model.read_text())
        doc["alpha"] = 1.0
        model.write_text(json.dumps(doc))
        rc = main(["predict", "--model", str(model), "--data", str(data)])
        assert rc == 2
        assert "'alpha' is not a number in [0, 1)" in capsys.readouterr().err

    def test_negative_seed_is_1(self, tmp_path, capsys):
        rc = main(["simulate", "--spec", "df_null", "--seed", "-1",
                   "--prefix", str(tmp_path / "s")])
        assert rc == 1
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    def test_non_finite_tolerance_is_1(self, tmp_path, capsys):
        # used to run 1000 passes and exit 3, "no convergence"
        data = tmp_path / "d.tsv"
        write_training_file(data, n=20)
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(tmp_path / "m.json"), "--tol", "nan"])
        assert rc == 1
        assert "tol_kkt must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["nan", "0", "1", "abc"])
    def test_bad_lambda_min_ratio_is_1(self, tmp_path, capsys, ratio):
        data = tmp_path / "d.tsv"
        write_training_file(data, n=20)
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(tmp_path / "m.json"),
                   "--lambda-min-ratio", ratio])
        assert rc == 1
        assert "argument --lambda-min-ratio" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag", ["--lambda2", "--lam"])
    def test_negative_unknownz_penalty_is_1(self, tmp_path, capsys, flag):
        # the settings are checked before the data file is opened
        rc = main(["unknownz", "--data", str(tmp_path / "missing.tsv"),
                   "--output", str(tmp_path / "o.tsv"), flag, "-1"])
        assert rc == 1
        name = flag.lstrip("-")
        assert f"{name} must be >= 0 and finite" in capsys.readouterr().err

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
                (lambda d: d["diagnostics"][1].update(n_prox_capped=-1),
                 "diagnostics[1]: 'n_prox_capped' is not an integer >= 0"),
                (lambda d: d["diagnostics"][2].update(kkt_max=-1e-9),
                 "diagnostics[2]: 'kkt_max' is not a finite number >= 0")):
            doc = json.loads(saved)
            mutate(doc)
            model.write_text(json.dumps(doc))
            rc = main(["predict", "--model", str(model), "--data", str(data)])
            assert rc == 2
            assert message in capsys.readouterr().err
        # a file written before n_prox_capped was a per-level key loads
        doc = json.loads(saved)
        for d in doc["diagnostics"]:
            del d["n_prox_capped"]
        model.write_text(json.dumps(doc))
        rc = main(["predict", "--model", str(model), "--data", str(data)])
        assert rc == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("command", ["fit", "cv"])
    @pytest.mark.parametrize("z_cols, message", [
        ("w,w", "column 'w' is named twice"),
        ("y", "column 'y' is named twice")])
    def test_bad_modifier_columns_are_2(self, tmp_path, capsys, command,
                                        z_cols, message):
        data = tmp_path / "d.tsv"
        write_training_file(data, seed=7)
        model = tmp_path / "m.json"
        argv = [command, "--data", str(data), "--z-cols", z_cols,
                "--model", str(model), "--nlambda", "4"]
        if command == "cv":
            argv += ["--output", str(tmp_path / "o.tsv"), "--folds", "3"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not model.exists()

    def test_constant_column_is_2(self, tmp_path, capsys):
        f = tmp_path / "c.tsv"
        f.write_text("y\tx0\tx1\n1\t1\t2\n2\t1\t3\n3\t1\t4\n4\t1\t5\n")
        rc = main(["fit", "--data", str(f),
                   "--model", str(tmp_path / "m.json"), "--nlambda", "3"])
        assert rc == 2
        assert "constant" in capsys.readouterr().err.lower()

    def test_constant_fold_column_is_2(self, tmp_path, capsys):
        # w is nonzero in row 2 only, which 5-fold CV at seed 0 holds out in
        # fold 0; that fold's training rows leave w constant
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        y = X[:, 0] + rng.standard_normal(30)
        lines = ["y\tx0\tx1\tx2\tw"]
        for i in range(30):
            cells = [y[i], *X[i], 1.0 if i == 2 else 0.0]
            lines.append("\t".join(repr(float(v)) for v in cells))
        data = tmp_path / "d.tsv"
        data.write_text("\n".join(lines) + "\n")
        rc = main(["cv", "--data", str(data), "--z-cols", "w",
                   "--model", str(tmp_path / "m.json"),
                   "--output", str(tmp_path / "o.tsv"), "--folds", "5",
                   "--seed", "0", "--nlambda", "5"])
        assert rc == 2
        assert "fold 0: Z column 0 is constant" in capsys.readouterr().err

    def test_convergence_failure_is_3(self, tmp_path, capsys):
        data = tmp_path / "d.tsv"
        write_training_file(data, n=30, p=3)
        rc = main(["fit", "--data", str(data), "--z-cols", "w",
                   "--model", str(tmp_path / "m.json"),
                   "--nlambda", "3", "--tol", "1e-300"])
        assert rc == 3
        assert "convergence" in capsys.readouterr().err
