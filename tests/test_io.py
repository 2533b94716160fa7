import io
import json
from pathlib import Path

import numpy as np
import pytest

from plasso.cv import k_fold_cv
from plasso.io import (MODEL_SCHEMA_VERSION, DataFormatError, load_model,
                       read_delimited, save_model, split_columns, write_table)
from plasso.model import Dataset, PliableFit, predict
from plasso.path import LambdaDiagnostics, PathResult, fit_path
from plasso.preprocess import StandardizationMap

DATA_DIR = Path(__file__).resolve().parent / "data"


class TestReadDelimited:
    def test_tab_and_comma_both_work(self, tmp_path):
        for delim, name in (("\t", "t.tsv"), (",", "c.csv")):
            f = tmp_path / name
            f.write_text(f"a{delim}b\n1{delim}2\n3{delim}4\n")
            names, mat = read_delimited(f)
            assert names == ["a", "b"]
            np.testing.assert_array_equal(mat, [[1.0, 2.0], [3.0, 4.0]])

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("# made by hand\n\na\tb\n# mid comment\n1\t2\n\n")
        names, mat = read_delimited(f)
        assert names == ["a", "b"]
        assert mat.shape == (1, 2)

    def test_ragged_row_reports_line(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("a\tb\n1\t2\n1\t2\t3\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_delimited(f)

    def test_bad_number_reports_line_and_column(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("a\tb\n1\toops\n")
        with pytest.raises(DataFormatError, match=r"line 2, column 'b'"):
            read_delimited(f)

    def test_duplicate_header(self, tmp_path):
        f = tmp_path / "d.tsv"
        f.write_text("a\ta\n1\t2\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            read_delimited(f)

    def test_empty_and_header_only(self, tmp_path):
        empty = tmp_path / "e.tsv"
        empty.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            read_delimited(empty)
        hdr = tmp_path / "h.tsv"
        hdr.write_text("a\tb\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_delimited(hdr)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_cell_reports_line_and_column(self, tmp_path, cell):
        f = tmp_path / "d.tsv"
        f.write_text(f"# note\na\tb\n1\t2\n\n3\t{cell}\n")
        with pytest.raises(DataFormatError, match=rf"line 5, column 'b': "
                           rf"not a finite number: '{cell}'"):
            read_delimited(f)

    def test_float_round_trip_through_text(self, tmp_path):
        vals = [0.1, 1 / 3, 1e-17, -2.5e300]
        f = tmp_path / "d.tsv"
        f.write_text("v\n" + "\n".join(repr(v) for v in vals) + "\n")
        _, mat = read_delimited(f)
        assert mat[:, 0].tolist() == vals


class TestSplitColumns:
    def setup_method(self):
        self.names = ["y", "x1", "x2", "w"]
        self.mat = np.arange(8.0).reshape(2, 4)

    def test_basic_partition(self):
        y, X, Z, x_names = split_columns(self.names, self.mat, "y", ["w"])
        np.testing.assert_array_equal(y, [0.0, 4.0])
        np.testing.assert_array_equal(X, [[1, 2], [5, 6]])
        np.testing.assert_array_equal(Z, [[3], [7]])
        assert x_names == ["x1", "x2"]

    def test_no_response(self):
        y, X, Z, x_names = split_columns(self.names, self.mat)
        assert y is None and Z is None
        assert X.shape == (2, 4)

    def test_missing_column(self):
        with pytest.raises(DataFormatError, match="'z9'"):
            split_columns(self.names, self.mat, "y", ["z9"])

    def test_everything_taken(self):
        with pytest.raises(DataFormatError, match="no predictor"):
            split_columns(["y", "w"], np.zeros((1, 2)), "y", ["w"])

    def test_repeated_modifier(self):
        # two copies of one modifier make Z exactly collinear
        with pytest.raises(DataFormatError,
                           match="column 'w' is named twice"):
            split_columns(self.names, self.mat, "y", ["w", "w"])

    def test_response_as_modifier(self):
        with pytest.raises(DataFormatError, match="column 'y' is named "
                                                  "twice"):
            split_columns(self.names, self.mat, "y", ["w", "y"])


class TestWriteTable:
    def test_round_trip_with_reader(self, tmp_path):
        f = tmp_path / "out.tsv"
        write_table(f, ["a", "b"], [[1, 0.25], [3, 1 / 3]],
                    invocation="prog fit --x 1", comments=("extra",))
        text = f.read_text()
        assert text.startswith("# prog fit --x 1\n# extra\n")
        names, mat = read_delimited(f)
        assert names == ["a", "b"]
        assert mat[1, 1] == 1 / 3

    def test_stream_output(self):
        buf = io.StringIO()
        write_table(buf, ["x"], [[True], [7]])
        assert buf.getvalue() == "x\n1\n7\n"


def small_path(seed=0, with_cv=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((50, 4))
    Z = rng.standard_normal((50, 2))
    y = 2.0 * X[:, 0] + X[:, 0] * Z[:, 0] + 0.5 * rng.standard_normal(50) + 3.0
    data = Dataset(y, X, Z)
    if with_cv:
        cv = k_fold_cv(data, n_folds=4, n_lambda=8)
        return data, cv.path, cv
    return data, fit_path(data, n_lambda=8), None


def hand_path():
    """A two-level path built by hand, with an identity standardization so
    the saved coefficients are exact."""
    smap = StandardizationMap(np.zeros(2), np.ones(2), np.zeros(1),
                              np.ones(1), 0.5)
    fits = (PliableFit(0.0, [0.0], [0.0, 0.0], {}, 0.8, 0.5),
            PliableFit(0.25, [0.5], [1.5, 0.0], {0: [-0.75]}, 0.1, 0.5))
    diags = (LambdaDiagnostics(1, 0, 0, 0.0, 0),
             LambdaDiagnostics(7, 1, 1, 2.5e-05, 1))
    return PathResult([0.8, 0.1], fits, diags, smap, 0.5)


class TestModelFile:
    def test_saved_bytes_unchanged(self, tmp_path):
        # data/hand_model.json is this path as save_model wrote it when each
        # diagnostics entry was spelled out key by key
        f = tmp_path / "model.json"
        save_model(f, hand_path(), x_columns=["a", "b"], z_columns=["u"])
        assert f.read_bytes() == (DATA_DIR / "hand_model.json").read_bytes()

    def test_round_trip_predictions_exact(self, tmp_path):
        data, path, _ = small_path()
        f = tmp_path / "model.json"
        save_model(f, path, x_columns=["a", "b", "c", "d"], z_columns=["u", "v"])
        model = load_model(f)
        assert model.n_lambdas == 8
        assert model.x_columns == ["a", "b", "c", "d"]
        assert model.default_index() == 7
        for i in (0, 4, 7):
            # routes differ only by float re-association (term order)
            np.testing.assert_allclose(model.predict(data.X, data.Z, i),
                                       path.predict(data.X, data.Z, i),
                                       atol=1e-10)

    def test_sparse_encoding(self, tmp_path):
        data, path, _ = small_path()
        f = tmp_path / "model.json"
        save_model(f, path)
        doc = json.loads(f.read_text())
        assert doc["schema_version"] == MODEL_SCHEMA_VERSION
        assert doc["fits"][0]["beta"] == []  # all-zero head of the path
        raw_last = path.fit_raw(7)
        stored = dict((j, v) for j, v in doc["fits"][7]["beta"])
        for j, v in stored.items():
            assert raw_last.beta[j] == v
        assert len(stored) == raw_last.n_nonzero_beta

    @pytest.mark.parametrize("block, value", [("X", np.nan), ("Z", np.inf)])
    @pytest.mark.parametrize("route", ["model", "path", "loaded"])
    def test_predict_rejects_non_finite_input(self, tmp_path, route, block,
                                              value):
        data, path, _ = small_path()
        save_model(tmp_path / "model.json", path)
        predictors = {"model": lambda X, Z: predict(path.fits[4], X, Z),
                      "path": lambda X, Z: path.predict(X, Z, index=4),
                      "loaded": load_model(tmp_path / "model.json").predict}
        X, Z = data.X.copy(), data.Z.copy()
        (X if block == "X" else Z)[3, 1] = value
        with pytest.raises(ValueError, match=f"{block} has a non-finite "
                                             f"value .* at row 3, column 1"):
            predictors[route](X, Z)

    def test_cv_section_and_default_index(self, tmp_path):
        data, path, cv = small_path(with_cv=True)
        f = tmp_path / "model.json"
        save_model(f, path, cv=cv)
        model = load_model(f)
        assert model.idx_min == cv.idx_min
        assert model.default_index() == cv.idx_min
        assert model.cv["idx_1se"] == cv.idx_1se
        np.testing.assert_allclose(model.cv["cv_mean"], cv.cv_mean)

    def test_schema_version_checked(self, tmp_path):
        data, path, _ = small_path()
        f = tmp_path / "model.json"
        save_model(f, path)
        doc = json.loads(f.read_text())
        doc["schema_version"] = 99
        f.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="schema"):
            load_model(f)

    def test_coefficients_survive_exactly(self, tmp_path):
        data, path, _ = small_path(seed=3)
        f = tmp_path / "model.json"
        save_model(f, path)
        model = load_model(f)
        for i in range(path.n_lambdas):
            raw = path.fit_raw(i)
            got = model.fits[i]
            assert got.beta0 == raw.beta0
            np.testing.assert_array_equal(got.beta, raw.beta)
            np.testing.assert_array_equal(got.theta, raw.theta)
            assert got.lam == float(path.lambdas[i])


def _drop_alpha(doc):
    del doc["alpha"]


def _set_beta_index(j):
    def mutate(doc):
        doc["fits"][-1]["beta"][0][0] = j
    return mutate


def _set_theta_modifier(kk):
    def mutate(doc):
        doc["fits"][-1]["theta"][0][1] = kk
    return mutate


def _drop_last_fit(doc):
    doc["fits"].pop()


def _junk_diagnostics(doc):
    doc["diagnostics"] = ["junk"]


def _drop_last_diagnostic(doc):
    doc["diagnostics"].pop()


def _set_prox_capped(v):
    def mutate(doc):
        doc["diagnostics"][3]["n_prox_capped"] = v
    return mutate


def _negative_passes(doc):
    doc["diagnostics"][2]["n_passes"] = -1


def _huge_n_predictors(doc):
    # a (p,) array of this size would take 16 GB
    doc["n_predictors"] = 2_000_000_000


class TestMalformedModelFile:
    @pytest.mark.parametrize("mutate, message", [
        (_drop_alpha, r"missing key 'alpha'"),
        (_set_beta_index(-1), r"fits\[7\]: 'beta' entry .* index -1 outside \[0, 4\)"),
        (_set_beta_index(4), r"fits\[7\]: 'beta' entry .* index 4 outside \[0, 4\)"),
        (_set_theta_modifier(2), r"fits\[7\]: 'theta' entry .* index 2 outside \[0, 2\)"),
        (_drop_last_fit, r"'fits' has 7 entries, 'lambdas' 8"),
        (_junk_diagnostics, r"'diagnostics' has 1 entries, 'lambdas' 8"),
        (_drop_last_diagnostic, r"'diagnostics' has 7 entries, 'lambdas' 8"),
        (_set_prox_capped(-1),
         r"diagnostics\[3\]: 'n_prox_capped' is not an integer >= 0"),
        (_set_prox_capped(1.5),
         r"diagnostics\[3\]: 'n_prox_capped' is not an integer >= 0"),
        (_set_prox_capped(None),
         r"diagnostics\[3\]: 'n_prox_capped' is not an integer >= 0"),
        (_negative_passes,
         r"diagnostics\[2\]: 'n_passes' is not an integer >= 0"),
        (_huge_n_predictors,
         r"standardization: 'x_means' is not a list of 2000000000 "),
    ], ids=["missing_key", "negative_beta_index", "beta_index_ge_p",
            "theta_index_ge_k", "fits_lambdas_mismatch", "junk_diagnostics",
            "short_diagnostics", "negative_prox_capped",
            "fractional_prox_capped", "null_prox_capped",
            "negative_diagnostics_count", "n_predictors_beyond_the_map"])
    def test_rejected_with_offending_entry(self, tmp_path, mutate, message):
        _, path, _ = small_path()
        f = tmp_path / "model.json"
        save_model(f, path)
        doc = json.loads(f.read_text())
        assert doc["fits"][-1]["beta"] and doc["fits"][-1]["theta"]
        mutate(doc)
        f.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=message):
            load_model(f)

    def test_file_without_prox_capped_loads(self, tmp_path):
        # files written before n_prox_capped was a per-level key carry the
        # same schema version; they load with the count unknown
        data, path, _ = small_path()
        f = tmp_path / "model.json"
        save_model(f, path)
        doc = json.loads(f.read_text())
        for d in doc["diagnostics"]:
            del d["n_prox_capped"]
        f.write_text(json.dumps(doc))
        model = load_model(f)
        assert [d["n_prox_capped"] for d in model.diagnostics] == [None] * 8
        assert [d["n_passes"] for d in model.diagnostics] == \
            [d.n_passes for d in path.diagnostics]
        np.testing.assert_allclose(model.predict(data.X, data.Z, 7),
                                   path.predict(data.X, data.Z, index=7),
                                   rtol=0.0, atol=1e-12)
        # every other key is still required
        del doc["diagnostics"][3]["n_passes"]
        f.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError,
                           match=r"diagnostics\[3\]: missing key 'n_passes'"):
            load_model(f)


def _set(*keys, value):
    """A mutation that sets doc[keys[0]]...[keys[-1]] to ``value``."""
    def mutate(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return mutate


class TestModelFileRanges:
    """Values the model types reject are format errors of the file, so the
    CLI reports them as data errors (exit 2) and not as usage errors."""

    @pytest.mark.parametrize("mutate, message", [
        (_set("alpha", value=1.0), r"'alpha' is not a number in \[0, 1\)"),
        (_set("alpha", value=-0.5), r"'alpha' is not a number in \[0, 1\)"),
        (_set("lambdas", 2, value=-1.0),
         r"'lambdas' holds an entry that is not a finite number >= 0"),
        (_set("standardization", "y_mean", value=None),
         r"standardization: 'y_mean' is not a finite number"),
        (_set("standardization", "x_scales", 0, value=0.0),
         r"'x_scales' is not a list of 4 finite nonzero numbers"),
        (_set("standardization", "z_means", value=[0.0]),
         r"'z_means' is not a list of 2 finite numbers"),
        (_set("standardization", "x_means", value="abc"),
         r"'x_means' is not a list of 4 finite numbers"),
        (_set("standardization", "center_y", value=1),
         r"'center_y' is not true or false"),
    ], ids=["alpha_one", "alpha_negative", "negative_lambda", "null_y_mean",
            "zero_scale", "short_z_means", "text_means", "integer_flag"])
    def test_out_of_range_value_is_a_format_error(self, tmp_path, mutate,
                                                  message):
        _, path, _ = small_path()
        f = tmp_path / "model.json"
        save_model(f, path)
        doc = json.loads(f.read_text())
        mutate(doc)
        f.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=message):
            load_model(f)


class TestReadDelimitedEncoding:
    def test_non_text_file_is_a_format_error(self, tmp_path):
        # bytes that are not UTF-8 used to escape as UnicodeDecodeError
        f = tmp_path / "d.tsv"
        f.write_bytes(b"a\tb\n1\t\xff\n")
        with pytest.raises(DataFormatError, match="not a text file"):
            read_delimited(f)
