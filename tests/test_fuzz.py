"""Bad numbers, malformed files and random command lines.

Every public callable checks its numeric arguments where they enter: a
non-finite or out-of-range value raises ValueError naming the argument
(IndexError for an index) and never returns.  ``read_delimited`` and
``load_model`` either return a usable result or raise DataFormatError, and
the CLI maps every outcome to its documented exit code.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

import plasso as P
from plasso import cli
from plasso.io import DataFormatError, load_model, read_delimited, save_model

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((12, 3))
_Z = _RNG.standard_normal((12, 2))
_Y = _X[:, 0] + _RNG.standard_normal(12)
_DATA = P.Dataset(_Y, _X, _Z)
_FIT = P.PliableFit.zeros(3, 2)
_PATH = P.fit_path(_DATA, n_lambda=3)

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_FINITE = dict(allow_nan=False, allow_infinity=False)


def _below(low, strict=True):
    """Finite values < low (<= low when not strict)."""
    return st.floats(max_value=low, exclude_max=strict, **_FINITE)


def _above(high, strict=True):
    return st.floats(min_value=high, exclude_min=strict, **_FINITE)


def _bad_real(low=None, high=None, low_open=False):
    """Values outside [low, high) (outside (low, high) with ``low_open``),
    non-finite ones included."""
    parts = [_NON_FINITE]
    if low is not None:
        parts.append(_below(low, strict=not low_open))
    if high is not None:
        parts.append(_above(high, strict=False))
    return st.one_of(*parts)


def _bad_int(low):
    """Non-finite, fractional and too small values of an integer argument."""
    return st.one_of(_NON_FINITE,
                     st.floats(**_FINITE).filter(lambda v: v != int(v)),
                     st.integers(max_value=low - 1))


@st.composite
def _bad_folds(draw):
    """Fold labels for the 12 rows of ``_DATA`` that ``k_fold_cv`` must
    refuse: one fractional or non-finite label among integer ones, or one
    fold holding 11 or 12 rows, which leaves under 2 training rows."""
    ids = draw(st.lists(st.integers(0, 3), min_size=12, max_size=12))
    i = draw(st.integers(0, 11))
    if draw(st.booleans()):
        labels = np.array(ids, dtype=float)
        labels[i] = draw(st.one_of(
            _NON_FINITE, st.floats(**_FINITE).filter(lambda v: v != int(v))))
        return labels
    labels = np.full(12, ids[0])
    labels[i] = ids[1]
    return labels


_ALPHA = _bad_real(0.0, 1.0)
_LAM = _bad_real(0.0)

# (case, call, name the message carries, strategy of bad values)
_CASES = [
    ("soft_threshold.t", lambda v: P.soft_threshold(np.ones(3), v),
     "threshold", _LAM),
    ("prox_group.c", lambda v: P.prox_group(np.ones(3), v, 0.1), "c", _LAM),
    ("prox_group.l1", lambda v: P.prox_group(np.ones(3), 0.1, v),
     "threshold", _LAM),
    ("SolverConfig.alpha", lambda v: P.SolverConfig(alpha=v), "alpha", _ALPHA),
    ("SolverConfig.tol_kkt", lambda v: P.SolverConfig(tol_kkt=v), "tol_kkt",
     _bad_real(0.0, low_open=True)),
    ("SolverConfig.max_outer_iters",
     lambda v: P.SolverConfig(max_outer_iters=v), "max_outer_iters",
     _bad_int(1)),
    ("SolverConfig.max_prox_iters",
     lambda v: P.SolverConfig(max_prox_iters=v), "max_prox_iters",
     _bad_int(1)),
    ("PliableFit.lam", lambda v: P.PliableFit(0.0, np.zeros(2), np.zeros(3),
                                              {}, lam=v), "lam", _LAM),
    ("PliableFit.alpha", lambda v: P.PliableFit(0.0, np.zeros(2), np.zeros(3),
                                                {}, alpha=v), "alpha", _ALPHA),
    ("PliableFit.beta0", lambda v: P.PliableFit(v, np.zeros(2), np.zeros(3),
                                                {}), "beta0", _NON_FINITE),
    ("fit_single_lambda.lam", lambda v: P.fit_single_lambda(_DATA, v), "lam",
     _LAM),
    ("check_kkt.lam", lambda v: P.check_kkt(_FIT, _DATA, lam=v), "lam", _LAM),
    ("check_kkt.alpha", lambda v: P.check_kkt(_FIT, _DATA, alpha=v), "alpha",
     _ALPHA),
    ("objective.lam", lambda v: P.objective(_FIT, _DATA, lam=v), "lam", _LAM),
    ("objective.alpha", lambda v: P.objective(_FIT, _DATA, alpha=v), "alpha",
     _ALPHA),
    ("lambda_max.alpha", lambda v: P.lambda_max(_DATA, v), "alpha", _ALPHA),
    ("lambda_grid.lam_max", lambda v: P.lambda_grid(v, 5, 0.1), "lam_max",
     _LAM),
    ("lambda_grid.n_lambda", lambda v: P.lambda_grid(1.0, v, 0.1), "n_lambda",
     _bad_int(1)),
    ("lambda_grid.min_ratio", lambda v: P.lambda_grid(1.0, 5, v), "min_ratio",
     _bad_real(0.0, 1.0, low_open=True)),
    ("fit_path.n_lambda", lambda v: P.fit_path(_DATA, n_lambda=v), "n_lambda",
     _bad_int(1)),
    ("fit_path.lambda_min_ratio",
     lambda v: P.fit_path(_DATA, lambda_min_ratio=v), "lambda_min_ratio",
     _bad_real(0.0, 1.0, low_open=True)),
    ("k_fold_cv.n_folds", lambda v: P.k_fold_cv(_DATA, n_folds=v), "n_folds",
     st.one_of(_bad_int(2), st.integers(min_value=13))),
    ("k_fold_cv.seed", lambda v: P.k_fold_cv(_DATA, n_folds=3, seed=v),
     "seed", _bad_int(0)),
    ("k_fold_cv.folds", lambda v: P.k_fold_cv(_DATA, folds=v), "folds",
     _bad_folds()),
    ("covariance_df.sigma",
     lambda v: P.covariance_df(np.ones((3, 4)), np.ones((3, 4)), v), "sigma",
     _bad_real(0.0, low_open=True)),
    ("bootstrap_df.sigma",
     lambda v: P.bootstrap_df(_Y, v, _X, _Z, [0.5, 0.1], n_boot=2), "sigma",
     _bad_real(0.0, low_open=True)),
    ("bootstrap_df.n_boot",
     lambda v: P.bootstrap_df(_Y, 1.0, _X, _Z, [0.5, 0.1], n_boot=v),
     "n_boot", _bad_int(2)),
    ("bootstrap_df.seed",
     lambda v: P.bootstrap_df(_Y, 1.0, _X, _Z, [0.5, 0.1], n_boot=2, seed=v),
     "seed", _bad_int(0)),
    ("UnknownZConfig.lam", lambda v: P.UnknownZConfig(lam=v), "lam", _LAM),
    ("UnknownZConfig.lambda2", lambda v: P.UnknownZConfig(lambda2=v),
     "lambda2", _LAM),
    ("UnknownZConfig.n_cycles", lambda v: P.UnknownZConfig(n_cycles=v),
     "n_cycles", _bad_int(1)),
    ("UnknownZConfig.cv_folds", lambda v: P.UnknownZConfig(cv_folds=v),
     "cv_folds", _bad_int(2)),
    ("UnknownZConfig.n_lambda", lambda v: P.UnknownZConfig(n_lambda=v),
     "n_lambda", _bad_int(1)),
    ("UnknownZConfig.seed", lambda v: P.UnknownZConfig(seed=v), "seed",
     _bad_int(0)),
    ("SimSpec.n_train", lambda v: P.SimSpec("df_null", n_train=v), "n_train",
     _bad_int(1)),
    ("SimSpec.n_test", lambda v: P.SimSpec("df_null", n_test=v), "n_test",
     _bad_int(1)),
    ("SimSpec.p", lambda v: P.SimSpec("df_null", p=v), "p", _bad_int(1)),
    ("SimSpec.k", lambda v: P.SimSpec("df_null", k=v), "k", _bad_int(0)),
    ("SimSpec.seed", lambda v: P.SimSpec("df_null", seed=v), "seed",
     _bad_int(0)),
    ("SimSpec.noise_sd", lambda v: P.SimSpec("df_null", noise_sd=v),
     "noise_sd", _LAM),
    ("run_hte_scenario.seed", lambda v: P.run_hte_scenario("a", seed=v),
     "seed", _bad_int(0)),
    ("run_hte_scenario.n_folds",
     lambda v: P.run_hte_scenario("a", n_folds=v), "n_folds", _bad_int(2)),
]
_INDEX_CASES = [
    ("PathResult.fit_raw.index", lambda v: _PATH.fit_raw(v), "index"),
    ("PathResult.predict.index",
     lambda v: _PATH.predict(_X, _Z, index=v), "index"),
]


@st.composite
def _bad_call(draw):
    label, call, name, values = draw(st.sampled_from(_CASES))
    return label, call, name, draw(values)


@settings(max_examples=300, deadline=None)
@given(case=_bad_call())
def test_bad_numeric_argument_raises_naming_it(case):
    label, call, name, value = case
    with pytest.raises(ValueError) as err:
        out = call(value)
        pytest.fail(f"{label}({value!r}) returned {out!r}")
    assert name in str(err.value), (label, value, str(err.value))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(_INDEX_CASES),
       value=st.one_of(st.integers(max_value=-1), st.integers(min_value=3),
                       st.floats(), _NON_FINITE))
def test_bad_index_raises_and_never_wraps(case, value):
    # every index above has 3 valid values, 0 to 2 (3 levels)
    label, call, name = case
    with pytest.raises(IndexError, match=name):
        out = call(value)
        pytest.fail(f"{label}({value!r}) returned {out!r}")


# (case, call on an X or Z array, the array's name, its column count)
_SHAPE_CASES = [
    ("PathResult.predict.X", lambda a: _PATH.predict(a, _Z), "X", 3),
    ("PathResult.predict.Z", lambda a: _PATH.predict(_X, a), "Z", 2),
    ("predict.X", lambda a: P.predict(_FIT, a, _Z), "X", 3),
    ("predict.Z", lambda a: P.predict(_FIT, _X, a), "Z", 2),
]


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(_SHAPE_CASES),
       shape=st.lists(st.integers(0, 4), max_size=4))
def test_bad_array_shape_raises_naming_it(case, shape):
    # a 1-d X or Z used to raise a bare IndexError in PathResult.predict
    label, call, name, cols = case
    assume(len(shape) != 2 or shape[1] != cols)
    with pytest.raises(P.DimensionError, match=rf"^{name} "):
        out = call(np.ones(shape))
        pytest.fail(f"{label}(shape {shape}) returned {out!r}")


# ---------------------------------------------------------------------------
# read_delimited

_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers().map(str),
    st.sampled_from(["", " ", "nan", "inf", "-Infinity", "1e999", "1,5",
                     "0x10", "1_0", "é", "#", "\"1\"", "1\t2", "--1"]),
    st.text(max_size=4))
_LINES = st.lists(st.lists(_CELLS, min_size=1, max_size=4).map(
    lambda cells: "\t".join(cells)), max_size=6)


def _check_table(path):
    """What read_delimited may do: return a finite (rows, columns) matrix
    under unique names, or raise DataFormatError."""
    try:
        names, mat = read_delimited(path)
    except DataFormatError:
        return
    assert len(set(names)) == len(names)
    assert mat.ndim == 2 and mat.shape[0] >= 1
    assert mat.shape[1] == len(names)
    assert np.isfinite(mat).all()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_LINES, sep=st.sampled_from(["\n", "\r\n"]))
def test_read_delimited_fuzz_text(tmp_path, lines, sep):
    path = tmp_path / "data.tsv"
    path.write_bytes(sep.join(lines).encode("utf-8", "surrogatepass"))
    _check_table(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=64))
@example(raw=b"a\tb\n1\t\xff\n")
@example(raw=b"a,b\n1,2\n\x00,3\n")
def test_read_delimited_fuzz_bytes(tmp_path, raw):
    path = tmp_path / "data.tsv"
    path.write_bytes(raw)
    _check_table(path)


# ---------------------------------------------------------------------------
# load_model

_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.integers(),
    st.floats(), st.text(max_size=3), st.just([]), st.just({}),
    st.lists(st.integers(-2, 5), max_size=3),
    st.lists(st.floats(), max_size=3))


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    cv = P.k_fold_cv(_DATA, n_folds=3, n_lambda=3)
    save_model(path, cv.path, cv=cv, x_columns=["a", "b", "c"],
               z_columns=["u", "v"])
    return json.loads(path.read_text())


def _paths(node, prefix=()):
    """Every key path into a JSON tree, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutations(draw, doc):
    """1 to 3 edits of ``doc``: replace a node by a random JSON value or
    delete it."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        where = draw(st.sampled_from(paths))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[where[-1]] = draw(_JSON_LEAF)
        elif isinstance(parent, dict):
            del parent[where[-1]]
        else:
            parent.pop(where[-1])
    return doc


def _check_model(path):
    """What load_model may do: raise DataFormatError, or return a model
    whose every level predicts finite values on finite rows."""
    try:
        model = load_model(path)
    except DataFormatError:
        return
    fit = model.fits[0]
    X = np.ones((4, fit.n_predictors))
    Z = np.ones((4, fit.n_modifiers)) if fit.n_modifiers else None
    assert 0 <= model.default_index() < model.n_lambdas
    for i in range(model.n_lambdas):
        assert np.isfinite(model.predict(X, Z, index=i)).all()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_model_fuzz(tmp_path, model_doc, data):
    doc = data.draw(_mutations(model_doc))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    _check_model(path)


# ---------------------------------------------------------------------------
# CLI exit codes

# flag -> (valid values, invalid values)
_FLAG_VALUES = {
    "--alpha": (["0", "0.5"], ["1", "-0.1", "nan", "x"]),
    "--nlambda": (["1", "3"], ["0", "-2", "x"]),
    "--lambda-min-ratio": (["0.1"], ["0", "1", "nan", "x"]),
    "--tol": (["1e-4"], ["0", "-1", "nan", "inf"]),
    "--folds": (["2", "3"], ["1", "0", "500", "x"]),
    "--seed": (["0", "3"], ["-1", "x"]),
    "--index": (["0", "2"], ["-1", "99", "x"]),
    "--B": (["2", "3"], ["1", "0", "x"]),
    "--sigma": (["1"], ["0", "-1", "nan", "inf"]),
    "--cycles": (["1"], ["0", "-1", "x"]),
    "--lam": (["0.05", "0"], ["-1", "nan", "inf"]),
    "--lambda2": (["0.1", "0"], ["-1", "nan"]),
    "--y-col": (["y", "x1", "nope"], []),
    "--z-cols": (["z1", "x1,z1", "nope", "y"], []),
}
# the flags each subcommand may take, besides its files
_COMMANDS = {
    "fit": ["--alpha", "--nlambda", "--lambda-min-ratio", "--tol", "--y-col",
            "--z-cols"],
    "cv": ["--alpha", "--nlambda", "--lambda-min-ratio", "--tol", "--folds",
           "--seed", "--y-col", "--z-cols"],
    "predict": ["--index"],
    "simulate": ["--seed"],
    "df": ["--B", "--sigma", "--alpha", "--seed"],
    "unknownz": ["--cycles", "--lam", "--lambda2", "--alpha", "--folds",
                 "--seed", "--y-col"],
    "hte": ["--seed", "--folds"],
}
_FILES = ("good", "test", "missing", "binary", "ragged", "nan_cell", "model",
          "bad_model")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(5)

    def table(path, n, with_y=True):
        X = rng.standard_normal((n, 3))
        z = rng.integers(0, 2, n).astype(float)
        cols = ["x1", "x2", "x3", "z1"]
        rows = np.column_stack([X, z])
        if with_y:
            cols = ["y"] + cols
            rows = np.column_stack([X[:, 0] * (1 + z) + rng.standard_normal(n),
                                    rows])
        path.write_text("\t".join(cols) + "\n" + "\n".join(
            "\t".join(repr(float(v)) for v in row) for row in rows) + "\n")

    files = {name: root / f"{name}.tsv" for name in _FILES}
    table(files["good"], 24)
    table(files["test"], 12, with_y=False)
    files["binary"].write_bytes(b"y\tx1\n\xff\xfe\t1\n")
    files["ragged"].write_text("y\tx1\tz1\n1\t2\n")
    files["nan_cell"].write_text("y\tx1\tz1\n1\t2\t0\n2\tnan\t1\n")
    files["model"] = root / "model.json"
    assert cli.main(["fit", "--data", str(files["good"]), "--z-cols", "z1",
                     "--nlambda", "3", "--model", str(files["model"])]) == 0
    files["bad_model"] = root / "bad_model.json"
    files["bad_model"].write_text('{"schema_version": 1, "alpha": 2}')
    files["missing"] = root / "missing.tsv"
    files["out"] = root
    return files


@st.composite
def _argv(draw, files):
    """(argv, a flag value is invalid, an input file is bad)."""
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    out = files["out"]
    argv = [cmd]
    data = draw(st.sampled_from(_FILES))
    bad_file = data not in ("good", "test")
    if cmd in ("fit", "cv"):
        argv += ["--data", str(files[data]), "--model", str(out / "m.json")]
        argv += ["--output", str(out / "cv.tsv")] if cmd == "cv" else []
    elif cmd == "predict":
        model = draw(st.sampled_from(["model", "bad_model", "missing",
                                      "good"]))
        bad_file = bad_file or model != "model"
        argv += ["--model", str(files[model]), "--data", str(files[data]),
                 "--output", str(out / "pred.tsv")]
    elif cmd == "simulate":
        bad_file = False
        argv += ["--spec", "df_null", "--prefix", str(out / "sim")]
    elif cmd == "df":
        bad_file = False
        argv += ["--nlambda", "2", "--output", str(out / "df.tsv")]
    elif cmd == "unknownz":
        argv += ["--data", str(files[data]), "--nlambda", "3",
                 "--output", str(out / "uz.tsv")]
    else:
        bad_file = False
        argv += ["--scenario", "a", "--nlambda", "3",
                 "--output", str(out / "hte.tsv")]
    bad_flag = False
    picked = {}
    for flag in _COMMANDS[cmd]:
        if draw(st.booleans()):
            valid, invalid = _FLAG_VALUES[flag]
            value = picked[flag] = draw(st.sampled_from(valid + invalid))
            bad_flag = bad_flag or value in invalid
            argv += [flag, value]
    if cmd in ("fit", "cv", "unknownz"):
        # a named column the file lacks is a data error, and so is one
        # named twice, as response and modifier; the test rows have no
        # response column y, as response (the default) or as a modifier
        columns = {"x1", "x2", "x3", "z1"} | ({"y"} if data == "good" else set())
        named = [picked.get("--y-col", "y")] + [
            c for c in picked.get("--z-cols", "").split(",") if c]
        bad_file = bad_file or not columns.issuperset(named) \
            or len(set(named)) < len(named)
    # keep the built-in experiments small
    if cmd in ("hte", "unknownz") and "--folds" not in argv:
        argv += ["--folds", "2"]
    if cmd == "df" and "--B" not in argv:
        argv += ["--B", "2"]
    return argv, bad_flag, bad_file


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes_fuzz(cli_files, cpus, capsys, data):
    # one CPU: bootstrap replicates and CV folds are refit in-process
    cpus(1)
    argv, bad_flag, bad_file = data.draw(_argv(cli_files))
    rc = cli.main(argv)
    err = capsys.readouterr().err
    # usage errors exit 1, data errors 2 and convergence failures 3; which
    # of a bad flag and a bad file is met first depends on the command
    if bad_flag:
        assert rc in ((1, 2) if bad_file else (1,)), (argv, rc, err)
    elif bad_file:
        assert rc == 2, (argv, rc, err)
    else:
        assert rc in (0, 2, 3), (argv, rc, err)
    if rc:
        assert err.strip(), argv  # every failure says why on stderr
    else:
        assert not err, argv
