"""The benchmark workloads.

Each workload makes the input of operation ``i`` from the run seed (outside
the timed region), runs one user operation on it (timed), counts the
penalty-level fits the operation produced, and checks the output against a
reference it computes itself from the public API (outside the timed region).
Layer functions are always looked up through their module at call time, so
span wrappers installed on the module attributes see every call.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from plasso import cli, extras, io, model, path, preprocess, simulate, solver

CONFIG = solver.SolverConfig()  # what the CLI uses with its default flags


def op_seed(seed: int, stream: int, i: int) -> int:
    """Seed of input ``i`` of ``stream`` (0 warm-up, 1 measured) of a run."""
    return int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0])


def corrupted(expected: dict) -> dict:
    """A deliberately wrong copy of a reference: every value is moved."""
    return {k: (set(v) | {-1}) if isinstance(v, (set, frozenset)) else v + 1
            for k, v in expected.items()}


def _max_kkt(result, data) -> float:
    """Largest KKT violation of every fit of a path, recomputed by check_kkt
    on the standardized data the fits live on."""
    std, _ = preprocess.standardize(data, CONFIG.standardize_x,
                                    CONFIG.standardize_z, CONFIG.center_y)
    return max(solver.check_kkt(f, std).max_violation for f in result.fits)


def _fit_bytes(fits) -> bytes:
    h = hashlib.sha256()
    for f in fits:
        for a in (np.float64(f.beta0), f.theta0, f.beta, f.theta):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.digest()


def _compare(failures, label, got, want, rtol=1e-9, atol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol,
                                                  atol=atol):
        failures.append(f"{label} differs from the reference")


class Workload:
    """What run.py needs from a workload.

    ``make_input(stream, i)`` builds the input of operation ``i``, ``run``
    is the timed user operation, ``n_fits`` counts the penalty-level fits
    in its output, ``digest`` condenses the output to bytes for exact
    comparison, and ``check`` returns the problems found against the
    reference.  ``prepare`` writes what set-up must write; a measured run
    covers a multiple of ``cycle`` operations; a traced run covers
    ``trace_ops``.
    """

    cycle = 1

    def prepare(self):
        pass


class BootDf(Workload):
    """bootstrap_df with B draws on df_null over a fixed grid.

    The joint prox loop dominates and lambda_max is never called, because
    the grid is given.  The reference redraws the B responses, refits each
    path, certifies every fit and recomputes df_cov by the covariance
    formula.
    """

    name = "boot_df"
    sigma = 1.0

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.n_boot = 2 if tiny else 5
        self.grid = np.geomspace(0.3, 0.003, 5 if tiny else 20)
        self.trace_ops = 1 if tiny else 3

    def make_input(self, stream: int, i: int):
        s = op_seed(self.seed, stream, i)
        sim = simulate.generate(simulate.SimSpec("df_null", seed=s))
        return {"seed": s, "mu": sim.truth.mu_train, "X": sim.train.X,
                "Z": sim.train.Z}

    def run(self, inp):
        return extras.bootstrap_df(inp["mu"], self.sigma, inp["X"], inp["Z"],
                                   self.grid, CONFIG, n_boot=self.n_boot,
                                   seed=inp["seed"])

    def n_fits(self, out) -> int:
        return out.bootstrap_reps * out.lambdas.size

    def digest(self, out) -> bytes:
        return b"".join(np.asarray(a).tobytes() for a in (
            out.lambdas, out.df_cov, out.n_nonzero_beta, out.n_nonzero_all))

    def check(self, inp, out, corrupt=False) -> list:
        mu, X, Z = inp["mu"], inp["X"], inp["Z"]
        rng = np.random.default_rng(inp["seed"])
        ys, yhats, kkt = [], [], 0.0
        nz = np.zeros(self.grid.size)
        for _ in range(self.n_boot):
            y = mu + self.sigma * rng.standard_normal(mu.shape[0])
            data = model.Dataset(y, X, Z)
            fitted = path.fit_path(data, CONFIG, lambdas=self.grid)
            kkt = max(kkt, _max_kkt(fitted, data))
            ys.append(y)
            yhats.append(fitted.predict(X, Z))
            nz += [f.n_nonzero_beta for f in fitted.fits]
        Y, H = np.array(ys), np.array(yhats)
        cov = ((Y - Y.mean(axis=0))[:, :, None] * (H - H.mean(axis=0))).sum(
            axis=(0, 1)) / (self.n_boot - 1)
        want = {"df_cov": cov / self.sigma ** 2,
                "n_nonzero_beta": np.rint(nz / self.n_boot).astype(int)}
        if corrupt:
            want = corrupted(want)
        failures = []
        if kkt > CONFIG.tol_kkt:
            failures.append(f"refit KKT violation {kkt:.3g}")
        _compare(failures, "df_cov", out.df_cov, want["df_cov"], atol=1e-9)
        _compare(failures, "n_nonzero_beta", out.n_nonzero_beta,
                 want["n_nonzero_beta"], rtol=0, atol=0)
        _compare(failures, "lambdas", out.lambdas, self.grid, rtol=0, atol=0)
        return failures


class WidePath(Workload):
    """One fit_path on a Gaussian p >> N design with planted effects.

    lambda_max and the screening sweep over all groups dominate, with few
    joint solves.  The reference is the planted truth: every planted main
    effect and interaction row is active at the end of the path, the first
    level is all-zero, and every fit passes check_kkt.
    """

    name = "wide_path"
    main_coef = np.array([2.0, -2.0, 1.5, -1.5, 2.0])

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.n, self.p, self.k = (100, 200, 2) if tiny else (200, 2000, 4)
        self.n_lambda = 10 if tiny else 50
        self.trace_ops = 2 if tiny else 10

    def make_input(self, stream: int, i: int):
        rng = np.random.default_rng(op_seed(self.seed, stream, i))
        X = rng.standard_normal((self.n, self.p))
        Z = rng.standard_normal((self.n, self.k))
        mains = rng.choice(self.p, self.main_coef.size, replace=False)
        mu = X[:, mains] @ self.main_coef
        mu += 2.0 * X[:, mains[0]] * Z[:, 0] \
            - 1.5 * X[:, mains[1]] * Z[:, self.k - 1]
        y = mu + rng.standard_normal(self.n)
        return {"data": model.Dataset(y, X, Z),
                "support": {int(j) for j in mains},
                "theta_rows": {int(mains[0]), int(mains[1])}}

    def run(self, inp):
        return path.fit_path(inp["data"], CONFIG, n_lambda=self.n_lambda)

    def n_fits(self, out) -> int:
        return len(out.fits)

    def digest(self, out) -> bytes:
        return out.lambdas.tobytes() + _fit_bytes(out.fits)

    def check(self, inp, out, corrupt=False) -> list:
        want = {"support": inp["support"], "theta_rows": inp["theta_rows"],
                "first_support_size": 0, "n_lambda": self.n_lambda}
        if corrupt:
            want = corrupted(want)
        failures = []
        if len(out.fits) != want["n_lambda"]:
            failures.append(f"{len(out.fits)} fits, not {want['n_lambda']}")
            return failures
        kkt = _max_kkt(out, inp["data"])
        if kkt > CONFIG.tol_kkt:
            failures.append(f"KKT violation {kkt:.3g}")
        if len(out.fits[0].active_groups) != want["first_support_size"]:
            failures.append("first level is not the all-zero fit")
        last = out.fits[-1]
        if not want["support"] <= set(last.active_groups):
            failures.append("a planted main effect was not recovered")
        if not want["theta_rows"] <= set(last.theta_rows):
            failures.append("a planted interaction row was not recovered")
        return failures


class CliCvHte(Workload):
    """`plasso cv` then `plasso predict`, in-process, on hte_a TSV files.

    The binary treatment is the only modifier (K = 1).  Set-up writes the
    input files with `plasso simulate`.  The reference reruns the documented
    CV (same fold shuffle, same grid) through the library API, certifies
    every fold and full-data fit, and predicts the test rows with
    load_model.
    """

    name = "cli_cv_hte"
    # CV cost differs 3.5x between hte_a draws (0.33 to 1.19 s measured),
    # more than one run can average out, so the datasets are a fixed panel
    # that every run cycles through whole; the run seed picks each
    # operation's fold shuffle, which moves the cost by 2 to 4 percent
    panel = (1, 2, 3, 4, 5)
    outputs = ("model.json", "cv.tsv", "pred.tsv")

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.folds = 3 if tiny else 10
        self.n_lambda = 10 if tiny else 50
        if tiny:
            self.panel = self.panel[:2]
        self.cycle = self.trace_ops = len(self.panel)
        self.dir = workdir

    def _file(self, tag: str) -> str:
        return str(self.dir / tag)

    def prepare(self):
        """Write the panel's TSV files with `plasso simulate`."""
        for k, s in enumerate(self.panel):
            prefix = self._file(f"d{k}")
            for tag in ("train", "test", "truth"):
                Path(f"{prefix}_{tag}.tsv").unlink(missing_ok=True)
            rc = cli.main(["simulate", "--spec", "hte_a", "--seed", str(s),
                           "--prefix", prefix])
            if rc != 0:
                raise RuntimeError(f"plasso simulate exited with {rc}")

    def make_input(self, stream: int, i: int):
        # remove the last outputs so the CLI writes new files: on ext4,
        # truncating and rewriting a file flushes it to disk on close,
        # which costs tens of milliseconds of device latency per file
        for tag in self.outputs:
            Path(self._file(tag)).unlink(missing_ok=True)
        k = i % len(self.panel)
        return {"train": self._file(f"d{k}_train.tsv"),
                "test": self._file(f"d{k}_test.tsv"),
                "seed": op_seed(self.seed, stream, i)}

    def run(self, inp):
        rc_cv = cli.main([
            "cv", "--data", inp["train"], "--y-col", "y",
            "--z-cols", "z1", "--folds", str(self.folds),
            "--nlambda", str(self.n_lambda), "--seed", str(inp["seed"]),
            "--model", self._file("model.json"),
            "--output", self._file("cv.tsv")])
        if rc_cv != 0:
            return {"rc": (rc_cv, None)}
        rc_pred = cli.main(["predict", "--model", self._file("model.json"),
                            "--data", inp["test"],
                            "--output", self._file("pred.tsv")])
        return {"rc": (rc_cv, rc_pred)}

    def n_fits(self, out) -> int:
        if out["rc"] != (0, 0):
            return 0
        with open(self._file("model.json")) as fh:
            n_levels = len(json.load(fh)["lambdas"])
        return (self.folds + 1) * n_levels

    def digest(self, out) -> bytes:
        h = hashlib.sha256(repr(out["rc"]).encode())
        if out["rc"] == (0, 0):
            for tag in self.outputs:
                h.update(Path(self._file(tag)).read_bytes())
        return h.digest()

    def _reference_cv(self, data, fold_seed):
        """k_fold_cv as documented: one grid from the full-data path, rows
        shuffled into near-equal folds by the seed, every fold refit on the
        grid and scored on its held-out rows."""
        full = path.fit_path(data, CONFIG, n_lambda=self.n_lambda)
        kkt = _max_kkt(full, data)
        n = data.n_samples
        ids = np.empty(n, dtype=int)
        perm = np.random.default_rng(fold_seed).permutation(n)
        for f, chunk in enumerate(np.array_split(perm, self.folds)):
            ids[chunk] = f
        errs = np.empty((self.folds, full.lambdas.size))
        for f in range(self.folds):
            test = ids == f
            sub = model.Dataset(data.y[~test], data.X[~test], data.Z[~test])
            fold = path.fit_path(sub, CONFIG, lambdas=full.lambdas)
            kkt = max(kkt, _max_kkt(fold, sub))
            preds = fold.predict(data.X[test], data.Z[test])
            errs[f] = ((data.y[test, None] - preds) ** 2).mean(axis=0)
        cv_mean = errs.mean(axis=0)
        cv_se = errs.std(axis=0, ddof=1) / np.sqrt(self.folds)
        idx_min = int(np.argmin(cv_mean))
        idx_1se = int(np.nonzero(cv_mean <= cv_mean[idx_min]
                                 + cv_se[idx_min])[0][0])
        return full, cv_mean, idx_min, idx_1se, kkt

    def check(self, inp, out, corrupt=False) -> list:
        if out["rc"] != (0, 0):
            return [f"CLI exit codes {out['rc']}"]
        names, mat = io.read_delimited(inp["train"])
        y, X, Z, _ = io.split_columns(names, mat, y_col="y", z_cols=["z1"])
        data = model.Dataset(y, X, Z)
        full, cv_mean, idx_min, idx_1se, kkt = self._reference_cv(
            data, inp["seed"])
        saved = io.load_model(self._file("model.json"))
        names, mat = io.read_delimited(inp["test"])
        col = {c: i for i, c in enumerate(names)}
        X_test = mat[:, [col[c] for c in saved.x_columns]]
        Z_test = mat[:, [col["z1"]]]
        want = {"idx_min": idx_min, "idx_1se": idx_1se, "cv_mean": cv_mean,
                "selected_theta_rows": set(full.fits[idx_min].theta_rows),
                "predictions": saved.predict(X_test, Z_test)}
        if corrupt:
            want = corrupted(want)
        failures = []
        if kkt > CONFIG.tol_kkt:
            failures.append(f"reference KKT violation {kkt:.3g}")
        if (saved.cv["idx_min"], saved.cv["idx_1se"]) != \
                (want["idx_min"], want["idx_1se"]):
            failures.append("CV selection differs from the reference")
        _compare(failures, "cv_mean", saved.cv["cv_mean"], want["cv_mean"])
        _compare(failures, "lambdas", saved.lambdas, full.lambdas)
        for i, fit in enumerate(saved.fits):
            ref = full.fit_raw(i)
            for part in ("beta0", "theta0", "beta", "theta"):
                _compare(failures, f"level {i} {part}", getattr(fit, part),
                         getattr(ref, part))
        comments = [ln for ln in Path(self._file("cv.tsv")).read_text()
                    .splitlines() if ln.startswith("# selected_theta_rows")]
        label = comments[0].split("\t")[1] if comments else "?"
        got_rows = set() if label == "-" else \
            {int(j) for j in label.split(",")}
        if got_rows != want["selected_theta_rows"]:
            failures.append("selected theta rows differ from the reference")
        _, pred = io.read_delimited(self._file("pred.tsv"))
        _compare(failures, "predictions", pred[:, 0], want["predictions"],
                 rtol=1e-12)
        return failures


WORKLOADS = {cls.name: cls for cls in (BootDf, WidePath, CliCvHte)}
