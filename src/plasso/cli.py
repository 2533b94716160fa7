"""Command-line interface.

Subcommands cover the whole workflow: ``fit`` and ``cv`` estimate paths from
delimited text, ``predict`` applies a saved model, ``simulate`` writes the
built-in benchmark datasets, and ``df``/``unknownz``/``hte`` run the bundled
experiments.  Every table written starts with a ``#`` comment holding the
exact invocation.

Exit codes: 0 success, 1 usage error, 2 data error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cv import _check_n_folds, k_fold_cv
from .extras import bootstrap_df, fit_unknown_z, run_hte_scenario, UnknownZConfig
from .io import (DataFormatError, load_model, read_delimited, save_model,
                 split_columns, write_table)
from .model import Dataset, DimensionError
from .path import _check_min_ratio, fit_path
from .preprocess import StandardizationError
from .simulate import SPEC_NAMES, SimSpec, generate
from .solver import ConvergenceError, SolverConfig


def _solver_config(args) -> SolverConfig:
    kwargs = {"alpha": args.alpha, "tol_kkt": args.tol}
    if args.no_standardize:
        kwargs.update(standardize_x=False, standardize_z=False, center_y=False)
    return SolverConfig(**kwargs)


def _read_dataset(args):
    """Assemble (Dataset, x_names, z_names) from --data/--z-cols/--z-file."""
    names, mat = read_delimited(args.data)
    z_cols = [c.strip() for c in args.z_cols.split(",")] if args.z_cols else []
    y, X, Z, x_names = split_columns(names, mat, y_col=args.y_col,
                                     z_cols=z_cols)
    z_names = list(z_cols)
    if args.z_file:
        z_names, Z = read_delimited(args.z_file)
        if Z.shape[0] != X.shape[0]:
            raise DimensionError(
                f"{args.z_file} has {Z.shape[0]} rows, {args.data} has "
                f"{X.shape[0]}")
    return Dataset(y, X, Z), x_names, z_names


def _theta_row_label(fit) -> str:
    return ",".join(str(j) for j in sorted(fit.theta_rows)) or "-"


def _metrics_rows(result, y, yhat_all):
    rows = []
    for i, fit in enumerate(result.fits):
        d = result.diagnostics[i]
        mse = float(((yhat_all[:, i] - y) ** 2).mean())
        rows.append([result.lambdas[i], fit.n_nonzero_beta,
                     len(fit.theta_rows), fit.n_nonzero_coefficients,
                     d.n_passes, d.kkt_max, d.n_prox_capped, mse,
                     _theta_row_label(fit)])
    return rows


_METRIC_NAMES = ["lambda", "n_beta", "n_theta_rows", "n_nonzero", "n_passes",
                 "kkt_max", "n_prox_capped", "train_mse", "theta_rows"]


def cmd_fit(args, invocation):
    data, x_names, z_names = _read_dataset(args)
    cfg = _solver_config(args)
    result = fit_path(data, cfg, n_lambda=args.nlambda,
                      lambda_min_ratio=args.lambda_min_ratio)
    save_model(args.model, result, invocation=invocation,
               x_columns=x_names, z_columns=z_names)
    if args.metrics:
        yhat = result.predict(data.X, data.Z)
        write_table(args.metrics, _METRIC_NAMES,
                    _metrics_rows(result, data.y, yhat), invocation)
    return 0


def cmd_cv(args, invocation):
    data, x_names, z_names = _read_dataset(args)
    _check_n_folds(args.folds, data.n_samples, "--folds")
    cfg = _solver_config(args)
    cv = k_fold_cv(data, cfg, n_folds=args.folds, seed=args.seed,
                   n_lambda=args.nlambda,
                   lambda_min_ratio=args.lambda_min_ratio)
    save_model(args.model, cv.path, cv=cv, invocation=invocation,
               x_columns=x_names, z_columns=z_names)
    sel = cv.path.fits[cv.idx_min]
    comments = [
        f"lambda_min\t{cv.lam_min!r}\tidx_min\t{cv.idx_min}",
        f"lambda_1se\t{cv.lam_1se!r}\tidx_1se\t{cv.idx_1se}",
        f"selected_theta_rows\t{_theta_row_label(sel)}",
    ]
    rows = [[cv.lambdas[i], cv.cv_mean[i], cv.cv_se[i],
             cv.path.fits[i].n_nonzero_beta,
             _theta_row_label(cv.path.fits[i])]
            for i in range(len(cv.lambdas))]
    write_table(args.output, ["lambda", "cv_mean", "cv_se", "n_beta",
                              "theta_rows"], rows, invocation, comments)
    return 0


def _named_columns(names, mat, want, default=None):
    """The columns of ``mat`` named in ``want``, in that order, if ``want``
    is nonempty and ``names`` holds every one of them; else ``default``."""
    if want and all(c in names for c in want):
        idx = {c: i for i, c in enumerate(names)}
        return mat[:, [idx[c] for c in want]]
    return default


def cmd_predict(args, invocation):
    model = load_model(args.model)
    names, mat = read_delimited(args.data)
    p = len(model.fits[0].beta)
    X = _named_columns(names, mat, model.x_columns,
                       mat if mat.shape[1] == p else None)
    if X is None:
        raise DataFormatError(
            f"{args.data}: cannot locate the {p} model predictors "
            f"(columns {model.x_columns}) among {', '.join(names)}")
    Z = None
    k = model.fits[0].n_modifiers
    if k:
        if args.z_file:
            z_names, z_mat = read_delimited(args.z_file)
            Z = _named_columns(z_names, z_mat, model.z_columns, z_mat)
        else:
            Z = _named_columns(names, mat, model.z_columns)
        if Z is None:
            raise DataFormatError(
                f"model expects {k} modifier columns "
                f"({model.z_columns}); pass --z-file or include them")
    yhat = model.predict(X, Z, index=args.index)
    out = args.output if args.output else sys.stdout
    write_table(out, ["prediction"], [[v] for v in yhat], invocation)
    return 0


def _sim_table(ds):
    names = ["y"] + [f"x{j + 1}" for j in range(ds.n_predictors)] + \
        [f"z{j + 1}" for j in range(ds.n_modifiers)]
    return names, np.hstack([ds.y[:, None], ds.X, ds.Z])


def cmd_simulate(args, invocation):
    sim = generate(SimSpec(args.spec, seed=args.seed))
    for tag, ds in (("train", sim.train), ("test", sim.test)):
        names, mat = _sim_table(ds)
        write_table(f"{args.prefix}_{tag}.tsv", names, mat, invocation)
    truth = sim.truth
    names = ["split", "mu"]
    n_tr, n_te = sim.train.n_samples, sim.test.n_samples
    cols = [np.concatenate([np.zeros(n_tr), np.ones(n_te)]),
            np.concatenate([truth.mu_train, truth.mu_test])]
    if truth.effect_train is not None:
        names.append("effect")
        cols.append(np.concatenate([truth.effect_train, truth.effect_test]))
    if truth.z_train is not None:
        names.append("z")
        cols.append(np.concatenate([truth.z_train, truth.z_test]))
    write_table(f"{args.prefix}_truth.tsv", names, np.column_stack(cols),
                invocation)
    return 0


def cmd_df(args, invocation):
    sim = generate(SimSpec(args.spec, seed=args.seed))
    spec = sim.spec
    sigma = args.sigma if args.sigma is not None else spec.noise_sd
    cfg = SolverConfig(alpha=args.alpha)
    train = sim.train
    ref = fit_path(train, cfg, n_lambda=args.nlambda)
    est = bootstrap_df(sim.truth.mu_train, sigma, train.X, train.Z,
                       ref.lambdas, cfg, n_boot=args.B, seed=args.seed + 1)
    rows = [[est.lambdas[i], est.df_cov[i], est.n_nonzero_beta[i],
             est.n_nonzero_all[i]] for i in range(est.lambdas.size)]
    write_table(args.output, ["lambda", "df_cov", "n_beta", "n_nonzero"],
                rows, invocation, [f"bootstrap_reps\t{est.bootstrap_reps}",
                                   f"sigma\t{sigma!r}"])
    return 0


def cmd_unknownz(args, invocation):
    # the settings are checked before the data is read
    cfg = UnknownZConfig(n_cycles=args.cycles, lambda2=args.lambda2,
                         lam=args.lam, cv_folds=args.folds,
                         n_lambda=args.nlambda, seed=args.seed)
    names, mat = read_delimited(args.data)
    y, X, _, _ = split_columns(names, mat, y_col=args.y_col)
    res = fit_unknown_z(Dataset(y, X, None), cfg, SolverConfig(alpha=args.alpha))
    comments = [f"lambda\t{res.lam!r}", f"lambda2\t{res.lambda2!r}"]
    comments += [f"objective\t{label}\t{value!r}"
                 for label, value in res.objective_trace]
    comments += [f"warning\t{w}" for w in res.warnings]
    rows = [[j, res.gamma[j]] for j in range(res.gamma.size)]
    write_table(args.output, ["predictor", "gamma"], rows, invocation,
                comments)
    return 0


def cmd_hte(args, invocation):
    res = run_hte_scenario(args.scenario, seed=args.seed,
                           n_folds=args.folds, n_lambda=args.nlambda)
    rows = [[i, res.tau_true[i], res.tau_hat[i]]
            for i in range(res.tau_true.size)]
    write_table(args.output, ["row", "effect_true", "effect_fit"], rows,
                invocation, [f"r_squared\t{res.r_squared!r}",
                             f"lambda\t{res.lam!r}"])
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with status 2; this tool reserves 2 for
    data errors, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_data_flags(p, with_z=True):
    p.add_argument("--data", required=True, help="delimited file with header")
    p.add_argument("--y-col", default="y", help="response column name")
    if with_z:
        g = p.add_mutually_exclusive_group()
        g.add_argument("--z-cols",
                       help="comma-separated modifier column names in --data")
        g.add_argument("--z-file", help="separate file of modifier columns")


def _min_ratio(text):
    """--lambda-min-ratio, checked while parsing so the error names the flag."""
    try:
        return _check_min_ratio(text, "the ratio")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_solver_flags(p):
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--nlambda", type=int, default=50)
    p.add_argument("--lambda-min-ratio", type=_min_ratio, default=None)
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="the only stopping tolerance: a fit is returned "
                        "once no KKT (subgradient) violation exceeds it")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="plasso",
                  description="Lasso with interaction terms that let chosen "
                              "modifier variables reshape each coefficient.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a penalty path")
    _add_data_flags(p)
    _add_solver_flags(p)
    p.add_argument("--model", required=True, help="output model file (JSON)")
    p.add_argument("--metrics", help="optional per-lambda metrics table")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cv", help="cross-validated fit")
    _add_data_flags(p)
    _add_solver_flags(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True, help="CV table")
    p.add_argument("--seed", type=int, default=0, help="fold shuffle seed")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("predict", help="predict from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--z-file")
    p.add_argument("--index", type=int, default=None,
                   help="path index (default: CV minimum, else last)")
    p.add_argument("--output", help="default: stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="write a built-in benchmark dataset")
    p.add_argument("--spec", required=True, choices=sorted(SPEC_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix", default="sim")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("df", help="bootstrap degrees-of-freedom table")
    p.add_argument("--spec", default="df_null", choices=sorted(SPEC_NAMES))
    p.add_argument("--B", type=int, default=200, help="bootstrap replicates")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--nlambda", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_df)

    p = sub.add_parser("unknownz",
                       help="learn a single modifier as a linear score of X")
    p.add_argument("--data", required=True)
    p.add_argument("--y-col", default="y")
    p.add_argument("--cycles", type=int, default=2)
    p.add_argument("--lam", type=float, default=None,
                   help="fix the sparsity penalty instead of choosing by CV")
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--nlambda", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_unknownz)

    p = sub.add_parser("hte", help="heterogeneous treatment effect benchmark")
    p.add_argument("--scenario", required=True, choices=["a", "b", "c"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--nlambda", type=int, default=50)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_hte)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    invocation = "plasso " + " ".join(argv)
    try:
        return args.func(args, invocation)
    except (DataFormatError, StandardizationError, DimensionError) as exc:
        print(f"plasso: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"plasso: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"plasso: no convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError) as exc:
        print(f"plasso: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
