"""Bootstrap degrees of freedom, per-observation treatment effects, and the
alternating fit when the modifying variable is an unobserved linear score.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cv import k_fold_cv
from .model import (Dataset, DimensionError, PliableFit, _check_cells,
                    _check_int, objective, predict)
from .preprocess import StandardizationMap, standardize
from .path import _check_grid, _map_paths, fit_path
from .simulate import SimSpec, generate
from .solver import SolverConfig, fit_single_lambda

__all__ = [
    "DfEstimate",
    "covariance_df",
    "bootstrap_df",
    "treatment_effect",
    "HteResult",
    "run_hte_scenario",
    "UnknownZConfig",
    "UnknownZResult",
    "fit_unknown_z",
]


# ---------------------------------------------------------------------------
# degrees of freedom


@dataclass(frozen=True)
class DfEstimate:
    """Covariance-based df per penalty level, with mean support sizes
    (rounded across bootstrap replicates) for comparison."""

    lambdas: np.ndarray
    df_cov: np.ndarray
    n_nonzero_beta: np.ndarray
    n_nonzero_all: np.ndarray
    bootstrap_reps: int


def _check_sigma(sigma):
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def covariance_df(y_draws, yhat_draws, sigma: float) -> float:
    """df = sum_i Cov(y_i, yhat_i) / sigma^2 with sample covariances across
    replicate draws (rows)."""
    _check_sigma(sigma)
    y = np.asarray(y_draws, dtype=float)
    yh = np.asarray(yhat_draws, dtype=float)
    if y.shape != yh.shape or y.ndim != 2 or y.shape[0] < 2:
        raise ValueError("need matching (B, N) draw matrices with B >= 2")
    for name, draws in (("y_draws", y), ("yhat_draws", yh)):
        if not np.isfinite(draws).all():
            raise ValueError(f"{name} contains non-finite entries")
    yc = y - y.mean(axis=0)
    yhc = yh - yh.mean(axis=0)
    cov = (yc * yhc).sum(axis=0) / (y.shape[0] - 1)
    return float(cov.sum()) / sigma ** 2


def _replicate(data, cfg, grid, y):
    """One bootstrap refit of ``data`` with response ``y``: its in-sample
    predictions (N, n_lambdas) and its support sizes per level."""
    path = fit_path(Dataset(y, data.X, data.Z), cfg, lambdas=grid)
    return (path.predict(data.X, data.Z),
            [fit.n_nonzero_beta for fit in path.fits],
            [fit.n_nonzero_coefficients for fit in path.fits])


def bootstrap_df(mu, sigma: float, X, Z, lambda_grid, config=None,
                 n_boot: int = 200, seed: int = 0) -> DfEstimate:
    """Estimate df along a fixed penalty grid by the parametric bootstrap
    y = mu + sigma * eps, refitting the path for each draw.

    The draws are made here in replicate order; the refits run in worker
    processes, one per CPU (see ``path._map_paths``), with results
    identical to refitting them in turn."""
    _check_sigma(sigma)
    if not isinstance(n_boot, numbers.Integral) or n_boot < 2:
        raise ValueError(
            f"n_boot must be an integer >= 2 bootstrap draws, got {n_boot!r}")
    _check_int(seed, "seed", 0)
    mu = np.asarray(mu, dtype=float)
    if not np.isfinite(mu).all():
        raise ValueError("mu contains non-finite entries")
    data = Dataset(mu, X, Z)  # checks X and Z before any refit
    grid = _check_grid(lambda_grid, "lambda_grid")
    cfg = config if config is not None else SolverConfig()
    # row b is replicate b's draw, the same stream as n_boot draws of N
    ys = mu + sigma * np.random.default_rng(seed).standard_normal(
        (n_boot, mu.shape[0]))
    reps = _map_paths(partial(_replicate, data, cfg, grid), ys)
    yhats = np.array([r[0] for r in reps])
    nz_beta = np.array([r[1] for r in reps]).sum(axis=0)
    nz_all = np.array([r[2] for r in reps]).sum(axis=0)
    df = np.array([covariance_df(ys, yhats[:, :, i], sigma)
                   for i in range(grid.size)])
    return DfEstimate(
        lambdas=grid, df_cov=df,
        n_nonzero_beta=np.rint(nz_beta / n_boot).astype(int),
        n_nonzero_all=np.rint(nz_all / n_boot).astype(int),
        bootstrap_reps=n_boot)


# ---------------------------------------------------------------------------
# treatment effects (K = 1, binary modifier)


def treatment_effect(fit: PliableFit, X) -> np.ndarray:
    """Per-row effect of switching the single modifier from 0 to 1:

        tau(x) = theta0 + x . theta[:, 0]

    which equals predict(fit, X, Z=1) - predict(fit, X, Z=0).  The fit must
    be in the coordinates X is given in (destandardize first for raw X).
    """
    if fit.n_modifiers != 1:
        raise DimensionError(
            f"treatment_effect needs exactly one modifier, fit has {fit.n_modifiers}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fit.n_predictors:
        raise DimensionError(
            f"X has shape {X.shape}, fit expects (n, {fit.n_predictors})")
    _check_cells("X", X)
    tau = np.full(X.shape[0], float(fit.theta0[0]))
    for j, row in fit.theta_rows.items():
        tau += X[:, j] * row[0]
    return tau


@dataclass(frozen=True)
class HteResult:
    scenario: str
    seed: int
    r_squared: float
    tau_hat: np.ndarray
    tau_true: np.ndarray
    lam: float


def run_hte_scenario(scenario: str, seed: int = 0,
                     config: SolverConfig | None = None,
                     n_folds: int = 10, n_lambda: int = 50) -> HteResult:
    """Generate one heterogeneous-effect dataset (scenario 'a', 'b' or 'c'),
    CV-fit with the treatment as the single modifier, and score the estimated
    per-row effect against the true one on the test draw by R^2."""
    if scenario not in ("a", "b", "c"):
        raise ValueError(f"scenario must be 'a', 'b' or 'c', got {scenario!r}")
    sim = generate(SimSpec(f"hte_{scenario}", seed=seed))
    cv = k_fold_cv(sim.train, config, n_folds=n_folds, seed=seed,
                   n_lambda=n_lambda)
    raw_fit = cv.path.fit_raw(cv.idx_min)
    tau_hat = treatment_effect(raw_fit, sim.test.X)
    tau_true = sim.truth.effect_test
    centered = tau_true - tau_true.mean()
    r2 = 1.0 - float(((tau_hat - tau_true) ** 2).sum()) / float(centered @ centered)
    return HteResult(scenario=scenario, seed=seed, r_squared=r2,
                     tau_hat=tau_hat, tau_true=tau_true, lam=cv.lam_min)


# ---------------------------------------------------------------------------
# unobserved modifier, Z = X gamma


# scales the CV pick of the alternation penalty; see UnknownZConfig
CV_LAMBDA_FRACTION = 0.3


@dataclass(frozen=True)
class UnknownZConfig:
    """Alternation settings.  Gamma starts at the least-squares fit of y on
    the standardized X.

    ``lam`` fixes the sparsity penalty; when None it is chosen once by CV at
    the initial gamma and then held fixed so the enlarged objective stays
    comparable across cycles.  The CV pick is multiplied by
    ``CV_LAMBDA_FRACTION`` (0.3): at a poor initial gamma the honest CV choice
    kills every interaction, which freezes the alternation at its starting
    point, so the penalty deliberately under-penalizes to let weak
    interactions seed the gamma updates.  ``lambda2`` is the ridge weight on
    gamma; None picks 1e-3 tr(W'W/N)/p at each gamma step.  With
    ``final_cv`` the returned fit is re-tuned by CV at the learned gamma,
    since the exploration penalty is too light for prediction; the
    alternation trace is left untouched.
    """

    n_cycles: int = 2
    lam: float | None = None
    lambda2: float | None = None
    final_cv: bool = True
    cv_folds: int = 10
    n_lambda: int = 30
    seed: int = 0

    def __post_init__(self):
        _check_int(self.n_cycles, "n_cycles", 1)
        _check_int(self.cv_folds, "cv_folds", 2)
        _check_int(self.n_lambda, "n_lambda", 1)
        _check_int(self.seed, "seed", 0)
        for name in ("lam", "lambda2"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be >= 0 and finite, got {value}")


@dataclass(frozen=True)
class UnknownZResult:
    """Final fit (standardized-X coordinates), the gamma it was fit with, the
    post-ridge gamma history, and the enlarged-objective trace of
    (label, value) pairs where label is 'init', 'fit', 'ridge' or 'rescale'."""

    fit: PliableFit
    gamma: np.ndarray
    gamma_history: tuple
    x_map: StandardizationMap
    y_mean: float
    lam: float
    lambda2: float
    objective_trace: tuple
    warnings: tuple

    def _scored(self, X):
        """Standardized X and its modifier scores Xs gamma, for raw X."""
        xs = self.x_map.transform(X=np.asarray(X, dtype=float))
        return xs, xs @ self.gamma

    def modifier_scores(self, X) -> np.ndarray:
        """Estimated per-row modifier Xs gamma for raw X."""
        return self._scored(X)[1]

    def predict(self, X) -> np.ndarray:
        xs, z = self._scored(X)
        return predict(self.fit, xs, z[:, None]) + self.y_mean


def _enlarged_objective(fit, y, xs, gamma, lam, alpha, lambda2):
    z = (xs @ gamma)[:, None]
    data = Dataset(y, xs, z)
    base = objective(fit, data, lam=lam, alpha=alpha).total
    return base + 0.5 * lambda2 * float(gamma @ gamma)


def fit_unknown_z(data: Dataset, config: UnknownZConfig | None = None,
                  solver_config: SolverConfig | None = None) -> UnknownZResult:
    """Alternate between fitting the model with Z = X gamma and updating
    gamma by ridge regression.

    The gamma half-step uses rows w_i = (theta0 + x_i . theta) * x_i so the
    prediction is beta0 + X beta + W gamma exactly, giving

        gamma = (W'W/N + lambda2 I)^{-1} W'r / N,   r = y - beta0 - X beta.

    X gamma is rescaled to unit variance before each fit half-step.  Both
    half-steps never increase the enlarged objective; the rescale may, and is
    recorded separately in the trace.
    """
    if data.n_modifiers != 0:
        raise DimensionError("fit_unknown_z expects a dataset without Z")
    cfg = config if config is not None else UnknownZConfig()
    scfg = solver_config if solver_config is not None else SolverConfig()
    std, smap = standardize(data, scfg.standardize_x, False, scfg.center_y)
    xs, y = std.X, std.y
    n, p = xs.shape
    # solver sees xs/z as-is; z stays exactly linear in xs (never recentered)
    inner = replace(scfg, standardize_x=False, standardize_z=False,
                    center_y=False)
    gamma = np.linalg.lstsq(xs, y, rcond=None)[0]
    warnings = []

    def rescaled(g):
        s = float((xs @ g).std())
        if s == 0.0:
            warnings.append("X gamma is constant; gamma left unscaled")
            return g, 1.0
        return g / s, s

    gamma, _ = rescaled(gamma)
    gamma_history = [gamma.copy()]
    lam = cfg.lam
    if lam is None:
        sel = k_fold_cv(Dataset(y, xs, (xs @ gamma)[:, None]), inner,
                        n_folds=cfg.cv_folds, seed=cfg.seed,
                        n_lambda=cfg.n_lambda)
        lam = sel.lam_min * CV_LAMBDA_FRACTION
    trace = []
    fit = PliableFit.zeros(p, 1, lam, inner.alpha)
    gamma_fit = gamma
    lambda2_used = cfg.lambda2 if cfg.lambda2 is not None else 0.0
    trace.append(("init", _enlarged_objective(fit, y, xs, gamma, lam,
                                              inner.alpha, lambda2_used)))
    for cycle in range(cfg.n_cycles):
        z = (xs @ gamma)[:, None]
        fit = fit_single_lambda(Dataset(y, xs, z), lam, inner, warm=fit)
        gamma_fit = gamma
        theta_col = fit.theta[:, 0]
        w_scale = float(fit.theta0[0]) + xs @ theta_col
        w = xs * w_scale[:, None]
        lambda2 = cfg.lambda2
        if lambda2 is None:
            tr = float(np.einsum("ij,ij->", w, w)) / n
            lambda2 = 1e-3 * tr / p if tr > 0 else 1e-3
        lambda2_used = lambda2
        trace.append(("fit", _enlarged_objective(fit, y, xs, gamma, lam,
                                                 inner.alpha, lambda2)))
        if not fit.theta_rows and fit.theta0[0] == 0.0:
            warnings.append(
                f"cycle {cycle}: all modifier coefficients are zero; "
                "gamma step skipped")
            gamma_history.append(gamma.copy())
            trace.append(("ridge", trace[-1][1]))
            continue
        r = y - fit.beta0 - xs @ fit.beta
        gram = w.T @ w / n + lambda2 * np.eye(p)
        gamma_new = np.linalg.solve(gram, w.T @ r / n)
        trace.append(("ridge", _enlarged_objective(fit, y, xs, gamma_new, lam,
                                                   inner.alpha, lambda2)))
        gamma_history.append(gamma_new.copy())
        gamma_scaled, s = rescaled(gamma_new)
        if cycle + 1 < cfg.n_cycles:
            # compensate theta so the rescale leaves predictions unchanged;
            # only the penalty on theta moves, by the factor s
            fit = PliableFit(fit.beta0, fit.theta0 * s, fit.beta,
                             {j: row * s for j, row in fit.theta_rows.items()},
                             fit.lam, fit.alpha)
            trace.append(("rescale",
                          _enlarged_objective(fit, y, xs, gamma_scaled, lam,
                                              inner.alpha, lambda2)))
        gamma = gamma_scaled
    if cfg.final_cv:
        # the alternation runs at a deliberately small penalty so weak
        # interactions can seed the gamma updates; refit at the learned
        # gamma with a properly tuned penalty before returning
        sel = k_fold_cv(Dataset(y, xs, (xs @ gamma)[:, None]), inner,
                        n_folds=cfg.cv_folds, seed=cfg.seed,
                        n_lambda=cfg.n_lambda)
        lam = sel.lam_min
        fit = sel.path.fits[sel.idx_min]
        gamma_fit = gamma
    return UnknownZResult(
        fit=fit, gamma=gamma_fit, gamma_history=tuple(gamma_history),
        x_map=smap, y_mean=smap.y_mean, lam=lam, lambda2=lambda2_used,
        objective_trace=tuple(trace), warnings=tuple(warnings))
