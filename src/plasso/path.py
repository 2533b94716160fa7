"""Regularization path: the smallest all-zero penalty level, a geometric
grid below it, and fits along the grid, each warm-started from the fits
before it."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import (Dataset, PliableFit, _as_xz, _check_index, _check_int,
                    _linear_predictor)
from .preprocess import StandardizationMap, destandardize_fit, standardize
from .solver import (ConvergenceError, SolverConfig, Workspace, _design,
                     _pulls, _zero_slack, fit_single_lambda)

__all__ = [
    "LambdaDiagnostics",
    "PathResult",
    "lambda_max",
    "default_lambda_min_ratio",
    "lambda_grid",
    "fit_path",
]


@dataclass(frozen=True)
class LambdaDiagnostics:
    n_passes: int
    n_active_groups: int
    n_active_theta_rows: int
    kkt_max: float
    n_prox_capped: int


@dataclass(frozen=True)
class PathResult:
    """Fits along a decreasing penalty grid.

    ``fits`` live in standardized coordinates; ``fit_raw`` maps one back to
    the original scale and ``predict`` takes raw inputs directly.
    """

    lambdas: np.ndarray
    fits: tuple
    diagnostics: tuple
    smap: StandardizationMap
    alpha: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "fits", tuple(self.fits))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        if lam.size > 1 and not np.all(np.diff(lam) < 0):
            raise ValueError("lambdas must be strictly decreasing")

    @property
    def n_lambdas(self) -> int:
        return self.lambdas.shape[0]

    def fit_raw(self, index: int) -> PliableFit:
        _check_index(index, self.n_lambdas)
        return destandardize_fit(self.fits[index], self.smap)

    def predict(self, X, Z=None, index=None) -> np.ndarray:
        """Predictions for raw (unstandardized) inputs.

        Returns shape (N,) for a single ``index``, else (N, n_lambdas).
        """
        Xs = self.smap.transform(X=np.asarray(X, dtype=float))
        Zs = self.smap.transform(Z=Z) if Z is not None else None
        if index is not None:
            _check_index(index, self.n_lambdas)
        # every level shares the dimensions, so the inputs are checked once
        Xs, Zs = _as_xz(self.fits[0], Xs, Zs)
        if index is not None:
            return _linear_predictor(self.fits[index], Xs, Zs) + self.smap.y_mean
        out = np.empty((Xs.shape[0], self.n_lambdas))
        for i, fit in enumerate(self.fits):
            out[:, i] = _linear_predictor(fit, Xs, Zs)
        return out + self.smap.y_mean


def lambda_max(data: Dataset, alpha: float) -> float:
    """Smallest penalty at which every block's zero certificate holds, with
    the residual taken after the intercept-only least squares on (1, Z).

    The certificate slack of each block is monotone in lam, so all blocks
    are bisected at once between |a|/(1-alpha), where a block with no
    theta pull already certifies, and max(|a|, ||q||)/(1-alpha); the upper
    end of each final bracket is taken so a fit at the result is exactly
    all-zero.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    A = _design(data.Z)
    coef = np.linalg.pinv(A) @ data.y
    r = data.y - A @ coef
    a, q = _pulls(data.X, A.T / data.n_samples, r)
    scale = 1.0 - alpha
    lo = np.abs(a) / scale
    hi = np.maximum(lo, np.sqrt(np.square(q).sum(axis=1)) / scale)
    out = lo.copy()
    todo = np.nonzero(_zero_slack(a, q, scale * lo, alpha * lo) > 0.0)[0]
    lo, hi = lo[todo], hi[todo]
    for _ in range(200):
        done = hi - lo <= 1e-10 * hi
        out[todo[done]] = hi[done]
        todo, lo, hi = todo[~done], lo[~done], hi[~done]
        if not todo.size:
            break
        mid = 0.5 * (lo + hi)
        holds = _zero_slack(a[todo], q[todo], scale * mid, alpha * mid) <= 0.0
        hi = np.where(holds, mid, hi)
        lo = np.where(holds, lo, mid)
    out[todo] = hi
    # a hair of slack so the certificate still holds when the solver
    # accumulates the pulls in a different order than the sums above
    return float(out.max()) * (1.0 + 1e-12)


def default_lambda_min_ratio(n: int, p: int, k: int) -> float:
    """0.01 when N exceeds the parameter count p (K+1), else 0.05."""
    return 0.01 if n > p * (k + 1) else 0.05


def _check_min_ratio(value, name):
    """``value`` as a float, checked to lie in (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


def _check_grid(values, name):
    """``values`` as a float array, checked to be a penalty grid: 1-d,
    nonempty, finite, >= 0 and strictly decreasing."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    if not (np.isfinite(grid).all() and grid.min() >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0")
    if not np.all(np.diff(grid) < 0):
        raise ValueError(f"{name} must be strictly decreasing")
    return grid


def lambda_grid(lam_max: float, n_lambda: int, min_ratio: float) -> np.ndarray:
    _check_int(n_lambda, "n_lambda", 1)
    if not math.isfinite(lam_max):
        raise ValueError(f"lam_max must be finite, got {lam_max}")
    if lam_max < 0:
        raise ValueError(f"lam_max must be >= 0, got {lam_max}")
    _check_min_ratio(min_ratio, "min_ratio")
    if lam_max == 0:
        return np.zeros(1)
    if n_lambda == 1:
        return np.array([lam_max])
    return np.geomspace(lam_max, lam_max * min_ratio, n_lambda)


def _secant_start(f0: PliableFit, f1: PliableFit, lam: float) -> PliableFit:
    """The warm start at ``lam`` predicted from the fits f0 and f1 at the
    two levels before it: every beta and theta entry on the secant through
    them, linear in the penalty,

        e = f1 + (lam - lam1) / (lam1 - lam0) * (f1 - f0),

    except where e would change the sign of f1's entry (zeros included),
    which keeps f1's entry.  So the start has f1's support and signs, and
    f1's intercepts, which the first pass refreshes."""
    step = (lam - f1.lam) / (f1.lam - f0.lam)

    def extend(a1, a0):
        e = a1 + step * (a1 - a0)
        return np.where(np.sign(e) == np.sign(a1), e, a1)

    return PliableFit.from_dense(f1.beta0, f1.theta0,
                                 extend(f1.beta, f0.beta),
                                 extend(f1.theta, f0.theta), lam, f1.alpha)


def fit_path(data: Dataset, config: SolverConfig | None = None,
             n_lambda: int = 50, lambda_min_ratio: float | None = None,
             lambdas=None) -> PathResult:
    """Standardize, build (or accept) a decreasing penalty grid, and fit it
    with warm starts.  The second level starts from the first fit; every
    later level starts from the secant through the two fits before it,
    linear in the penalty, with each entry that the secant would move
    across zero kept at its last value (``_secant_start``).  This is the
    predictor-corrector idea of Park & Hastie (2007) applied to glmnet's
    warm starts.  Solver failures propagate with the grid index attached.
    """
    cfg = config if config is not None else SolverConfig()
    std, smap = standardize(data, cfg.standardize_x, cfg.standardize_z,
                            cfg.center_y)
    if lambdas is None:
        ratio = (default_lambda_min_ratio(data.n_samples, data.n_predictors,
                                          data.n_modifiers)
                 if lambda_min_ratio is None
                 else _check_min_ratio(lambda_min_ratio, "lambda_min_ratio"))
        grid = lambda_grid(lambda_max(std, cfg.alpha), n_lambda, ratio)
    else:
        grid = _check_grid(lambdas, "lambdas")
    ws = Workspace(std)
    fits = []
    diags = []
    for i, lam in enumerate(grid):
        warm = (_secant_start(fits[-2], fits[-1], lam) if i >= 2
                else fits[-1] if i else None)
        try:
            fit, d = fit_single_lambda(std, lam, cfg, warm=warm, workspace=ws,
                                       return_diagnostics=True)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"lambda[{i}]={lam:.6g}: {err}", fit=err.fit, kkt=err.kkt
            ) from err
        fits.append(fit)
        diags.append(LambdaDiagnostics(
            n_passes=d.n_passes,
            n_active_groups=len(fit.active_groups),
            n_active_theta_rows=len(fit.theta_rows),
            kkt_max=d.kkt.max_violation,
            n_prox_capped=d.n_prox_capped))
    return PathResult(lambdas=grid, fits=tuple(fits), diagnostics=tuple(diags),
                      smap=smap, alpha=cfg.alpha)


def _map_paths(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, spread over forked worker processes, one
    per CPU this process may run on, and returned in task order.

    ``fn`` must be a module-level function, or a ``functools.partial`` of
    one, so that it pickles by reference; results and exceptions come back
    pickled.  Runs in-process for a single CPU or task, inside a daemonic
    process (which may not have children), while other threads run (a fork
    copies only the calling thread, so a lock another thread holds would
    stay held in the worker), and where the platform lacks
    ``os.sched_getaffinity`` (so, has no safe ``fork``).
    """
    tasks = list(tasks)
    affinity = getattr(os, "sched_getaffinity", None)
    n_workers = min(len(affinity(0)), len(tasks)) if affinity else 1
    if n_workers > 1 and threading.active_count() == 1:
        # imported here so that a single path never loads them
        import multiprocessing
        if not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(
                    n_workers,
                    mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]
