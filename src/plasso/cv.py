"""K-fold cross-validation over a penalty path.

The grid is computed once on the full data; every training fold is
restandardized and refit on that same grid, and held-out rows are scored in
raw coordinates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import Dataset, _check_int
from .path import PathResult, _map_paths, fit_path
from .preprocess import StandardizationError
from .solver import SolverConfig

__all__ = ["CvResult", "k_fold_cv"]


@dataclass(frozen=True)
class CvResult:
    """Per-lambda CV curve plus the full-data path it was computed around.

    ``idx_min`` minimizes the CV mean; ``idx_1se`` is the largest penalty
    whose mean lies within one standard error of that minimum, so
    ``idx_1se <= idx_min`` on the decreasing grid.
    """

    lambdas: np.ndarray
    cv_mean: np.ndarray
    cv_se: np.ndarray
    idx_min: int
    idx_1se: int
    path: PathResult

    @property
    def lam_min(self) -> float:
        return float(self.lambdas[self.idx_min])

    @property
    def lam_1se(self) -> float:
        return float(self.lambdas[self.idx_1se])


def _fold_ids(n: int, n_folds: int, seed: int) -> np.ndarray:
    ids = np.empty(n, dtype=int)
    perm = np.random.default_rng(seed).permutation(n)
    for f, chunk in enumerate(np.array_split(perm, n_folds)):
        ids[chunk] = f
    return ids


def _check_n_folds(n_folds, n, name="n_folds"):
    """Raise ValueError naming ``name`` and the row count ``n`` unless
    ``n_folds`` is an integer in [2, n] whose largest fold leaves at least 2
    training rows, as ``_check_folds`` requires of given folds."""
    if not (isinstance(n_folds, numbers.Integral) and 2 <= n_folds <= n):
        raise ValueError(f"{name} must be an integer in [2, {n}] for data "
                         f"with {n} rows, got {n_folds!r}")
    # _fold_ids' largest fold holds ceil(n / n_folds) rows
    left = n - -(-n // n_folds)
    if left < 2:
        raise ValueError(f"{name}={n_folds} leaves {left} training row in "
                         f"its largest fold of data with {n} rows; each "
                         f"fold must leave at least 2")


def _check_folds(folds, n):
    """The fold labels ``folds`` as an int array, or ValueError naming
    ``folds`` unless it holds one finite, integer-valued label per row and
    every fold leaves at least 2 training rows (so there are two folds)."""
    labels = np.asarray(folds, dtype=float)
    if labels.shape != (n,):
        raise ValueError("folds must assign one fold id per row")
    # NaN and inf fail the first test; every integer below 2^53 is exact
    bad = np.flatnonzero(~(np.abs(labels) < 2.0**53)
                         | (np.round(labels) != labels))
    if bad.size:
        raise ValueError(f"folds must hold finite integer fold ids, got "
                         f"{labels[bad[0]].item()!r} at row {bad[0]}")
    ids = labels.astype(int)
    names, sizes = np.unique(ids, return_counts=True)
    if n - sizes.max() < 2:
        raise ValueError(f"folds must name at least two folds, each leaving "
                         f"at least 2 training rows; fold "
                         f"{names[np.argmax(sizes)]} leaves {n - sizes.max()}")
    return ids


def _fold_errors(data, cfg, grid, ids, f):
    """Held-out mean squared error along ``grid`` of the path refit without
    the rows of fold ``f``."""
    test = ids == f
    train = ~test
    sub = Dataset(data.y[train], data.X[train], data.Z[train])
    try:
        fold_path = fit_path(sub, cfg, lambdas=grid)
    except StandardizationError as err:
        raise StandardizationError(f"fold {f}: {err}") from err
    preds = fold_path.predict(data.X[test], data.Z[test])
    return ((data.y[test, None] - preds) ** 2).mean(axis=0)


def k_fold_cv(data: Dataset, config: SolverConfig | None = None,
              n_folds: int = 10, seed: int = 0, n_lambda: int = 50,
              lambda_min_ratio: float | None = None,
              folds=None) -> CvResult:
    """Cross-validate the path.

    The full-data path, which fixes the grid, is fit here; the folds are
    refit in worker processes, one per CPU (see ``path._map_paths``), with
    results identical to refitting them in turn.

    Parameters
    ----------
    folds : optional (N,) integer array assigning each row to a fold; when
        omitted, rows are shuffled into ``n_folds`` near-equal folds using
        ``seed``.  Fold statistics average the per-fold mean squared errors;
        the standard error is across folds.
    """
    cfg = config if config is not None else SolverConfig()
    if folds is None:
        _check_n_folds(n_folds, data.n_samples)
        _check_int(seed, "seed", 0)
        ids = _fold_ids(data.n_samples, n_folds, seed)
    else:
        ids = _check_folds(folds, data.n_samples)
    labels = np.unique(ids)
    path = fit_path(data, cfg, n_lambda=n_lambda,
                    lambda_min_ratio=lambda_min_ratio)
    grid = path.lambdas
    errs = np.array(_map_paths(partial(_fold_errors, data, cfg, grid, ids),
                               labels))
    cv_mean = errs.mean(axis=0)
    cv_se = errs.std(axis=0, ddof=1) / np.sqrt(labels.size)
    idx_min = int(np.argmin(cv_mean))
    within = np.nonzero(cv_mean <= cv_mean[idx_min] + cv_se[idx_min])[0]
    idx_1se = int(within[0])
    return CvResult(lambdas=grid, cv_mean=cv_mean, cv_se=cv_se,
                    idx_min=idx_min, idx_1se=idx_1se, path=path)
