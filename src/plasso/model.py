"""Core model types: datasets, fitted coefficient sets, prediction, and the
penalized objective.

The model is

    yhat = beta0 + Z theta0 + X beta + sum_j (X_j o Z) theta_j

where ``X_j o Z`` multiplies column j of X elementwise into every column of
Z.  A predictor's modifier row ``theta_j`` may be nonzero only together with
its main effect ``beta_j`` (weak hierarchy); the solver enforces that through
the penalty, not through these containers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

__all__ = [
    "DimensionError",
    "Dataset",
    "PliableFit",
    "PenaltyValue",
    "predict",
    "objective",
]


class DimensionError(ValueError):
    """Array shapes do not line up with the model dimensions."""


def _frozen_array(values, name="array", shape=None):
    out = np.array(values, dtype=float)
    if shape is not None and out.shape != shape:
        raise DimensionError(f"{name} has shape {out.shape}, expected {shape}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable (y, X, Z) triple.

    Parameters
    ----------
    y : (N,) response.
    X : (N, p) predictors.
    Z : (N, K) modifying variables, or None for K = 0.  With no modifiers the
        model reduces to a plain lasso in X.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        if y.ndim != 1:
            raise DimensionError(f"y must be 1-d, got shape {y.shape}")
        if X.ndim != 2:
            raise DimensionError(f"X must be 2-d, got shape {X.shape}")
        n = y.shape[0]
        if n < 1:
            raise DimensionError("need at least one observation")
        if X.shape[0] != n:
            raise DimensionError(f"X has {X.shape[0]} rows, y has {n}")
        if X.shape[1] < 1:
            raise DimensionError("X needs at least one column")
        Z = self.Z
        if Z is None:
            Z = np.zeros((n, 0))
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2:
            raise DimensionError(f"Z must be 2-d, got shape {Z.shape}")
        if Z.shape[0] != n:
            raise DimensionError(f"Z has {Z.shape[0]} rows, y has {n}")
        _check_cells("X", X)
        _check_cells("Z", Z)
        object.__setattr__(self, "y", _frozen_array(y, "y"))
        object.__setattr__(self, "X", _frozen_array(X, "X"))
        object.__setattr__(self, "Z", _frozen_array(Z, "Z"))

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]

    @property
    def n_predictors(self) -> int:
        return self.X.shape[1]

    @property
    def n_modifiers(self) -> int:
        return self.Z.shape[1]


def _check_int(value, name, low):
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= low."""
    if not (isinstance(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_index(index, n):
    """Raise IndexError unless ``index`` is an integer in [0, n), where n
    counts the penalty levels in the model: an index never counts from the
    end."""
    if not (isinstance(index, numbers.Integral) and 0 <= index < n):
        raise IndexError(f"index {index!r} is out of range: {n} penalty "
                         f"levels in the model, indices 0 to {n - 1}")


def _check_penalty(lam, alpha) -> tuple:
    """(lam, alpha) as floats, with lam >= 0 and finite and alpha in [0, 1)."""
    lam, alpha = float(lam), float(alpha)
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be >= 0 and finite, got {lam}")
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    return lam, alpha


@dataclass(frozen=True)
class PliableFit:
    """Coefficients of one fitted model.

    ``theta_rows`` maps predictor index j to its (K,) modifier row; only
    nonzero rows are stored, absent rows are exact zeros.  ``lam`` and
    ``alpha`` record the penalty the fit was computed at.  Instances are
    immutable: arrays are copied and locked at construction.
    """

    beta0: float
    theta0: np.ndarray
    beta: np.ndarray
    theta_rows: Mapping[int, np.ndarray]
    lam: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        theta0 = np.asarray(self.theta0, dtype=float)
        if beta.ndim != 1:
            raise DimensionError(f"beta must be 1-d, got shape {beta.shape}")
        if theta0.ndim != 1:
            raise DimensionError(f"theta0 must be 1-d, got shape {theta0.shape}")
        p, k = beta.shape[0], theta0.shape[0]
        beta0 = float(self.beta0)
        if not np.isfinite(beta0):
            raise ValueError("beta0 is not finite")
        lam, alpha = _check_penalty(self.lam, self.alpha)
        rows = {}
        for j, row in dict(self.theta_rows).items():
            j = int(j)
            if not 0 <= j < p:
                raise DimensionError(f"theta row index {j} out of range for p={p}")
            vec = _frozen_array(row, f"theta row {j}", shape=(k,))
            if np.any(vec != 0.0):
                rows[j] = vec
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "theta0", _frozen_array(theta0, "theta0"))
        object.__setattr__(self, "beta", _frozen_array(beta, "beta"))
        object.__setattr__(self, "theta_rows", MappingProxyType(rows))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha", alpha)

    def __reduce__(self):
        # a mappingproxy does not pickle, so rebuild through the constructor
        return (PliableFit, (self.beta0, self.theta0, self.beta,
                             dict(self.theta_rows), self.lam, self.alpha))

    @classmethod
    def zeros(cls, p: int, k: int, lam: float = 0.0, alpha: float = 0.0) -> "PliableFit":
        return cls(0.0, np.zeros(k), np.zeros(p), {}, lam, alpha)

    @classmethod
    def from_dense(cls, beta0, theta0, beta, theta, lam=0.0, alpha=0.0) -> "PliableFit":
        """Build a fit from a dense (p, K) theta matrix, dropping zero rows."""
        theta = np.asarray(theta, dtype=float)
        rows = {j: theta[j] for j in np.flatnonzero(theta.any(axis=1))}
        return cls(beta0, theta0, beta, rows, lam, alpha)

    @property
    def n_predictors(self) -> int:
        return self.beta.shape[0]

    @property
    def n_modifiers(self) -> int:
        return self.theta0.shape[0]

    @property
    def theta(self) -> np.ndarray:
        """Dense (p, K) modifier matrix (built on each access)."""
        out = np.zeros((self.n_predictors, self.n_modifiers))
        for j, row in self.theta_rows.items():
            out[j] = row
        return out

    @property
    def active_groups(self) -> tuple:
        """Indices with a nonzero main effect or a stored modifier row."""
        active = set(np.nonzero(self.beta)[0].tolist()) | set(self.theta_rows)
        return tuple(sorted(active))

    @property
    def n_nonzero_beta(self) -> int:
        return int(np.count_nonzero(self.beta))

    @property
    def n_nonzero_coefficients(self) -> int:
        """Nonzero main effects plus nonzero modifier entries (intercepts excluded)."""
        n = self.n_nonzero_beta
        for row in self.theta_rows.values():
            n += int(np.count_nonzero(row))
        return n


def _as_xz(fit: PliableFit, X, Z):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"X must be 2-d, got shape {X.shape}")
    if X.shape[1] != fit.n_predictors:
        raise DimensionError(
            f"X has {X.shape[1]} columns, fit expects {fit.n_predictors}")
    if Z is None:
        Z = np.zeros((X.shape[0], 0))
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise DimensionError(f"Z must be 2-d, got shape {Z.shape}")
    if Z.shape[1] != fit.n_modifiers:
        raise DimensionError(
            f"Z has {Z.shape[1]} columns, fit expects {fit.n_modifiers}")
    if Z.shape[0] != X.shape[0]:
        raise DimensionError(f"Z has {Z.shape[0]} rows, X has {X.shape[0]}")
    _check_cells("X", X)
    _check_cells("Z", Z)
    return X, Z


def _check_cells(name, arr):
    """Raise ValueError naming the first non-finite cell of the 2-d ``arr``."""
    if not np.isfinite(arr).all():
        row, col = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{name} has a non-finite value {arr[row, col]} "
                         f"at row {row}, column {col}")


def predict(fit: PliableFit, X, Z=None) -> np.ndarray:
    """Evaluate beta0 + Z theta0 + X beta + sum_j (X_j o Z) theta_j rowwise."""
    return _linear_predictor(fit, *_as_xz(fit, X, Z))


def _linear_predictor(fit: PliableFit, X, Z) -> np.ndarray:
    """``predict``'s formula without its checks: X (N, p) and Z (N, K) must
    already be finite float arrays that match the fit."""
    yhat = np.full(X.shape[0], fit.beta0)
    yhat += Z @ fit.theta0
    yhat += X @ fit.beta
    for j, row in fit.theta_rows.items():
        yhat += X[:, j] * (Z @ row)
    return yhat


@dataclass(frozen=True)
class PenaltyValue:
    """Objective decomposition: squared loss, the two penalty sums, total."""

    loss: float
    group_term: float
    l1_term: float
    total: float


def _penalty_sums(beta, theta) -> tuple:
    """(group, l1) = (sum_j ||(beta_j, theta_j)||_2 + ||theta_j||_2,
    sum_{j,k} |theta_jk|) for main effects ``beta`` (p,) and the dense
    modifier matrix ``theta`` (p, K)."""
    row_norm = np.sqrt(np.square(theta).sum(axis=1))
    return (float((np.hypot(beta, row_norm) + row_norm).sum()),
            float(np.abs(theta).sum()))


def objective(fit: PliableFit, data: Dataset, lam=None, alpha=None) -> PenaltyValue:
    """Penalized objective

        (1/2N) sum (y - yhat)^2
        + (1-alpha) lam sum_j (||(beta_j, theta_j)||_2 + ||theta_j||_2)
        + alpha lam sum_{j,k} |theta_jk|

    with the intercepts unpenalized.  ``lam``/``alpha`` default to the values
    stored on the fit.
    """
    lam, alpha = _check_penalty(fit.lam if lam is None else lam,
                                fit.alpha if alpha is None else alpha)
    resid = data.y - predict(fit, data.X, data.Z)
    loss = float(resid @ resid) / (2.0 * data.n_samples)
    group, l1 = _penalty_sums(fit.beta, fit.theta)
    for name, value in (("loss", loss), ("group", group), ("l1", l1)):
        if not np.isfinite(value):
            raise ValueError(f"objective {name} term is not finite")
    total = loss + (1.0 - alpha) * lam * group + alpha * lam * l1
    return PenaltyValue(loss=loss, group_term=group, l1_term=l1, total=total)

