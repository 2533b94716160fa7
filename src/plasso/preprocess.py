"""Column standardization and the map back to original coordinates.

Scales use the population convention (divide by N) so a standardized column
has mean 0 and ``(x**2).mean() == 1`` exactly; the response is centered but
never rescaled.  The solver consumes standardized data; fitted coefficients
travel back to the original scale through :func:`destandardize_fit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, DimensionError, PliableFit

__all__ = [
    "VARIANCE_DDOF",
    "StandardizationError",
    "StandardizationMap",
    "standardize",
    "destandardize_fit",
]

# population variance everywhere; changing this silently breaks frozen oracles
VARIANCE_DDOF = 0


class StandardizationError(ValueError):
    """A column cannot be standardized (constant after centering)."""


def _column_stats(M, label, enabled):
    if not enabled or M.shape[1] == 0:
        return np.zeros(M.shape[1]), np.ones(M.shape[1])
    means = M.mean(axis=0)
    scales = M.std(axis=0, ddof=VARIANCE_DDOF)
    for i in np.nonzero(scales == 0.0)[0]:
        raise StandardizationError(f"{label} column {i} is constant")
    return means, scales


@dataclass(frozen=True)
class StandardizationMap:
    """Per-column means/scales for X and Z plus the response mean.

    Disabled blocks carry identity parameters (zero means, unit scales) so the
    transform formulas below apply uniformly.
    """

    x_means: np.ndarray
    x_scales: np.ndarray
    z_means: np.ndarray
    z_scales: np.ndarray
    y_mean: float
    standardize_x: bool = True
    standardize_z: bool = True
    center_y: bool = True

    def __post_init__(self):
        for name in ("x_means", "x_scales", "z_means", "z_scales"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "y_mean", float(self.y_mean))

    @classmethod
    def identity(cls, p: int, k: int) -> "StandardizationMap":
        return cls(np.zeros(p), np.ones(p), np.zeros(k), np.ones(k), 0.0,
                   standardize_x=False, standardize_z=False, center_y=False)

    @property
    def n_predictors(self) -> int:
        return self.x_means.shape[0]

    @property
    def n_modifiers(self) -> int:
        return self.z_means.shape[0]

    def transform(self, X=None, Z=None, y=None):
        """Map new raw data into the standardized coordinates of the fit."""
        out = []
        if X is not None:
            X = np.asarray(X, dtype=float)
            if X.shape[1] != self.n_predictors:
                raise DimensionError(
                    f"X has {X.shape[1]} columns, map expects {self.n_predictors}")
            out.append((X - self.x_means) / self.x_scales)
        if Z is not None:
            Z = np.asarray(Z, dtype=float)
            if Z.shape[1] != self.n_modifiers:
                raise DimensionError(
                    f"Z has {Z.shape[1]} columns, map expects {self.n_modifiers}")
            out.append((Z - self.z_means) / self.z_scales)
        if y is not None:
            out.append(np.asarray(y, dtype=float) - self.y_mean)
        return out[0] if len(out) == 1 else tuple(out)


def standardize(data: Dataset, standardize_x: bool = True,
                standardize_z: bool = True, center_y: bool = True):
    """Standardize a dataset; returns ``(standardized_data, map)``.

    Raises
    ------
    StandardizationError
        If an enabled block contains a constant column (zero variance).
    """
    x_means, x_scales = _column_stats(data.X, "X", standardize_x)
    z_means, z_scales = _column_stats(data.Z, "Z", standardize_z)
    y_mean = float(data.y.mean()) if center_y else 0.0
    smap = StandardizationMap(x_means, x_scales, z_means, z_scales, y_mean,
                              standardize_x, standardize_z, center_y)
    out = Dataset((data.y - y_mean),
                  (data.X - x_means) / x_scales,
                  (data.Z - z_means) / z_scales if data.n_modifiers else data.Z)
    return out, smap


def destandardize_fit(fit: PliableFit, smap: StandardizationMap) -> PliableFit:
    """Convert a fit on standardized data to original-scale coefficients.

    Expanding each standardized term in raw coordinates gives, with column
    means m, u and scales s, w for X and Z:

        theta_raw[j]  = theta[j] / (s_j w)
        beta_raw[j]   = beta[j]/s_j - theta_raw[j] . u
        theta0_raw    = theta0/w - sum_j theta_raw[j] m_j
        beta0_raw     = ybar + beta0 - (theta0/w).u - (beta/s).m
                        + sum_j (theta_raw[j].u) m_j

    Zero rows stay exactly zero, so the sparsity pattern survives.
    """
    p, k = fit.n_predictors, fit.n_modifiers
    if smap.n_predictors != p or smap.n_modifiers != k:
        raise DimensionError(
            f"map is for (p={smap.n_predictors}, K={smap.n_modifiers}), "
            f"fit has (p={p}, K={k})")
    sx, mx = smap.x_scales, smap.x_means
    sz, mz = smap.z_scales, smap.z_means
    rows_raw = {j: row / (sx[j] * sz) for j, row in fit.theta_rows.items()}
    beta_raw = fit.beta / sx
    theta0_raw = fit.theta0 / sz if k else fit.theta0.copy()
    beta0_raw = (fit.beta0 + smap.y_mean
                 - float((fit.beta / sx) @ mx)
                 - (float((fit.theta0 / sz) @ mz) if k else 0.0))
    for j, row in rows_raw.items():
        shift = float(row @ mz)
        beta_raw[j] -= shift
        theta0_raw = theta0_raw - row * mx[j]
        beta0_raw += shift * mx[j]
    return PliableFit(beta0_raw, theta0_raw, beta_raw, rows_raw,
                      fit.lam, fit.alpha)
