"""Synthetic data generators used by the experiments, tests and CLI.

Every generator draws train and test sets from independent child streams of
one seed and returns the noiseless means (and, where meaningful, the true
treatment effect or the latent-group weights) alongside the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import Dataset, _check_int

__all__ = ["SimSpec", "SimTruth", "SimData", "SPEC_NAMES", "generate"]

# name -> (n_train, p, k, noise_sd)
_DEFAULTS = {
    "example1": (100, 20, 1, 0.3),
    "sim_main": (100, 50, 4, 0.5),
    "hte_a": (100, 50, 1, 2.0),
    "hte_b": (100, 50, 1, 2.0),
    "hte_c": (100, 50, 1, 2.0),
    "unknown_z": (200, 12, 0, 0.25),
    "df_null": (100, 10, 4, 1.0),
    "df_nonnull": (100, 10, 4, 1.0),
}

SPEC_NAMES = tuple(sorted(_DEFAULTS))


@dataclass(frozen=True)
class SimSpec:
    """Which generator to run and at what size.

    ``None`` fields resolve to the generator's defaults.  ``indicator_x``
    replaces each X_j by I(X_j > 0) inside the mean (the design handed to the
    fitting methods stays Gaussian) and ``z_main_effects`` adds strong Z main
    effects; both apply to ``sim_main`` only.
    """

    name: str
    n_train: int | None = None
    n_test: int = 500
    p: int | None = None
    k: int | None = None
    seed: int = 0
    noise_sd: float | None = None
    indicator_x: bool = False
    z_main_effects: bool = False

    def __post_init__(self):
        # None picks the generator's default
        for name, low in (("n_train", 1), ("p", 1), ("k", 0)):
            if getattr(self, name) is not None:
                _check_int(getattr(self, name), name, low)
        _check_int(self.n_test, "n_test", 1)
        _check_int(self.seed, "seed", 0)
        sd = self.noise_sd
        if sd is not None and not (math.isfinite(sd) and sd >= 0):
            raise ValueError(f"noise_sd must be >= 0 and finite, got {sd}")

    def resolved(self) -> "SimSpec":
        if self.name not in _DEFAULTS:
            raise ValueError(
                f"unknown simulation spec {self.name!r}; "
                f"known names: {', '.join(SPEC_NAMES)}")
        n, p, k, sd = _DEFAULTS[self.name]
        return replace(self,
                       n_train=self.n_train if self.n_train is not None else n,
                       p=self.p if self.p is not None else p,
                       k=self.k if self.k is not None else k,
                       noise_sd=self.noise_sd if self.noise_sd is not None else sd)


@dataclass(frozen=True)
class SimTruth:
    """Noiseless structure behind a draw: means, and per-generator extras."""

    mu_train: np.ndarray
    mu_test: np.ndarray
    mean_fn: Callable | None = None
    effect_train: np.ndarray | None = None
    effect_test: np.ndarray | None = None
    b_z: np.ndarray | None = None
    z_train: np.ndarray | None = None
    z_test: np.ndarray | None = None


@dataclass(frozen=True)
class SimData:
    spec: SimSpec
    train: Dataset
    test: Dataset
    truth: SimTruth


def _example1_mean(X, Z):
    z = Z[:, 0]
    return (3.0 * X[:, 0] + 2.0 * X[:, 1] + 3.0 * X[:, 1] * (1.0 - z)
            + X[:, 2] + 3.0 * X[:, 2] * z)


def _sim_main_mean(X, Z, indicator_x=False, z_main_effects=False):
    xm = (X > 0).astype(float) if indicator_x else X
    mu = (2.0 * xm[:, 0] - 2.0 * xm[:, 1]
          + xm[:, 2] * (2.0 + 2.0 * Z[:, 0])
          + xm[:, 3] * 2.0 * (1.0 - 2.0 * Z[:, 1]))
    if z_main_effects:
        mu = mu + 2.0 * Z.sum(axis=1)
    return mu


def _hte_mean(name):
    def mean(X, Z):
        w = Z[:, 0]
        base = X[:, 1] + 2.0 * X[:, 2]
        if name == "hte_a":
            return X[:, 0] + X[:, 0] * w + base
        if name == "hte_b":
            return X[:, 0] * (w - 0.5) + base
        return X[:, 0] + (X[:, 0] > 0) * w + base
    return mean


def _hte_effect(name, X):
    if name in ("hte_a", "hte_b"):
        return X[:, 0].copy()
    return (X[:, 0] > 0).astype(float)


def _draw_xz(rng, n, p, k):
    X = rng.standard_normal((n, p))
    return X, rng.integers(0, 2, size=(n, k)).astype(float)


def _unknown_z_draw(rng, n, p, sd):
    # group 0 carries beta = (2,2,2,2,0,...), group 1 the negated vector
    X = rng.standard_normal((n, p))
    b_z = np.zeros(p)
    b_z[-4:] = [10.0, 10.0, -10.0, 10.0]
    pr_z0 = 1.0 / (1.0 + np.exp(-X @ b_z))
    z = (rng.random(n) >= pr_z0).astype(float)  # z = 0 with prob pr_z0
    mu = 2.0 * X[:, :4].sum(axis=1) * (1.0 - 2.0 * z)
    y = mu + sd * rng.standard_normal(n)
    return X, z, mu, y, b_z


def generate(spec: SimSpec) -> SimData:
    """Draw one train/test pair from a named generator, deterministically in
    ``spec.seed``.  Raises ValueError for unknown names."""
    spec = spec.resolved()
    name = spec.name
    rng_train, rng_test = (np.random.default_rng(s)
                           for s in np.random.SeedSequence(spec.seed).spawn(2))
    sd = spec.noise_sd

    if name == "unknown_z":
        out = []
        for rng, n in ((rng_train, spec.n_train), (rng_test, spec.n_test)):
            out.append(_unknown_z_draw(rng, n, spec.p, sd))
        (Xtr, ztr, mutr, ytr, b_z) = out[0]
        (Xte, zte, mute, yte, _) = out[1]
        truth = SimTruth(mu_train=mutr, mu_test=mute, b_z=b_z,
                         z_train=ztr, z_test=zte)
        return SimData(spec, Dataset(ytr, Xtr), Dataset(yte, Xte), truth)

    if name == "example1":
        mean_fn = _example1_mean
    elif name == "sim_main":
        def mean_fn(X, Z):
            return _sim_main_mean(X, Z, spec.indicator_x, spec.z_main_effects)
    elif name in ("hte_a", "hte_b", "hte_c"):
        mean_fn = _hte_mean(name)
    elif name == "df_null":
        def mean_fn(X, Z):
            return np.zeros(X.shape[0])
    elif name == "df_nonnull":
        mean_fn = _sim_main_mean
    else:  # pragma: no cover - resolved() already validated
        raise ValueError(f"unknown simulation spec {name!r}")

    sets = []
    for rng, n in ((rng_train, spec.n_train), (rng_test, spec.n_test)):
        X, Z = _draw_xz(rng, n, spec.p, spec.k)
        mu = mean_fn(X, Z)
        y = mu + sd * rng.standard_normal(n)
        sets.append((Dataset(y, X, Z), mu, X))
    (train, mu_train, Xtr), (test, mu_test, Xte) = sets
    effect_train = effect_test = None
    if name.startswith("hte_"):
        effect_train = _hte_effect(name, Xtr)
        effect_test = _hte_effect(name, Xte)
    truth = SimTruth(mu_train=mu_train, mu_test=mu_test, mean_fn=mean_fn,
                     effect_train=effect_train, effect_test=effect_test)
    return SimData(spec, train, test, truth)
