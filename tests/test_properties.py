"""Randomized invariant suites.

Each suite runs ``n_cases`` independent seeded cases and returns a list of
failure descriptions, so the acceptance tests can reuse the exact same
machinery and report counts.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from plasso.io import load_model, save_model
from plasso.model import Dataset, PliableFit
from plasso.path import fit_path, lambda_max
from plasso.preprocess import standardize
from plasso.simulate import SPEC_NAMES, SimSpec, generate
from plasso.solver import (SolverConfig, Workspace, _block_minimize,
                           check_kkt, fit_single_lambda, prox_group)

from oracles import (kkt_per_group_oracle, satisfies_hierarchy,
                     zero_threshold_oracle)

_TIGHT = dict(tol_kkt=1e-8, tol_obj=1e-12)


def _random_case(case):
    rng = np.random.default_rng(1000 + case)
    n = int(rng.integers(25, 60))
    p = int(rng.integers(2, 7))
    k = int(rng.integers(0, 4))
    X = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, k)) if k else None
    beta = np.where(rng.random(p) < 0.6, rng.standard_normal(p) * 2, 0.0)
    mu = X @ beta
    if k:
        mu = mu + X[:, 0] * (Z @ rng.standard_normal(k))
    y = mu + rng.standard_normal(n)
    alpha = float(rng.choice([0.0, 0.3, 0.5, 0.9]))
    data = Dataset(y, X, Z)
    frac = float(rng.uniform(0.05, 0.9))
    lam = frac * lambda_max(data, alpha)
    return rng, data, lam, alpha


def run_monotonicity_suite(n_cases=100):
    bad = []
    for case in range(n_cases):
        _, data, lam, alpha = _random_case(case)
        _, diag = fit_single_lambda(data, lam, SolverConfig(alpha=alpha),
                                    return_diagnostics=True)
        trace = np.asarray(diag.objective_per_pass)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        if trace.size > 1 and np.any(np.diff(trace) > slack):
            bad.append(f"case {case}: objective rose across passes")
    return bad


def run_hierarchy_suite(n_cases=100):
    bad = []
    for case in range(n_cases):
        _, data, lam, alpha = _random_case(case)
        fit = fit_single_lambda(data, lam, SolverConfig(alpha=alpha))
        if not satisfies_hierarchy(fit):
            bad.append(f"case {case}: theta row without main effect")
    return bad


def run_warm_start_suite(n_cases=100):
    bad = []
    for case in range(n_cases):
        _, data, lam, alpha = _random_case(case)
        cfg = SolverConfig(alpha=alpha, **_TIGHT)
        cold = fit_single_lambda(data, lam, cfg)
        src = fit_single_lambda(data, 2.0 * lam, cfg)
        warm = fit_single_lambda(data, lam, cfg, warm=src)
        if not (np.allclose(cold.beta, warm.beta, atol=1e-6)
                and np.allclose(cold.theta, warm.theta, atol=1e-6)
                and abs(cold.beta0 - warm.beta0) < 1e-6):
            bad.append(f"case {case}: warm and cold solutions differ")
    return bad


def run_serialization_suite(n_cases=100):
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, "model.json")
        for case in range(n_cases):
            rng, data, lam, alpha = _random_case(case)
            path = fit_path(data, SolverConfig(alpha=alpha),
                            lambdas=[2.0 * lam, lam])
            save_model(fname, path)
            model = load_model(fname)
            Xn = rng.standard_normal((10, data.n_predictors))
            Zn = rng.standard_normal((10, data.n_modifiers)) \
                if data.n_modifiers else None
            for i in range(2):
                a = model.predict(Xn, Zn, i)
                b = path.predict(Xn, Zn, index=i)
                if not np.allclose(a, b, atol=1e-12):
                    bad.append(f"case {case}: predictions moved "
                               f"{np.abs(a - b).max():.2e}")
                    break
    return bad


def run_generator_suite(n_cases=100):
    bad = []
    for case in range(n_cases):
        name = SPEC_NAMES[case % len(SPEC_NAMES)]
        spec = SimSpec(name, seed=case, n_test=30)
        a, b = generate(spec), generate(spec)
        same = (np.array_equal(a.train.y, b.train.y)
                and np.array_equal(a.train.X, b.train.X)
                and np.array_equal(a.train.Z, b.train.Z)
                and np.array_equal(a.test.y, b.test.y)
                and np.array_equal(a.truth.mu_train, b.truth.mu_train))
        if not same:
            bad.append(f"case {case}: {name} not reproducible")
        other = generate(SimSpec(name, seed=case + 10_000, n_test=30))
        if np.array_equal(other.train.y, a.train.y):
            bad.append(f"case {case}: {name} ignores the seed")
    return bad


def test_objective_monotone_over_passes():
    assert run_monotonicity_suite() == []

def test_hierarchy_in_every_fit():
    assert run_hierarchy_suite() == []

def test_warm_start_reaches_the_same_solution():
    assert run_warm_start_suite() == []

def test_saved_models_predict_identically():
    assert run_serialization_suite() == []

def test_generators_deterministic_in_seed():
    assert run_generator_suite() == []


def _block_objective(d, r, g, rho, mu):
    """The block objective recomputed from the N-length residual."""
    e = r - d @ g
    tn = float(np.linalg.norm(g[1:]))
    return (float(e @ e) / (2.0 * r.size) + rho * (float(np.hypot(g[0], tn)) + tn)
            + mu * float(np.abs(g[1:]).sum()))


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       k=st.integers(0, 4), lam=st.floats(1e-3, 1.5),
       alpha=st.floats(0.0, 0.99), warm=st.booleans())
def test_joint_move_is_a_monotone_fixed_point(seed, n, k, lam, alpha, warm):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    Z = rng.standard_normal((n, k))
    r = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
    g0 = rng.standard_normal(k + 1) if warm else np.zeros(k + 1)
    # no iteration cap, so the loop ends by its stopping rule, which is the
    # property checked; a block left at the cap (possible when N <= K makes
    # the block Gram matrix singular) is revisited by the outer passes
    cfg = SolverConfig(alpha=alpha, max_prox_iters=100_000)
    rho, mu = (1.0 - alpha) * lam, alpha * lam
    ws = Workspace(Dataset(r, x[:, None], Z))
    d, gram, t = ws.block(0)
    c = d.T @ r / n
    g, stopped = _block_minimize(gram, c, 0.5 * float(r @ r) / n, g0, rho, mu,
                                 t, cfg)
    assert stopped

    # one more prox-gradient step from the output must not move it by more
    # than the inner stopping tolerance allows: sqrt(K+1) * 0.05 tol_kkt t
    z = g - t * (gram @ g - c)
    beta, theta = prox_group(z[0], z[1:], t * rho, t * mu)
    step = np.concatenate([[beta], theta]) - g
    assert float(np.max(np.abs(step))) <= np.sqrt(k + 1) * 0.05 * cfg.tol_kkt * t

    f0 = _block_objective(d, r, g0, rho, mu)
    assert _block_objective(d, r, g, rho, mu) <= f0 + 1e-12 * max(1.0, abs(f0))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(2, 30),
       p=st.integers(1, 6), k=st.integers(0, 4), alpha=st.floats(0.0, 0.99),
       binary=st.booleans())
def test_lambda_max_is_the_zero_certificate_threshold(seed, extra, p, k, alpha,
                                                      binary):
    rng = np.random.default_rng(seed)
    n = k + 1 + extra  # the residual off (1, Z) keeps at least 2 dimensions
    X = rng.standard_normal((n, p))
    Z = (rng.random((n, k)) < 0.5).astype(float) if binary \
        else rng.standard_normal((n, k))
    assume(np.all(np.ptp(Z, axis=0) > 0.0))  # standardize rejects constants
    y = rng.standard_normal(n) + X[:, 0] * (1.0 + Z.sum(axis=1))
    std, _ = standardize(Dataset(y, X, Z if k else None), True, True, True)
    A = np.column_stack([np.ones(n), std.Z])
    coef = np.linalg.lstsq(A, std.y, rcond=None)[0]
    lmax = lambda_max(std, alpha)
    oracle = zero_threshold_oracle(std.X, std.Z, std.y - A @ coef, alpha)
    assert lmax == pytest.approx(oracle, rel=1e-9)

    # the intercept-only fit is certified at lambda_max and not just below
    fit = PliableFit(coef[0], coef[1:], np.zeros(p), {}, lmax, alpha)
    assert check_kkt(fit, std).per_group.max() <= 1e-12
    if lmax > 0.0:
        below = check_kkt(fit, std, lam=lmax * (1.0 - 1e-6))
        assert below.per_group.max() > 0.0


# how a random fit sets each group: all zero, beta only, theta only, both,
# or both with at least one zero entry in the theta row
_GROUP_KINDS = ("zero", "beta", "theta", "both", "sparse")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
       k=st.integers(0, 4), lam=st.floats(0.0, 2.0),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       kinds=st.lists(st.sampled_from(_GROUP_KINDS), min_size=1, max_size=6))
def test_kkt_report_matches_loop_oracle(seed, n, k, lam, alpha, kinds):
    rng = np.random.default_rng(seed)
    p = len(kinds)
    X = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, k))
    y = 2.0 * rng.standard_normal(n)
    beta = np.zeros(p)
    theta = np.zeros((p, k))
    for j, kind in enumerate(kinds):
        if kind in ("beta", "both", "sparse"):
            beta[j] = rng.standard_normal()
        if kind in ("theta", "both", "sparse"):
            theta[j] = rng.standard_normal(k)
        if kind == "sparse" and k:
            theta[j, rng.integers(k)] = 0.0
    fit = PliableFit.from_dense(rng.standard_normal(), rng.standard_normal(k),
                                beta, theta)
    got = check_kkt(fit, Dataset(y, X, Z), lam, alpha).per_group
    want = kkt_per_group_oracle(y, X, Z, fit.beta0, fit.theta0, beta, theta,
                                lam, alpha)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
