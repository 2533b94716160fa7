"""Randomized invariant suites.

Each suite runs ``n_cases`` independent seeded cases and returns a list of
failure descriptions, so the acceptance tests can reuse the exact same
machinery and report counts.
"""

import contextlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plasso.io import load_model, save_model
from plasso.model import Dataset, PliableFit, objective, predict
from plasso.path import fit_path, lambda_max
from plasso.preprocess import standardize
from plasso.simulate import SPEC_NAMES, SimSpec, generate
from plasso.solver import (SolverConfig, Workspace, _block_minimize,
                           _block_value, _Fitter, _solve_k1,
                           _solve_on_support, check_kkt, fit_single_lambda,
                           prox_group)

from oracles import (block_residual_oracle, kkt_per_group_oracle,
                     satisfies_hierarchy, zero_threshold_oracle)


@contextlib.contextmanager
def objective_spy():
    """Yield a list that fills, while the block runs, with the objective of
    every fit's iterate before and after each pass's intercept refresh, as
    ``model.objective`` computes it from scratch.  The spy wraps
    ``_Fitter._refresh_intercepts`` and puts it back on exit."""
    seen = []
    refresh = _Fitter._refresh_intercepts

    def spy(self):
        seen.append(objective(self._build_fit(), self.data).total)
        refresh(self)
        seen.append(objective(self._build_fit(), self.data).total)

    _Fitter._refresh_intercepts = spy
    try:
        yield seen
    finally:
        _Fitter._refresh_intercepts = refresh


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
        with objective_spy() as seen:
            fit_single_lambda(data, lam, SolverConfig(alpha=alpha))
        trace = np.asarray(seen)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        if trace.size < 2:
            bad.append(f"case {case}: the spy saw {trace.size} objective "
                       "values")
        elif np.any(np.diff(trace) > slack):
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
        cfg = SolverConfig(alpha=alpha, tol_kkt=1e-8)
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


def _step(gram):
    """The fixed step 1/L of the block loop, L the largest eigenvalue of G."""
    lip = float(np.linalg.eigvalsh(gram)[-1])
    return 1.0 / lip if lip > 0 else 1.0


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
    if t is None:
        t = _step(gram)  # K = 1 blocks carry no step; the fitter never loops
    c = d.T @ r / n
    g, stopped = _block_minimize(gram, c, g0, rho, mu, t, cfg)
    assert stopped

    # one more prox-gradient step from the output must not move it by more
    # than the inner stopping tolerance allows: sqrt(K+1) * 0.05 tol_kkt t
    step = prox_group(g - t * (gram @ g - c), t * rho, t * mu) - g
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


def _k1_objective(gram, c, g, rho, mu):
    """0.5 g'G g - c'g + rho ||g||_2 + (rho + mu) |t|, the K = 1 block."""
    return (0.5 * float(g @ gram @ g) - float(c @ g)
            + rho * float(np.hypot(g[0], g[1])) + (rho + mu) * abs(g[1]))


@settings(max_examples=300, deadline=None)
@example(seed=117, n=2, regime="beta", design="singular", lam=1.0, alpha=0.0)
@example(seed=117, n=2, regime="joint+", design="singular", lam=1.0,
         alpha=0.0)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       regime=st.sampled_from(("zero", "beta", "joint+", "joint-")),
       design=st.sampled_from(("gaussian", "binary", "singular")),
       lam=st.floats(1e-3, 2.0), alpha=st.floats(0.0, 0.99))
def test_exact_k1_block_solve_matches_loop_oracle(seed, n, regime, design,
                                                  lam, alpha):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if design == "gaussian":
        z = rng.standard_normal(n)
    else:
        z = (rng.random(n) < 0.5).astype(float)
        if design == "singular":
            # z constant on x's support: x o z is x or 0, so the block Gram
            # matrix [x, x o z]'[x, x o z] / N is singular
            x = np.where(z == z[0], x, 0.0)
    rho, mu = (1.0 - alpha) * lam, alpha * lam
    _, gram, _ = Workspace(Dataset(x, x[:, None], z[:, None])).block(0)
    # build c from the optimality conditions of a chosen minimizer g_star
    # in the drawn regime, with 1% slack in each inequality
    u = rng.standard_normal(2)
    u *= 0.99 * rng.random() / np.linalg.norm(u)
    v = rng.uniform(-0.99, 0.99)
    e2 = np.array([0.0, 1.0])
    b_star = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
    if regime == "zero":
        g_star = np.zeros(2)
        sub = rho * u + (rho + mu) * v * e2
    elif regime == "beta":
        g_star = np.array([b_star, 0.0])
        sub = np.array([rho * np.sign(b_star), (rho + mu) * v])
    else:
        s = 1.0 if regime == "joint+" else -1.0
        g_star = np.array([b_star, s * rng.uniform(0.1, 2.0)])
        sub = rho * g_star / np.linalg.norm(g_star) + (rho + mu) * s * e2
    c = gram @ g_star + sub

    g = np.array(_solve_k1(gram, c, rho, mu))
    assert (g[0] != 0.0, np.sign(g[1])) == (
        regime != "zero", {"joint+": 1.0, "joint-": -1.0}.get(regime, 0.0))
    a, q = c - gram @ g
    assert block_residual_oracle(a, [q], g[0], g[1:], rho, mu) <= 1e-10
    # c carries the rounding of its own construction, up to about eps ||c||
    # per entry.  In the beta regime b = S(c_0, rho) / G_00 passes it on
    # divided by G_00, which the singular design can leave near zero (the
    # pinned beta example draws G_00 = 7.4e-10 and misses b* by 7.4e-8);
    # the solve itself must give the soft-threshold of that same rounded c.
    # In the joint regimes the group penalty has no curvature along g*, so
    # the rounding moves the minimizer by about eps ||c|| over
    # g*'G g* / ||g*||^2 (the pinned joint+ example: G = diag(7.4e-10, 0),
    # misses of 4.4e-8 and 6.6e-8, while the solve's own backward error is
    # 1.5e-17, below the construction's)
    rounding = 2.0 * np.finfo(float).eps * np.linalg.norm(c)
    tol = 1e-8
    if regime == "beta":
        tol += rounding / gram[0, 0]
        b_c = np.copysign(max(abs(c[0]) - rho, 0.0), c[0]) / gram[0, 0]
        assert abs(g[0] - b_c) <= 1e-12 * abs(b_c)
    elif regime != "zero":
        tol += rounding * (g_star @ g_star) / (g_star @ gram @ g_star)
    assert abs(g[0] - g_star[0]) <= tol
    assert abs(g[1] - g_star[1]) <= (1e-8 if regime == "beta" else tol)

    cfg = SolverConfig(alpha=alpha, tol_kkt=1e-10, max_prox_iters=20_000)
    g_loop, _ = _block_minimize(gram, c, np.zeros(2), rho, mu, _step(gram),
                                cfg)
    assert (_k1_objective(gram, c, g, rho, mu)
            <= _k1_objective(gram, c, g_loop, rho, mu) + 1e-12)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       k=st.integers(2, 6),
       design=st.sampled_from(("gaussian", "singular", "collinear")),
       warm=st.sampled_from(("exact", "right", "extra", "missing", "flip")),
       lam=st.floats(1e-3, 2.0),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
def test_exact_joint_solve_is_certified_or_declines(seed, n, k, design, warm,
                                                    lam, alpha):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    Z = rng.standard_normal((n, k))
    if design == "singular":
        # z_0 constant on x's support: x o z_0 = z_0[0] x
        Z[:, 0] = (rng.random(n) < 0.5).astype(float)
        x = np.where(Z[:, 0] == Z[0, 0], x, 0.0)
        assume(np.any(x != 0.0))
    elif design == "collinear":
        Z[:, 1] = Z[:, 0]  # two equal interaction columns
    rho, mu = (1.0 - alpha) * lam, alpha * lam
    ws = Workspace(Dataset(x, x[:, None], Z))
    _, gram, t = ws.block(0)
    # c from the subgradient conditions of a chosen minimizer g_star with
    # theta support S and signs s, with 1% slack off S
    on = rng.random(k) < 0.6
    on[rng.integers(k)] = True
    s = np.where(on, rng.choice([-1.0, 1.0], k), 0.0)
    g_star = np.concatenate(([rng.choice([0.0, 1.0]) * rng.normal()],
                             s * rng.uniform(0.1, 2.0, k)))
    th = g_star[1:]
    sub = rho * g_star / np.linalg.norm(g_star)
    sub[1:] += np.where(on, rho * th / np.linalg.norm(th) + mu * s,
                        mu * rng.uniform(-0.99, 0.99, k))
    c = gram @ g_star + sub

    # the warm start: its theta support is the minimizer's or a wrong one
    g0 = np.concatenate(([rng.normal()], s * rng.uniform(0.05, 3.0, k)))
    if warm == "exact":
        g0 = g_star.copy()
    elif warm == "extra" and not on.all():
        g0[1 + rng.choice(np.flatnonzero(~on))] = rng.choice([-1.0, 1.0])
    elif warm == "missing" and on.sum() > 1:
        g0[1 + rng.choice(np.flatnonzero(on))] = 0.0
    elif warm != "right":
        warm = "flip"
        g0[1 + rng.choice(np.flatnonzero(on))] *= -1.0
    right = warm in ("exact", "right")

    g = _solve_on_support(gram, c, g0, rho, mu, ws.support(0, g0[1:]))
    if g is None:
        # an exact warm start on a nonsingular block must succeed, unless
        # mu is too small for the rounding of the pulls off S
        assert not (warm == "exact" and (mu >= 1e-8 or on.all())
                    and design == "gaussian" and n > k + 1)
        return
    # a block returned is certified: it meets every subgradient condition
    # of the block, so it is the minimizer
    pull = c - gram @ g
    assert block_residual_oracle(pull[0], pull[1:], g[0], g[1:], rho,
                                 mu) <= 1e-10
    # so its support is the chosen one, unless mu is so small that the 1%
    # slack off S drowns in rounding: then a theta entry off S may come back
    # as a rounding-size value of either sign
    assert right or mu < 1e-8

    cfg = SolverConfig(alpha=alpha, tol_kkt=1e-10, max_prox_iters=20_000)
    g_loop, _ = _block_minimize(gram, c, g0, rho, mu, t, cfg)
    value = _block_value(gram, c, g_loop, rho, mu)
    assert _block_value(gram, c, g, rho, mu) <= value + 1e-12 * max(1.0,
                                                                    abs(value))


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       k=st.integers(2, 6),
       design=st.sampled_from(("gaussian", "shifted", "singular",
                               "collinear")),
       lam=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       visits=st.integers(1, 2), lean=st.booleans(),
       start=st.sampled_from(("row", "beta", "zero")))
def test_row_visit_meets_block_oracle(seed, n, k, design, lam, alpha, visits,
                                      lean, start):
    # a K >= 2 block visit, whichever move ends it: the exact solve on the
    # row's support, the beta-only soft-threshold (also to the zero block)
    # or the joint prox loop.  It starts from a warm theta row, which mostly
    # takes the loop, from a warm beta_j with no row, or from the cold zero
    # block, which has no zero certificate of its own to pass; a second
    # visit starts where the first ended, which the exact solve mostly
    # accepts
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    Z = rng.standard_normal((n, k))
    if design == "singular":
        # z_0 constant on x's support: x o z_0 = z_0[0] x
        Z[:, 0] = (rng.random(n) < 0.5).astype(float)
        x = np.where(Z[:, 0] == Z[0, 0], x, 0.0)
        assume(np.any(x != 0.0))
    elif design == "collinear":
        Z[:, 1] = Z[:, 0]  # two equal interaction columns
    elif design == "shifted":
        # uncentered Z: x o z_k leans on x, so the theta pull of the
        # beta-only move depends on its b
        Z += rng.uniform(-2.0, 2.0, k)
    y = rng.standard_normal(n) * rng.uniform(0.1, 3.0) + x * (
        Z @ rng.standard_normal(k) * rng.uniform(0.0, 2.0))
    if lean:
        # y mostly x less its projection on the interaction columns: the
        # theta pull vanishes at b = 0, not at the beta-only move's b
        w = x[:, None] * Z
        y = 0.01 * y + rng.uniform(0.5, 3.0) * (
            x - w @ np.linalg.lstsq(w, x, rcond=None)[0])
    data = Dataset(y, x[:, None], Z)
    row = np.where(rng.random(k) < 0.6, rng.standard_normal(k), 0.0)
    row[rng.integers(k)] = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0)
    b = rng.normal() if start != "zero" else 0.0
    warm = PliableFit(0.0, np.zeros(k), np.array([b]),
                      {0: row} if start == "row" else {})
    cfg = SolverConfig(alpha=alpha, tol_kkt=1e-10, max_prox_iters=100_000)
    fitter = _Fitter(data, lam, cfg, warm, Workspace(data))
    d = np.column_stack([x, x[:, None] * Z])
    scale = max(1.0, float(np.abs(d.T @ y).max()) / n)
    for _ in range(visits):
        before = objective(fitter._build_fit(), data).total
        fitter._update_group(0)
        after = objective(fitter._build_fit(), data).total
        assert after <= before + 1e-12 * max(1.0, abs(before))
        # a loop cut at its cap leaves a block the outer passes revisit
        assume(fitter.n_prox_capped == 0)
        # the running residual took one update; it still is y - yhat
        fit = fitter._build_fit()
        np.testing.assert_allclose(
            fitter.r, y - predict(fit, data.X, data.Z), rtol=0.0,
            atol=1e-12 * max(1.0, np.abs(y).max()))
        pull = d.T @ fitter.r / n
        assert block_residual_oracle(pull[0], pull[1:], fit.beta[0],
                                     fit.theta[0], (1.0 - alpha) * lam,
                                     alpha * lam) <= 1e-9 * scale

