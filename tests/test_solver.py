import json
import re

import numpy as np
import pytest

from plasso.io import save_model
from plasso.model import Dataset, PliableFit, interaction_block, objective, predict
from plasso.path import fit_path, lambda_max
from plasso.solver import (ConvergenceError, SolverConfig, Workspace,
                           check_kkt, fit_single_lambda, prox_group,
                           soft_threshold, solve_norm_system)

from oracles import (lasso_cd, norm_equation_residuals, prox_objective,
                     prox_oracle, satisfies_hierarchy)


def toy_data(rng, n=60, p=5, k=3, snr=3.0):
    X = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, k))
    mu = 1.5 * X[:, 0] + X[:, 0] * Z[:, 0] * 2.0
    if p > 1:
        mu = mu - X[:, 1]
    if p > 2 and k > 1:
        mu = mu + X[:, 2] * Z[:, 1]
    y = mu + rng.standard_normal(n) * mu.std() / snr
    return Dataset(y - y.mean(), X, Z)


def collinear_z_data(rng, n=12):
    """Z's two columns are collinear, so each block Gram matrix
    [x, x o Z]'[x, x o Z] is singular."""
    X = rng.standard_normal((n, 2))
    z = rng.standard_normal(n)
    return Dataset(rng.standard_normal(n), X, np.column_stack([z, 2.0 * z]))


# the raw-scale settings the collinear-Z cases are fitted with
RAW = dict(standardize_x=False, standardize_z=False, center_y=False)


class TestSoftThreshold:
    def test_scalar_cases(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.0, 0.0) == 0.0

    def test_vector_matches_scalar(self):
        x = np.array([3.0, -0.5, -3.0, 0.2])
        out = soft_threshold(x, 1.0)
        assert out.tolist() == [2.0, 0.0, -2.0, 0.0]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            soft_threshold(1.0, -0.1)


class TestSolveNormSystem:
    def test_joint_zero_when_pull_small(self):
        assert solve_norm_system(0.3, 0.3, 0.5) == (0.0, 0.0)
        # boundary: hypot(g1, (g2-c)+) == c exactly
        assert solve_norm_system(0.5, 0.2, 0.5) == (0.0, 0.0)

    def test_theta_dies_first(self):
        a, b = solve_norm_system(2.0, 0.4, 0.5)
        assert b == 0.0
        assert a == pytest.approx(1.5)  # collapses to scalar soft threshold

    def test_interior_satisfies_equations(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            g1, g2 = rng.uniform(0.0, 3.0, size=2)
            c = rng.uniform(0.01, 1.0)
            a, b = solve_norm_system(g1, g2, c)
            assert a >= 0.0 and b >= 0.0
            if a > 0.0 and b > 0.0:
                r1, r2 = norm_equation_residuals(a, b, g1, g2, c)
                assert max(r1, r2) < 1e-10
                checked += 1
        assert checked > 50

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            solve_norm_system(-1.0, 0.0, 0.5)


class TestProxGroup:
    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = rng.integers(1, 5)
            zb = rng.normal(scale=2.0)
            zt = rng.normal(scale=2.0, size=k)
            c = rng.uniform(0.01, 1.5)
            l1 = rng.uniform(0.0, 1.5)
            beta, theta = prox_group(zb, zt, c, l1)
            beta_o, theta_o = prox_oracle(zb, zt, c, l1)
            assert beta == pytest.approx(beta_o, abs=1e-9)
            np.testing.assert_allclose(theta, theta_o, atol=1e-9)

    def test_never_beats_oracle_objective(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            zb = rng.normal(scale=3.0)
            zt = rng.normal(scale=3.0, size=3)
            c, l1 = rng.uniform(0.05, 2.0, size=2)
            got = prox_group(zb, zt, c, l1)
            ours = prox_objective(got[0], got[1], zb, zt, c, l1)
            ref = prox_objective(*prox_oracle(zb, zt, c, l1), zb, zt, c, l1)
            assert ours <= ref + 1e-12

    def test_interior_magnitudes_solve_norm_system(self):
        rng = np.random.default_rng(13)
        hit = 0
        for _ in range(200):
            zb = rng.normal(scale=2.0)
            zt = rng.normal(scale=2.0, size=4)
            c = rng.uniform(0.01, 0.6)
            l1 = rng.uniform(0.0, 0.4)
            beta, theta = prox_group(zb, zt, c, l1)
            tn = float(np.linalg.norm(theta))
            if beta != 0.0 and tn > 0.0:
                st = soft_threshold(np.asarray(zt), l1)
                r1, r2 = norm_equation_residuals(
                    abs(beta), tn, abs(zb), float(np.linalg.norm(st)), c)
                assert max(r1, r2) < 1e-9
                hit += 1
        assert hit > 50

    def test_sign_carried_from_input(self):
        beta, _ = prox_group(-2.0, np.zeros(2), 0.5, 0.1)
        assert beta == pytest.approx(-1.5)

    def test_shrinks_toward_zero(self):
        beta, theta = prox_group(1.0, np.array([2.0, -1.0]), 0.3, 0.2)
        assert abs(beta) <= 1.0
        assert np.all(np.abs(theta) <= np.array([2.0, 1.0]))


class TestSingleBlockOps:
    def test_beta_only_zero_column_rejected(self):
        # a warm start puts group 0 in the active set, so the beta-only move
        # meets the all-zero column instead of the zero certificate
        rng = np.random.default_rng(2)
        X = np.column_stack([np.zeros(4), rng.standard_normal(4)])
        data = Dataset(rng.standard_normal(4), X, np.ones((4, 1)))
        warm = PliableFit(0.0, np.zeros(1), np.array([1.0, 0.0]), {})
        with pytest.raises(ValueError, match="column 0"):
            fit_single_lambda(data, 1.0, warm=warm)

    def test_zero_certificate_passes_on_noise_fails_on_signal(self):
        rng = np.random.default_rng(3)
        n = 200
        X = rng.standard_normal((n, 2))
        Z = rng.standard_normal((n, 2))
        zero = PliableFit.zeros(2, 2)

        def slack(r, lam):
            # the zero fit leaves r as the residual
            return check_kkt(zero, Dataset(r, X, Z), lam, 0.5).per_group[0]

        noise = rng.standard_normal(n) * 0.01
        assert slack(noise, 1.0) == 0.0
        strong = X[:, 0] * 3.0
        assert slack(strong, 1.0) > 0.0
        # the certificate is monotone in lam
        assert slack(strong, 50.0) == 0.0

    def test_screen_theta(self):
        rng = np.random.default_rng(4)
        n = 300
        X = rng.standard_normal((n, 1))
        Z = rng.standard_normal((n, 1))
        cfg = SolverConfig(alpha=0.5)
        r = X[:, 0] * 2.0 + rng.standard_normal(n) * 0.01
        fit = fit_single_lambda(Dataset(r, X, Z), 0.5, cfg)
        assert fit.beta[0] != 0.0
        assert 0 not in fit.theta_rows
        r_int = X[:, 0] * Z[:, 0] * 2.0
        fit = fit_single_lambda(Dataset(r_int, X, Z), 0.5, cfg)
        assert 0 in fit.theta_rows

    def test_converged_block_is_prox_fixed_point(self):
        rng = np.random.default_rng(5)
        data = toy_data(rng, n=50, p=1, k=2)
        cfg = SolverConfig(tol_kkt=1e-10, tol_obj=1e-14)
        lam, t = 0.05, 0.01
        fit = fit_single_lambda(data, lam, cfg)
        assert fit.beta[0] != 0.0 and 0 in fit.theta_rows
        r = data.y - predict(fit, data.X, data.Z)
        d = np.column_stack([data.X[:, 0],
                             interaction_block(data.X, data.Z, 0)])
        g = np.concatenate([[fit.beta[0]], fit.theta[0]])
        z = g + t * (d.T @ r) / data.n_samples
        beta, theta = prox_group(z[0], z[1:], t * (1.0 - cfg.alpha) * lam,
                                 t * cfg.alpha * lam)
        assert beta == pytest.approx(fit.beta[0], abs=1e-7)
        np.testing.assert_allclose(theta, g[1:], atol=1e-7)


class TestIntercepts:
    """The intercepts of a fit above lambda_max, where every group is zero."""

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(6)
        base = toy_data(rng, n=40)
        y = base.y + 3.0 + base.Z @ np.array([1.0, -2.0, 0.5])
        data = Dataset(y, base.X, base.Z)
        lam = 2.0 * lambda_max(data, 0.5)
        fit = fit_single_lambda(data, lam, SolverConfig(alpha=0.5))
        assert fit.active_groups == ()
        r = data.y - predict(fit, data.X, data.Z)
        assert abs(r.mean()) < 1e-10
        assert np.abs(data.Z.T @ r).max() / len(r) < 1e-10

    def test_no_modifiers_gives_residual_mean(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(30) + 4.0
        X = rng.standard_normal((30, 2))
        data = Dataset(y, X, None)
        fit = fit_single_lambda(data, 2.0 * lambda_max(data, 0.5))
        assert fit.active_groups == ()
        assert fit.theta0.shape == (0,)
        assert fit.beta0 == pytest.approx(y.mean())

    def test_rank_deficient_takes_minimum_norm(self):
        y = np.arange(6.0)
        X = np.ones((6, 1))
        Z = np.ones((6, 1))  # collinear with the intercept column
        data = Dataset(y, X, Z)
        assert lambda_max(data, 0.5) < 1e-12
        fit = fit_single_lambda(data, 1.0)
        assert fit.active_groups == ()
        assert fit.beta0 + fit.theta0[0] == pytest.approx(y.mean())
        # the minimum-norm split of the intercept sum is even
        assert fit.beta0 == pytest.approx(fit.theta0[0])


class TestFitSingleLambda:
    def test_rejects_bad_lambda(self):
        data = toy_data(np.random.default_rng(0), n=20)
        with pytest.raises(ValueError):
            fit_single_lambda(data, -1.0)
        with pytest.raises(ValueError):
            fit_single_lambda(data, np.inf)

    def test_huge_lambda_gives_empty_fit(self):
        rng = np.random.default_rng(8)
        data = toy_data(rng, n=50)
        fit = fit_single_lambda(data, 1e6)
        assert fit.n_nonzero_beta == 0
        assert not fit.theta_rows
        # intercepts are unpenalized, so they still absorb (1, Z)
        r = data.y - predict(fit, data.X, data.Z)
        assert abs(r.mean()) < 1e-8

    def test_kkt_within_tolerance_and_perturbation_hurts(self):
        rng = np.random.default_rng(9)
        data = toy_data(rng, n=60)
        cfg = SolverConfig(tol_kkt=1e-8, tol_obj=1e-12)
        lam = 0.08
        fit, diag = fit_single_lambda(data, lam, cfg, return_diagnostics=True)
        assert diag.kkt.max_violation <= 1e-8
        assert check_kkt(fit, data).max_violation <= 1e-8
        base = objective(fit, data).total
        for _ in range(20):
            db = rng.normal(scale=1e-3, size=5)
            dth = rng.normal(scale=1e-3, size=(5, 3))
            bumped = PliableFit.from_dense(fit.beta0, fit.theta0,
                                           fit.beta + db, fit.theta + dth,
                                           lam, cfg.alpha)
            assert objective(bumped, data).total >= base - 1e-9

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(10)
        data = toy_data(rng, n=60)
        _, diag = fit_single_lambda(data, 0.05, return_diagnostics=True)
        trace = np.array(diag.objective_per_pass)
        assert trace.size >= 1
        assert np.all(np.diff(trace) <= 1e-12)

    def test_screening_does_not_change_answer(self):
        rng = np.random.default_rng(11)
        data = toy_data(rng, n=50)
        tight = dict(tol_kkt=1e-9, tol_obj=1e-13)
        a = fit_single_lambda(data, 0.1, SolverConfig(screen=True, **tight))
        b = fit_single_lambda(data, 0.1, SolverConfig(screen=False, **tight))
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-7)
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-7)

    def test_zero_lambda_reaches_least_squares(self):
        rng = np.random.default_rng(12)
        data = toy_data(rng, n=60, p=3, k=2)
        cfg = SolverConfig(tol_kkt=1e-9, tol_obj=1e-13)
        fit = fit_single_lambda(data, 0.0, cfg)
        r = data.y - predict(fit, data.X, data.Z)
        n = data.n_samples
        # stationarity of the unpenalized loss: r orthogonal to every column
        assert np.abs(data.X.T @ r).max() / n < 1e-8
        for j in range(3):
            w = interaction_block(data.X, data.Z, j)
            assert np.abs(w.T @ r).max() / n < 1e-8

    def test_no_modifiers_matches_lasso_oracle(self):
        rng = np.random.default_rng(13)
        n, p = 80, 6
        X = rng.standard_normal((n, p))
        beta_true = np.array([2.0, -1.0, 0, 0, 0.5, 0])
        y = X @ beta_true + rng.standard_normal(n) * 0.5 + 1.0
        data = Dataset(y, X, None)
        alpha = 0.4
        lam = 0.3
        cfg = SolverConfig(alpha=alpha, tol_kkt=1e-10, tol_obj=1e-14)
        fit = fit_single_lambda(data, lam, cfg)
        b0_ref, beta_ref = lasso_cd(X, y, (1.0 - alpha) * lam)
        np.testing.assert_allclose(fit.beta, beta_ref, atol=1e-6)
        assert fit.beta0 == pytest.approx(b0_ref, abs=1e-6)

    def test_warm_start_matches_cold(self):
        rng = np.random.default_rng(14)
        data = toy_data(rng, n=50)
        cfg = SolverConfig(tol_kkt=1e-9, tol_obj=1e-13)
        cold = fit_single_lambda(data, 0.06, cfg)
        warm_src = fit_single_lambda(data, 0.2, cfg)
        warm = fit_single_lambda(data, 0.06, cfg, warm=warm_src)
        np.testing.assert_allclose(cold.beta, warm.beta, atol=1e-6)
        np.testing.assert_allclose(cold.theta, warm.theta, atol=1e-6)

    def test_warm_start_dimension_checked(self):
        data = toy_data(np.random.default_rng(0), n=20)
        wrong = PliableFit.zeros(2, 3)
        with pytest.raises(ValueError, match="warm"):
            fit_single_lambda(data, 0.1, warm=wrong)

    def test_convergence_error_carries_iterate(self):
        rng = np.random.default_rng(15)
        data = toy_data(rng, n=60)
        cfg = SolverConfig(max_outer_iters=1, tol_kkt=1e-14, tol_obj=1e-16)
        with pytest.raises(ConvergenceError) as info:
            fit_single_lambda(data, 0.01, cfg)
        err = info.value
        assert isinstance(err.fit, PliableFit)
        assert err.kkt.max_violation > 0.0
        # the message alone names the worst group and the capped solves
        msg = str(err)
        assert err.kkt.worst_group != 0
        assert f"kkt_max={err.kkt.max_violation:.3g}," in msg
        assert f"worst_group={err.kkt.worst_group}," in msg
        assert "n_prox_capped=0)" in msg
        # fit_path puts the grid index in front of the same message
        with pytest.raises(ConvergenceError) as info:
            fit_path(data, cfg, lambdas=[0.02, 0.01])
        assert str(info.value).startswith("lambda[0]=0.02: no convergence")
        assert f"worst_group={info.value.kkt.worst_group}," in str(info.value)
        # collinear Z: joint solves are cut at max_prox_iters before the
        # fit converges, and the message counts them
        data = collinear_z_data(np.random.default_rng(32))
        cfg = SolverConfig(alpha=0.5, **RAW)
        lam = 1e-3 * lambda_max(data, cfg.alpha)
        _, diag = fit_single_lambda(data, lam, cfg, return_diagnostics=True)
        short = SolverConfig(alpha=0.5, max_outer_iters=diag.n_passes // 2,
                             **RAW)
        with pytest.raises(ConvergenceError) as info:
            fit_single_lambda(data, lam, short)
        capped = int(re.search(r"n_prox_capped=(\d+)\)",
                               str(info.value)).group(1))
        assert 0 < capped <= diag.n_prox_capped

    def test_capped_joint_solves_are_counted(self, tmp_path):
        # Z's columns are collinear, so the block Gram matrix [x, x o Z] is
        # singular and at a small penalty some joint solves reach
        # max_prox_iters; the outer passes still certify the fit
        rng = np.random.default_rng(32)
        data = collinear_z_data(rng)
        cfg = SolverConfig(alpha=0.5, **RAW)
        lam = 1e-3 * lambda_max(data, cfg.alpha)
        result = fit_path(data, cfg, lambdas=[lam])
        assert result.diagnostics[0].n_prox_capped > 0
        assert result.diagnostics[0].kkt_max <= cfg.tol_kkt
        assert check_kkt(result.fits[0], data).max_violation <= cfg.tol_kkt
        save_model(tmp_path / "m.json", result)
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["diagnostics"][0]["n_prox_capped"] == \
            result.diagnostics[0].n_prox_capped
        _, diag = fit_single_lambda(data, lam, cfg, return_diagnostics=True)
        assert diag.n_prox_capped == result.diagnostics[0].n_prox_capped
        _, diag = fit_single_lambda(toy_data(rng), 0.1, cfg,
                                    return_diagnostics=True)
        assert diag.n_prox_capped == 0

    def test_workspace_reuse_and_mismatch(self):
        rng = np.random.default_rng(16)
        data = toy_data(rng, n=40)
        ws = Workspace(data)
        f1 = fit_single_lambda(data, 0.1, workspace=ws)
        f2 = fit_single_lambda(data, 0.1)
        np.testing.assert_array_equal(f1.beta, f2.beta)
        other = toy_data(rng, n=30)
        with pytest.raises(ValueError, match="workspace"):
            fit_single_lambda(other, 0.1, workspace=ws)
        # same shape, different data: the Gram caches of ws do not apply
        rng = np.random.default_rng(0)
        a = toy_data(rng, n=40, p=5, k=3)
        b = toy_data(rng, n=40, p=5, k=3)
        with pytest.raises(ValueError, match="workspace"):
            fit_single_lambda(b, 0.05, workspace=Workspace(a))
        # an equal copy is another dataset too: the workspace is tied to
        # the object it was built on, as fit_path passes it
        with pytest.raises(ValueError, match="workspace"):
            fit_single_lambda(Dataset(a.y, a.X, a.Z), 0.05,
                              workspace=Workspace(a))

    def test_hierarchy_always_holds(self):
        rng = np.random.default_rng(17)
        for lam in (0.02, 0.1, 0.5):
            data = toy_data(rng, n=50)
            fit = fit_single_lambda(data, lam)
            assert satisfies_hierarchy(fit)
