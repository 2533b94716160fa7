import json
import re

import numpy as np
import pytest

from plasso.io import save_model
from plasso.model import Dataset, PliableFit, interaction_block, objective, predict
from plasso.path import fit_path, lambda_max
from plasso.preprocess import standardize
from plasso.simulate import SimSpec, generate
import plasso.solver
from plasso.solver import (ConvergenceError, SolverConfig, Workspace,
                           ProxSolveError, check_kkt, fit_single_lambda,
                           prox_group, soft_threshold)

from oracles import (lasso_cd, norm_equation_residuals, prox_objective,
                     prox_oracle, satisfies_hierarchy)
from test_properties import objective_spy


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

    def test_infinite_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be finite"):
            soft_threshold(np.ones(3), np.inf)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be >= 0, got nan"):
            soft_threshold(np.array([1.0, -2.0]), np.nan)


class TestProxGroup:
    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = rng.integers(1, 5)
            zb = rng.normal(scale=2.0)
            zt = rng.normal(scale=2.0, size=k)
            c = rng.uniform(0.01, 1.5)
            l1 = rng.uniform(0.0, 1.5)
            g = prox_group(np.concatenate(([zb], zt)), c, l1)
            beta, theta = g[0], g[1:]
            beta_o, theta_o = prox_oracle(zb, zt, c, l1)
            assert beta == pytest.approx(beta_o, abs=1e-9)
            np.testing.assert_allclose(theta, theta_o, atol=1e-9)

    def test_never_beats_oracle_objective(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            zb = rng.normal(scale=3.0)
            zt = rng.normal(scale=3.0, size=3)
            c, l1 = rng.uniform(0.05, 2.0, size=2)
            got = prox_group(np.concatenate(([zb], zt)), c, l1)
            ours = prox_objective(got[0], got[1:], zb, zt, c, l1)
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
            g = prox_group(np.concatenate(([zb], zt)), c, l1)
            beta, theta = g[0], g[1:]
            tn = float(np.linalg.norm(theta))
            if beta != 0.0 and tn > 0.0:
                st = soft_threshold(np.asarray(zt), l1)
                r1, r2 = norm_equation_residuals(
                    abs(beta), tn, abs(zb), float(np.linalg.norm(st)), c)
                assert max(r1, r2) < 1e-9
                hit += 1
        assert hit > 50

    def test_joint_zero_when_pull_small(self):
        # the theta norm after its shrink is (0.3 - 0.5)+ = 0, and the block
        # norm hypot(0.3, 0) falls below c
        assert prox_group(np.array([0.3, 0.3]), 0.5, 0.0).tolist() == [0.0, 0.0]
        # boundary: hypot(|z_0|, (||theta|| - c)+) == c exactly
        assert prox_group(np.array([0.5, 0.2]), 0.5, 0.0).tolist() == [0.0, 0.0]

    def test_theta_dies_first(self):
        g = prox_group(np.array([2.0, 0.4]), 0.5, 0.0)
        assert g[1] == 0.0
        assert g[0] == pytest.approx(1.5)  # collapses to scalar soft threshold

    def test_sign_carried_from_input(self):
        g = prox_group(np.array([-2.0, 0.0, 0.0]), 0.5, 0.1)
        assert g[0] == pytest.approx(-1.5)

    def test_shrinks_toward_zero(self):
        z = np.array([1.0, 2.0, -1.0])
        g = prox_group(z, 0.3, 0.2)
        assert g.shape == z.shape
        assert np.all(np.abs(g) <= np.abs(z))

    def test_non_finite_output_raises(self):
        # the squared theta norm overflows, so the block shrink factor is
        # inf / inf; the map raises instead of returning NaN
        z = np.array([1.5e308, 1.5e308])
        with np.errstate(over="ignore"), pytest.raises(ProxSolveError) as err:
            prox_group(z, 1.0, 0.0)
        diag = err.value.diagnostics
        assert diag["z"].tolist() == z.tolist()
        assert (diag["c"], diag["l1"]) == (1.0, 0.0)

    @pytest.mark.parametrize("z", [[1.0, np.nan, 2.0], [0.1, np.nan],
                                   [np.nan, 1.0, 2.0], [np.inf, 0.0]])
    def test_non_finite_input_raises(self, z):
        # a NaN theta entry used to fail `g2 > c` and come out as 0, and with
        # a small beta pull the whole block as zeros
        with pytest.raises(ProxSolveError, match="non-finite"):
            prox_group(np.array(z), 0.5, 0.0)

    @pytest.mark.parametrize("c", [-1.0, np.nan, np.inf])
    def test_bad_group_penalty_rejected(self, c):
        # a negative c used to return a block
        with pytest.raises(ValueError, match="c must be >= 0 and finite"):
            prox_group(np.array([1.0, 1.0, 2.0]), c, 0.1)

    def test_nan_l1_rejected(self):
        # the theta soft-threshold rejects it before any norm is formed
        with pytest.raises(ValueError, match="threshold"):
            prox_group(np.array([1.0, 1.0, 2.0]), 0.5, np.nan)


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["max_outer_iters", "max_prox_iters"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, 0])
    def test_iteration_caps_are_integers(self, field, value):
        # NaN, inf and 2.5 used to be accepted as caps
        with pytest.raises(ValueError, match=f"{field} must be an integer "
                                             ">= 1"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tol_kkt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e-8])
    def test_tolerance_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and "
                                             "finite"):
            SolverConfig(**{field: value})

    def test_objective_tolerance_is_gone(self):
        # the KKT report is the only stopping rule
        with pytest.raises(TypeError, match="tol_obj"):
            SolverConfig(tol_obj=1e-8)


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
        cfg = SolverConfig(tol_kkt=1e-10)
        lam, t = 0.05, 0.01
        fit = fit_single_lambda(data, lam, cfg)
        assert fit.beta[0] != 0.0 and 0 in fit.theta_rows
        r = data.y - predict(fit, data.X, data.Z)
        d = np.column_stack([data.X[:, 0],
                             interaction_block(data.X, data.Z, 0)])
        g = np.concatenate([[fit.beta[0]], fit.theta[0]])
        z = g + t * (d.T @ r) / data.n_samples
        g_new = prox_group(z, t * (1.0 - cfg.alpha) * lam, t * cfg.alpha * lam)
        assert g_new[0] == pytest.approx(fit.beta[0], abs=1e-7)
        np.testing.assert_allclose(g_new[1:], g[1:], atol=1e-7)


class TestRowVisit:
    """The Gram-form visit of groups with a theta row, which updates the
    running residual once per visit instead of rebuilding r_{-j}."""

    def test_running_kkt_matches_recomputed_along_path(self):
        # FitDiagnostics.kkt comes from the fitter's running residual and
        # check_kkt recomputes it from the coefficients, so agreement along
        # a warm-started K = 4 path shows that the residual does not drift
        cfg = SolverConfig()
        train = generate(SimSpec("df_null", seed=3)).train
        assert train.n_modifiers == 4
        std, _ = standardize(train, cfg.standardize_x, cfg.standardize_z,
                             cfg.center_y)
        ws = Workspace(std)
        warm = None
        rows = 0
        for lam in np.geomspace(0.3, 0.003, 20):
            warm, diag = fit_single_lambda(std, lam, cfg, warm=warm,
                                           workspace=ws,
                                           return_diagnostics=True)
            rows = max(rows, len(warm.theta_rows))
            np.testing.assert_allclose(diag.kkt.per_group,
                                       check_kkt(warm, std).per_group,
                                       rtol=0.0, atol=1e-10)
        assert rows > 1  # the path reached the Gram-form visit

    def test_exact_solve_stays_in_the_normal_floats(self):
        # a bootstrap refit of df_null whose group 1 certifies zero at
        # lambda[6] = 0.07: the exact solve on the group's warm support used
        # to follow its norm equations toward the zero block until the
        # squared norms were subnormal, accept a block of norm 4e-162 there
        # and leave a KKT residual of 8.7e-4 through 1000 passes
        seed = 1232992847
        sim = generate(SimSpec("df_null", seed=seed))
        draws = np.random.default_rng(seed).standard_normal((4, 100))
        data = Dataset(sim.truth.mu_train + draws[3], sim.train.X,
                       sim.train.Z)
        path = fit_path(data, SolverConfig(),
                        lambdas=np.geomspace(0.3, 0.003, 20))
        assert max(d.kkt_max for d in path.diagnostics) <= 1e-4
        for fit in path.fits:
            for j, row in fit.theta_rows.items():
                assert np.hypot(fit.beta[j], np.linalg.norm(row)) > 1e-100

    def test_zero_column_with_row_rejected(self):
        # a warm theta row on an all-zero column: the exact solve declines
        # and the beta-only move names the column, as for a beta-only warm
        # start (TestSingleBlockOps)
        rng = np.random.default_rng(2)
        X = np.column_stack([np.zeros(6), rng.standard_normal(6)])
        data = Dataset(rng.standard_normal(6), X, rng.standard_normal((6, 2)))
        warm = PliableFit(0.0, np.zeros(2), np.array([1.0, 0.0]),
                          {0: np.array([0.5, -0.5])})
        with pytest.raises(ValueError, match="column 0"):
            fit_single_lambda(data, 1.0, warm=warm)


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

    @pytest.mark.parametrize("lam, alpha, message", [
        (np.nan, None, "lam must be >= 0 and finite, got nan"),
        (np.inf, None, "lam must be >= 0 and finite, got inf"),
        (-0.1, None, "lam must be >= 0 and finite"),
        (None, np.nan, r"alpha must lie in \[0, 1\), got nan"),
        (None, np.inf, r"alpha must lie in \[0, 1\), got inf"),
    ])
    def test_kkt_and_objective_reject_bad_penalty(self, lam, alpha, message):
        # check_kkt(fit, data, lam=nan) used to return a NaN report
        data = toy_data(np.random.default_rng(0), n=20)
        fit = fit_single_lambda(data, 0.1)
        with pytest.raises(ValueError, match=message):
            check_kkt(fit, data, lam=lam, alpha=alpha)
        with pytest.raises(ValueError, match=message):
            objective(fit, data, lam=lam, alpha=alpha)

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
        cfg = SolverConfig(tol_kkt=1e-8)
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
        with objective_spy() as trace:
            _, diag = fit_single_lambda(data, 0.05, return_diagnostics=True)
        # before and after each pass's intercept refresh
        assert len(trace) == 2 * diag.n_passes >= 2
        assert np.all(np.diff(trace) <= 1e-12)

    def test_zero_lambda_reaches_least_squares(self):
        rng = np.random.default_rng(12)
        cfg = SolverConfig(tol_kkt=1e-9)
        # k = 1 takes the exact block solve, k = 2 the prox loop
        for k in (2, 1):
            data = toy_data(rng, n=60, p=3, k=k)
            fit = fit_single_lambda(data, 0.0, cfg)
            r = data.y - predict(fit, data.X, data.Z)
            n = data.n_samples
            # stationarity of the unpenalized loss: r is orthogonal to
            # every column
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
        cfg = SolverConfig(alpha=alpha, tol_kkt=1e-10)
        fit = fit_single_lambda(data, lam, cfg)
        b0_ref, beta_ref = lasso_cd(X, y, (1.0 - alpha) * lam)
        np.testing.assert_allclose(fit.beta, beta_ref, atol=1e-6)
        assert fit.beta0 == pytest.approx(b0_ref, abs=1e-6)

    def test_warm_start_matches_cold(self):
        rng = np.random.default_rng(14)
        data = toy_data(rng, n=50)
        cfg = SolverConfig(tol_kkt=1e-9)
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
        cfg = SolverConfig(max_outer_iters=1, tol_kkt=1e-14)
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
        # collinear Z with a low inner cap: joint solves are cut at
        # max_prox_iters before the fit converges, and the message counts them
        data = collinear_z_data(np.random.default_rng(32))
        cfg = SolverConfig(alpha=0.5, max_prox_iters=20, **RAW)
        lam = 1e-3 * lambda_max(data, cfg.alpha)
        _, diag = fit_single_lambda(data, lam, cfg, return_diagnostics=True)
        short = SolverConfig(alpha=0.5, max_prox_iters=20,
                             max_outer_iters=diag.n_passes // 2, **RAW)
        with pytest.raises(ConvergenceError) as info:
            fit_single_lambda(data, lam, short)
        capped = int(re.search(r"n_prox_capped=(\d+)\)",
                               str(info.value)).group(1))
        assert 0 < capped <= diag.n_prox_capped

    def test_capped_joint_solves_are_counted(self, tmp_path):
        # Z's columns are collinear, so the block Gram matrix [x, x o Z] is
        # singular and at a small penalty and a low inner cap some joint
        # solves reach max_prox_iters; the outer passes still certify the fit
        rng = np.random.default_rng(32)
        data = collinear_z_data(rng)
        lam = 1e-3 * lambda_max(data, 0.5)
        _, diag = fit_single_lambda(data, lam, SolverConfig(alpha=0.5, **RAW),
                                    return_diagnostics=True)
        assert diag.n_prox_capped == 0  # the default cap is not reached
        cfg = SolverConfig(alpha=0.5, max_prox_iters=20, **RAW)
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

    @pytest.mark.parametrize("cap", [2, 5, 20])
    def test_capped_joint_solve_never_rises(self, monkeypatch, cap):
        # momentum steps need not descend, so a joint solve cut at
        # max_prox_iters must still end no higher than it started; then no
        # pass raises the objective
        def value(gram, c, g, rho, mu):
            tn = float(np.linalg.norm(g[1:]))
            return (0.5 * g @ gram @ g - c @ g + rho * (np.hypot(g[0], tn) + tn)
                    + mu * np.abs(g[1:]).sum())

        inner = plasso.solver._block_minimize
        rises = []

        def spy(gram, c, g0, rho, mu, cfg):
            g, stopped = inner(gram, c, g0, rho, mu, cfg)
            if not stopped:
                f0 = value(gram, c, g0, rho, mu)
                rises.append((value(gram, c, g, rho, mu) - f0)
                             / max(1.0, abs(f0)))
            return g, stopped

        monkeypatch.setattr(plasso.solver, "_block_minimize", spy)
        data = collinear_z_data(np.random.default_rng(32))
        lam = 1e-3 * lambda_max(data, 0.5)
        cfg = SolverConfig(alpha=0.5, max_prox_iters=cap, **RAW)
        with objective_spy() as obj:
            _, diag = fit_single_lambda(data, lam, cfg,
                                        return_diagnostics=True)
        assert len(rises) == diag.n_prox_capped > 0
        assert max(rises) <= 1e-12
        assert len(obj) >= 2
        assert all(b <= a + 1e-12 * max(1.0, abs(a))
                   for a, b in zip(obj, obj[1:]))

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


class TestFullPass:
    """A full pass takes one sweep of pulls over all groups (``_pulls``),
    after its intercept refresh; the sweep gives both the KKT report and
    the groups to visit."""

    @staticmethod
    def _passes(monkeypatch, data, lam, **kwargs):
        """Fit at lam and return the fit, its diagnostics and, per pass,
        the residuals of the sweeps that pass took."""
        passes = []
        pulls = plasso.solver._pulls
        refresh = plasso.solver._Fitter._refresh_intercepts

        def pulls_traced(X, Z, r):
            passes[-1].append(r.copy())
            return pulls(X, Z, r)

        def refresh_traced(self):
            passes.append([])
            refresh(self)

        monkeypatch.setattr(plasso.solver, "_pulls", pulls_traced)
        monkeypatch.setattr(plasso.solver._Fitter, "_refresh_intercepts",
                            refresh_traced)
        fit, diag = fit_single_lambda(data, lam, return_diagnostics=True,
                                      **kwargs)
        monkeypatch.undo()
        return fit, diag, passes

    @pytest.mark.parametrize("k", [0, 1, 4])
    @pytest.mark.parametrize("frac", [0.5, 0.1, 0.01])
    def test_one_sweep_per_full_pass(self, monkeypatch, k, frac):
        rng = np.random.default_rng(20 + k)
        data = toy_data(rng, n=60, p=8, k=max(k, 1))
        if k == 0:
            data = Dataset(data.y, data.X)
        lam = frac * lambda_max(data, 0.5)
        fit, diag, passes = self._passes(monkeypatch, data, lam)
        assert len(passes) == diag.n_passes
        # a pass takes no sweep (an active pass) or one (a full pass); the
        # first and the last are full
        assert all(len(sweeps) <= 1 for sweeps in passes)
        assert len(passes[0]) == len(passes[-1]) == 1
        # the last sweep is the report of the returned coefficients
        np.testing.assert_allclose(passes[-1][0],
                                   data.y - predict(fit, data.X, data.Z),
                                   rtol=0.0, atol=1e-12)
        assert diag.kkt.max_violation <= SolverConfig().tol_kkt

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_cold_fit_at_lambda_max_is_one_sweep(self, monkeypatch, k):
        rng = np.random.default_rng(30 + k)
        data = toy_data(rng, n=60, p=8, k=max(k, 1))
        if k == 0:
            data = Dataset(data.y, data.X)
        lam = lambda_max(data, 0.5)
        fit, diag, passes = self._passes(monkeypatch, data, lam)
        assert fit.n_nonzero_beta == 0 and not fit.theta_rows
        # visiting nothing leaves the iterate its own report certified
        assert diag.n_passes <= 2
        assert [len(sweeps) for sweeps in passes] == [1] * diag.n_passes

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_certified_warm_start_returns_at_once(self, k):
        # the first pass is full, so a warm start its report certifies comes
        # back after that one pass, with only the intercepts refitted
        rng = np.random.default_rng(40 + k)
        data = toy_data(rng, n=60, p=8, k=max(k, 1))
        if k == 0:
            data = Dataset(data.y, data.X)
        lam = 0.1 * lambda_max(data, 0.5)
        fit = fit_single_lambda(data, lam)
        assert fit.n_nonzero_beta > 0 and bool(fit.theta_rows) == (k > 0)
        again, diag = fit_single_lambda(data, lam, warm=fit,
                                        return_diagnostics=True)
        assert diag.n_passes == 1
        np.testing.assert_array_equal(again.beta, fit.beta)
        np.testing.assert_array_equal(again.theta, fit.theta)
        assert abs(again.beta0 - fit.beta0) <= 1e-12
        np.testing.assert_allclose(again.theta0, fit.theta0, rtol=0.0,
                                   atol=1e-12)


class TestExactK1:
    def test_hte_path_runs_no_prox_loop(self, monkeypatch):
        # hte_a has one modifier, the treatment, so every block visit is the
        # exact K = 1 solve: the prox loop never runs and no solve is capped
        def no_loop(*args):
            raise AssertionError("the prox loop ran on a K = 1 block")

        monkeypatch.setattr(plasso.solver, "_block_minimize", no_loop)
        cfg = SolverConfig()
        train = generate(SimSpec("hte_a", seed=1)).train
        assert train.n_modifiers == 1
        path = fit_path(train, cfg, n_lambda=50)
        assert [d.n_prox_capped for d in path.diagnostics] == [0] * 50
        assert path.fits[-1].theta_rows  # the joint case was reached
        std, _ = standardize(train, cfg.standardize_x, cfg.standardize_z,
                             cfg.center_y)
        for fit, d in zip(path.fits, path.diagnostics):
            kkt = check_kkt(fit, std).max_violation
            assert kkt <= cfg.tol_kkt
            assert kkt == pytest.approx(d.kkt_max, rel=1e-6, abs=1e-12)


class TestActiveNewton:
    """The Newton step over every active block (``solver._solve_active``):
    at most once per fit, only at K >= 2 and a positive group penalty."""

    @staticmethod
    def _spy(monkeypatch):
        """Record (accepted, iterations, fitter state before, after) of
        every call of the step."""
        calls = []
        inner = plasso.solver._solve_active

        def state(ft):
            return (ft.beta.copy(), ft.theta.copy(), ft.r.copy(), ft.beta0,
                    ft.theta0.copy())

        def spy(ft):
            before = state(ft)
            accepted, iters = inner(ft)
            calls.append((accepted, iters, before, state(ft)))
            return accepted, iters

        monkeypatch.setattr(plasso.solver, "_solve_active", spy)
        return calls

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_at_most_once_per_fit_and_never_at_k1(self, monkeypatch, k):
        rng = np.random.default_rng(40 + k)
        data = toy_data(rng, n=60, p=6, k=max(k, 1))
        if k == 0:
            data = Dataset(data.y, data.X)
        calls = self._spy(monkeypatch)
        lmax = lambda_max(data, 0.5)
        for frac in (0.5, 0.2, 0.05, 0.01, 0.0):
            before = len(calls)
            fit_single_lambda(data, frac * lmax, SolverConfig(alpha=0.5))
            assert len(calls) - before <= (1 if k > 1 and frac > 0 else 0)
        if k > 1:
            assert any(accepted for accepted, *_ in calls)

    @pytest.mark.parametrize("seed", range(5))
    def test_collinear_z_declines_cleanly(self, monkeypatch, seed):
        # Z = [z, -2z] at 1e-3 lambda_max on five rows: the restricted
        # Hessian is singular up to rounding, so the step mostly declines
        # on its sign-crossing cut, and a declined step leaves the fitter
        # as it was.  The fit itself may still reach the pass cap, as it
        # does without the step
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((5, 2))
        z = rng.standard_normal(5)
        data, _ = standardize(Dataset(rng.standard_normal(5), X,
                                      np.column_stack([z, -2.0 * z])),
                              True, True, True)
        calls = self._spy(monkeypatch)
        lam = 1e-3 * lambda_max(data, 0.3)
        try:
            fit_single_lambda(data, lam, SolverConfig(alpha=0.3))
        except ConvergenceError:
            pass
        assert len(calls) == 1
        accepted, iters, before, after = calls[0]
        assert 0 <= iters <= plasso.solver._ACTIVE_CAP
        if not accepted:
            for a, b in zip(before, after):
                np.testing.assert_array_equal(a, b)

    def test_singular_hessian_declines(self):
        # two equal columns of X, both active as beta-only groups: the
        # restricted Hessian is exactly singular along (1, -1)
        rng = np.random.default_rng(41)
        x = rng.standard_normal(20)
        X = np.column_stack([x, x, rng.standard_normal(20)])
        data = Dataset(2.0 * x + rng.standard_normal(20), X,
                       rng.standard_normal((20, 2)))
        warm = PliableFit(0.0, np.zeros(2), np.array([0.5, 0.5, 0.0]), {})
        ft = plasso.solver._Fitter(data, 0.1, SolverConfig(), warm,
                                   Workspace(data))
        ft._refresh_intercepts()
        beta, r = ft.beta.copy(), ft.r.copy()
        assert plasso.solver._solve_active(ft) == (False, 0)
        np.testing.assert_array_equal(ft.beta, beta)
        np.testing.assert_array_equal(ft.r, r)
