import concurrent.futures
import multiprocessing

import numpy as np
import pytest

from plasso.extras import (DfEstimate, HteResult, UnknownZConfig,
                           UnknownZResult, bootstrap_df, covariance_df,
                           fit_unknown_z, run_hte_scenario, treatment_effect)
from plasso.model import Dataset, DimensionError, PliableFit, predict
from plasso.path import fit_path
from plasso.simulate import SimSpec, generate
from plasso.solver import ConvergenceError, SolverConfig


class TestCovarianceDf:
    def test_perfect_smoother_has_df_n(self):
        rng = np.random.default_rng(41)
        n, b = 30, 2000
        y = 1.7 * rng.standard_normal((b, n))
        assert covariance_df(y, y, sigma=1.7) == pytest.approx(n, rel=0.1)

    def test_constant_prediction_has_df_zero(self):
        rng = np.random.default_rng(42)
        y = rng.standard_normal((50, 10))
        assert covariance_df(y, np.zeros_like(y), sigma=1.0) == 0.0

    def test_projection_smoother_recovers_rank(self):
        rng = np.random.default_rng(43)
        n, b, r = 40, 4000, 3
        X = rng.standard_normal((n, r))
        H = X @ np.linalg.inv(X.T @ X) @ X.T
        y = rng.standard_normal((b, n))
        df = covariance_df(y, y @ H.T, sigma=1.0)
        assert df == pytest.approx(r, rel=0.1)

    def test_scaling_by_sigma(self):
        rng = np.random.default_rng(44)
        y = 2.0 * rng.standard_normal((500, 20))
        half = covariance_df(y, 0.5 * y, sigma=2.0)
        assert half == pytest.approx(10.0, rel=0.15)

    def test_input_validation(self):
        ok = np.zeros((2, 3))
        with pytest.raises(ValueError):
            covariance_df(ok[:1], ok[:1], 1.0)
        with pytest.raises(ValueError):
            covariance_df(ok, np.zeros((2, 4)), 1.0)
        with pytest.raises(ValueError):
            covariance_df(np.zeros(3), np.zeros(3), 1.0)

    def test_zero_sigma_rejected(self):
        # used to raise a bare ZeroDivisionError
        with pytest.raises(ValueError, match="sigma must be positive"):
            covariance_df(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma .* got nan"):
            covariance_df(np.eye(3), np.eye(3), np.nan)

    @pytest.mark.parametrize("name", ["y_draws", "yhat_draws"])
    def test_nan_draw_rejected(self, name):
        draws = {"y_draws": np.eye(3), "yhat_draws": np.eye(3)}
        draws[name][1, 2] = np.nan
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            covariance_df(sigma=1.0, **draws)


class TestBootstrapDf:
    def setup_method(self):
        rng = np.random.default_rng(45)
        self.X = rng.standard_normal((40, 4))
        self.Z = rng.standard_normal((40, 2))
        self.mu = 2.0 * self.X[:, 0] + self.X[:, 0] * self.Z[:, 0]

    def test_estimate_brackets_model_size(self):
        est = bootstrap_df(self.mu, 1.0, self.X, self.Z,
                           [5.0, 0.3, 0.05], n_boot=60, seed=0)
        assert isinstance(est, DfEstimate)
        # at a huge penalty only the unpenalized (1, Z) part remains
        assert est.df_cov[0] == pytest.approx(3.0, abs=1.5)
        assert est.df_cov[-1] > est.df_cov[0]
        assert est.n_nonzero_beta[0] == 0
        assert est.n_nonzero_all.dtype.kind == "i"
        assert est.bootstrap_reps == 60

    def test_no_modifiers_is_the_covariance_of_the_refits(self):
        # Z=None stands for an (N, 0) Z: each replicate refits a lasso path
        grid = [1.0, 0.3, 0.05]
        est = bootstrap_df(self.mu, 1.0, self.X, None, grid, n_boot=4, seed=5)
        ys = self.mu + np.random.default_rng(5).standard_normal((4, 40))
        yhats = np.array([fit_path(Dataset(y, self.X), lambdas=grid)
                          .predict(self.X) for y in ys])
        assert est.df_cov.tolist() == [covariance_df(ys, yhats[:, :, i], 1.0)
                                       for i in range(3)]

    def test_deterministic_in_seed(self):
        a = bootstrap_df(self.mu, 1.0, self.X, self.Z, [1.0, 0.2],
                         n_boot=20, seed=3)
        b = bootstrap_df(self.mu, 1.0, self.X, self.Z, [1.0, 0.2],
                         n_boot=20, seed=3)
        np.testing.assert_array_equal(a.df_cov, b.df_cov)
        c = bootstrap_df(self.mu, 1.0, self.X, self.Z, [1.0, 0.2],
                         n_boot=20, seed=4)
        assert not np.array_equal(a.df_cov, c.df_cov)

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            bootstrap_df(self.mu, 0.0, self.X, self.Z, [1.0])
        with pytest.raises(ValueError, match="bootstrap"):
            bootstrap_df(self.mu, 1.0, self.X, self.Z, [1.0], n_boot=1)

    def test_nan_sigma_rejected(self):
        # used to fail inside the first refit, as "y contains non-finite"
        with pytest.raises(ValueError, match="sigma .* got nan"):
            bootstrap_df(self.mu, np.nan, self.X, self.Z, [1.0])

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        # used to fail inside numpy with a message that did not name it
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            bootstrap_df(self.mu, 1.0, self.X, self.Z, [1.0], n_boot=2,
                         seed=seed)

    def test_fractional_n_boot_rejected(self):
        # used to raise numpy's TypeError from np.empty
        with pytest.raises(ValueError, match="n_boot .* got 2.5"):
            bootstrap_df(self.mu, 1.0, self.X, self.Z, [1.0], n_boot=2.5)

    def test_nan_mu_rejected(self):
        mu = self.mu.copy()
        mu[3] = np.nan
        with pytest.raises(ValueError, match="mu contains non-finite"):
            bootstrap_df(mu, 1.0, self.X, self.Z, [1.0])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("grid, message", [
        ([0.1, 0.5], "lambda_grid must be strictly decreasing"),
        ([0.5, 0.5], "lambda_grid must be strictly decreasing"),
        ([], "lambda_grid must be a nonempty 1-d"),
        ([[0.5, 0.1]], "lambda_grid must be a nonempty 1-d"),
        ([0.5, np.nan], "lambda_grid must be finite and >= 0"),
        ([np.inf, 0.5], "lambda_grid must be finite and >= 0"),
        ([0.5, -0.1], "lambda_grid must be finite and >= 0"),
    ])
    def test_bad_grid_rejected_in_caller(self, cpus, n, grid, message):
        # used to fail inside every refit with fit_path's "lambdas must be
        # strictly decreasing"; now the caller names its own argument
        cpus(n)
        with pytest.raises(ValueError, match=message):
            bootstrap_df(self.mu, 1.0, self.X, self.Z, grid, n_boot=2)
        assert not multiprocessing.active_children()


class TestBootstrapWorkers:
    """The refits run in forked workers when there are CPUs for them; the
    result, or the error, must be the one the in-process loop gives."""

    def setup_method(self):
        rng = np.random.default_rng(47)
        self.X = rng.standard_normal((40, 4))
        self.Z = rng.standard_normal((40, 2))
        self.mu = 2.0 * self.X[:, 0] + self.X[:, 0] * self.Z[:, 0]

    def boot(self, config=None):
        return bootstrap_df(self.mu, 1.0, self.X, self.Z, [1.0, 0.3, 0.05],
                            config, n_boot=5, seed=2)

    def test_pooled_equals_in_process(self, cpus):
        cpus(2)
        pooled = self.boot()
        assert multiprocessing.active_children() == []
        cpus(1)
        serial = self.boot()
        for field in ("lambdas", "df_cov", "n_nonzero_beta", "n_nonzero_all"):
            assert np.array_equal(getattr(pooled, field),
                                  getattr(serial, field)), field
        assert pooled.bootstrap_reps == serial.bootstrap_reps == 5

    def test_in_process_while_other_threads_run(self, cpus, monkeypatch):
        # a fork copies only the calling thread, so a lock another thread
        # holds would stay held in the worker: no pool is made then
        cpus(2)
        pooled = self.boot()

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made while another thread ran")

        with concurrent.futures.ThreadPoolExecutor(1) as threads:
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                                no_pool)
            in_thread = threads.submit(self.boot).result()
        assert np.array_equal(in_thread.df_cov, pooled.df_cov)
        assert np.array_equal(in_thread.n_nonzero_all, pooled.n_nonzero_all)

    def test_worker_convergence_error_reaches_caller(self, cpus):
        cfg = SolverConfig(max_outer_iters=1)
        errors = []
        for n in (2, 1):
            cpus(n)
            with pytest.raises(ConvergenceError,
                               match=r"lambda\[0\]=1: no convergence") as err:
                self.boot(cfg)
            assert multiprocessing.active_children() == []
            errors.append(err.value)
        pooled, serial = errors
        assert str(pooled) == str(serial)
        assert isinstance(pooled.fit, PliableFit)
        assert pooled.fit.beta0 == serial.fit.beta0
        assert np.array_equal(pooled.fit.beta, serial.fit.beta)
        assert np.array_equal(pooled.fit.theta, serial.fit.theta)
        assert pooled.kkt.max_violation == serial.kkt.max_violation > 1e-4
        assert pooled.kkt.worst_group == serial.kkt.worst_group


class TestTreatmentEffect:
    def test_hand_case(self):
        fit = PliableFit(1.0, np.array([0.5]), np.array([2.0, 0.0]),
                         {0: np.array([2.0])})
        X = np.array([[0.0, 9.0], [1.0, 9.0], [-2.0, 9.0]])
        np.testing.assert_allclose(treatment_effect(fit, X),
                                   [0.5, 2.5, -3.5])

    def test_equals_prediction_difference(self):
        rng = np.random.default_rng(46)
        beta = rng.standard_normal(4)
        fit = PliableFit(rng.normal(), rng.normal(size=1), beta,
                         {0: rng.normal(size=1), 2: rng.normal(size=1)})
        X = rng.standard_normal((25, 4))
        ones = np.ones((25, 1))
        diff = predict(fit, X, ones) - predict(fit, X, np.zeros((25, 1)))
        np.testing.assert_allclose(treatment_effect(fit, X), diff, atol=1e-12)

    def test_requires_single_modifier(self):
        with pytest.raises(DimensionError, match="one modifier"):
            treatment_effect(PliableFit.zeros(3, 2), np.zeros((4, 3)))
        with pytest.raises(DimensionError, match="shape"):
            treatment_effect(PliableFit.zeros(3, 1), np.zeros((4, 2)))

    def test_non_finite_x_rejected(self):
        # an all-NaN X used to give finite effects: theta0 alone, since the
        # fit has no theta row
        fit = PliableFit.zeros(3, 1)
        with pytest.raises(ValueError, match="X has a non-finite value nan "
                                             "at row 0, column 0"):
            treatment_effect(fit, np.full((4, 3), np.nan))
        X = np.zeros((4, 3))
        X[2, 1] = np.inf
        with pytest.raises(ValueError, match="X .* at row 2, column 1"):
            treatment_effect(fit, X)


class TestRunHteScenario:
    def test_result_structure(self):
        res = run_hte_scenario("a", seed=0, n_folds=4, n_lambda=12)
        assert isinstance(res, HteResult)
        assert res.scenario == "a"
        assert res.tau_hat.shape == res.tau_true.shape == (500,)
        assert res.lam > 0
        again = run_hte_scenario("a", seed=0, n_folds=4, n_lambda=12)
        assert again.r_squared == res.r_squared

    def test_favorable_replicate_recovers_effect(self):
        # the scenario is very noisy (SNR below 2 with 50 predictors and
        # 100 rows), so absolute recovery varies a lot by seed; this seed
        # finds the interaction
        res = run_hte_scenario("a", seed=4)
        assert res.r_squared > 0.3
        assert np.corrcoef(res.tau_hat, res.tau_true)[0, 1] > 0.6

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            run_hte_scenario("d")


def unknown_z_train(seed=0, n=120):
    return generate(SimSpec("unknown_z", seed=seed, n_train=n)).train


class TestUnknownZConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_cycles"):
            UnknownZConfig(n_cycles=0)

    @pytest.mark.parametrize("name, low", [("n_cycles", 1), ("cv_folds", 2),
                                           ("n_lambda", 1), ("seed", 0)])
    @pytest.mark.parametrize("shift", [-1, np.nan, 0.5])
    def test_counts_are_integers_in_range(self, name, low, shift):
        # NaN and fractional counts, a negative seed and one CV fold used to
        # be accepted
        with pytest.raises(ValueError, match=f"{name} must be an integer "
                                             f">= {low}"):
            UnknownZConfig(**{name: low + shift})

    @pytest.mark.parametrize("name", ["lam", "lambda2"])
    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_penalties_nonnegative_and_finite(self, name, value):
        # UnknownZConfig(lambda2=-1) used to be accepted
        with pytest.raises(ValueError, match=f"{name} must be >= 0 and finite"):
            UnknownZConfig(**{name: value})
        assert getattr(UnknownZConfig(**{name: 0.0}), name) == 0.0

    def test_rejects_data_with_modifiers(self):
        d = Dataset(np.zeros(5), np.ones((5, 2)), np.ones((5, 1)))
        with pytest.raises(DimensionError, match="without Z"):
            fit_unknown_z(d, UnknownZConfig(lam=0.1))


class TestUnknownZAlternation:
    def test_half_steps_never_increase_enlarged_objective(self):
        cfg = UnknownZConfig(n_cycles=3, lam=0.1, lambda2=1e-3,
                             final_cv=False)
        res = fit_unknown_z(unknown_z_train(seed=1), cfg)
        tags = [t for t, _ in res.objective_trace]
        assert tags == ["init", "fit", "ridge", "rescale",
                        "fit", "ridge", "rescale", "fit", "ridge"]
        prev = None
        for tag, val in res.objective_trace:
            if tag in ("fit", "ridge"):
                assert val <= prev + 1e-9 * max(1.0, abs(prev))
            prev = val

    def test_ridge_step_solves_normal_equations(self):
        data = unknown_z_train(seed=2)
        cfg = UnknownZConfig(n_cycles=2, lam=0.08, lambda2=5e-3,
                             final_cv=False)
        res = fit_unknown_z(data, cfg)
        xs = res.x_map.transform(X=data.X)
        n = xs.shape[0]
        fit = res.fit
        w = xs * (float(fit.theta0[0]) + xs @ fit.theta[:, 0])[:, None]
        r = (data.y - res.y_mean) - fit.beta0 - xs @ fit.beta
        g = res.gamma_history[-1]
        lhs = (w.T @ w / n + res.lambda2 * np.eye(xs.shape[1])) @ g
        np.testing.assert_allclose(lhs, w.T @ r / n, atol=1e-10)

    def test_heavy_ridge_kills_gamma(self):
        cfg = UnknownZConfig(n_cycles=1, lam=0.05, lambda2=1e12,
                             final_cv=False)
        res = fit_unknown_z(unknown_z_train(seed=3), cfg)
        assert np.linalg.norm(res.gamma_history[-1]) < \
            1e-6 * np.linalg.norm(res.gamma_history[0])

    def test_constant_response_degenerates_gracefully(self):
        rng = np.random.default_rng(47)
        data = Dataset(np.full(30, 3.0), rng.standard_normal((30, 4)), None)
        res = fit_unknown_z(data, UnknownZConfig(n_cycles=2, lam=0.1,
                                                 final_cv=False))
        assert any("constant" in w for w in res.warnings)
        assert any("skipped" in w for w in res.warnings)
        assert not res.gamma.any()
        np.testing.assert_array_equal(res.predict(data.X), np.full(30, 3.0))

    def test_predict_composes_map_fit_and_gamma(self):
        data = unknown_z_train(seed=4)
        res = fit_unknown_z(data, UnknownZConfig(n_cycles=1, lam=0.1,
                                                 final_cv=False))
        xs = res.x_map.transform(X=data.X)
        z = (xs @ res.gamma)[:, None]
        manual = predict(res.fit, xs, z) + res.y_mean
        np.testing.assert_allclose(res.predict(data.X), manual, atol=1e-12)
        np.testing.assert_allclose(res.modifier_scores(data.X), z[:, 0],
                                   atol=1e-12)

    def test_alternation_improves_group_direction(self):
        sim = generate(SimSpec("unknown_z", seed=2))
        cfg = UnknownZConfig(cv_folds=5, n_lambda=20, seed=2)
        res = fit_unknown_z(sim.train, cfg)
        b_z = sim.truth.b_z
        first = abs(np.corrcoef(res.gamma_history[0], b_z)[0, 1])
        last = abs(np.corrcoef(res.gamma_history[-1], b_z)[0, 1])
        assert last > first
        assert isinstance(res, UnknownZResult)
        # the returned fit is re-tuned at the learned gamma
        assert res.lam > 0
