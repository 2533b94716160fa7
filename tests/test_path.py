import numpy as np
import pytest

from plasso import path as path_module
from plasso import simulate
from plasso.cv import k_fold_cv
from plasso.model import Dataset, PliableFit, objective, predict
from plasso.path import (PathResult, _secant_start, default_lambda_min_ratio,
                         fit_path, lambda_grid, lambda_max)
from plasso.preprocess import standardize
from plasso.solver import SolverConfig, Workspace, check_kkt, fit_single_lambda


def signal_data(rng, n=80, p=6, k=3):
    X = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, k))
    mu = 2.0 * X[:, 0] - X[:, 1] + 1.5 * X[:, 0] * Z[:, 0] + X[:, 2] * Z[:, 2]
    y = mu + 0.5 * rng.standard_normal(n)
    return Dataset(y, X, Z)


class TestLambdaMax:
    def test_brackets_the_first_active_group(self):
        rng = np.random.default_rng(21)
        data = signal_data(rng)
        cfg = SolverConfig()
        std, _ = standardize(data, True, True, True)
        lmax = lambda_max(std, cfg.alpha)
        above = fit_single_lambda(std, 1.01 * lmax, cfg)
        assert len(above.active_groups) == 0
        below = fit_single_lambda(std, 0.95 * lmax, cfg)
        assert len(below.active_groups) >= 1

    def test_at_lambda_max_itself_all_zero(self):
        rng = np.random.default_rng(22)
        data = signal_data(rng, n=60)
        std, _ = standardize(data, True, True, True)
        lmax = lambda_max(std, 0.5)
        fit = fit_single_lambda(std, lmax, SolverConfig())
        assert len(fit.active_groups) == 0

    def test_no_modifiers_closed_form(self):
        rng = np.random.default_rng(23)
        n = 50
        X = rng.standard_normal((n, 4))
        y = X[:, 0] * 2.0 + rng.standard_normal(n)
        data = Dataset(y, X, None)
        alpha = 0.3
        r = y - y.mean()
        expect = np.abs(X.T @ r).max() / n / (1.0 - alpha)
        # the returned value carries a relative safety pad of 1e-12
        assert lambda_max(data, alpha) == pytest.approx(expect, rel=1e-11)
        assert lambda_max(data, alpha) >= expect

    def test_alpha_zero_closed_form(self):
        # without the l1 part the theta certificate solves
        # ||q|| = rho + sqrt(rho^2 - a^2), i.e. rho = (||q||^2 + a^2) / 2||q||
        rng = np.random.default_rng(24)
        data = signal_data(rng, n=40)
        std, _ = standardize(data, True, True, True)
        n = std.n_samples
        A = np.column_stack([np.ones(n), std.Z])
        r = std.y - A @ np.linalg.lstsq(A, std.y, rcond=None)[0]
        a_all = std.X.T @ r / n
        q_all = std.X.T @ (std.Z * r[:, None]) / n
        q_norm = np.sqrt((q_all ** 2).sum(axis=1))
        # once rho reaches |a| the budget already covers a smaller ||q||
        per_group = np.where(q_norm > np.abs(a_all),
                             (q_norm ** 2 + a_all ** 2)
                             / (2.0 * np.maximum(q_norm, 1e-300)),
                             np.abs(a_all))
        expect = float(per_group.max())
        assert lambda_max(std, 0.0) == pytest.approx(expect, rel=1e-9)

    def test_rejects_bad_alpha(self):
        data = Dataset(np.zeros(3), np.ones((3, 1)), None)
        with pytest.raises(ValueError):
            lambda_max(data, 1.0)


class TestLambdaGrid:
    def test_single_point_grid(self):
        grid = lambda_grid(2.0, 1, 0.01)
        assert grid.tolist() == [2.0]

    def test_geometric_endpoints(self):
        grid = lambda_grid(4.0, 10, 0.05)
        assert grid[0] == pytest.approx(4.0)
        assert grid[-1] == pytest.approx(0.2)
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
        assert np.all(np.diff(grid) < 0)

    def test_degenerate_lambda_max(self):
        assert lambda_grid(0.0, 5, 0.01).tolist() == [0.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lambda_grid(1.0, 0, 0.01)

    @pytest.mark.parametrize("lam_max", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_lambda_max(self, lam_max):
        # lambda_grid(nan, 5, 0.01) used to return NaNs
        with pytest.raises(ValueError, match="lam_max must be finite"):
            lambda_grid(lam_max, 5, 0.01)

    @pytest.mark.parametrize("ratio", [np.nan, 0.0, 1.0, -0.5, 2.0, np.inf])
    def test_rejects_ratio_outside_unit_interval(self, ratio):
        # lambda_grid(1, 5, nan) used to return NaNs
        with pytest.raises(ValueError, match=r"min_ratio must lie in \(0, 1\)"):
            lambda_grid(1.0, 5, ratio)

    @pytest.mark.parametrize("n", [np.nan, np.inf, 2.5])
    def test_n_lambda_must_be_an_integer(self, n):
        # used to escape as numpy's TypeError
        with pytest.raises(ValueError, match="n_lambda must be an integer"):
            lambda_grid(1.0, n, 0.1)

    def test_rejects_negative_lambda_max(self):
        # used to return the all-zero grid
        with pytest.raises(ValueError, match="lam_max must be >= 0"):
            lambda_grid(-1.0, 5, 0.1)

    def test_default_min_ratio(self):
        assert default_lambda_min_ratio(1000, 10, 4) == 0.01
        assert default_lambda_min_ratio(50, 10, 4) == 0.05
        assert default_lambda_min_ratio(51, 10, 4) == 0.01


class TestFitPath:
    def test_first_point_empty_and_growth(self):
        rng = np.random.default_rng(25)
        data = signal_data(rng)
        path = fit_path(data, n_lambda=20)
        assert path.n_lambdas == 20
        assert len(path.fits[0].active_groups) == 0
        assert len(path.fits[-1].active_groups) >= 1
        assert len(path.diagnostics) == 20
        for d in path.diagnostics:
            assert d.kkt_max <= SolverConfig().tol_kkt

    def test_warm_start_agrees_with_cold(self):
        rng = np.random.default_rng(26)
        data = signal_data(rng, n=60)
        cfg = SolverConfig(tol_kkt=1e-8)
        path = fit_path(data, cfg, n_lambda=8)
        std, _ = standardize(data, True, True, True)
        for i in (3, 5, 7):
            cold = fit_single_lambda(std, path.lambdas[i], cfg)
            np.testing.assert_allclose(path.fits[i].beta, cold.beta, atol=1e-6)
            np.testing.assert_allclose(path.fits[i].theta, cold.theta,
                                       atol=1e-6)

    def test_custom_grid_must_decrease(self):
        data = signal_data(np.random.default_rng(0), n=30)
        with pytest.raises(ValueError, match="decreasing"):
            fit_path(data, lambdas=[0.1, 0.2])
        with pytest.raises(ValueError, match="nonempty"):
            fit_path(data, lambdas=[])
        with pytest.raises(ValueError, match="lambdas must be finite"):
            fit_path(data, lambdas=[0.2, np.nan])

    @pytest.mark.parametrize("ratio", [np.nan, 0.0, 1.0])
    def test_bad_min_ratio_names_the_argument(self, ratio):
        data = signal_data(np.random.default_rng(0), n=30)
        with pytest.raises(ValueError, match="lambda_min_ratio must lie in"):
            fit_path(data, n_lambda=5, lambda_min_ratio=ratio)
        with pytest.raises(ValueError, match="lambda_min_ratio must lie in"):
            k_fold_cv(data, n_folds=3, n_lambda=5, lambda_min_ratio=ratio)

    def test_custom_grid_used_verbatim(self):
        data = signal_data(np.random.default_rng(1), n=40)
        path = fit_path(data, lambdas=[0.5, 0.1])
        assert path.lambdas.tolist() == [0.5, 0.1]

    def test_predict_shapes_and_column_agreement(self):
        rng = np.random.default_rng(27)
        data = signal_data(rng, n=50)
        path = fit_path(data, n_lambda=6)
        Xn = rng.standard_normal((9, 6))
        Zn = rng.standard_normal((9, 3))
        all_cols = path.predict(Xn, Zn)
        assert all_cols.shape == (9, 6)
        one = path.predict(Xn, Zn, index=4)
        assert one.shape == (9,)
        np.testing.assert_allclose(one, all_cols[:, 4], atol=1e-12)

    def test_fit_raw_reproduces_predictions(self):
        rng = np.random.default_rng(28)
        data = signal_data(rng, n=50)
        path = fit_path(data, n_lambda=5)
        raw = path.fit_raw(4)
        via_raw = predict(raw, data.X, data.Z)
        via_path = path.predict(data.X, data.Z, index=4)
        np.testing.assert_allclose(via_raw, via_path, atol=1e-10)

    @pytest.mark.parametrize("index", [-1, 3, 1.0])
    def test_level_index_never_wraps(self, index):
        # -1 used to pick the last level silently
        rng = np.random.default_rng(9)
        data = Dataset(rng.standard_normal(20), rng.standard_normal((20, 2)))
        path = fit_path(data, n_lambda=3)
        with pytest.raises(IndexError, match="out of range"):
            path.fit_raw(index)
        with pytest.raises(IndexError, match="out of range"):
            path.predict(data.X, index=index)

    def test_deterministic(self):
        data = signal_data(np.random.default_rng(29), n=40)
        p1 = fit_path(data, n_lambda=5)
        p2 = fit_path(data, n_lambda=5)
        for f1, f2 in zip(p1.fits, p2.fits):
            np.testing.assert_array_equal(f1.beta, f2.beta)
            np.testing.assert_array_equal(f1.theta, f2.theta)

    def test_result_validates_grid(self):
        data = signal_data(np.random.default_rng(2), n=30)
        path = fit_path(data, n_lambda=3)
        with pytest.raises(ValueError, match="decreasing"):
            PathResult(lambdas=np.array([0.1, 0.2]), fits=path.fits[:2],
                       diagnostics=path.diagnostics[:2], smap=path.smap,
                       alpha=path.alpha)


class TestSecantStart:
    """Each level after the second starts from the secant through the two
    fits before it, with every entry the secant would move across zero kept
    at its last value."""

    def test_entries_on_the_secant_or_kept(self):
        # step = (0.25 - 0.5) / (0.5 - 1.0) = 0.5
        f0 = PliableFit(0.3, [1.0, 2.0], [1.0, 1.0, 4.0, 3.0, -1.0, 0.0],
                        {0: [1.0, -1.0], 1: [2.0, 0.5]}, lam=1.0, alpha=0.4)
        f1 = PliableFit(0.7, [-1.0, 0.5], [2.0, 0.0, 1.0, 1.0, -2.0, 0.0],
                        {0: [1.5, 0.0], 4: [-0.2, 0.1]}, lam=0.5, alpha=0.4)
        start = _secant_start(f0, f1, 0.25)
        # on the secant; zero in f1; across zero; onto zero; negative; zero
        assert start.beta.tolist() == [2.5, 0.0, 1.0, 1.0, -2.5, 0.0]
        assert set(start.theta_rows) == {0, 4}
        assert start.theta_rows[0].tolist() == [1.75, 0.0]
        # row 4 had no row in f0: entries grow by half of themselves
        assert start.theta_rows[4].tolist() == [-0.2 * 1.5, 0.1 * 1.5]
        assert start.beta0 == f1.beta0
        assert start.theta0.tolist() == f1.theta0.tolist()
        assert (start.lam, start.alpha) == (0.25, 0.4)

    @pytest.mark.parametrize("seed", range(20))
    def test_support_and_signs_kept(self, seed):
        rng = np.random.default_rng(seed)
        p, k = 8, 3

        def draw():
            # about half of the entries zero, so zeros meet every sign
            beta = rng.standard_normal(p) * (rng.random(p) < 0.6)
            theta = rng.standard_normal((p, k)) * (rng.random((p, k)) < 0.5)
            return beta, theta

        (b0, t0), (b1, t1) = draw(), draw()
        lam0, lam1 = sorted(rng.uniform(0.1, 2.0, 2), reverse=True)
        lam2 = lam1 * rng.uniform(0.0, 1.0)
        f0 = PliableFit.from_dense(0.0, np.zeros(k), b0, t0, lam0)
        f1 = PliableFit.from_dense(0.0, np.zeros(k), b1, t1, lam1)
        start = _secant_start(f0, f1, lam2)
        step = (lam2 - lam1) / (lam1 - lam0)
        for got, a1, a0 in ((start.beta, b1, b0), (start.theta, t1, t0)):
            assert np.array_equal(np.sign(got), np.sign(a1))
            e = a1 + step * (a1 - a0)
            agree = np.sign(e) == np.sign(a1)
            assert np.array_equal(got[agree], e[agree])
            assert np.array_equal(got[~agree], a1[~agree])

    def test_grid_ending_at_zero(self):
        rng = np.random.default_rng(30)
        data = signal_data(rng, n=60, p=3)
        path = fit_path(data, lambdas=[0.3, 0.1, 0.0])
        assert path.lambdas[-1] == 0.0
        for d in path.diagnostics:
            assert d.kkt_max <= SolverConfig().tol_kkt

    @pytest.mark.parametrize("n_levels, n_secants", [(1, 0), (2, 0), (3, 1),
                                                     (5, 3)])
    def test_first_two_levels_take_no_secant(self, monkeypatch, n_levels,
                                             n_secants):
        calls = []

        def counted(f0, f1, lam):
            calls.append(lam)
            return _secant_start(f0, f1, lam)

        monkeypatch.setattr(path_module, "_secant_start", counted)
        data = signal_data(np.random.default_rng(31), n=40)
        grid = np.geomspace(1.0, 0.05, n_levels) if n_levels > 1 else [0.5]
        path = fit_path(data, lambdas=grid)
        assert calls == path.lambdas[2:].tolist()
        assert len(calls) == n_secants


def plain_warm_path(std, cfg, grid):
    """The reference: each level warm-started from the fit before it."""
    ws = Workspace(std)
    fits, warm = [], None
    for lam in grid:
        warm = fit_single_lambda(std, lam, cfg, warm=warm, workspace=ws)
        fits.append(warm)
    return fits


def coefficients(fit):
    return np.concatenate(([fit.beta0], fit.theta0, fit.beta,
                           fit.theta.ravel()))


def df_null_data():
    return simulate.generate(simulate.SimSpec("df_null", seed=4)).train


def wide_data():
    rng = np.random.default_rng(32)
    X = rng.standard_normal((50, 200))
    Z = rng.standard_normal((50, 3))
    y = (2.0 * X[:, 0] - 1.5 * X[:, 1] + 2.0 * X[:, 0] * Z[:, 0]
         + rng.standard_normal(50))
    return Dataset(y, X, Z)


@pytest.mark.parametrize("make_data, kwargs", [
    (df_null_data, {"lambdas": np.geomspace(0.3, 0.003, 20)}),
    (wide_data, {"n_lambda": 25})], ids=["df_null", "wide"])
def test_secant_path_matches_plain_warm_starts(make_data, kwargs):
    cfg = SolverConfig()
    data = make_data()
    path = fit_path(data, cfg, **kwargs)
    std, _ = standardize(data)
    reference = plain_warm_path(std, cfg, path.lambdas)
    for fit, ref in zip(path.fits, reference):
        assert check_kkt(fit, std).max_violation <= cfg.tol_kkt
        # two fits whose subgradient residuals are at most tol_kkt differ
        # in objective by at most tol_kkt times their l1 distance (convexity:
        # F(a) - F(b) <= <g_a, a - b> for g_a in the subdifferential at a)
        gap = abs(objective(fit, std).total - objective(ref, std).total)
        assert gap <= cfg.tol_kkt * np.abs(coefficients(fit)
                                           - coefficients(ref)).sum() + 1e-15
