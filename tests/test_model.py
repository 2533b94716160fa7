import numpy as np
import pytest

from plasso.model import (Dataset, DimensionError, PliableFit, objective,
                          predict)

from oracles import objective_loops, satisfies_hierarchy


def random_fit(rng, p, k, density=0.5):
    beta = np.where(rng.random(p) < density, rng.standard_normal(p), 0.0)
    rows = {}
    for j in range(p):
        if beta[j] != 0.0 and rng.random() < 0.5:
            rows[j] = rng.standard_normal(k)
    return PliableFit(rng.standard_normal(), rng.standard_normal(k),
                      beta, rows, lam=0.3, alpha=0.4)


class TestDataset:
    def test_missing_z_becomes_empty(self):
        d = Dataset(np.zeros(3), np.ones((3, 2)), None)
        assert d.Z.shape == (3, 0)
        assert d.n_modifiers == 0

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros(3), np.ones((4, 2)), None)
        with pytest.raises(DimensionError):
            Dataset(np.zeros(3), np.ones((3, 2)), np.ones((4, 1)))

    def test_non_finite_rejected(self):
        y = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValueError):
            Dataset(y, np.ones((3, 1)), None)

    @pytest.mark.parametrize("block", ["X", "Z"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cell_named(self, block, value):
        # the message names the cell, as predict's does
        arrays = {"X": np.ones((3, 2)), "Z": np.ones((3, 2))}
        arrays[block][2, 1] = value
        with pytest.raises(ValueError, match=f"{block} has a non-finite "
                                             f"value {value} at row 2, "
                                             "column 1"):
            Dataset(np.zeros(3), arrays["X"], arrays["Z"])

    def test_inputs_frozen(self):
        d = Dataset(np.zeros(3), np.ones((3, 2)), None)
        with pytest.raises(ValueError):
            d.X[0, 0] = 5.0


class TestPliableFit:
    def test_zero_rows_dropped(self):
        fit = PliableFit(0.0, np.zeros(2), np.array([1.0, 0.0]),
                         {0: np.zeros(2)})
        assert not fit.theta_rows
        assert fit.active_groups == (0,)
        assert fit.theta.shape == (2, 2)
        assert not fit.theta.any()

    def test_counts(self):
        fit = PliableFit(1.0, np.array([0.5]), np.array([2.0, 0.0, -1.0]),
                         {0: np.array([3.0])})
        assert fit.n_nonzero_beta == 2
        assert fit.n_nonzero_coefficients == 3
        assert fit.active_groups == (0, 2)
        assert sorted(fit.theta_rows) == [0]
        assert satisfies_hierarchy(fit)

    def test_hierarchy_violation_detected(self):
        fit = PliableFit(0.0, np.zeros(1), np.zeros(2), {1: np.array([1.0])})
        assert not satisfies_hierarchy(fit)

    def test_from_dense_round_trip(self):
        theta = np.array([[0.0, 0.0], [1.0, -2.0]])
        fit = PliableFit.from_dense(0.5, np.zeros(2), np.array([0.0, 3.0]),
                                    theta)
        assert fit.active_groups == (1,)
        np.testing.assert_array_equal(fit.theta, theta)


class TestPredict:
    def test_all_zero_fit(self):
        fit = PliableFit.zeros(2, 1)
        X = np.arange(6.0).reshape(3, 2)
        Z = np.ones((3, 1))
        np.testing.assert_array_equal(predict(fit, X, Z), np.zeros(3))

    def test_inactive_modifiers_reduce_to_linear(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        Z = rng.standard_normal((5, 2))
        beta = np.array([1.0, -2.0, 0.5])
        fit = PliableFit(0.7, np.zeros(2), beta, {})
        np.testing.assert_allclose(predict(fit, X, Z), 0.7 + X @ beta,
                                   rtol=0, atol=1e-15)

    def test_hand_evaluated_single_point(self):
        fit = PliableFit(1.0, np.array([2.0]), np.array([3.0]),
                         {0: np.array([4.0])})
        got = predict(fit, np.array([[1.0]]), np.array([[5.0]]))
        # 1 + 2*5 + 3*1 + 4*1*5
        assert got.shape == (1,)
        assert got[0] == pytest.approx(34.0, abs=1e-12)

    def test_dimension_error_names_block(self):
        fit = PliableFit.zeros(2, 1)
        with pytest.raises(DimensionError):
            predict(fit, np.ones((3, 5)), np.ones((3, 1)))
        with pytest.raises(DimensionError):
            predict(fit, np.ones((3, 2)), np.ones((3, 4)))

    def test_linearity_in_parameters(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 4))
        Z = rng.standard_normal((8, 3))
        for trial in range(20):
            f1 = random_fit(rng, 4, 3)
            f2 = random_fit(rng, 4, 3)
            a, b = rng.standard_normal(2)
            combo = PliableFit.from_dense(
                a * f1.beta0 + b * f2.beta0, a * f1.theta0 + b * f2.theta0,
                a * f1.beta + b * f2.beta, a * f1.theta + b * f2.theta)
            lhs = predict(combo, X, Z)
            rhs = a * predict(f1, X, Z) + b * predict(f2, X, Z)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_group_contribution_is_additive(self):
        # dropping group j from a fit moves the prediction by exactly
        # X_j beta_j + (X_j o Z) theta_j, the partial residual the solver
        # adds back before each block update
        rng = np.random.default_rng(9)
        X = rng.standard_normal((12, 4))
        Z = rng.standard_normal((12, 2))
        for trial in range(10):
            fit = random_fit(rng, 4, 2)
            full = predict(fit, X, Z)
            for j in range(4):
                beta, theta = fit.beta.copy(), fit.theta
                beta[j] = 0.0
                theta[j] = 0.0
                without = predict(PliableFit.from_dense(
                    fit.beta0, fit.theta0, beta, theta), X, Z)
                contrib = X[:, j] * fit.beta[j] + X[:, j] * (Z @ fit.theta[j])
                np.testing.assert_allclose(without, full - contrib,
                                           rtol=0, atol=1e-12)


class TestObjective:
    def test_zero_fit_loss_only(self):
        y = np.array([1.0, -2.0, 3.0])
        d = Dataset(y, np.ones((3, 1)), None)
        val = objective(PliableFit.zeros(1, 0), d, lam=2.0, alpha=0.3)
        assert val.loss == pytest.approx((y @ y) / 6.0)
        assert val.group_term == 0.0
        assert val.l1_term == 0.0
        assert val.total == val.loss

    def test_group_term_collapses_to_l1_of_beta(self):
        rng = np.random.default_rng(3)
        beta = rng.standard_normal(5)
        fit = PliableFit(0.0, np.zeros(2), beta, {})
        d = Dataset(np.zeros(4), rng.standard_normal((4, 5)),
                    rng.standard_normal((4, 2)))
        val = objective(fit, d, lam=1.0, alpha=0.0)
        assert val.group_term == pytest.approx(np.abs(beta).sum(), rel=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n, p, k = 5, 2, 2
            X = rng.standard_normal((n, p))
            Z = rng.standard_normal((n, k))
            y = rng.standard_normal(n)
            fit = random_fit(rng, p, k)
            lam, alpha = rng.random() + 0.1, rng.random() * 0.9
            val = objective(fit, Dataset(y, X, Z), lam=lam, alpha=alpha)
            want = objective_loops(fit.beta0, fit.theta0, fit.beta, fit.theta,
                                   y, X, Z, lam, alpha)
            assert val.total == pytest.approx(want, rel=1e-12)
            assert val.total == pytest.approx(
                val.loss + (1 - alpha) * lam * val.group_term
                + alpha * lam * val.l1_term, rel=1e-12)

    def test_convex_along_segments(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 3))
        Z = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        d = Dataset(y, X, Z)
        for trial in range(20):
            f1 = random_fit(rng, 3, 2)
            f2 = random_fit(rng, 3, 2)
            t = rng.random()
            mid = PliableFit.from_dense(
                t * f1.beta0 + (1 - t) * f2.beta0,
                t * f1.theta0 + (1 - t) * f2.theta0,
                t * f1.beta + (1 - t) * f2.beta,
                t * f1.theta + (1 - t) * f2.theta, lam=0.5, alpha=0.3)
            j_mid = objective(mid, d).total
            j1 = objective(f1, d, lam=0.5, alpha=0.3).total
            j2 = objective(f2, d, lam=0.5, alpha=0.3).total
            assert j_mid <= t * j1 + (1 - t) * j2 + 1e-10
