import numpy as np
import pytest

from plasso.model import Dataset, DimensionError, PliableFit, predict
from plasso.preprocess import (StandardizationError, StandardizationMap,
                               destandardize_fit, standardize)

from test_model import random_fit


def raw_data(seed=0, n=30, p=4, k=2):
    rng = np.random.default_rng(seed)
    X = 3.0 * rng.standard_normal((n, p)) + rng.standard_normal(p)
    Z = 0.5 * rng.standard_normal((n, k)) - 2.0
    y = rng.standard_normal(n) + 5.0
    return Dataset(y, X, Z)


def test_columns_become_mean_zero_unit_variance():
    std, smap = standardize(raw_data())
    np.testing.assert_allclose(std.X.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose((std.X ** 2).mean(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(std.Z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose((std.Z ** 2).mean(axis=0), 1.0, rtol=1e-12)
    assert abs(std.y.mean()) < 1e-12
    # y is centered, never rescaled
    np.testing.assert_allclose(std.y, raw_data().y - raw_data().y.mean())


def test_two_point_column():
    d = Dataset(np.zeros(2), np.array([[0.0], [2.0]]), None)
    std, smap = standardize(d)
    np.testing.assert_allclose(std.X[:, 0], [-1.0, 1.0], atol=1e-15)
    assert smap.x_means[0] == pytest.approx(1.0)
    assert smap.x_scales[0] == pytest.approx(1.0)


def test_already_standardized_is_identity_like():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 3))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    d = Dataset(np.zeros(50), X, None)
    std, smap = standardize(d)
    np.testing.assert_allclose(std.X, X, atol=1e-12)
    np.testing.assert_allclose(smap.x_means, 0.0, atol=1e-12)
    np.testing.assert_allclose(smap.x_scales, 1.0, rtol=1e-12)


def test_round_trip_inverse():
    d = raw_data(3)
    std, smap = standardize(d)
    # the map applied to the raw data reproduces standardize's output exactly
    X_fwd, Z_fwd, y_fwd = smap.transform(d.X, d.Z, d.y)
    np.testing.assert_array_equal(X_fwd, std.X)
    np.testing.assert_array_equal(Z_fwd, std.Z)
    np.testing.assert_array_equal(y_fwd, std.y)
    np.testing.assert_array_equal(smap.transform(X=d.X), std.X)


def test_constant_column_is_an_error():
    X = np.ones((5, 2))
    X[:, 0] = np.arange(5.0)
    with pytest.raises(StandardizationError, match="X column 1"):
        standardize(Dataset(np.zeros(5), X, None))
    Z = np.zeros((5, 1))
    with pytest.raises(StandardizationError, match="Z column 0"):
        standardize(Dataset(np.zeros(5), X[:, :1], Z))


def test_disabled_blocks_untouched():
    d = raw_data(5)
    std, smap = standardize(d, standardize_x=False, standardize_z=False,
                            center_y=False)
    np.testing.assert_array_equal(std.X, d.X)
    np.testing.assert_array_equal(std.Z, d.Z)
    np.testing.assert_array_equal(std.y, d.y)
    np.testing.assert_allclose(smap.x_scales, 1.0)


def test_scale_invariance_of_standardized_output():
    d = raw_data(6)
    scaled = Dataset(d.y, d.X * np.array([2.0, 0.5, 10.0, 1.0]), d.Z)
    a, _ = standardize(d)
    b, _ = standardize(scaled)
    np.testing.assert_allclose(a.X, b.X, atol=1e-12)


class TestDestandardize:
    def test_identity_map_is_noop(self):
        rng = np.random.default_rng(8)
        fit = random_fit(rng, 3, 2)
        out = destandardize_fit(fit, StandardizationMap.identity(3, 2))
        np.testing.assert_array_equal(out.beta, fit.beta)
        np.testing.assert_array_equal(out.theta, fit.theta)
        assert out.beta0 == pytest.approx(fit.beta0)

    def test_main_effect_only_rescaling(self):
        d = raw_data(9, k=1)
        std, smap = standardize(d)
        fit = PliableFit(0.3, np.zeros(1), np.array([1.0, -2.0, 0.0, 0.5]), {})
        raw = destandardize_fit(fit, smap)
        np.testing.assert_allclose(raw.beta, fit.beta / smap.x_scales,
                                   rtol=1e-12)
        assert not raw.theta_rows

    def test_prediction_equality_on_random_fits(self):
        d = raw_data(10)
        std, smap = standardize(d)
        rng = np.random.default_rng(10)
        newX = 3.0 * rng.standard_normal((20, 4)) + 1.0
        newZ = rng.standard_normal((20, 2)) - 0.5
        for trial in range(15):
            fit = random_fit(rng, 4, 2)
            raw_fit = destandardize_fit(fit, smap)
            got = predict(raw_fit, newX, newZ)
            # the standardized fit predicts the centered response
            want = predict(fit, smap.transform(X=newX),
                           smap.transform(Z=newZ)) + smap.y_mean
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_sparsity_pattern_survives(self):
        d = raw_data(11)
        std, smap = standardize(d)
        fit = PliableFit(0.0, np.ones(2), np.array([0.0, 1.0, 0.0, -1.0]),
                         {1: np.array([2.0, 0.0])})
        raw = destandardize_fit(fit, smap)
        assert (raw.beta != 0).tolist() == (fit.beta != 0).tolist()
        assert sorted(raw.theta_rows) == [1]
        assert raw.theta[1, 1] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            destandardize_fit(PliableFit.zeros(3, 1),
                              StandardizationMap.identity(2, 1))
