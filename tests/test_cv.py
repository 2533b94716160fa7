import multiprocessing

import numpy as np
import pytest

from plasso.cv import CvResult, k_fold_cv
from plasso.model import Dataset, objective
from plasso.path import fit_path
from plasso.preprocess import StandardizationError


def cv_data(rng, n=70, p=5, k=2):
    X = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, k))
    mu = 2.0 * X[:, 0] + X[:, 0] * Z[:, 0] - X[:, 1]
    y = mu + 0.7 * rng.standard_normal(n)
    return Dataset(y, X, Z)


def fold_sets(data, ids, f):
    """(training, held-out) Datasets of fold f."""
    def rows(mask):
        return Dataset(data.y[mask], data.X[mask],
                       data.Z[mask] if data.n_modifiers else None)
    return rows(ids != f), rows(ids == f)


class TestEvaluate:
    """cv_mean is the held-out mean squared error, averaged over folds."""

    def test_zero_fit_is_mean_square(self):
        # every fold holds the same ten rows, so each training set (two
        # copies) standardizes like the full data (three copies) and shares
        # its all-zero penalty: at the top of the grid each fold fit is
        # empty and predicts the mean
        rng = np.random.default_rng(30)
        y = rng.standard_normal(10) + 4.0
        X = rng.standard_normal((10, 2))
        data = Dataset(np.tile(y, 3), np.tile(X, (3, 1)), None)
        ids = np.repeat(np.arange(3), 10)
        res = k_fold_cv(data, folds=ids, n_lambda=5)
        for f in range(3):
            train, _ = fold_sets(data, ids, f)
            top = fit_path(train, lambdas=res.lambdas).fits[0]
            assert top.active_groups == ()
        want = float(((y - y.mean()) ** 2).mean())
        assert res.cv_mean[0] == pytest.approx(want, rel=1e-12)
        assert res.cv_se[0] == pytest.approx(0.0, abs=1e-12)

    def test_is_twice_the_objective_loss(self):
        rng = np.random.default_rng(31)
        data = cv_data(rng, n=30)
        ids = np.arange(30) % 3
        res = k_fold_cv(data, folds=ids, n_lambda=8)
        errs = np.empty((3, res.lambdas.size))
        for f in range(3):
            train, test = fold_sets(data, ids, f)
            fold_path = fit_path(train, lambdas=res.lambdas)
            preds = fold_path.predict(test.X, test.Z)
            errs[f] = ((test.y[:, None] - preds) ** 2).mean(axis=0)
            for i in range(res.lambdas.size):
                loss = objective(fold_path.fit_raw(i), test).loss
                assert errs[f, i] == pytest.approx(2.0 * loss, rel=1e-12)
        np.testing.assert_allclose(res.cv_mean, errs.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(res.cv_se,
                                   errs.std(axis=0, ddof=1) / np.sqrt(3),
                                   rtol=1e-12)


class TestKFoldCv:
    def test_one_se_index_never_exceeds_min_index(self):
        rng = np.random.default_rng(32)
        for seed in range(5):
            res = k_fold_cv(cv_data(rng), n_folds=5, seed=seed, n_lambda=20)
            assert res.idx_1se <= res.idx_min
            assert res.lam_1se >= res.lam_min
            assert res.cv_mean.shape == res.cv_se.shape == (20,)
            assert np.all(res.cv_se >= 0)

    def test_deterministic_given_seed(self):
        data = cv_data(np.random.default_rng(33))
        a = k_fold_cv(data, n_folds=5, seed=7, n_lambda=15)
        b = k_fold_cv(data, n_folds=5, seed=7, n_lambda=15)
        np.testing.assert_array_equal(a.cv_mean, b.cv_mean)
        assert a.idx_min == b.idx_min and a.idx_1se == b.idx_1se

    def test_seed_changes_folds(self):
        data = cv_data(np.random.default_rng(34))
        a = k_fold_cv(data, n_folds=5, seed=0, n_lambda=15)
        b = k_fold_cv(data, n_folds=5, seed=1, n_lambda=15)
        assert not np.array_equal(a.cv_mean, b.cv_mean)
        # the full-data path does not depend on the folds
        for f1, f2 in zip(a.path.fits, b.path.fits):
            np.testing.assert_array_equal(f1.beta, f2.beta)

    def test_explicit_folds_respected(self):
        data = cv_data(np.random.default_rng(35), n=40)
        ids = np.arange(40) % 4
        res = k_fold_cv(data, folds=ids, n_lambda=10)
        res2 = k_fold_cv(data, folds=ids, n_lambda=10)
        np.testing.assert_array_equal(res.cv_mean, res2.cv_mean)
        with pytest.raises(ValueError, match="one fold id per row"):
            k_fold_cv(data, folds=ids[:-1], n_lambda=10)
        with pytest.raises(ValueError, match="two folds"):
            k_fold_cv(data, folds=np.zeros(40, dtype=int), n_lambda=10)

    def test_fractional_fold_labels_rejected(self):
        # 0.7 and 1.2 once went silently to folds 0 and 1
        data = cv_data(np.random.default_rng(35), n=40)
        ids = (np.arange(40) % 4).astype(float)
        ids[:2] = 0.7, 1.2
        with pytest.raises(ValueError, match=r"folds .*0\.7 at row 0"):
            k_fold_cv(data, folds=ids, n_lambda=10)
        # integer-valued floats are fold ids like any other
        res = k_fold_cv(data, folds=np.arange(40) % 4.0, n_lambda=10)
        ref = k_fold_cv(data, folds=np.arange(40) % 4, n_lambda=10)
        np.testing.assert_array_equal(res.cv_mean, ref.cv_mean)

    def test_nan_fold_label_rejected(self):
        data = cv_data(np.random.default_rng(35), n=40)
        ids = (np.arange(40) % 4).astype(float)
        ids[5] = np.nan
        with pytest.raises(ValueError, match="folds .*nan at row 5"):
            k_fold_cv(data, folds=ids, n_lambda=10)

    def test_fold_leaving_one_training_row_rejected(self):
        data = cv_data(np.random.default_rng(35), n=40)
        ids = np.zeros(40, dtype=int)
        ids[7] = 1
        with pytest.raises(ValueError,
                           match="folds .*2 training rows.*fold 0 leaves 1"):
            k_fold_cv(data, folds=ids, n_lambda=10)

    def test_fold_count_validated(self):
        data = cv_data(np.random.default_rng(36), n=20)
        with pytest.raises(ValueError, match="n_folds"):
            k_fold_cv(data, n_folds=1)
        with pytest.raises(ValueError, match="n_folds"):
            k_fold_cv(data, n_folds=21)

    @pytest.mark.parametrize("n", [2, 3])
    def test_fold_count_leaving_one_training_row_rejected(self, n):
        # 2 folds of 3 rows once left fold 0 one training row and failed in
        # standardize with "fold 0: X column 0 is constant"
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal(3)[:n],
                       rng.standard_normal((3, 2))[:n],
                       rng.standard_normal((3, 2))[:n])
        with pytest.raises(ValueError, match=rf"^n_folds=2 leaves 1 training "
                           rf"row .* data with {n} rows"):
            k_fold_cv(data, n_folds=2)

    def test_fold_count_message_gives_the_row_count(self):
        data = cv_data(np.random.default_rng(36), n=5)
        with pytest.raises(ValueError, match=r"^n_folds must be an integer "
                           r"in \[2, 5\] for data with 5 rows, got 10$"):
            k_fold_cv(data)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_folds": 2.5}, "n_folds"), ({"seed": -1}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer")])
    def test_fold_settings_checked_before_any_fit(self, monkeypatch, kwargs,
                                                  message):
        # a bad seed used to fail inside numpy after the full-data path
        def no_fit(*args, **kw):
            raise AssertionError("the path was fit before the fold settings "
                                 "were checked")

        monkeypatch.setattr("plasso.cv.fit_path", no_fit)
        data = cv_data(np.random.default_rng(36), n=20)
        with pytest.raises(ValueError, match=message):
            k_fold_cv(data, **kwargs)

    def test_duplicated_rows_leave_selection_index_stable(self):
        # doubling every row with paired folds gives identical fold fits,
        # so the selected index on the common grid must not move
        rng = np.random.default_rng(37)
        data = cv_data(rng, n=40)
        ids = np.arange(40) % 4
        X2 = np.vstack([data.X, data.X])
        Z2 = np.vstack([data.Z, data.Z])
        y2 = np.concatenate([data.y, data.y])
        ids2 = np.concatenate([ids, ids])
        a = k_fold_cv(data, folds=ids, n_lambda=12)
        b = k_fold_cv(Dataset(y2, X2, Z2), folds=ids2, n_lambda=12)
        np.testing.assert_allclose(a.lambdas, b.lambdas, rtol=1e-12)
        np.testing.assert_allclose(a.cv_mean, b.cv_mean, rtol=1e-6)
        assert a.idx_min == b.idx_min

    def test_pure_noise_prefers_heavy_penalty(self):
        # with no signal the one-SE pick should sit at (or right next to)
        # the all-zero end of the grid most of the time
        rng = np.random.default_rng(38)
        near_empty = 0
        runs = 25
        for _ in range(runs):
            n = 40
            X = rng.standard_normal((n, 4))
            Z = rng.standard_normal((n, 2))
            y = rng.standard_normal(n)
            res = k_fold_cv(Dataset(y, X, Z), n_folds=4, n_lambda=12,
                            seed=0)
            if res.idx_1se <= 2:
                near_empty += 1
        assert near_empty >= 0.8 * runs

    def test_signal_recovered_at_selected_lambda(self):
        rng = np.random.default_rng(39)
        data = cv_data(rng, n=100)
        res = k_fold_cv(data, n_folds=5, n_lambda=25)
        fit = res.path.fits[res.idx_min]
        assert 0 in fit.active_groups
        assert fit.beta[0] != 0.0

    def test_result_invariants(self):
        data = cv_data(np.random.default_rng(40), n=50)
        res = k_fold_cv(data, n_folds=5, n_lambda=10)
        assert isinstance(res, CvResult)
        assert res.lam_min == float(res.lambdas[res.idx_min])
        assert res.lam_1se == float(res.lambdas[res.idx_1se])
        assert res.path.n_lambdas == 10


def cv_summary(data):
    res = k_fold_cv(data, n_folds=4, seed=3, n_lambda=8)
    return res.cv_mean, res.cv_se, res.idx_min, res.idx_1se


class TestFoldWorkers:
    """The folds are refit in forked workers when there are CPUs for them;
    the result, or the error, must be the one the in-process loop gives."""

    def test_pooled_equals_in_process(self, cpus):
        data = cv_data(np.random.default_rng(37), n=48)
        results = []
        for n in (2, 1):
            cpus(n)
            results.append(k_fold_cv(data, n_folds=4, seed=5, n_lambda=10))
            assert multiprocessing.active_children() == []
        pooled, serial = results
        assert np.array_equal(pooled.lambdas, serial.lambdas)
        assert np.array_equal(pooled.cv_mean, serial.cv_mean)
        assert np.array_equal(pooled.cv_se, serial.cv_se)
        assert (pooled.idx_min, pooled.idx_1se) == (serial.idx_min,
                                                    serial.idx_1se)
        for a, b in zip(pooled.path.fits, serial.path.fits):
            assert a.beta0 == b.beta0
            assert np.array_equal(a.theta0, b.theta0)
            assert np.array_equal(a.beta, b.beta)
            assert np.array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("n_cpus", [2, 1])
    def test_constant_fold_column_names_the_fold(self, cpus, n_cpus):
        # Z is nonzero in one row only, and at seed 0 that row (2) falls in
        # fold 0, so fold 0's training rows have a constant Z column
        cpus(n_cpus)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        Z = np.zeros((30, 1))
        Z[2, 0] = 1.0
        data = Dataset(X[:, 0] + rng.standard_normal(30), X, Z)
        with pytest.raises(StandardizationError,
                           match="^fold 0: Z column 0 is constant"):
            k_fold_cv(data, n_folds=5, seed=0, n_lambda=5)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_inside_daemonic_worker(self, cpus):
        # a daemonic process may not have children, so the folds run
        # in-process there
        cpus(2)
        data = cv_data(np.random.default_rng(38), n=40)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply(cv_summary, (data,))
        outside = cv_summary(data)
        assert np.array_equal(inside[0], outside[0])
        assert np.array_equal(inside[1], outside[1])
        assert inside[2:] == outside[2:]
