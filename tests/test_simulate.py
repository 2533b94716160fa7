import numpy as np
import pytest

from plasso.simulate import SPEC_NAMES, SimSpec, generate


class TestSimSpec:
    def test_known_names(self):
        assert set(SPEC_NAMES) == {"example1", "sim_main", "hte_a", "hte_b",
                                   "hte_c", "unknown_z", "df_null",
                                   "df_nonnull"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="known names"):
            generate(SimSpec("nope"))

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_train": 0}, "n_train must be an integer >= 1"),
        ({"n_test": 2.5}, "n_test must be an integer >= 1"),
        ({"p": np.nan}, "p must be an integer >= 1"),
        ({"k": -1}, "k must be an integer >= 0"),
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"noise_sd": -0.5}, "noise_sd must be >= 0 and finite"),
        ({"noise_sd": np.nan}, "noise_sd must be >= 0 and finite")])
    def test_sizes_seed_and_noise_checked(self, kwargs, message):
        # these used to fail inside numpy, or (noise_sd) pass or blame y
        with pytest.raises(ValueError, match=message):
            SimSpec("df_null", **kwargs)

    def test_defaults_resolve_and_overrides_stick(self):
        spec = SimSpec("sim_main").resolved()
        assert (spec.n_train, spec.p, spec.k) == (100, 50, 4)
        assert spec.noise_sd == 0.5
        spec2 = SimSpec("sim_main", n_train=10, p=7, noise_sd=0.0).resolved()
        assert (spec2.n_train, spec2.p, spec2.noise_sd) == (10, 7, 0.0)


class TestDeterminism:
    def test_same_seed_same_draw(self):
        a = generate(SimSpec("sim_main", seed=5))
        b = generate(SimSpec("sim_main", seed=5))
        np.testing.assert_array_equal(a.train.y, b.train.y)
        np.testing.assert_array_equal(a.test.X, b.test.X)
        np.testing.assert_array_equal(a.truth.mu_test, b.truth.mu_test)

    def test_seed_matters(self):
        a = generate(SimSpec("sim_main", seed=0))
        b = generate(SimSpec("sim_main", seed=1))
        assert not np.array_equal(a.train.y, b.train.y)

    def test_test_block_independent_of_train_size(self):
        a = generate(SimSpec("example1", seed=3, n_train=50))
        b = generate(SimSpec("example1", seed=3, n_train=200))
        np.testing.assert_array_equal(a.test.X, b.test.X)
        np.testing.assert_array_equal(a.test.y, b.test.y)

    def test_shapes(self):
        sim = generate(SimSpec("sim_main", n_train=30, n_test=40))
        assert sim.train.X.shape == (30, 50)
        assert sim.train.Z.shape == (30, 4)
        assert sim.test.y.shape == (40,)
        assert sim.truth.mu_train.shape == (30,)

    def test_zero_noise_hits_the_mean(self):
        sim = generate(SimSpec("example1", noise_sd=0.0))
        np.testing.assert_array_equal(sim.train.y, sim.truth.mu_train)
        np.testing.assert_array_equal(sim.test.y, sim.truth.mu_test)


class TestMeans:
    def test_example1_hand_rows(self):
        fn = generate(SimSpec("example1")).truth.mean_fn
        X = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        Z = np.array([[0.0], [1.0]])
        # 3 x0 + 2 x1 + 3 x1 (1-z) + x2 + 3 x2 z
        np.testing.assert_allclose(fn(X, Z), [16.0, 19.0])

    def test_sim_main_mean_recomputed(self):
        sim = generate(SimSpec("sim_main", seed=2, n_train=50))
        X, Z = sim.train.X, sim.train.Z
        mu = (2.0 * X[:, 0] - 2.0 * X[:, 1]
              + X[:, 2] * (2.0 + 2.0 * Z[:, 0])
              + 2.0 * X[:, 3] * (1.0 - 2.0 * Z[:, 1]))
        np.testing.assert_allclose(sim.truth.mu_train, mu, atol=1e-12)
        assert set(np.unique(Z)) <= {0.0, 1.0}

    def test_sim_main_variance_and_snr(self):
        # var(mu) = 4 + 4 + E[(2+2Z)^2] + 4 E[(1-2Z)^2] = 22 for Z ~ B(1/2),
        # so with sd = 0.5 the signal-to-noise ratio sits near 88
        sim = generate(SimSpec("sim_main", n_train=20000, seed=0))
        v = sim.truth.mu_train.var()
        assert v == pytest.approx(22.0, rel=0.1)
        snr = v / 0.5 ** 2
        assert snr == pytest.approx(88.0, rel=0.1)

    def test_sim_main_indicator_flag_changes_mean_only(self):
        plain = generate(SimSpec("sim_main", seed=4, indicator_x=True))
        X = plain.train.X
        xm = (X > 0).astype(float)
        Z = plain.train.Z
        mu = (2.0 * xm[:, 0] - 2.0 * xm[:, 1]
              + xm[:, 2] * (2.0 + 2.0 * Z[:, 0])
              + 2.0 * xm[:, 3] * (1.0 - 2.0 * Z[:, 1]))
        np.testing.assert_allclose(plain.truth.mu_train, mu, atol=1e-12)
        # the fitted design stays Gaussian
        assert X.min() < 0

    def test_sim_main_z_main_effects_flag(self):
        base = generate(SimSpec("sim_main", seed=4))
        boosted = generate(SimSpec("sim_main", seed=4, z_main_effects=True))
        np.testing.assert_array_equal(base.train.X, boosted.train.X)
        diff = boosted.truth.mu_train - base.truth.mu_train
        np.testing.assert_allclose(diff, 2.0 * base.train.Z.sum(axis=1),
                                   atol=1e-12)


class TestHte:
    def test_effects_match_design(self):
        for name in ("hte_a", "hte_b"):
            sim = generate(SimSpec(name, seed=1))
            np.testing.assert_array_equal(sim.truth.effect_test,
                                          sim.test.X[:, 0])
        sim_c = generate(SimSpec("hte_c", seed=1))
        np.testing.assert_array_equal(sim_c.truth.effect_test,
                                      (sim_c.test.X[:, 0] > 0).astype(float))

    def test_means_recomputed(self):
        sim = generate(SimSpec("hte_b", seed=6, n_train=40))
        X, w = sim.train.X, sim.train.Z[:, 0]
        mu = X[:, 0] * (w - 0.5) + X[:, 1] + 2.0 * X[:, 2]
        np.testing.assert_allclose(sim.truth.mu_train, mu, atol=1e-12)
        assert set(np.unique(w)) <= {0.0, 1.0}


class TestUnknownZ:
    def test_structure(self):
        sim = generate(SimSpec("unknown_z", seed=0))
        assert sim.train.Z.shape == (200, 0)
        assert sim.test.Z.shape == (500, 0)
        z = sim.truth.z_train
        assert set(np.unique(z)) <= {0.0, 1.0}
        expect = np.zeros(12)
        expect[-4:] = [10.0, 10.0, -10.0, 10.0]
        np.testing.assert_array_equal(sim.truth.b_z, expect)

    def test_mean_recomputed_from_latent_group(self):
        sim = generate(SimSpec("unknown_z", seed=3, n_train=60))
        X, z = sim.train.X, sim.truth.z_train
        mu = 2.0 * X[:, :4].sum(axis=1) * (1.0 - 2.0 * z)
        np.testing.assert_allclose(sim.truth.mu_train, mu, atol=1e-12)

    def test_group_labels_are_noisy_but_separable(self):
        # the latent group follows a logistic in X b_z with |b_z| = 20, so
        # the optimal rule errs on only a few percent of rows
        sim = generate(SimSpec("unknown_z", seed=0, n_train=20000))
        score = sim.train.X @ sim.truth.b_z
        pr_z1 = 1.0 / (1.0 + np.exp(score))
        bayes = np.minimum(pr_z1, 1.0 - pr_z1).mean()
        assert 0.015 < bayes < 0.04
        err = ((score < 0).astype(float) != sim.truth.z_train).mean()
        assert abs(err - bayes) < 0.01


class TestDf:
    def test_null_mean_is_zero(self):
        sim = generate(SimSpec("df_null", seed=0))
        assert not sim.truth.mu_train.any()
        assert sim.train.X.shape == (100, 10)
        assert sim.train.Z.shape == (100, 4)

    def test_nonnull_uses_main_mean(self):
        sim = generate(SimSpec("df_nonnull", seed=5, n_train=30))
        X, Z = sim.train.X, sim.train.Z
        mu = (2.0 * X[:, 0] - 2.0 * X[:, 1]
              + X[:, 2] * (2.0 + 2.0 * Z[:, 0])
              + 2.0 * X[:, 3] * (1.0 - 2.0 * Z[:, 1]))
        np.testing.assert_allclose(sim.truth.mu_train, mu, atol=1e-12)
