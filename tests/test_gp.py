from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.signal

from aircast import gp
from aircast.errors import (
    AircastError,
    FactorizationError,
    NonFiniteMeanError,
    NoValidFitError,
    TooLongError,
    TooShortError,
)
from aircast.gp import (
    GpModel,
    SeKernelParams,
    day_indices,
    extend_gp,
    fit_gp,
    fit_hyperparameters,
    gram_matrix,
    log_marginal_likelihood,
    posterior,
)
from aircast.evaluation import GpAdapter
from aircast.series import instants_after

from conftest import daily_series


def dense_posterior_oracle(x, y, params, noise, jitter, test_x):
    """Direct dense-inverse evaluation of the posterior formulas."""
    x = np.asarray(x, dtype=np.float64)
    test_x = np.asarray(test_x, dtype=np.float64)
    offset = y.mean()
    centered = y - offset
    K = params.amplitude * np.exp(-((x[:, None] - x[None, :]) ** 2) / params.length_scale**2)
    A = K + (noise + jitter) * np.eye(x.size)
    A_inv = np.linalg.inv(A)
    k_star = params.amplitude * np.exp(
        -((x[:, None] - test_x[None, :]) ** 2) / params.length_scale**2
    )
    means = k_star.T @ A_inv @ centered + offset
    variances = params.amplitude - np.einsum("ij,ij->j", k_star, A_inv @ k_star)
    return means, variances


def dense_lml_oracle(y, A):
    centered = y - y.mean()
    n = y.size
    sign, logdet = np.linalg.slogdet(A)
    assert sign > 0
    return float(
        -0.5 * centered @ np.linalg.inv(A) @ centered
        - 0.5 * logdet
        - 0.5 * n * np.log(2 * np.pi)
    )


def grid_search_oracle(x, y, noises, amplitudes, length_scales):
    """The per-cell search: one fit_gp and its Cholesky LML per grid cell, the
    key (LML, l, -amplitude), strict, and cells that fail factorization skipped."""
    best_key, best = None, None
    for amplitude in amplitudes:
        for length_scale in length_scales:
            params = SeKernelParams(float(amplitude), float(length_scale))
            for noise in noises:
                try:
                    model = fit_gp(x, y, params, float(noise))
                except FactorizationError:
                    continue
                key = (log_marginal_likelihood(model), params.length_scale, -params.amplitude)
                if best_key is None or key > best_key:
                    best_key, best = key, (params, float(noise))
    if best is None:
        raise NoValidFitError("every cell failed")
    return best


def seeded_series(kind, n, seed):
    """An AR(1) (phi 0.8) or white-noise daily series around 30."""
    e = np.random.default_rng(seed).standard_normal(n)
    if kind == "ar1":
        e = scipy.signal.lfilter([1.0], [1.0, -0.8], e)
    return np.arange(n, dtype=np.float64), 30.0 + 5.0 * e


#: the fixed grids the other hyperparameter tests search (noise, amplitude, l)
FIXED_GRIDS = [
    ([0.01], [1.0], [1.0, 10.0, 100.0]),
    ([0.05, 0.25, 0.5], [0.5, 1.0], [3.0, 10.0]),
    ([0.1], [1.0, 2.0], [3.0, 30.0]),
    ([0.2, 0.1], [2.0, 1.0, 3.0], [3.0, 30.0, 7.0]),
]


def random_instance(rng, n):
    x = np.sort(rng.uniform(0, 60, n))
    while np.unique(x).size != n:
        x = np.sort(rng.uniform(0, 60, n))
    y = rng.uniform(10, 80, n)
    params = SeKernelParams(
        amplitude=float(rng.uniform(0.5, 5.0)),
        length_scale=float(rng.uniform(2.0, 20.0)),
    )
    noise = float(rng.uniform(0.05, 1.0))
    return x, y, params, noise


class TestKernel:
    def test_zero_distance_equals_amplitude(self):
        params = SeKernelParams(2.5, 7.0)
        assert gram_matrix([3.0], params)[0, 0] == 2.5

    def test_distance_equal_to_length_scale(self):
        params = SeKernelParams(1.0, 4.0)
        assert gram_matrix([0.0, 4.0], params)[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_symmetry(self, rng):
        params = SeKernelParams(1.7, 3.3)
        for _ in range(20):
            a, b = rng.uniform(-50, 50, 2)
            assert gram_matrix([a, b], params)[0, 1] == gram_matrix([b, a], params)[0, 1]

    def test_positive_params_enforced(self):
        with pytest.raises(ValueError):
            SeKernelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            SeKernelParams(1.0, -2.0)


class TestGramMatrix:
    def test_single_point(self):
        K = gram_matrix([5.0], SeKernelParams(3.0, 2.0))
        assert K.shape == (1, 1)
        assert K[0, 0] == 3.0

    def test_duplicate_points_rank_deficient(self):
        K = gram_matrix([2.0, 2.0], SeKernelParams(1.5, 1.0))
        assert np.all(K == 1.5)

    def test_exactly_symmetric_with_amplitude_diagonal(self, rng):
        xs = rng.uniform(0, 30, 7)
        K = gram_matrix(xs, SeKernelParams(2.2, 5.0))
        assert np.array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), 2.2)

    def test_psd_up_to_roundoff(self, rng):
        xs = rng.uniform(0, 40, 6)
        K = gram_matrix(xs, SeKernelParams(1.0, 8.0))
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-10


class TestFitGp:
    def test_single_point_interpolation(self):
        model = fit_gp([0.0], [5.0], SeKernelParams(1.0, 3.0), 0.0)
        means, variances = posterior(model, [0.0])
        assert means[0] == pytest.approx(5.0, abs=1e-9)
        assert variances[0] == pytest.approx(0.0, abs=1e-6)

    def test_duplicate_times_rejected(self):
        with pytest.raises(ValueError):
            fit_gp([1.0, 1.0], [2.0, 3.0], SeKernelParams(1.0, 3.0), 0.1)

    def test_factorization_reproduces_matrix(self, rng):
        x, y, params, noise = random_instance(rng, 20)
        model = fit_gp(x, y, params, noise)
        target = gram_matrix(x, params) + (noise + model.jitter) * np.eye(20)
        reconstructed = model.chol_lower @ model.chol_lower.T
        assert np.max(np.abs(reconstructed - target)) < 1e-10

    def test_train_size_cap(self):
        x = np.arange(2001, dtype=np.float64)
        with pytest.raises(ValueError):
            fit_gp(x, np.zeros(2001), SeKernelParams(1.0, 3.0), 0.1)

    def test_train_size_cap_is_a_toolkit_error(self):
        x = np.arange(2001, dtype=np.float64)
        with pytest.raises(TooLongError) as info:
            fit_gp(x, np.zeros(2001), SeKernelParams(1.0, 3.0), 0.1)
        assert isinstance(info.value, AircastError)

    def test_jitter_escalation_handles_near_duplicates(self):
        # nearly coincident inputs with zero noise: needs jitter, must succeed
        x = [0.0, 1e-9, 5.0, 10.0]
        model = fit_gp(x, [1.0, 1.0, 2.0, 3.0], SeKernelParams(1.0, 5.0), 0.0)
        assert model.jitter <= 1e-4 * model.params.amplitude

    @staticmethod
    def failing_cholesky(monkeypatch, amplitude, failures):
        """Replace gp.cholesky by a double that refuses its first ``failures``
        matrices; returns the jitters it was given, read off a 1x1 Gram matrix."""
        jitters = []
        real_cholesky = gp.cholesky

        def double(matrix, lower):
            jitters.append(float(matrix[0, 0]) - amplitude)
            if len(jitters) <= failures:
                raise np.linalg.LinAlgError("not positive definite")
            return real_cholesky(matrix, lower=lower)

        monkeypatch.setattr(gp, "cholesky", double)
        return jitters

    @pytest.mark.parametrize("amplitude", [0.5, 1.0, 2.0, 7.3, 3.0, 10.0, 123.4])
    def test_jitter_stops_at_1e_4_of_the_amplitude(self, monkeypatch, amplitude):
        jitters = self.failing_cholesky(monkeypatch, amplitude, failures=math.inf)
        with pytest.raises(FactorizationError, match=f"up to jitter {1e-4 * amplitude:g}$"):
            fit_gp([0.0], [1.0], SeKernelParams(amplitude, 3.0), 0.0)
        assert len(jitters) == 7
        assert jitters[-1] == pytest.approx(1e-4 * amplitude, rel=1e-9)
        assert jitters[0] == pytest.approx(1e-10 * amplitude, rel=1e-4)

    @pytest.mark.parametrize("amplitude", [0.5, 2.0, 123.4])
    def test_jitter_escalates_tenfold_per_failure(self, monkeypatch, amplitude):
        jitters = self.failing_cholesky(monkeypatch, amplitude, failures=2)
        model = fit_gp([0.0], [1.0], SeKernelParams(amplitude, 3.0), 0.0)
        assert len(jitters) == 3
        assert model.jitter == pytest.approx(1e-8 * amplitude, rel=1e-12)


def assert_same_model(model, oracle):
    assert model.jitter == oracle.jitter
    np.testing.assert_array_equal(model.train_inputs, oracle.train_inputs)
    np.testing.assert_allclose(model.chol_lower, oracle.chol_lower, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model.whitened, oracle.whitened, rtol=1e-12, atol=1e-12)
    assert model.offset == pytest.approx(oracle.offset, rel=1e-12)


class TestExtendGp:
    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_matches_refit_on_extended_data(self, rng, k):
        x, y, params, noise = random_instance(rng, 40)
        base = fit_gp(x[: 40 - k], y[: 40 - k], params, noise)
        assert_same_model(extend_gp(base, x, y), fit_gp(x, y, params, noise))

    def test_extended_factor_reproduces_matrix(self, rng):
        x, y, params, noise = random_instance(rng, 25)
        model = extend_gp(fit_gp(x[:20], y[:20], params, noise), x, y)
        target = gram_matrix(x, params) + (noise + model.jitter) * np.eye(25)
        assert np.max(np.abs(model.chol_lower @ model.chol_lower.T - target)) < 1e-10
        assert np.array_equal(model.chol_lower, np.tril(model.chol_lower))

    def test_non_extending_inputs_refit(self, rng, monkeypatch):
        x, y, params, noise = random_instance(rng, 30)
        base = fit_gp(x[:20], y[:20], params, noise)
        calls = []
        real_fit_gp = gp.fit_gp

        def counting(*args):
            calls.append(len(args[0]))
            return real_fit_gp(*args)

        monkeypatch.setattr(gp, "fit_gp", counting)
        extend_gp(base, x, y)
        assert calls == []
        shifted = np.concatenate([[x[0] - 1.0], x[1:]])
        assert_same_model(extend_gp(base, shifted, y), real_fit_gp(shifted, y, params, noise))
        assert_same_model(extend_gp(base, x[:10], y[:10]), real_fit_gp(x[:10], y[:10], params, noise))
        assert calls == [30, 10]

    def test_non_positive_pivot_refits(self, rng):
        x, y, params, noise = random_instance(rng, 12)
        base = fit_gp(x[:10], y[:10], params, noise)
        # a stored jitter this negative drives the appended pivot below zero
        broken = dataclasses.replace(base, jitter=-(params.amplitude + noise + 1.0))
        assert_same_model(extend_gp(broken, x, y), fit_gp(x, y, params, noise))

    def test_appended_time_must_be_distinct(self, rng):
        x, y, params, noise = random_instance(rng, 10)
        base = fit_gp(x, y, params, noise)
        with pytest.raises(ValueError, match="distinct"):
            extend_gp(base, np.append(x, x[3]), np.append(y, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_appended_target_is_a_value_error(self, rng, bad):
        x, y, params, noise = random_instance(rng, 12)
        base = fit_gp(x[:10], y[:10], params, noise)
        y[11] = bad
        with pytest.raises(ValueError) as info:
            extend_gp(base, x, y)
        assert not isinstance(info.value, AircastError)

    def test_overflowing_mean_is_a_toolkit_error(self, rng):
        x, y, params, noise = random_instance(rng, 12)
        base = fit_gp(x[:10], y[:10], params, noise)
        y[10:] = 1e308
        with pytest.raises(NonFiniteMeanError):
            extend_gp(base, x, y)
        with pytest.raises(NonFiniteMeanError):
            fit_gp(x, y, params, noise)

    def test_whitened_targets_extend_by_one_row_per_point(self, rng):
        x, y, params, noise = random_instance(rng, 15)
        base = fit_gp(x[:12], y[:12], params, noise)
        model = extend_gp(base, x, y)
        assert np.array_equal(model.whitened[:12], base.whitened)
        np.testing.assert_allclose(model.chol_lower @ model.whitened,
                                   np.column_stack([y, np.ones(15)]), rtol=1e-12)
        # revised earlier targets are whitened afresh through the extended factor
        revised = y[::-1].copy()
        assert_same_model(extend_gp(base, x, revised), fit_gp(x, revised, params, noise))

    def test_cap_raised_when_extension_crosses_it(self):
        x = np.arange(2001, dtype=np.float64)
        y = np.sin(x / 10.0)
        base = fit_gp(x[:2000], y[:2000], SeKernelParams(1.0, 3.0), 0.1)
        with pytest.raises(TooLongError):
            extend_gp(base, x, y)


class TestPosterior:
    def test_noise_free_interpolation(self, rng):
        x = np.linspace(0, 12, 8)
        y = rng.uniform(20, 60, 8)
        model = fit_gp(x, y, SeKernelParams(4.0, 3.0), 0.0)
        means, variances = posterior(model, x)
        np.testing.assert_allclose(means, y, atol=1e-6)
        assert np.all(variances <= 1e-6)

    def test_far_query_reverts_to_prior(self):
        x = np.linspace(0, 5, 6)
        y = np.array([30.0, 31, 29, 33, 32, 30])
        params = SeKernelParams(2.0, 1.5)
        model = fit_gp(x, y, params, 0.1)
        means, variances = posterior(model, [500.0])
        assert means[0] == pytest.approx(y.mean(), abs=1e-6)
        assert variances[0] == pytest.approx(params.amplitude, abs=1e-6)

    def test_matches_dense_inverse_oracle(self, rng):
        for _ in range(10):
            x, y, params, noise = random_instance(rng, 8)
            model = fit_gp(x, y, params, noise)
            test_x = rng.uniform(-5, 70, 4)
            means, variances = posterior(model, test_x)
            m_or, v_or = dense_posterior_oracle(x, y, params, noise, model.jitter, test_x)
            np.testing.assert_allclose(means, m_or, atol=1e-8)
            np.testing.assert_allclose(variances, np.maximum(v_or, 0.0), atol=1e-8)

    def test_variances_clamped_non_negative(self, rng):
        x, y, params, noise = random_instance(rng, 10)
        model = fit_gp(x, y, params, noise)
        _, variances = posterior(model, x)
        assert np.all(variances >= 0.0)

    def test_empty_query(self, rng):
        x, y, params, noise = random_instance(rng, 5)
        model = fit_gp(x, y, params, noise)
        means, variances = posterior(model, [])
        assert means.size == 0 and variances.size == 0


class TestLogMarginalLikelihood:
    def test_scalar_formula(self):
        params = SeKernelParams(2.0, 3.0)
        model = fit_gp([0.0], [7.0], params, 0.5)
        v = 2.0 + 0.5 + model.jitter
        # centered target is exactly 0 for a single point
        expected = -0.5 * (0.0 / v + np.log(v) + np.log(2 * np.pi))
        assert log_marginal_likelihood(model) == pytest.approx(expected, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            x, y, params, noise = random_instance(rng, 5)
            model = fit_gp(x, y, params, noise)
            A = gram_matrix(x, params) + (noise + model.jitter) * np.eye(5)
            assert log_marginal_likelihood(model) == pytest.approx(
                dense_lml_oracle(y, A), abs=1e-8
            )

    def test_permutation_invariance(self, rng):
        x, y, params, noise = random_instance(rng, 9)
        model = fit_gp(x, y, params, noise)
        perm = rng.permutation(9)
        permuted = fit_gp(x[perm], y[perm], params, noise)
        assert log_marginal_likelihood(model) == pytest.approx(
            log_marginal_likelihood(permuted), abs=1e-9
        )


class TestHyperparameterFit:
    def test_single_cell(self):
        params, noise = fit_hyperparameters(
            [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.1], [2.0], [5.0]
        )
        assert params == SeKernelParams(2.0, 5.0)
        assert noise == 0.1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fit_hyperparameters([0.0], [1.0], [], [1.0], [1.0])
        with pytest.raises(ValueError):
            fit_hyperparameters([0.0], [1.0], [0.1], [-1.0], [1.0])

    def test_length_scale_recovery(self):
        # draws from a GP with l=10 prefer l=10 over {1, 100}
        hits = 0
        x = np.arange(40, dtype=np.float64)
        true = SeKernelParams(1.0, 10.0)
        K = gram_matrix(x, true) + 0.01 * np.eye(40)
        L = np.linalg.cholesky(K)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = L @ rng.standard_normal(40)
            params, _ = fit_hyperparameters(x, y, [0.01], [1.0], [1.0, 10.0, 100.0])
            hits += params.length_scale == 10.0
        assert hits >= 16  # >= 80% of replications

    def test_white_noise_prefers_largest_noise(self):
        hits = 0
        x = np.arange(60, dtype=np.float64)
        for seed in range(20):
            rng = np.random.default_rng(seed + 50)
            y = rng.standard_normal(60)
            base = float(np.var(y))
            _, noise = fit_hyperparameters(
                x, y,
                [0.05 * base, 0.25 * base, 0.5 * base],
                [0.5 * base, base],
                [3.0, 10.0],
            )
            hits += noise == 0.5 * base
        assert hits >= 16

    def test_all_cells_failing(self, monkeypatch):
        # the scoring seam marks every cell as one no jitter can factorize
        monkeypatch.setattr(
            gp, "_lml_surface", lambda x, y, l, amps, noises: np.full((amps.size, noises.size), np.nan)
        )
        with pytest.raises(NoValidFitError):
            fit_hyperparameters([0.0, 1.0], [1.0, 2.0], [0.1], [1.0], [5.0])

    def test_tie_breaking_prefers_smoother(self):
        # constant data: every cell interpolates equally well at zero
        # centered targets, so the LML ties resolve to the largest length
        # scale, then the smallest amplitude
        x = np.arange(12, dtype=np.float64)
        y = np.full(12, 5.0)
        params, _ = fit_hyperparameters(x, y, [0.1], [1.0, 2.0], [3.0, 30.0])
        assert params.length_scale == 30.0
        assert params.amplitude == 1.0

    def test_exact_ties_follow_the_stated_order(self, monkeypatch):
        # every cell scores the same: the larger length scale wins, then the
        # smaller amplitude, then the earlier noise in grid order
        monkeypatch.setattr(
            gp, "_lml_surface", lambda x, y, l, amps, noises: np.full((amps.size, noises.size), -1.0)
        )
        x = np.arange(12, dtype=np.float64)
        params, noise = fit_hyperparameters(x, np.sin(x), [0.2, 0.1], [2.0, 1.0, 3.0], [3.0, 30.0, 7.0])
        assert (params.length_scale, params.amplitude, noise) == (30.0, 1.0, 0.2)

    @pytest.mark.parametrize("n", [40, 150, 432, 600])
    @pytest.mark.parametrize("kind", ["ar1", "white"])
    def test_chooses_the_per_cell_oracles_cell(self, kind, n):
        x, y = seeded_series(kind, n, seed=n)
        for grids in [gp.default_grids(y)] + FIXED_GRIDS:
            assert fit_hyperparameters(x, y, *grids) == grid_search_oracle(x, y, *grids)

    @pytest.mark.parametrize("kind, n", [("ar1", 40), ("white", 150), ("ar1", 432)])
    def test_every_cell_scores_its_cholesky_likelihood(self, kind, n):
        x, y = seeded_series(kind, n, seed=7)
        noises, amplitudes, length_scales = (np.asarray(g) for g in gp.default_grids(y))
        for length_scale in length_scales:
            surface = gp._lml_surface(x, y - y.mean(), length_scale, amplitudes, noises)
            for (i, j), lml in np.ndenumerate(surface):
                model = fit_gp(x, y, SeKernelParams(amplitudes[i], length_scale), noises[j])
                assert lml == pytest.approx(log_marginal_likelihood(model), rel=1e-9)

    def test_numerically_singular_kernel_matrix(self):
        # at l = 60 days over 432 daily points R has eigenvalues just below
        # zero; the noise keeps every cell positive definite at the first jitter
        x, y = seeded_series("ar1", 432, seed=3)
        sq_dist = np.subtract.outer(x, x) ** 2
        assert np.linalg.eigvalsh(np.exp(-sq_dist / 60.0**2)).min() < 0.0
        noises, amplitudes = np.array([0.05 * y.var()]), np.array([0.5 * y.var(), 2.0 * y.var()])
        surface = gp._lml_surface(x, y - y.mean(), 60.0, amplitudes, noises)
        for (i, j), lml in np.ndenumerate(surface):
            model = fit_gp(x, y, SeKernelParams(amplitudes[i], 60.0), noises[j])
            assert model.jitter == 1e-10 * amplitudes[i]
            assert lml == pytest.approx(log_marginal_likelihood(model), rel=1e-9)

    @staticmethod
    def shifted_eigh(monkeypatch, lowest):
        """Replace gp.eigh by a double whose smallest eigenvalue is ``lowest``."""
        real_eigh = gp.eigh

        def double(matrix, **kwargs):
            lam, vectors = real_eigh(matrix, **kwargs)
            lam[0] = lowest
            return lam, vectors

        monkeypatch.setattr(gp, "eigh", double)

    @pytest.mark.parametrize("shortfall, jitter", [(5e-6, 1e-5), (5e-5, 1e-4)])
    def test_jitter_escalates_in_eigen_space(self, monkeypatch, shortfall, jitter):
        # a*lam_0 + noise = -shortfall*a: the smaller jitters leave that
        # eigenvalue negative, and jitter*a is the first that does not
        x, y = seeded_series("white", 12, seed=1)
        amplitude, noise, length_scale = 2.0, 0.1, 3.0
        self.shifted_eigh(monkeypatch, (-shortfall * amplitude - noise) / amplitude)
        sq_dist = np.subtract.outer(x, x) ** 2
        surface = gp._lml_surface(x, y - y.mean(), length_scale, np.array([amplitude]), np.array([noise]))
        lam, vectors = gp.eigh(np.exp(-sq_dist / length_scale**2))
        spectrum = amplitude * lam + noise + jitter * amplitude
        A = vectors @ np.diag(spectrum) @ vectors.T
        assert surface[0, 0] == pytest.approx(dense_lml_oracle(y, A), rel=1e-9)

    def test_no_jitter_clears_a_negative_eigenvalue(self, monkeypatch):
        # a*lam_0 + noise = -5e-4*a stays negative past the largest jitter, 1e-4*a
        self.shifted_eigh(monkeypatch, (-5e-4 * 2.0 - 0.1) / 2.0)
        x, y = seeded_series("white", 12, seed=1)
        with pytest.raises(NoValidFitError):
            fit_hyperparameters(x, y, [0.1], [2.0], [3.0, 7.0])

    def test_a_skipped_cell_never_wins(self, monkeypatch):
        # the first cell in search order has no likelihood; any scored cell beats it
        def surface(x, y, l, amps, noises):
            scores = np.full((amps.size, noises.size), -50.0)
            scores[0, 0] = np.nan
            return scores

        monkeypatch.setattr(gp, "_lml_surface", surface)
        x = np.arange(12, dtype=np.float64)
        params, noise = fit_hyperparameters(x, np.sin(x), [0.1, 0.2], [1.0], [3.0])
        assert (params.length_scale, params.amplitude, noise) == (3.0, 1.0, 0.2)

    def test_cap_checked_before_any_decomposition(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gp, "eigh", lambda *args, **kwargs: calls.append(1))
        x = np.arange(2001, dtype=np.float64)
        with pytest.raises(TooLongError):
            fit_hyperparameters(x, np.sin(x), *gp.default_grids(np.sin(x)))
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308], ids=["nan", "inf", "mean-overflow"])
    def test_non_finite_targets_are_a_value_error(self, bad):
        # as fit_gp refuses these targets (a ValueError here for the overflowing
        # mean too); a NaN likelihood never gets to win
        x = np.arange(12, dtype=np.float64)
        y = np.sin(x)
        y[3] = bad
        if bad == 1e308:
            y[4] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
            fit_hyperparameters(x, y, [0.1], [1.0], [3.0])
        assert not isinstance(info.value, AircastError)


class TestDefaultGrids:
    @pytest.mark.parametrize("values, variance", [([0.0, 4.0], 4.0), ([2.0, 2.0], 1.0)],
                             ids=["spread", "constant"])
    def test_scaled_to_the_variance(self, values, variance):
        noise, amplitude, length_scale = gp.default_grids(values)
        assert noise == tuple(f * variance for f in gp.DEFAULT_NOISE_FACTORS)
        assert amplitude == tuple(f * variance for f in gp.DEFAULT_AMPLITUDE_FACTORS)
        assert length_scale == gp.DEFAULT_LENGTH_SCALES

    def test_non_finite_variance_is_no_valid_fit(self):
        with pytest.raises(NoValidFitError, match="variance is not finite"):
            gp.default_grids([1e200] + [40.0] * 20)


class TestDayIndices:
    def test_days_after_the_base(self):
        base = 1_609_452_000
        days = day_indices([base, base + 43_200, base + 3 * 86_400, base - 86_400], base)
        assert days.tolist() == [0.0, 0.5, 3.0, -1.0]

    def test_the_adapter_takes_no_settings(self):
        assert [f.name for f in dataclasses.fields(GpAdapter) if f.init] == []
        assert repr(GpAdapter()) == "GpAdapter()"


class TestForecastSeries:
    """The GP forecaster as the ``forecast`` stage drives it: fit on a
    series, then forecast the steps after that same series."""

    @staticmethod
    def forecast_after(series, horizon):
        adapter = GpAdapter()
        adapter.fit(series)
        means, variances = adapter.forecast(series, instants_after(series, horizon))
        return adapter, means, variances

    def test_constant_series(self):
        series = daily_series([42.0] * 30)
        _, means, _ = self.forecast_after(series, 5)
        np.testing.assert_allclose(means, 42.0, rtol=0.01)

    def test_horizon_zero(self):
        series = daily_series(np.linspace(10, 20, 15))
        _, means, variances = self.forecast_after(series, 0)
        assert means.size == 0 and variances.size == 0

    def test_variance_non_decreasing_beyond_train(self, rng):
        series = daily_series(rng.uniform(20, 60, 40))
        _, _, variances = self.forecast_after(series, 10)
        assert np.all(np.diff(variances) >= -1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            self.forecast_after(daily_series([1.0] * 9), 3)

    def test_summary_serializable(self, rng):
        series = daily_series(rng.uniform(20, 60, 30))
        adapter, _, _ = self.forecast_after(series, 3)
        summary = adapter.to_dict()
        assert set(summary) == {
            "amplitude", "length_scale", "noise_variance", "n_train",
            "offset", "jitter", "log_marginal_likelihood",
        }
