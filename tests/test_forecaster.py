"""Forecasting decoders: fusion, augmentation, Gaussian NLL, quantile
construction, inversion, and end-to-end differentiability."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

import latentcast.tensor as T
from latentcast.cvae import CvaePair
from latentcast.forecaster import (NORMAL_QUANTILES, QUANTILE_LEVELS, ForecastModel,
                                   LinearDecoder, RecurrentDecoder, augment_input,
                                   gaussian_nll, to_distribution)
from latentcast.nets import glorot
from latentcast.tensor import Tensor, grad_check


class _FixedMeans:
    """Stands in for a `CvaePair` whose encoders return fixed posterior
    means, one per component, for every window."""

    def __init__(self, *means):
        self.means = [np.asarray(m, float) for m in means]
        self.d_z = self.means[0].size

    def encode(self, x, rng=None, training=False):
        return {f"c{i}": Tensor(np.tile(m, (x.shape[0], 1))) for i, m in enumerate(self.means)}


def _fused(*means):
    """`ForecastModel.latent_batch` of two windows under fixed component
    means (two, so a width-1 latent is no scalar that broadcasts), first row."""
    z = ForecastModel(_FixedMeans(*means), None, None, None).latent_batch(np.zeros((2, 3)))
    assert np.array_equal(z.data[0], z.data[1])
    return z.data[0]


class TestFuse:
    def test_zeros(self):
        assert np.array_equal(_fused([0.0, 0], [0.0, 0]), [0, 0])

    def test_values_and_commutativity(self):
        assert np.array_equal(_fused([1.0, 2], [3.0, 4]), [4, 6])
        assert np.array_equal(_fused([1.0, 2], [3.0, 4]), _fused([3.0, 4], [1.0, 2]))
        # one component (no decomposition) enters unchanged
        assert np.array_equal(_fused([1.0, 2]), [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(T.ShapeError):
            _fused([1.0], [1.0, 2.0])


class TestAugment:
    def test_zero_weights_bias_passthrough(self):
        z, x = Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3)))
        w = Tensor(np.zeros((5, 3)))
        b = Tensor(np.ones(3))
        assert np.array_equal(augment_input(z, x, w, b).data, [[1, 1, 1]])

    def test_hand_matrix_multiply(self):
        z, x = Tensor([[1.0]]), Tensor([[2.0, 3.0]])
        w = Tensor([[1.0, 0], [0, 1], [1, 1]])
        b = Tensor([0.0, 0.0])
        assert np.array_equal(augment_input(z, x, w, b).data, [[4.0, 5.0]])

    def test_gradient_wrt_all_inputs(self):
        rng = np.random.default_rng(0)
        z = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        err = grad_check(lambda: T.tsum(T.square(augment_input(z, x, w, b))),
                         [z, x, w, b])
        assert err < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            augment_input(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))),
                          Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))
        # one window is a one-row batch, not a 1-D row
        with pytest.raises(T.ShapeError):
            augment_input(Tensor(np.zeros(2)), Tensor(np.zeros(3)),
                          Tensor(np.zeros((5, 3))), Tensor(np.zeros(3)))


class TestGaussianNll:
    def test_zero_residual_unit_sigma(self):
        val = float(gaussian_nll(np.zeros((1, 1)), Tensor(np.zeros((1, 1))),
                                 Tensor(np.ones((1, 1)))).data)
        assert abs(val - 0.9189385332046727) < 1e-12

    def test_unit_residual(self):
        val = float(gaussian_nll(np.ones((1, 1)), Tensor(np.zeros((1, 1))),
                                 Tensor(np.ones((1, 1)))).data)
        assert abs(val - 1.4189385332046727) < 1e-12

    def test_interior_minimum_in_sigma(self):
        # residual 2: NLL minimized near sigma = 2, growing on both sides
        y = np.full((1, 1), 2.0)
        mu = Tensor(np.zeros((1, 1)))
        nll = lambda s: float(gaussian_nll(y, mu, Tensor(np.full((1, 1), s))).data)
        assert nll(2.0) < nll(0.2)
        assert nll(2.0) < nll(20.0)
        assert nll(1.9) > nll(2.0) < nll(2.1)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(T.MathDomainError):
            gaussian_nll(np.zeros((1, 1)), Tensor(np.zeros((1, 1))),
                         Tensor(np.zeros((1, 1))))

    @pytest.mark.parametrize("y, mu, sigma", [((2, 3), (2, 2), (2, 2)), ((2, 3), (2, 3), (3, 2)),
                                              ((1, 3), (3,), (3,))],
                             ids=["y_and_mu", "mu_and_sigma", "row_and_1d"])
    def test_unequal_shapes_rejected(self, y, mu, sigma):
        with pytest.raises(T.ShapeError):
            gaussian_nll(np.zeros(y), Tensor(np.zeros(mu)), Tensor(np.ones(sigma)))


class TestRecurrentDecoder:
    def _decoder(self, feat_dim=0, hidden=4, horizon=3, seed=0):
        return RecurrentDecoder(np.random.default_rng(seed), feat_dim, hidden,
                                horizon, drop=0.0)

    def test_shape_contract(self):
        dec = self._decoder()
        xp = Tensor(np.random.default_rng(1).normal(size=(2, 6)))
        y = np.zeros((2, 3))
        mu, sigma = dec.teacher_forced(xp, None, y)
        assert mu.shape == (2, 3) and sigma.shape == (2, 3)
        paths = dec.sample_paths(xp, None, 5, np.random.default_rng(2))
        assert paths.shape == (2, 5, 3)

    def test_degenerate_weights_emit_biases(self):
        dec = self._decoder()
        for p in dec.params():
            p.data[...] = 0.0
        dec.mu_head.b.data[...] = 0.7
        dec.sigma_head.b.data[...] = -0.2
        xp = Tensor(np.random.default_rng(3).normal(size=(2, 5)))
        mu, sigma = dec.teacher_forced(xp, None, np.zeros((2, 3)))
        expected_sigma = np.log1p(np.exp(-0.2)) + 1e-6
        assert np.allclose(mu.data, 0.7)
        assert np.allclose(sigma.data, expected_sigma)

    def test_sample_mean_concentrates(self):
        dec = self._decoder(seed=4)
        xp = Tensor(np.random.default_rng(5).normal(size=(1, 6)))
        n_paths = 4000
        paths = dec.sample_paths(xp, None, n_paths, np.random.default_rng(6))
        mu, sigma = dec.teacher_forced(xp, None, np.zeros((1, dec.horizon)))
        mu1, sigma1 = float(mu.data[0, 0]), float(sigma.data[0, 0])
        # step 1 is identical in teacher-forced and sampled modes
        assert abs(paths[0, :, 0].mean() - mu1) < 3.0 * sigma1 / np.sqrt(n_paths)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            self._decoder(horizon=0)

    def test_features_enter_conditioning(self):
        dec = self._decoder(feat_dim=2, seed=7)
        xp = Tensor(np.random.default_rng(8).normal(size=(1, 4)))
        a0 = np.zeros((1, 4, 2))
        a1 = np.ones((1, 4, 2))
        mu0, _ = dec.teacher_forced(xp, a0, np.zeros((1, 3)))
        mu1, _ = dec.teacher_forced(xp, a1, np.zeros((1, 3)))
        assert not np.allclose(mu0.data, mu1.data)


class TestLinearDecoder:
    def _decoder(self, lookback=8, horizon=3, kernel=3, seed=0):
        return LinearDecoder(np.random.default_rng(seed), lookback, horizon, kernel)

    def test_shape_contract(self):
        dec = self._decoder()
        mu, sigma = dec(Tensor(np.random.default_rng(1).normal(size=(2, 8))))
        assert mu.shape == (2, 3) and sigma.shape == (2, 3)

    def test_zero_weights_emit_biases(self):
        dec = self._decoder()
        for p in dec.params():
            p.data[...] = 0.0
        dec.lin_trend.b.data[...] = 0.3
        dec.lin_seasonal.b.data[...] = 0.2
        dec.lin_sigma.b.data[...] = 0.0
        mu, sigma = dec(Tensor(np.random.default_rng(2).normal(size=(1, 8))))
        assert np.allclose(mu.data, 0.5)
        assert np.allclose(sigma.data, np.log(2.0) + 1e-6)

    def test_mu_linear_in_input_when_biases_zero(self):
        dec = self._decoder(seed=3)
        for lin in (dec.lin_trend, dec.lin_seasonal, dec.lin_sigma):
            lin.b.data[...] = 0.0
        rng = np.random.default_rng(4)
        x1, x2 = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        a, b = 0.7, -1.3
        mix = dec(Tensor(a * x1 + b * x2))[0].data
        parts = a * dec(Tensor(x1))[0].data + b * dec(Tensor(x2))[0].data
        assert np.allclose(mix, parts, atol=1e-10)

    def test_gradient_through_decomposition(self):
        dec = self._decoder(seed=5)
        xp = Tensor(np.random.default_rng(6).normal(size=(2, 8)), requires_grad=True)

        def f():
            mu, sigma = dec(xp)
            return gaussian_nll(np.zeros((2, 3)), mu, sigma)

        assert grad_check(f, [xp] + dec.params()) < 1e-4


class TestToDistribution:
    def test_standard_normal_quantiles(self):
        quantiles, notes = to_distribution(mu=np.zeros(2), sigma=np.ones(2))
        assert np.allclose(quantiles[4], 0.0, atol=1e-12)
        assert np.allclose(quantiles[8], 1.2815515655446004, atol=1e-9)
        assert notes == []

    def test_tiny_sigma_collapses_to_mu(self):
        mu = np.array([3.0, -1.0])
        quantiles, _ = to_distribution(mu=mu, sigma=np.full(2, 1e-300))
        assert np.allclose(quantiles, np.tile(mu, (9, 1)), atol=1e-12)

    @given(m=st.integers(1, 3), horizon=st.integers(1, 4), paths=st.integers(1, 30),
           feat_dim=st.integers(0, 2), seed=st.integers(0, 2 ** 16))
    def test_monotone_quantiles_both_modes(self, m, horizon, paths, feat_dim, seed):
        # the Gaussian head, and the paths the recurrent decoder samples, in
        # original units, as `predict_windows` builds them
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 10.0, (m, 1))
        stats = (rng.normal(size=(m, 1)), rng.uniform(0.0, 3.0, (m, 1)))
        closed, _ = to_distribution(mu=rng.normal(size=(m, horizon)),
                                    sigma=rng.uniform(1e-6, 2.0, (m, horizon)),
                                    scale=scale, norm_stats=stats)
        dec = RecurrentDecoder(rng, feat_dim, 4, horizon, drop=0.0)
        a = rng.normal(size=(m, 5, feat_dim)) if feat_dim else None
        samples = dec.sample_paths(Tensor(rng.normal(size=(m, 5))), a, paths, rng)
        sampled, _ = to_distribution(samples=samples, scale=scale, norm_stats=stats)
        for quantiles in (closed, sampled):
            assert quantiles.shape == (9, m, horizon)
            assert np.all(np.diff(quantiles, axis=0) >= 0)
        # the one-window forms: (h,) mu and sigma, (paths, h) samples
        one_closed, _ = to_distribution(mu=rng.normal(size=horizon),
                                        sigma=rng.uniform(1e-6, 2.0, horizon))
        one_sampled, _ = to_distribution(samples=samples[0])
        for quantiles in (one_closed, one_sampled):
            assert quantiles.shape == (9, horizon)
            assert np.all(np.diff(quantiles, axis=0) >= 0)

    def test_few_samples_notes_warning(self):
        _, notes = to_distribution(samples=np.random.default_rng(1).normal(size=(5, 3)))
        assert any("sample paths" in n for n in notes)

    def test_normal_quantiles_are_the_bits_of_ndtri(self):
        assert NORMAL_QUANTILES == tuple(ndtri(np.array(QUANTILE_LEVELS)).tolist())

    def test_inversion_roundtrip(self):
        # re-normalizing the output grid recovers the normalized quantiles
        rng = np.random.default_rng(2)
        mu, sigma = rng.normal(size=3), rng.uniform(0.5, 1.5, 3)
        stats = (2.5, 1.7)
        scale = 4.0
        quantiles, _ = to_distribution(mu=mu, sigma=sigma, scale=scale, norm_stats=stats)
        renorm = (quantiles / scale - stats[0]) / (stats[1] + 1e-5)
        expected = mu[None, :] + sigma[None, :] * ndtri(np.arange(1, 10) / 10.0)[:, None]
        assert np.allclose(renorm, expected, atol=1e-9)


class TestEndToEnd:
    def _model(self, decoder="linear", seed=0):
        rng = np.random.default_rng(seed)
        pair = CvaePair.build(rng, lookback=6, d_z=2, hidden=3, beta=1.0, alpha=0.5,
                              kernel=3, num_domains=2, encoder_kind="mlp")
        w = Tensor(glorot(rng, (8, 6), 8, 6), requires_grad=True, name="aug.w")
        b = Tensor(np.zeros(6), requires_grad=True, name="aug.b")
        if decoder == "linear":
            dec = LinearDecoder(rng, 6, 2, 3)
        else:
            dec = RecurrentDecoder(rng, 0, 3, 2, drop=0.0)
        return ForecastModel(pair, w, b, dec)

    @pytest.mark.parametrize("decoder", ["linear", "recurrent"])
    def test_full_chain_gradient(self, decoder):
        model = self._model(decoder)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6))
        y = rng.normal(size=(2, 2))

        def f():
            mu, sigma = model.train_params(y, x, None)
            return gaussian_nll(y, mu, sigma)

        assert grad_check(f, model.params(), step=1e-5) < 1e-4

    def test_zero_latent_blocks_latent_path(self):
        model = self._model()
        model.zero_latent = True
        trace = {}
        x = np.random.default_rng(2).normal(size=(3, 6))
        model.latent_batch(x, trace=trace)
        assert np.array_equal(trace["z"], np.zeros((3, 2)))

    def test_shared_only_zeroes_specific_half(self):
        model = self._model()
        model.shared_only = True
        trace = {}
        x = np.random.default_rng(3).normal(size=(3, 6))
        model.latent_batch(x, trace=trace)
        assert np.allclose(trace["z"][:, model.pair.index:], 0.0)
        assert not np.allclose(trace["z"][:, :model.pair.index], 0.0)
