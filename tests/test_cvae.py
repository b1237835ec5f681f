"""Conditional VAE pair: sampling, KL, latent split, domain regularizer
(against a brute-force double loop), and the latent loss contract."""

import numpy as np
import pytest

import latentcast.tensor as T
from latentcast.cvae import (CvaePair, domain_regularizer, kl_standard_normal,
                             latent_loss, make_stage1_batch, reparameterize,
                             split_for, split_index, split_latents)
from latentcast.data import DataError, WindowSample
from latentcast.tensor import Tensor, grad_check


def brute_force_regularizer(z_shared, z_specific, dom):
    """Literal double-loop evaluation of the pairwise objective."""
    n = z_shared.shape[0]
    pull = 0.0
    for i in range(n):
        for j in range(n):
            pull += np.linalg.norm(z_shared[i] - z_shared[j])
    pull /= n * n
    push, count = 0.0, 0
    for i in range(n):
        for j in range(n):
            if dom[i] != dom[j]:
                push += np.linalg.norm(z_specific[i] - z_specific[j])
                count += 1
    return pull - (push / count if count else 0.0)


def make_samples(xs, domain_ids):
    return [WindowSample(x=np.asarray(x, dtype=float), a=np.zeros((len(x), 0)),
                         y=np.zeros(1), domain_id=d, series_name="s", origin=0,
                         y_raw=np.zeros(1))
            for x, d in zip(xs, domain_ids)]


class TestReparameterize:
    def test_zero_noise_returns_mu(self):
        mu = Tensor([1.0, -2.0])
        z = reparameterize(mu, Tensor([0.3, 0.3]), Tensor([0.0, 0.0]))
        assert np.allclose(z.data, mu.data)

    def test_unit_logvar_zero(self):
        z = reparameterize(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))
        assert np.allclose(z.data, [2.0, 3.0])

    def test_gradient_wrt_mu_is_ones(self):
        mu = Tensor([0.5, -0.5, 1.0], requires_grad=True)
        logvar = Tensor([0.2, 0.1, -0.3], requires_grad=True)
        noise = Tensor([0.7, -1.1, 0.4])
        err = grad_check(lambda: T.tsum(reparameterize(mu, logvar, noise)), [mu, logvar])
        assert err < 1e-6
        mu.zero_grad()
        T.tsum(reparameterize(mu, logvar, noise)).backward()
        assert np.allclose(mu.grad, 1.0)


class TestKl:
    def test_zero_at_prior(self):
        assert float(kl_standard_normal(Tensor([0.0, 0.0]), Tensor([0.0, 0.0])).data) == 0.0

    def test_closed_form_half(self):
        assert abs(float(kl_standard_normal(Tensor([1.0]), Tensor([0.0])).data) - 0.5) < 1e-12

    def test_monte_carlo_cross_check(self):
        # KL(N(1,1) || N(0,1)) estimated by sampling log q - log p
        rng = np.random.default_rng(0)
        draws = rng.normal(1.0, 1.0, size=100_000)
        log_q = -0.5 * np.log(2 * np.pi) - 0.5 * (draws - 1.0) ** 2
        log_p = -0.5 * np.log(2 * np.pi) - 0.5 * draws ** 2
        estimate = float(np.mean(log_q - log_p))
        exact = float(kl_standard_normal(Tensor([1.0]), Tensor([0.0])).data)
        assert abs(estimate - exact) < 1e-2

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = Tensor(rng.normal(size=6) * 3)
            logvar = Tensor(rng.normal(size=6) * 2)
            assert float(kl_standard_normal(mu, logvar).data) >= 0.0


class TestSplit:
    def test_index_arithmetic(self):
        assert split_index(0.25, 8) == 2
        assert split_index(0.5, 4) == 2

    def test_lengths_d8_alpha_quarter(self):
        z_t, z_s = Tensor(np.arange(8.0)), Tensor(np.arange(8.0, 16.0))
        sl = split_latents([z_t, z_s], 0.25)
        assert sl.index == 2
        assert sl.z_shared.shape == (4,) and sl.z_specific.shape == (12,)
        assert sl.z_shared.size + sl.z_specific.size == 16

    def test_equal_halves(self):
        sl = split_latents([Tensor(np.arange(4.0)), Tensor(np.arange(4.0, 8.0))], 0.5)
        assert sl.z_shared.size == sl.z_specific.size == 4

    def test_degenerate_alpha_rejected(self):
        for parts in ([Tensor(np.arange(4.0))] * 2, [Tensor(np.arange(4.0))]):
            with pytest.raises(ValueError):
                split_latents(parts, 0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            split_latents([Tensor(np.arange(4.0)), Tensor(np.arange(6.0))], 0.5)

    def test_reassembly_recovers_inputs(self):
        rng = np.random.default_rng(2)
        z_t, z_s = rng.normal(size=6), rng.normal(size=6)
        sl = split_latents([Tensor(z_t), Tensor(z_s)], 0.5)
        k = sl.index
        rebuilt_t = np.concatenate([sl.z_shared.data[:k], sl.z_specific.data[:6 - k]])
        rebuilt_s = np.concatenate([sl.z_shared.data[k:], sl.z_specific.data[6 - k:]])
        assert np.array_equal(rebuilt_t, z_t)
        assert np.array_equal(rebuilt_s, z_s)

    def test_single_split(self):
        sl = split_latents([Tensor(np.arange(6.0))], 0.5)
        assert np.array_equal(sl.z_shared.data, [0, 1, 2])
        assert np.array_equal(sl.z_specific.data, [3, 4, 5])


class TestDomainRegularizer:
    def test_all_identical_is_zero(self):
        z = np.ones((4, 3))
        out = domain_regularizer(Tensor(z), Tensor(z), np.array([0, 0, 1, 1]))
        assert float(out.data) == 0.0

    def test_same_domain_equal_shared_is_zero(self):
        z_sh = np.ones((2, 2))
        z_sp = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = domain_regularizer(Tensor(z_sh), Tensor(z_sp), np.array([0, 0]))
        assert float(out.data) == 0.0   # no cross-domain pair

    def test_hand_example_minus_two(self):
        z_sh = np.zeros((2, 1))
        z_sp = np.array([[0.0], [2.0]])
        out = domain_regularizer(Tensor(z_sh), Tensor(z_sp), np.array([0, 1]))
        assert abs(float(out.data) + 2.0) < 1e-12

    @pytest.mark.parametrize("n,k_dom", [(2, 1), (3, 2), (8, 3), (16, 4), (5, 1)])
    def test_matches_bruteforce(self, n, k_dom):
        rng = np.random.default_rng(n * 10 + k_dom)
        for _ in range(5):
            z_sh = rng.normal(size=(n, 4))
            z_sp = rng.normal(size=(n, 2))
            dom = rng.integers(0, k_dom, size=n)
            got = float(domain_regularizer(Tensor(z_sh), Tensor(z_sp), dom).data)
            assert abs(got - brute_force_regularizer(z_sh, z_sp, dom)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        z_sh = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        z_sp = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        dom = np.array([0, 0, 1, 2])
        err = grad_check(lambda: domain_regularizer(z_sh, z_sp, dom), [z_sh, z_sp])
        assert err < 1e-4

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            domain_regularizer(Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))),
                               np.array([0]))


def posterior(comp, x, **kw):
    """A component's (mean, log-variance): both readouts of one encoder pass."""
    h = comp.encoder(x, **kw)
    return comp.mu(h), comp.logvar(h)


class TestEncoderDecoder:
    def test_shape_contract(self, tiny_pair):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 6)))
        comp = tiny_pair.components["trend"]
        assert comp.encoder(x).shape == (3, comp.encoder.width)
        mu, logvar = posterior(comp, x)
        assert mu.shape == (3, 4) and logvar.shape == (3, 4)
        assert np.isfinite(logvar.data).all()

    def test_wrong_length_rejected(self, tiny_pair):
        with pytest.raises(T.ShapeError):
            tiny_pair.components["trend"].encoder(Tensor(np.zeros((2, 5))))

    def test_readout_takes_rows_only(self, tiny_pair):
        # one window is a one-row batch; a 1-D row is refused
        mu = tiny_pair.components["trend"].mu
        width = mu.w.shape[0]
        assert mu(Tensor(np.zeros((1, width)))).shape == (1, 4)
        with pytest.raises(T.ShapeError):
            mu(Tensor(np.zeros(width)))

    def test_identical_noise_identical_z(self, tiny_pair):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 6)))
        comp = tiny_pair.components["seasonal"]
        noise = Tensor(np.random.default_rng(2).normal(size=(2, 4)))
        z1 = reparameterize(*posterior(comp, x), noise)
        z2 = reparameterize(*posterior(comp, x), noise)
        assert np.array_equal(z1.data, z2.data)

    def test_zero_input_mu_equals_biases(self, tiny_pair):
        comp = tiny_pair.components["trend"]
        mu, logvar = posterior(comp, Tensor(np.zeros((1, 6))))
        hidden = np.tanh(comp.encoder.hidden.b.data)
        expected = hidden @ comp.mu.w.data + comp.mu.b.data
        assert np.allclose(mu.data[0], expected)
        assert np.isfinite(logvar.data).all()

    def test_decoder_output_length(self, tiny_pair):
        dec = tiny_pair.components["trend"].decoder
        out = dec(Tensor(np.zeros((2, 4))), Tensor(np.tile([1.0, 0.0], (2, 1))))
        assert out.shape == (2, 6)

    def test_decoder_zero_weights_returns_bias(self, tiny_pair):
        dec = tiny_pair.components["trend"].decoder
        dec.lin.w.data[...] = 0.0
        dec.lin.b.data[...] = np.arange(6.0)
        out = dec(Tensor(np.random.default_rng(3).normal(size=(2, 4))),
                  Tensor(np.tile([0.0, 1.0], (2, 1))))
        assert np.allclose(out.data, np.arange(6.0))

    def test_wrong_onehot_length_rejected(self, tiny_pair):
        dec = tiny_pair.components["trend"].decoder
        with pytest.raises(T.ShapeError):
            dec(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3))))

    def test_bigru_encoder_shapes(self):
        rng = np.random.default_rng(4)
        pair = CvaePair.build(rng, lookback=7, d_z=3, hidden=4, beta=1.0, alpha=0.5,
                              kernel=3, num_domains=2, encoder_kind="bigru")
        comp = pair.components["trend"]
        assert comp.encoder.width == 8
        mu, logvar = posterior(comp, Tensor(rng.normal(size=(2, 7))))
        assert mu.shape == (2, 3) and logvar.shape == (2, 3)

    @pytest.mark.parametrize("encoder_kind", ["mlp", "bigru"])
    def test_encode_is_the_mean_readout_of_the_latent_loss_pass(self, encoder_kind):
        # the same windows through both paths into the encoders, dropout on:
        # `encode` decomposes the rows it is given, `latent_loss` the rows of
        # a stage-1 minibatch, and with noise supplied the rng draws only
        # the dropout masks, trend first
        pair = CvaePair.build(np.random.default_rng(3), lookback=7, d_z=3, hidden=4, beta=1.0,
                              alpha=0.5, kernel=3, num_domains=2, encoder_kind=encoder_kind,
                              drop=0.3)
        rng = np.random.default_rng(4)
        batch = make_stage1_batch(pair, make_samples(rng.normal(size=(9, 7)),
                                                     rng.integers(0, 2, 9)), {0: 0, 1: 1})
        part = batch.take(np.array([6, 1, 4, 2]))
        means = pair.encode(part.x, rng=np.random.default_rng(5), training=True)
        _, _, loss_means = latent_loss(pair, part, rng=np.random.default_rng(5),
                                       noise={k: np.zeros((4, 3)) for k in pair.components})
        assert list(loss_means) == list(pair.components)
        for which in pair.components:
            assert np.array_equal(means[which].data, loss_means[which].data)


class TestLatentLoss:
    def _batch(self, pair, n=3, num_dom=2, seed=0):
        rng = np.random.default_rng(seed)
        samples = make_samples(rng.normal(size=(n, 6)), rng.integers(0, num_dom, n))
        return make_stage1_batch(pair, samples, {0: 0, 1: 1})

    def test_perfect_reconstruction_zero_loss(self, tiny_pair):
        # zero windows have zero components, so zero reconstructions are perfect
        batch = make_stage1_batch(tiny_pair, make_samples(np.zeros((3, 6)), [0, 1, 0]),
                                  {0: 0, 1: 1})
        for p in tiny_pair.params():
            p.data[...] = 0.0
        loss, parts, _ = latent_loss(tiny_pair, batch,
                                     noise={k: np.zeros((3, 4)) for k in tiny_pair.components})
        assert abs(float(loss.data)) < 1e-12

    def test_beta_zero_reduces_to_combined_mse(self, tiny_pair):
        batch = self._batch(tiny_pair)
        noise = {k: np.zeros((3, 4)) for k in tiny_pair.components}
        tiny_pair.beta = 0.0
        loss, parts, _ = latent_loss(tiny_pair, batch, noise=noise)
        assert abs(float(loss.data) - parts["combined_mse"]) < 1e-12

    def test_doubling_beta_doubles_bracket(self, tiny_pair):
        batch = self._batch(tiny_pair)
        noise = {k: np.random.default_rng(5).normal(size=(3, 4))
                 for k in tiny_pair.components}
        vals = {}
        for beta in (0.0, 1.0, 2.0):
            tiny_pair.beta = beta
            loss, _, _ = latent_loss(tiny_pair, batch, noise=noise)
            vals[beta] = float(loss.data)
        bracket1 = vals[1.0] - vals[0.0]
        bracket2 = vals[2.0] - vals[0.0]
        assert abs(bracket2 - 2.0 * bracket1) < 1e-9 * max(1.0, abs(bracket1))

    def test_non_training_domain_rejected(self, tiny_pair):
        samples = make_samples(np.zeros((2, 6)), [0, 5])
        with pytest.raises(DataError):
            make_stage1_batch(tiny_pair, samples, {0: 0, 1: 1})

    def test_gradients_match_finite_differences(self, tiny_pair):
        batch = self._batch(tiny_pair)
        noise = {k: np.random.default_rng(6).normal(size=(3, 4))
                 for k in tiny_pair.components}

        def f():
            loss, _, latents = latent_loss(tiny_pair, batch, noise=noise)
            sl = split_for(tiny_pair, latents)
            return loss + domain_regularizer(sl.z_shared, sl.z_specific, batch.domain_ids)

        err = grad_check(f, tiny_pair.params(), step=1e-5)
        assert err < 1e-4

    def test_regularizer_steps_improve_separation(self, tiny_pair):
        # a few gradient steps on the regularizer alone must shrink shared
        # distances or grow cross-domain specific distances
        from latentcast.optim import Adam
        batch = self._batch(tiny_pair, n=6, seed=8)
        noise = {k: np.random.default_rng(9).normal(size=(6, 4))
                 for k in tiny_pair.components}

        def measure():
            _, _, latents = latent_loss(tiny_pair, batch, noise=noise)
            sl = split_for(tiny_pair, latents)
            from latentcast import kernels
            n = sl.z_shared.shape[0]
            pull = kernels.pair_dist_sum(sl.z_shared.data)[0] / (n * n)
            dom = batch.domain_ids
            cross = dom[:, None] != dom[None, :]
            push, _ = kernels.pair_dist_sum(sl.z_specific.data, cross)
            cnt = int(cross.sum())
            return pull, (push / cnt if cnt else 0.0)

        before_pull, before_push = measure()
        opt = Adam(tiny_pair.encoder_params(), lr=5e-3)
        for _ in range(25):
            _, _, latents = latent_loss(tiny_pair, batch, noise=noise)
            sl = split_for(tiny_pair, latents)
            omega = domain_regularizer(sl.z_shared, sl.z_specific, batch.domain_ids)
            omega.backward()
            opt.step()
        after_pull, after_push = measure()
        assert after_pull < before_pull or after_push > before_push


class TestVariantStructure:
    def test_single_vae_has_half_the_parameters(self):
        rng = np.random.default_rng(0)
        kwargs = dict(lookback=6, d_z=4, hidden=5, beta=1.0, alpha=0.5, kernel=3,
                      num_domains=3, encoder_kind="mlp")
        pair = CvaePair.build(np.random.default_rng(0), **kwargs)
        single = CvaePair.build(np.random.default_rng(0), decomposed=False, **kwargs)
        count = lambda ps: sum(p.size for p in ps)
        assert count(single.params()) * 2 == count(pair.params())
        assert set(single.components) == {"full"}

    def test_unconditional_decoder_smaller_by_m(self):
        kwargs = dict(lookback=6, d_z=4, hidden=5, beta=1.0, alpha=0.5, kernel=3,
                      num_domains=3, encoder_kind="mlp")
        cond = CvaePair.build(np.random.default_rng(0), conditional=True, **kwargs)
        plain = CvaePair.build(np.random.default_rng(0), conditional=False, **kwargs)
        for which in cond.components:
            w_cond = cond.components[which].decoder.lin.w
            w_plain = plain.components[which].decoder.lin.w
            assert w_cond.shape[0] - w_plain.shape[0] == 3
        out = plain.components["trend"].decoder(Tensor(np.zeros((1, 4))), None)
        assert out.shape == (1, 6)
