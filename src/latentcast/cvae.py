"""Twin conditional beta-VAE: domain-agnostic encoders, domain-conditioned
linear decoders, reparameterized sampling, the latent training loss, the
shared/specific latent split, and the pairwise domain regularizer.

Encoders never see domain information; decoders receive the latent vector
concatenated with a one-hot domain id (dropped entirely at test time, which
is encoder-only). With decomposition off, a single VAE models the raw window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from . import tensor as T
from .data import DataError, WindowSample, one_hot_domain
from .decomposition import decompose_batch
from .nets import GRUCell, Linear, dropout
from .tensor import Tensor, custom_op

TREND = "trend"
SEASONAL = "seasonal"
FULL = "full"


@dataclass
class LatentSample:
    mu: Tensor
    logvar: Tensor
    z: Tensor


@dataclass
class SplitLatents:
    z_shared: Tensor     # concat of the first `index` coords of each component
    z_specific: Tensor   # concat of the remainders
    index: int


def split_index(alpha: float, d_z: int) -> int:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    index = int(np.floor(alpha * d_z))
    if index == 0 or index == d_z:
        raise ValueError(f"degenerate latent split: alpha={alpha}, d_z={d_z} gives index={index}")
    return index


class MlpEncoder:
    """One nonlinear hidden layer, two linear readouts for mean and log-variance."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, d_z: int,
                 drop: float, name: str):
        self.in_dim = in_dim
        self.drop = drop
        self.hidden = Linear(rng, in_dim, hidden, f"{name}.hidden")
        self.mu_head = Linear(rng, hidden, d_z, f"{name}.mu")
        self.logvar_head = Linear(rng, hidden, d_z, f"{name}.logvar")

    def __call__(self, x: Tensor, rng=None, training: bool = False) -> tuple[Tensor, Tensor]:
        if x.shape[-1] != self.in_dim:
            raise T.ShapeError(f"encoder expects window length {self.in_dim}, got {x.shape[-1]}")
        h = T.tanh(self.hidden(x))
        h = dropout(h, self.drop, rng, training)
        return self.mu_head(h), self.logvar_head(h)

    def params(self) -> list[Tensor]:
        return self.hidden.params() + self.mu_head.params() + self.logvar_head.params()


class BiGruEncoder:
    """Bidirectional recurrent layer over the window, then two linear readouts."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, d_z: int,
                 drop: float, name: str):
        self.in_dim = in_dim
        self.drop = drop
        self.fwd = GRUCell(rng, 1, hidden, f"{name}.fwd")
        self.bwd = GRUCell(rng, 1, hidden, f"{name}.bwd")
        self.mu_head = Linear(rng, 2 * hidden, d_z, f"{name}.mu")
        self.logvar_head = Linear(rng, 2 * hidden, d_z, f"{name}.logvar")

    def __call__(self, x: Tensor, rng=None, training: bool = False) -> tuple[Tensor, Tensor]:
        if x.ndim != 2 or x.shape[-1] != self.in_dim:
            raise T.ShapeError(f"encoder expects (N, {self.in_dim}), got {x.shape}")
        if x.requires_grad:
            # the reversed window is built from raw data, which would drop its gradient
            raise T.GraphError("BiGruEncoder inputs must not require grad")
        seq = x.data[:, :, None]
        both = T.concat([self.fwd(Tensor(seq)), self.bwd(Tensor(seq[:, ::-1]))])
        h = dropout(T.reshape(both, (x.shape[0], -1)), self.drop, rng, training)
        return self.mu_head(h), self.logvar_head(h)

    def params(self) -> list[Tensor]:
        return (self.fwd.params() + self.bwd.params()
                + self.mu_head.params() + self.logvar_head.params())


ENCODER_KINDS: dict[str, Callable] = {"mlp": MlpEncoder, "bigru": BiGruEncoder}


class CondDecoder:
    """Single linear layer on concat(z, one-hot domain) -> window reconstruction."""

    def __init__(self, rng: np.random.Generator, d_z: int, num_domains: int,
                 out_dim: int, conditional: bool, name: str):
        self.conditional = conditional
        self.num_domains = num_domains
        in_dim = d_z + (num_domains if conditional else 0)
        self.lin = Linear(rng, in_dim, out_dim, f"{name}.lin")

    def __call__(self, z: Tensor, dom_onehot: Tensor | None) -> Tensor:
        if self.conditional:
            if dom_onehot is None or dom_onehot.shape[-1] != self.num_domains:
                got = None if dom_onehot is None else dom_onehot.shape[-1]
                raise T.ShapeError(f"decoder needs a one-hot of length {self.num_domains}, got {got}")
            z = T.concat([z, dom_onehot])
        return self.lin(z)

    def params(self) -> list[Tensor]:
        return self.lin.params()


@dataclass
class ComponentVae:
    encoder: MlpEncoder | BiGruEncoder
    decoder: CondDecoder


class CvaePair:
    """The component VAEs plus the latent hyperparameters.

    `components` holds trend+seasonal stacks, or a single stack on the raw
    window when decomposition is disabled.
    """

    def __init__(self, components: dict[str, ComponentVae], beta: float, alpha: float,
                 d_z: int, kernel: int, num_domains: int, conditional: bool):
        self.components = components
        self.beta = beta
        self.alpha = alpha
        self.d_z = d_z
        self.kernel = kernel
        self.num_domains = num_domains
        self.conditional = conditional
        self.index = split_index(alpha, d_z)

    @classmethod
    def build(cls, rng: np.random.Generator, lookback: int, d_z: int, hidden: int,
              beta: float, alpha: float, kernel: int, num_domains: int,
              encoder_kind: str = "mlp", conditional: bool = True,
              decomposed: bool = True, drop: float = 0.0) -> "CvaePair":
        if encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {encoder_kind!r}")
        enc_cls = ENCODER_KINDS[encoder_kind]
        names = (TREND, SEASONAL) if decomposed else (FULL,)
        comps = {}
        for which in names:
            comps[which] = ComponentVae(
                encoder=enc_cls(rng, lookback, hidden, d_z, drop, f"{which}.enc"),
                decoder=CondDecoder(rng, d_z, num_domains, lookback, conditional,
                                    f"{which}.dec"),
            )
        return cls(comps, beta, alpha, d_z, kernel, num_domains, conditional)

    @property
    def decomposed(self) -> bool:
        return FULL not in self.components

    def component_inputs(self, x: np.ndarray) -> dict[str, np.ndarray]:
        if not self.decomposed:
            return {FULL: np.asarray(x, dtype=np.float64)}
        x_t, x_s = decompose_batch(x, self.kernel)
        return {TREND: x_t, SEASONAL: x_s}

    def encode(self, x: np.ndarray, rng=None, training: bool = False) -> dict[str, Tensor]:
        """Each component's posterior mean for (N, T) windows, in component
        order (so dropout draws come trend first, then seasonal)."""
        comps = self.component_inputs(x)
        return {which: comp.encoder(Tensor(comps[which]), rng=rng, training=training)[0]
                for which, comp in self.components.items()}

    def encoder_params(self) -> list[Tensor]:
        out = []
        for comp in self.components.values():
            out.extend(comp.encoder.params())
        return out

    def decoder_params(self) -> list[Tensor]:
        out = []
        for comp in self.components.values():
            out.extend(comp.decoder.params())
        return out

    def params(self) -> list[Tensor]:
        return self.encoder_params() + self.decoder_params()


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def reparameterize(mu: Tensor, logvar: Tensor, noise: Tensor) -> Tensor:
    """z = mu + exp(logvar / 2) * noise, differentiable in mu and logvar."""
    return mu + T.exp(logvar * 0.5) * noise


def kl_standard_normal(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)), reduced over the last axis."""
    return T.tsum(T.square(mu) + T.exp(logvar) - logvar - 1.0, axis=-1) * 0.5


def split_latents(z_t: Tensor, z_s: Tensor, alpha: float) -> SplitLatents:
    """Partition both component latents at floor(alpha * d_z) and concatenate."""
    if z_t.shape != z_s.shape:
        raise T.ShapeError(f"latent shapes differ: {z_t.shape} vs {z_s.shape}")
    d_z = z_t.shape[-1]
    index = split_index(alpha, d_z)
    shared = T.concat([T.slice_last(z_t, 0, index), T.slice_last(z_s, 0, index)])
    specific = T.concat([T.slice_last(z_t, index, d_z), T.slice_last(z_s, index, d_z)])
    return SplitLatents(z_shared=shared, z_specific=specific, index=index)


def split_single(z: Tensor, alpha: float) -> SplitLatents:
    """Split for the single-VAE (no decomposition) variant."""
    d_z = z.shape[-1]
    index = split_index(alpha, d_z)
    return SplitLatents(z_shared=T.slice_last(z, 0, index),
                        z_specific=T.slice_last(z, index, d_z), index=index)


def domain_regularizer(z_shared: Tensor, z_specific: Tensor,
                       domain_ids: np.ndarray) -> Tensor:
    """Pairwise pull on shared latents, cross-domain push on specific ones.

    First term: mean over all ordered sample pairs of the shared-part L2
    distance. Second term: mean over ordered pairs from different domains of
    the specific-part L2 distance (zero when no such pair exists).
    """
    n = z_shared.shape[0]
    if n < 2:
        raise ValueError("domain regularizer needs a batch of at least 2 samples")
    dom = np.asarray(domain_ids, dtype=np.int64)
    if dom.shape != (n,):
        raise T.ShapeError(f"domain_ids shape {dom.shape} does not match batch {n}")

    shared_sum, shared_grad = kernels.pair_dist_sum(z_shared.data)
    pull = custom_op(shared_sum / (n * n), (z_shared,),
                     (lambda g: float(g) * shared_grad / (n * n),))
    cross = dom[:, None] != dom[None, :]
    n_diff = int(cross.sum())
    if n_diff == 0:
        return pull
    cross_sum, cross_grad = kernels.pair_dist_sum(z_specific.data, cross)
    push = custom_op(cross_sum / n_diff, (z_specific,),
                     (lambda g: float(g) * cross_grad / n_diff,))
    return pull - push


# ---------------------------------------------------------------------------
# Stage-1 batches and the latent loss
# ---------------------------------------------------------------------------

@dataclass
class Stage1Batch:
    x: np.ndarray                      # (N, T) normalized windows
    components: dict[str, np.ndarray]  # per-component (N, T) inputs
    onehot: np.ndarray | None          # (N, M) when decoders are conditional
    domain_ids: np.ndarray             # (N,) training-domain indexes


def make_stage1_batch(pair: CvaePair, samples: list[WindowSample],
                      domain_index: dict[int, int]) -> Stage1Batch:
    for s in samples:
        if s.domain_id not in domain_index:
            raise DataError(f"window from domain {s.domain_id} is not in the training domains")
    x = np.stack([s.x for s in samples])
    idx = np.array([domain_index[s.domain_id] for s in samples], dtype=np.int64)
    onehot = None
    if pair.conditional:
        onehot = np.stack([one_hot_domain(int(i), pair.num_domains) for i in idx])
    return Stage1Batch(x=x, components=pair.component_inputs(x), onehot=onehot,
                       domain_ids=idx)


def latent_loss(pair: CvaePair, batch: Stage1Batch,
                rng: np.random.Generator | None = None,
                noise: dict[str, np.ndarray] | None = None,
                training: bool = True,
                ) -> tuple[Tensor, dict[str, float], dict[str, LatentSample]]:
    """Combined-reconstruction MSE plus beta * (component NLL + KL) terms.

    Per sample: sum_T((sum_c xhat_c - x)^2) + beta * sum_c [0.5 * sum_T((xhat_c
    - x_c)^2) + KL_c], averaged over the batch. Latent draws use the supplied
    noise when given (frozen-noise checks), else `rng`.
    """
    n = batch.x.shape[0]
    x = Tensor(batch.x)
    onehot = Tensor(batch.onehot) if batch.onehot is not None else None
    combined = None
    bracket = None
    latents: dict[str, LatentSample] = {}
    for which, comp in pair.components.items():
        xc = Tensor(batch.components[which])
        mu, logvar = comp.encoder(xc, rng=rng, training=training)
        if noise is not None:
            eps = noise[which]
        elif rng is not None:
            eps = rng.standard_normal((n, pair.d_z))
        else:
            eps = np.zeros((n, pair.d_z))
        z = reparameterize(mu, logvar, Tensor(eps))
        xhat = comp.decoder(z, onehot)
        latents[which] = LatentSample(mu=mu, logvar=logvar, z=z)
        nll = T.tsum(T.square(xhat - xc), axis=-1) * 0.5
        term = nll + kl_standard_normal(mu, logvar)
        bracket = term if bracket is None else bracket + term
        combined = xhat if combined is None else combined + xhat
    recon = T.tsum(T.square(combined - x), axis=-1)
    loss = T.tmean(recon + pair.beta * bracket)
    parts = {
        "combined_mse": float(np.mean(recon.data)),
        "bracket": float(np.mean(bracket.data)),
        "beta": pair.beta,
    }
    return loss, parts, latents


def split_for(pair: CvaePair, latents: dict[str, LatentSample]) -> SplitLatents:
    """Shared/specific split of the posterior means from either VAE layout.

    The means, not the sampled draws: regularizing draws has a degenerate
    optimum where specific-dim variance inflates to satisfy the cross-domain
    push without structuring the means."""
    if pair.decomposed:
        return split_latents(latents[TREND].mu, latents[SEASONAL].mu, pair.alpha)
    return split_single(latents[FULL].mu, pair.alpha)
