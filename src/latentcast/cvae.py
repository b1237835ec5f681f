"""Twin conditional beta-VAE: domain-agnostic encoders, domain-conditioned
linear decoders, reparameterized sampling, the latent training loss, the
shared/specific latent split, and the pairwise domain regularizer.

Encoders never see domain information; decoders receive the latent vector
concatenated with a one-hot domain id (dropped entirely at test time, which
is encoder-only). With decomposition off, a single VAE models the raw window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from . import tensor as T
from .data import DataError, WindowSample, WindowSet, as_window_set, one_hot_domain
from .decomposition import decompose_batch
from .nets import GRUCell, Linear, dropout
from .tensor import Tensor, custom_op

TREND = "trend"
SEASONAL = "seasonal"
FULL = "full"


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
    """One nonlinear hidden layer: (N, T) windows -> (N, width) features."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, drop: float,
                 name: str):
        self.drop = drop
        self.width = hidden
        self.hidden = Linear(rng, in_dim, hidden, f"{name}.hidden")

    def __call__(self, x: Tensor, rng=None, training: bool = False) -> Tensor:
        return dropout(T.tanh(self.hidden(x)), self.drop, rng, training)

    def params(self) -> list[Tensor]:
        return self.hidden.params()


class BiGruEncoder:
    """Bidirectional recurrent layer: (N, T) windows -> (N, width) last states."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, drop: float,
                 name: str):
        self.in_dim = in_dim
        self.drop = drop
        self.width = 2 * hidden
        self.fwd = GRUCell(rng, 1, hidden, f"{name}.fwd")
        self.bwd = GRUCell(rng, 1, hidden, f"{name}.bwd")

    def __call__(self, x: Tensor, rng=None, training: bool = False) -> Tensor:
        if x.ndim != 2 or x.shape[-1] != self.in_dim:
            raise T.ShapeError(f"encoder expects (N, {self.in_dim}), got {x.shape}")
        if x.requires_grad:
            # the reversed window is built from raw data, which would drop its gradient
            raise T.GraphError("BiGruEncoder inputs must not require grad")
        seq = x.data[:, :, None]
        both = T.concat([self.fwd(Tensor(seq)), self.bwd(Tensor(seq[:, ::-1]))])
        return dropout(T.reshape(both, (x.shape[0], -1)), self.drop, rng, training)

    def params(self) -> list[Tensor]:
        return self.fwd.params() + self.bwd.params()


ENCODER_KINDS: dict[str, Callable] = {"mlp": MlpEncoder, "bigru": BiGruEncoder}


class CondDecoder:
    """Single linear layer on concat(z, one-hot domain) -> window reconstruction."""

    def __init__(self, rng: np.random.Generator, d_z: int, num_domains: int,
                 out_dim: int, conditional: bool, name: str):
        self.conditional = conditional
        in_dim = d_z + (num_domains if conditional else 0)
        self.lin = Linear(rng, in_dim, out_dim, f"{name}.lin")

    def __call__(self, z: Tensor, dom_onehot: Tensor | None) -> Tensor:
        if self.conditional:
            z = T.concat([z, dom_onehot])
        return self.lin(z)

    def params(self) -> list[Tensor]:
        return self.lin.params()


@dataclass
class ComponentVae:
    """One component's beta-VAE. Its posterior mean and log-variance are linear
    readouts of the encoder features; only the latent loss's KL reads `logvar`."""
    encoder: MlpEncoder | BiGruEncoder
    mu: Linear
    logvar: Linear
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
            # this draw order fixes a seed's initial values
            encoder = enc_cls(rng, lookback, hidden, drop, f"{which}.enc")
            mu = Linear(rng, encoder.width, d_z, f"{which}.enc.mu")
            logvar = Linear(rng, encoder.width, d_z, f"{which}.enc.logvar")
            comps[which] = ComponentVae(encoder, mu, logvar, CondDecoder(
                rng, d_z, num_domains, lookback, conditional, f"{which}.dec"))
        return cls(comps, beta, alpha, d_z, kernel, num_domains, conditional)

    @property
    def decomposed(self) -> bool:
        return FULL not in self.components

    def component_inputs(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Each component's input, decomposed from the rows themselves."""
        if not self.decomposed:
            return {FULL: np.asarray(x, dtype=np.float64)}
        x_t, x_s = decompose_batch(x, self.kernel)
        return {TREND: x_t, SEASONAL: x_s}

    def encode(self, x: np.ndarray, rng=None, training: bool = False) -> dict[str, Tensor]:
        """Each component's posterior mean for (N, T) windows, in component
        order (so dropout draws come trend first, then seasonal)."""
        comps = self.component_inputs(x)
        return {which: comp.mu(comp.encoder(Tensor(comps[which]), rng=rng, training=training))
                for which, comp in self.components.items()}

    def mean_params(self) -> list[Tensor]:
        """What posterior means depend on: each encoder and its mean readout."""
        return [p for c in self.components.values() for p in c.encoder.params() + c.mu.params()]

    def encoder_params(self) -> list[Tensor]:
        """The encoders with both readouts, in component order."""
        return [p for c in self.components.values()
                for p in c.encoder.params() + c.mu.params() + c.logvar.params()]

    def decoder_params(self) -> list[Tensor]:
        return [p for c in self.components.values() for p in c.decoder.params()]

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


def split_latents(parts: Sequence[Tensor], alpha: float) -> SplitLatents:
    """Partition each component latent at floor(alpha * d_z) and concatenate
    the shared pieces, then the specific pieces, in component order."""
    shapes = [z.shape for z in parts]
    if len(set(shapes)) != 1:
        raise T.ShapeError(f"latent shapes differ: {shapes}")
    d_z = shapes[0][-1]
    index = split_index(alpha, d_z)
    return SplitLatents(z_shared=T.concat([T.slice_last(z, 0, index) for z in parts]),
                        z_specific=T.concat([T.slice_last(z, index, d_z) for z in parts]),
                        index=index)


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
    x: np.ndarray           # (N, T) normalized windows
    domain_ids: np.ndarray  # (N,) training-domain indexes

    def take(self, index: np.ndarray) -> "Stage1Batch":
        """The minibatch of the given rows."""
        return Stage1Batch(self.x[index], self.domain_ids[index])


def make_stage1_batch(pair: CvaePair, samples: WindowSet | list[WindowSample],
                      domain_index: dict[int, int]) -> Stage1Batch:
    """Stage-1 inputs of every window (the windows and their training-domain
    indexes), gathered per minibatch by `Stage1Batch.take`. `pair` is unread;
    the acceptance suite passes it positionally."""
    ws = as_window_set(samples)
    idx = np.array([domain_index.get(d, -1) for d in ws.domain_id.tolist()], dtype=np.int64)
    if np.any(idx < 0):
        raise DataError(f"window from domain {ws.domain_id[idx < 0][0]} "
                        "is not in the training domains")
    return Stage1Batch(x=ws.x, domain_ids=idx)


def latent_loss(pair: CvaePair, batch: Stage1Batch,
                rng: np.random.Generator | None = None,
                noise: dict[str, np.ndarray] | None = None,
                training: bool = True,
                ) -> tuple[Tensor, dict[str, float], dict[str, Tensor]]:
    """Combined-reconstruction MSE plus beta * (component NLL + KL) terms,
    its parts, and each component's posterior mean (for `split_for`).

    Per sample: sum_T((sum_c xhat_c - x)^2) + beta * sum_c [0.5 * sum_T((xhat_c
    - x_c)^2) + KL_c], averaged over the batch. The component inputs x_c and
    the one-hot come from the minibatch, as in `CvaePair.encode`. Latent draws
    use the supplied noise when given (frozen-noise checks), else `rng`.
    """
    n = batch.x.shape[0]
    x = Tensor(batch.x)
    comps = pair.component_inputs(batch.x)
    onehot = (Tensor(one_hot_domain(batch.domain_ids, pair.num_domains))
              if pair.conditional else None)
    combined = None
    bracket = None
    means: dict[str, Tensor] = {}
    for which, comp in pair.components.items():
        xc = Tensor(comps[which])
        h = comp.encoder(xc, rng=rng, training=training)
        mu, logvar = comp.mu(h), comp.logvar(h)
        if noise is not None:
            eps = noise[which]
        elif rng is not None:
            eps = rng.standard_normal((n, pair.d_z))
        else:
            eps = np.zeros((n, pair.d_z))
        xhat = comp.decoder(reparameterize(mu, logvar, Tensor(eps)), onehot)
        means[which] = mu
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
    return loss, parts, means


def split_for(pair: CvaePair, means: dict[str, Tensor]) -> SplitLatents:
    """Shared/specific split of the posterior means, in component order.

    The means, not the sampled draws: regularizing draws has a degenerate
    optimum where specific-dim variance inflates to satisfy the cross-domain
    push without structuring the means."""
    return split_latents([means[which] for which in pair.components], pair.alpha)
