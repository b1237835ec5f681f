"""Latent-augmented probabilistic forecasting.

The fused latent is concatenated with the (normalized) window and passed
through a learned linear map to form the decoder input. Two decoder families
are provided: an autoregressive gated-recurrent decoder emitting a Gaussian
per step (teacher forcing in training, ancestral sampling at inference) and a
linear decoder that re-decomposes its input and maps trend/seasonal parts to
the horizon. Both train by Gaussian negative log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import tensor as T
from .cvae import FULL, SEASONAL, TREND, CvaePair
from .decomposition import trend_component
from .nets import GRUCell, Linear, dropout
from .tensor import Tensor, no_grad

LOG_2PI = float(np.log(2.0 * np.pi))
SIGMA_FLOOR = 1e-6
QUANTILE_LEVELS = tuple(q / 10.0 for q in range(1, 10))


def fuse_latents(z_t: Tensor, z_s: Tensor) -> Tensor:
    """Elementwise sum of the component latents."""
    if z_t.shape != z_s.shape:
        raise T.ShapeError(f"fuse_latents: shapes differ, {z_t.shape} vs {z_s.shape}")
    return z_t + z_s


def augment_input(z: Tensor, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x' = concat(z, x) @ W + b with W of shape (d_z + T, T)."""
    cat = T.concat([z, x])
    if cat.shape[-1] != w.shape[0]:
        raise T.ShapeError(
            f"augment_input: concat width {cat.shape[-1]} does not match W rows {w.shape[0]}"
        )
    prod = cat @ w
    return T.add_bias(prod, b) if prod.ndim == 2 else prod + b


def gaussian_nll(y, mu: Tensor, sigma: Tensor) -> Tensor:
    """Mean over all entries of 0.5*ln(2*pi*sigma^2) + (y - mu)^2 / (2*sigma^2)."""
    y = y if isinstance(y, Tensor) else Tensor(np.asarray(y, dtype=np.float64))
    if y.shape != mu.shape or mu.shape != sigma.shape:
        raise T.ShapeError(f"gaussian_nll: shapes {y.shape}, {mu.shape}, {sigma.shape} differ")
    if np.any(sigma.data <= 0.0):
        raise T.MathDomainError("gaussian_nll: nonpositive sigma")
    return T.tmean(0.5 * LOG_2PI + T.log(sigma) + T.square(y - mu) / (T.square(sigma) * 2.0))


class RecurrentDecoder:
    """Gated recurrent conditioning over the window, then h autoregressive
    Gaussian steps. Horizon-side external features are unknown and fed as
    zeros; lookback features join each conditioning step."""

    def __init__(self, rng: np.random.Generator, feat_dim: int, hidden: int,
                 horizon: int, drop: float, name: str = "fdec"):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.feat_dim = feat_dim
        self.horizon = horizon
        self.drop = drop
        self.cell = GRUCell(rng, 1 + feat_dim, hidden, f"{name}.cell")
        self.mu_head = Linear(rng, hidden, 1, f"{name}.mu")
        self.sigma_head = Linear(rng, hidden, 1, f"{name}.sigma")

    def _step_input(self, value: Tensor, feats: np.ndarray | None) -> Tensor:
        if self.feat_dim == 0:
            return value
        if feats is None:
            feats = np.zeros((value.shape[0], self.feat_dim))
        return T.concat([value, Tensor(feats)])

    def _condition(self, x_prime: Tensor, a: np.ndarray | None) -> Tensor:
        n, length = x_prime.shape
        h = self.cell.initial_state(n)
        for t in range(length):
            feats = a[:, t, :] if (a is not None and self.feat_dim) else None
            h = self.cell(self._step_input(T.slice_last(x_prime, t, t + 1), feats), h)
        return h

    def teacher_forced(self, x_prime: Tensor, a: np.ndarray | None, y: np.ndarray,
                       rng=None, training: bool = False) -> tuple[Tensor, Tensor]:
        """Per-step (mu, sigma) with each step conditioned on the true
        previous target."""
        n, length = x_prime.shape
        h = self._condition(x_prime, a)
        prev = T.slice_last(x_prime, length - 1, length)
        mus, sigmas = [], []
        for s in range(self.horizon):
            h = self.cell(self._step_input(prev, None), h)
            hd = dropout(h, self.drop, rng, training)
            mus.append(self.mu_head(hd))
            sigmas.append(T.softplus(self.sigma_head(hd)) + SIGMA_FLOOR)
            prev = Tensor(y[:, s:s + 1])
        return T.concat(mus), T.concat(sigmas)

    def sample_paths(self, x_prime: Tensor, a: np.ndarray | None, n_paths: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Ancestral sampling: (N, n_paths, horizon) drawn paths."""
        n, length = x_prime.shape
        with no_grad():
            xp = Tensor(np.repeat(x_prime.data, n_paths, axis=0))
            rep_a = np.repeat(a, n_paths, axis=0) if (a is not None and self.feat_dim) else None
            h = self._condition(xp, rep_a)
            prev = T.slice_last(xp, length - 1, length)
            draws = np.empty((n * n_paths, self.horizon))
            for s in range(self.horizon):
                h = self.cell(self._step_input(prev, None), h)
                mu = self.mu_head(h).data[:, 0]
                sigma = T.softplus(self.sigma_head(h)).data[:, 0] + SIGMA_FLOOR
                step = mu + sigma * rng.standard_normal(n * n_paths)
                draws[:, s] = step
                prev = Tensor(step[:, None])
        return draws.reshape(n, n_paths, self.horizon)

    def params(self) -> list[Tensor]:
        return self.cell.params() + self.mu_head.params() + self.sigma_head.params()


class LinearDecoder:
    """Trend/seasonal re-decomposition of the decoder input, independent
    linear maps to the horizon, and a linear-softplus scale head. Ignores
    external features."""

    def __init__(self, rng: np.random.Generator, lookback: int, horizon: int,
                 kernel: int, name: str = "fdec"):
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.kernel = kernel
        self.horizon = horizon
        self.lin_trend = Linear(rng, lookback, horizon, f"{name}.trend")
        self.lin_seasonal = Linear(rng, lookback, horizon, f"{name}.seasonal")
        self.lin_sigma = Linear(rng, lookback, horizon, f"{name}.sigma")

    def __call__(self, x_prime: Tensor) -> tuple[Tensor, Tensor]:
        x_t = trend_component(x_prime, self.kernel)
        x_s = x_prime - x_t
        mu = self.lin_trend(x_t) + self.lin_seasonal(x_s)
        sigma = T.softplus(self.lin_sigma(x_prime)) + SIGMA_FLOOR
        return mu, sigma

    def params(self) -> list[Tensor]:
        return self.lin_trend.params() + self.lin_seasonal.params() + self.lin_sigma.params()


# ---------------------------------------------------------------------------
# Forecast distributions
# ---------------------------------------------------------------------------

@dataclass
class ForecastDistribution:
    point: np.ndarray            # (h,), the q=0.5 row, original units
    quantiles: np.ndarray        # (9, h) for q in 0.1..0.9
    notes: list[str] = field(default_factory=list)


def to_distribution(mu: np.ndarray | None = None, sigma: np.ndarray | None = None,
                    samples: np.ndarray | None = None, scale: float = 1.0,
                    norm_stats: tuple[float, float] = (0.0, 1.0)) -> ForecastDistribution:
    """Quantile grid from a Gaussian head or sampled paths, then inverted
    back to original units (instance denormalization, then unscaling)."""
    from .data import revin_denormalize

    notes: list[str] = []
    if samples is not None:
        if samples.shape[0] < 10:
            notes.append(f"only {samples.shape[0]} sample paths; quantiles are coarse")
        grid = np.quantile(samples, QUANTILE_LEVELS, axis=0)
    elif mu is not None and sigma is not None:
        grid = mu[None, :] + sigma[None, :] * ndtri(np.array(QUANTILE_LEVELS))[:, None]
    else:
        raise ValueError("to_distribution needs either (mu, sigma) or samples")

    grid = revin_denormalize(grid, norm_stats) * scale
    return ForecastDistribution(point=grid[4].copy(), quantiles=grid, notes=notes)


def write_forecast_csv(path, windows, dists) -> None:
    """Per-step quantile rows in original units:
    domain,series,origin_timestamp,step,q10..q90,point."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "series", "origin_timestamp", "step"]
                        + [f"q{int(q * 100)}" for q in QUANTILE_LEVELS] + ["point"])
        for w, d in zip(windows, dists):
            for step in range(d.quantiles.shape[1]):
                writer.writerow(
                    [w.domain_id, w.series_name, w.origin, step + 1]
                    + [repr(float(v)) for v in d.quantiles[:, step]]
                    + [repr(float(d.point[step]))]
                )


# ---------------------------------------------------------------------------
# Full model: encoders + latent fusion + augmentation + decoder
# ---------------------------------------------------------------------------

class ForecastModel:
    """Couples the VAE encoders with the forecasting decoder through the
    linear input augmentation. Latents at this stage are posterior means;
    `shared_only` zeroes the specific coordinates entering the augmentation
    and `zero_latent` disables the latent pathway entirely."""

    def __init__(self, pair: CvaePair, w: Tensor, b: Tensor,
                 decoder: RecurrentDecoder | LinearDecoder,
                 shared_only: bool = False, zero_latent: bool = False):
        self.pair = pair
        self.w = w
        self.b = b
        self.decoder = decoder
        self.shared_only = shared_only
        self.zero_latent = zero_latent

    @property
    def recurrent(self) -> bool:
        return isinstance(self.decoder, RecurrentDecoder)

    def latent_batch(self, x: np.ndarray, rng=None, training: bool = False,
                     trace: dict | None = None) -> Tensor:
        """Fused latent entering the augmentation, after variant handling."""
        n = x.shape[0]
        pair = self.pair
        if self.zero_latent:
            z = Tensor(np.zeros((n, pair.d_z)))
        else:
            mus = pair.encode(x, rng=rng, training=training)
            z = mus[FULL] if not pair.decomposed else fuse_latents(mus[TREND], mus[SEASONAL])
            if self.shared_only:
                kept = T.slice_last(z, 0, pair.index)
                z = T.concat([kept, Tensor(np.zeros((n, pair.d_z - pair.index)))])
        if trace is not None:
            trace["z"] = z.data.copy()
        return z

    def augmented(self, x: np.ndarray, rng=None, training: bool = False,
                  trace: dict | None = None) -> Tensor:
        z = self.latent_batch(x, rng=rng, training=training, trace=trace)
        return augment_input(z, Tensor(x), self.w, self.b)

    def train_params(self, y: np.ndarray, x: np.ndarray, a: np.ndarray | None,
                     rng=None, training: bool = False,
                     trace: dict | None = None) -> tuple[Tensor, Tensor]:
        """(mu, sigma) for the horizon, teacher-forced for the recurrent decoder."""
        xp = self.augmented(x, rng=rng, training=training, trace=trace)
        if self.recurrent:
            return self.decoder.teacher_forced(xp, a, y, rng=rng, training=training)
        return self.decoder(xp)

    def predict(self, x: np.ndarray, a: np.ndarray | None, n_paths: int,
                rng: np.random.Generator | None) -> dict:
        """Inference outputs: closed-form (mu, sigma) for the linear decoder,
        sampled paths for the recurrent one."""
        with no_grad():
            xp = self.augmented(x)
            if self.recurrent:
                if rng is None:
                    raise ValueError("sampling the recurrent decoder needs an rng")
                paths = self.decoder.sample_paths(xp, a, n_paths, rng)
                return {"samples": paths}
            mu, sigma = self.decoder(xp)
            return {"mu": mu.data.copy(), "sigma": sigma.data.copy()}

    def params(self) -> list[Tensor]:
        """Stage-2 trainables: encoders (unless the latent pathway is off),
        augmentation, decoder. The conditional VAE decoders stay out (frozen
        and unused)."""
        encoders = [] if self.zero_latent else self.pair.encoder_params()
        return encoders + [self.w, self.b] + self.decoder.params()

    def checkpoint_params(self) -> list[Tensor]:
        """Every parameter a full checkpoint holds: the whole VAE pair,
        augmentation, decoder."""
        return self.pair.params() + [self.w, self.b] + self.decoder.params()
