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
from functools import reduce

import numpy as np

from . import tensor as T
from .checkpoint import CSV_BLOCK_WINDOWS, atomic_write, csv_lines, csv_row, repr_rows
from .cvae import CvaePair
from .data import WindowSet, revin_denormalize
from .decomposition import trend_component
from .nets import GRUCell, Linear, dropout
from .tensor import Tensor, no_grad

LOG_2PI = float(np.log(2.0 * np.pi))
SIGMA_FLOOR = 1e-6
QUANTILE_LEVELS = tuple(q / 10.0 for q in range(1, 10))
# the standard normal's quantiles at QUANTILE_LEVELS, ndtri's bits: not quite symmetric
NORMAL_QUANTILES = (-1.2815515655446004, -0.8416212335729142, -0.5244005127080409,
                    -0.2533471031357997, 0.0, 0.2533471031357997,
                    0.5244005127080407, 0.8416212335729143, 1.2815515655446004)
SAMPLE_BLOCK_ROWS = 256   # a 64 KB state and 200 KB of gates at hidden 32: in L2 cache
# Windows per forecast block of `training.predict_windows`. Forecasts depend
# on this value: each block draws its paths' noise as one array, and BLAS may
# round a product over another number of rows differently.
PREDICT_BLOCK_WINDOWS = 64


def row_blocks(n: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of blocks of at most `size` of n rows. A one-row tail
    joins the block before it: BLAS rounds a one-row product differently."""
    starts = list(range(0, n - 1 if n > 1 else n, size))
    return list(zip(starts, starts[1:] + [n]))


def augment_input(z: Tensor, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x' = concat(z, x) @ W + b for (N, d_z) latents and (N, T) windows, with
    W of shape (d_z + T, T)."""
    return T.add_bias(T.concat([z, x]) @ w, b)


def gaussian_nll(y, mu: Tensor, sigma: Tensor) -> Tensor:
    """Mean over all entries of 0.5*ln(2*pi*sigma^2) + (y - mu)^2 / (2*sigma^2).
    The engine refuses operands of unequal shape and a nonpositive sigma."""
    return T.tmean(0.5 * LOG_2PI + T.log(sigma)
                   + T.square(T.sub(y, mu)) / (T.square(sigma) * 2.0))


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

    def _sequence(self, values: Tensor, a: np.ndarray | None) -> Tensor:
        """(N, S) step values -> (N, S, 1 + feat_dim) cell inputs: the
        lookback features join the first steps, later steps get zeros."""
        n, steps = values.shape
        xs = T.reshape(values, (n, steps, 1))
        if self.feat_dim == 0:
            return xs
        feats = np.zeros((n, steps, self.feat_dim))
        if a is not None:
            feats[:, :a.shape[1]] = a
        return T.concat([xs, Tensor(feats)])

    def teacher_forced(self, x_prime: Tensor, a: np.ndarray | None, y: np.ndarray,
                       rng=None, training: bool = False) -> tuple[Tensor, Tensor]:
        """Per-step (mu, sigma) with each step conditioned on the true
        previous target: one sequence over the window, its last value, then
        y[:, :h-1], with the heads on the last h states."""
        n, length = x_prime.shape
        horizon = self.horizon
        values = T.concat([x_prime, T.slice_last(x_prime, length - 1, length),
                           Tensor(y[:, :horizon - 1])])
        states = self.cell(self._sequence(values, a), keep=horizon)
        hd = T.reshape(dropout(states, self.drop, rng, training), (horizon * n, -1))
        mu = T.reshape(self.mu_head(hd), (horizon, n))
        sigma = T.reshape(T.softplus(self.sigma_head(hd)) + SIGMA_FLOOR, (horizon, n))
        return mu.T, sigma.T

    def sample_paths(self, x_prime: Tensor, a: np.ndarray | None, n_paths: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Ancestral sampling: (N, n_paths, horizon) drawn paths. Each window
        is conditioned once, through the first horizon step (whose input,
        the window's last value, every path shares), and its state shared by
        its paths (as in DeepAR, Salinas et al. 2020, arXiv:1704.04110).

        Each block of `SAMPLE_BLOCK_ROWS` path rows then runs all horizon
        steps on plain arrays (the heads, and `GRUCell.step` from step 2) while
        its state stays in cache, with noise drawn up front as (horizon, rows),
        the stream of one draw per step. The draws are bit-equal to running
        the cell and heads as graph ops over all rows, step by step."""
        n, length = x_prime.shape
        rows = n * n_paths
        with no_grad():
            first = T.concat([x_prime, T.slice_last(x_prime, length - 1, length)])
            h = np.repeat(self.cell(self._sequence(first, a)).data[0], n_paths, axis=0)
        draws = rng.standard_normal((self.horizon, rows))   # the noise, overwritten step by step
        wm, bm, ws, bs = (p.data for p in self.mu_head.params() + self.sigma_head.params())
        for lo, hi in row_blocks(rows, SAMPLE_BLOCK_ROWS):
            hb, inputs = h[lo:hi], np.zeros((hi - lo, 1 + self.feat_dim))
            for s in range(self.horizon):
                if s:
                    inputs[:, 0] = draws[s - 1, lo:hi]
                    hb = self.cell.step(inputs, hb)
                sigma = T.softplus_array(hb @ ws + bs)[:, 0] + SIGMA_FLOOR
                draws[s, lo:hi] = (hb @ wm + bm)[:, 0] + sigma * draws[s, lo:hi]
        return draws.T.reshape(n, n_paths, self.horizon)

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
    quantiles: np.ndarray        # (9, h) for q in 0.1..0.9, original units
    notes: list[str] = field(default_factory=list)


@dataclass
class Forecasts:
    """The forecast distributions of N windows as one (9, N, h) quantile
    array. It is a sequence of rows: an integer index gives a
    `ForecastDistribution` whose arrays are views into it."""
    quantiles: np.ndarray
    notes: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return self.quantiles.shape[1]

    def __getitem__(self, i: int) -> ForecastDistribution:
        return ForecastDistribution(quantiles=self.quantiles[:, i], notes=self.notes)


def to_distribution(mu: np.ndarray | None = None, sigma: np.ndarray | None = None,
                    samples: np.ndarray | None = None, scale=1.0,
                    norm_stats=(0.0, 1.0)) -> tuple[np.ndarray, list[str]]:
    """Quantile grid from a Gaussian head or sampled paths, then inverted
    back to original units (instance denormalization, then unscaling), and
    notes on its quality.

    One window's (h,) mu and sigma or (paths, h) samples give (9, h)
    quantiles; m windows' (m, h) or (m, paths, h) give (9, m, h), with
    `scale` and the (mean, std) stats as (m, 1) columns."""
    notes: list[str] = []
    if samples is not None:
        if samples.shape[-2] < 10:
            notes.append(f"only {samples.shape[-2]} sample paths; quantiles are coarse")
        grid = np.quantile(samples, QUANTILE_LEVELS, axis=-2)
    elif mu is not None and sigma is not None:
        z = np.array(NORMAL_QUANTILES).reshape((-1,) + (1,) * mu.ndim)
        grid = mu + sigma * z
    else:
        raise ValueError("to_distribution needs either (mu, sigma) or samples")

    return revin_denormalize(grid, norm_stats) * scale, notes


def write_forecast_csv(path, windows: WindowSet, dists: Forecasts) -> None:
    """Per-step quantile rows in original units:
    domain,series,origin_timestamp,step,q10..q90,point."""
    levels, n, h = dists.quantiles.shape
    with atomic_write(path, newline="") as fh:
        fh.write(csv_lines([["domain", "series", "origin_timestamp", "step"]
                            + [f"q{int(q * 100)}" for q in QUANTILE_LEVELS] + ["point"]]))
        for lo in range(0, n, CSV_BLOCK_WINDOWS):
            block = slice(lo, lo + CSV_BLOCK_WINDOWS)
            keys = [f"{key},{step}"
                    for key in map(csv_row, zip(windows.domain_id[block].tolist(),
                                                windows.series_name[block].tolist(),
                                                windows.origin[block].tolist()))
                    for step in range(1, h + 1)]
            # each quantile is formatted once, in row order; the point column reuses q50's text
            rows = repr_rows(dists.quantiles[:, block].transpose(1, 2, 0).reshape(-1, levels))
            fh.write(csv_lines((key, *q, q[4]) for key, q in zip(keys, rows)))


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

    def trend(self, x: np.ndarray) -> np.ndarray | None:
        """`CvaePair.trend` of the windows; None with the latent pathway off."""
        return None if self.zero_latent else self.pair.trend(x)

    def latent_batch(self, x: np.ndarray, rng=None, training: bool = False,
                     trace: dict | None = None, trend: np.ndarray | None = None) -> Tensor:
        """The fused latent entering the augmentation: the sum of the
        component posterior means, after variant handling."""
        n = x.shape[0]
        pair = self.pair
        if self.zero_latent:
            z = Tensor(np.zeros((n, pair.d_z)))
        else:
            # reduce, not sum(): sum's `0 +` start would add a graph node
            z = reduce(T.add, pair.encode(x, rng=rng, training=training, trend=trend).values())
            if self.shared_only:
                kept = T.slice_last(z, 0, pair.index)
                z = T.concat([kept, Tensor(np.zeros((n, pair.d_z - pair.index)))])
        if trace is not None:
            trace["z"] = z.data.copy()
        return z

    def train_params(self, y: np.ndarray, x: np.ndarray, a: np.ndarray | None,
                     rng=None, training: bool = False, trend=None) -> tuple[Tensor, Tensor]:
        """(mu, sigma) for the horizon, teacher-forced for the recurrent decoder."""
        z = self.latent_batch(x, rng=rng, training=training, trend=trend)
        xp = augment_input(z, Tensor(x), self.w, self.b)
        if self.recurrent:
            return self.decoder.teacher_forced(xp, a, y, rng=rng, training=training)
        return self.decoder(xp)

    def predict(self, x: np.ndarray, a: np.ndarray | None, n_paths: int,
                rng: np.random.Generator | None) -> dict:
        """Inference outputs: closed-form (mu, sigma) for the linear decoder,
        sampled paths for the recurrent one. The encoders decompose `x` itself."""
        with no_grad():
            xp = augment_input(self.latent_batch(x), Tensor(x), self.w, self.b)
            if self.recurrent:
                if rng is None:
                    raise ValueError("sampling the recurrent decoder needs an rng")
                return {"samples": self.decoder.sample_paths(xp, a, n_paths, rng)}
            mu, sigma = self.decoder(xp)
            return {"mu": mu.data.copy(), "sigma": sigma.data.copy()}

    def params(self) -> list[Tensor]:
        """Stage-2 trainables, exactly what the forecast loss reaches: the
        encoders' mean paths (unless the latent pathway is off), augmentation,
        decoder. The log-variance readouts and the conditional VAE decoders
        stay out (frozen and unused)."""
        encoders = [] if self.zero_latent else self.pair.mean_params()
        return encoders + [self.w, self.b] + self.decoder.params()

    def checkpoint_params(self) -> list[Tensor]:
        """Every parameter a full checkpoint holds: the whole VAE pair,
        augmentation, decoder."""
        return self.pair.params() + [self.w, self.b] + self.decoder.params()
