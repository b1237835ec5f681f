"""Export learned latent vectors and score how separable the shared and
specific parts are across domains.

Encoding uses the posterior mean (zero noise), so dumps are deterministic.
The separation score is, per part, the mean inter-domain pairwise distance
over the mean intra-domain pairwise distance; a learned split should show a
higher ratio for the specific part than for the shared part on unseen
domains.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .checkpoint import CSV_BLOCK_WINDOWS, atomic_write, csv_lines, csv_row, repr_rows
from .cvae import CvaePair, split_latents
from .data import WindowSet, prepare_samples
from .tensor import no_grad

PAIR_TILE = 128                   # rows per tile of the separation score's distances


@dataclass
class LatentDump:
    """Posterior-mean latents, one row per window: its domain, series and
    origin, then its shared and specific parts."""
    d_z: int
    alpha: float
    domain_id: np.ndarray        # (N,)
    series_name: np.ndarray      # (N,)
    origin: np.ndarray           # (N,)
    z_shared: np.ndarray         # (N, shared width)
    z_specific: np.ndarray       # (N, specific width)

    def __len__(self) -> int:
        return self.domain_id.shape[0]


def dump_latents(pair: CvaePair, windows: WindowSet) -> LatentDump:
    """Posterior-mean latents of every window, split into shared/specific."""
    prepared = prepare_samples(windows)
    shared = specific = np.zeros((0, 0))
    if len(prepared):
        with no_grad():
            split = split_latents(list(pair.encode(prepared.x).values()), pair.alpha)
        shared, specific = split.z_shared.data, split.z_specific.data
    return LatentDump(pair.d_z, pair.alpha, prepared.domain_id, prepared.series_name,
                      prepared.origin, shared, specific)


def write_dump(dump: LatentDump, path) -> None:
    with atomic_write(path, newline="") as fh:
        fh.write(f"# d_z={dump.d_z} alpha={dump.alpha}\n")
        fh.write(csv_lines([["domain_id", "series", "origin"]
                            + [f"zsh_{i}" for i in range(dump.z_shared.shape[1])]
                            + [f"zsp_{i}" for i in range(dump.z_specific.shape[1])]]))
        z = np.hstack([dump.z_shared, dump.z_specific])
        for lo in range(0, len(dump), CSV_BLOCK_WINDOWS):
            block = slice(lo, lo + CSV_BLOCK_WINDOWS)
            keys = map(csv_row, zip(dump.domain_id[block].tolist(),
                                    dump.series_name[block].tolist(), dump.origin[block].tolist()))
            fh.write(csv_lines((key, *row) for key, row in zip(keys, repr_rows(z[block]))))


def read_dump(path) -> LatentDump:
    with open(path, newline="", encoding="utf-8") as fh:
        kv = dict(item.split("=") for item in fh.readline().strip().lstrip("#").split())
        reader = csv.reader(fh)
        header = next(reader)   # the latent width, which an empty dump holds too
        n_sh = sum(1 for h in header if h.startswith("zsh_"))
        rows = list(reader)
    keys = np.array([row[:3] for row in rows], dtype=str).reshape(-1, 3)
    z = np.array([[float(v) for v in row[3:]] for row in rows]).reshape(len(rows), len(header) - 3)
    return LatentDump(int(kv["d_z"]), float(kv["alpha"]), keys[:, 0].astype(np.int64),
                      keys[:, 1], keys[:, 2].astype(np.int64), z[:, :n_sh], z[:, n_sh:])


def _pair_means(vectors: np.ndarray, domains: np.ndarray) -> tuple[float, float, list[str]]:
    """(intra_mean, inter_mean) over unordered pairs; singleton domains are
    excluded from the intra mean."""
    labels, index, counts = np.unique(domains, return_inverse=True, return_counts=True)
    notes = [f"domain {int(dom)} has a single row; excluded from intra-domain mean"
             for dom in labels[counts < 2]]
    # Gram-based distances over row tiles: O(tile x n) memory regardless of
    # latent width and of n. Centering first keeps the form from cancelling
    # when the latents sit far from the origin.
    v = vectors - vectors.mean(axis=0)
    sq = (v ** 2).sum(axis=1)
    onehot = (index[:, None] == np.arange(labels.size)).astype(np.float64)
    # (domain, domain) sums over ordered pairs; each unordered pair counts twice
    blocks = np.zeros((labels.size, labels.size))
    n = len(v)
    tile = np.empty((min(PAIR_TILE, n), n))
    for lo in range(0, n, PAIR_TILE):
        hi = min(lo + PAIR_TILE, n)
        dist = np.matmul(v[lo:hi], v.T, out=tile[:hi - lo])
        dist *= -2.0
        dist += sq[lo:hi, None]
        dist += sq[None, :]
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        np.fill_diagonal(dist[:, lo:], 0.0)
        blocks += onehot[lo:hi].T @ (dist @ onehot)
    same = np.eye(labels.size, dtype=bool)
    n_intra = int((counts * (counts - 1)).sum())
    n_inter = int(counts.sum() ** 2 - (counts ** 2).sum())
    intra_mean = float(blocks[same].sum() / n_intra) if n_intra else 0.0
    inter_mean = float(blocks[~same].sum() / n_inter) if n_inter else 0.0
    return intra_mean, inter_mean, notes


def separation_score(dump: LatentDump) -> tuple[float, float, list[str]]:
    """(shared_ratio, specific_ratio) of inter- over intra-domain distances.

    Degenerate 0/0 cases are reported as 1.0 with an explanatory note.
    """
    domains = dump.domain_id
    if np.unique(domains).size < 2:
        raise ValueError("separation_score needs latents from at least 2 domains")
    ratios = []
    notes: list[str] = []
    for part in ("z_shared", "z_specific"):
        intra, inter, part_notes = _pair_means(getattr(dump, part), domains)
        notes.extend(part_notes)
        if intra == 0.0 and inter == 0.0:
            notes.append(f"{part}: all pairwise distances zero; ratio defaults to 1.0")
            ratios.append(1.0)
        elif intra == 0.0:
            ratios.append(float("inf"))
        else:
            ratios.append(inter / intra)
    return ratios[0], ratios[1], sorted(set(notes))
