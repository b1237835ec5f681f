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
from dataclasses import dataclass, field

import numpy as np

from .cvae import FULL, SEASONAL, TREND, CvaePair
from .data import WindowSample, prepare_samples
from .tensor import no_grad


@dataclass
class LatentRow:
    domain_id: int
    series_name: str
    origin: int
    z_shared: np.ndarray
    z_specific: np.ndarray


@dataclass
class LatentDump:
    d_z: int
    alpha: float
    rows: list[LatentRow] = field(default_factory=list)


def dump_latents(pair: CvaePair, windows: list[WindowSample]) -> LatentDump:
    """Posterior-mean latents of every window, split into shared/specific."""
    prepared = prepare_samples(windows)
    index = pair.index
    dump = LatentDump(d_z=pair.d_z, alpha=pair.alpha)
    if not prepared:
        return dump
    x = np.stack([s.x for s in prepared])
    with no_grad():
        mus = {which: mu.data for which, mu in pair.encode(x).items()}
    if pair.decomposed:
        shared = np.concatenate([mus[TREND][:, :index], mus[SEASONAL][:, :index]], axis=1)
        specific = np.concatenate([mus[TREND][:, index:], mus[SEASONAL][:, index:]], axis=1)
    else:
        shared = mus[FULL][:, :index]
        specific = mus[FULL][:, index:]
    for i, w in enumerate(windows):
        dump.rows.append(LatentRow(domain_id=w.domain_id, series_name=w.series_name,
                                   origin=w.origin, z_shared=shared[i].copy(),
                                   z_specific=specific[i].copy()))
    return dump


def write_dump(dump: LatentDump, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# d_z={dump.d_z} alpha={dump.alpha}\n")
        writer = csv.writer(fh)
        n_sh = dump.rows[0].z_shared.size if dump.rows else 0
        n_sp = dump.rows[0].z_specific.size if dump.rows else 0
        writer.writerow(["domain_id", "series", "origin"]
                        + [f"zsh_{i}" for i in range(n_sh)]
                        + [f"zsp_{i}" for i in range(n_sp)])
        for r in dump.rows:
            writer.writerow([r.domain_id, r.series_name, r.origin]
                            + [repr(float(v)) for v in r.z_shared]
                            + [repr(float(v)) for v in r.z_specific])


def read_dump(path) -> LatentDump:
    with open(path, newline="", encoding="utf-8") as fh:
        meta = fh.readline().strip().lstrip("#").split()
        kv = dict(item.split("=") for item in meta)
        reader = csv.reader(fh)
        header = next(reader)
        n_sh = sum(1 for h in header if h.startswith("zsh_"))
        dump = LatentDump(d_z=int(kv["d_z"]), alpha=float(kv["alpha"]))
        for row in reader:
            vals = np.array([float(v) for v in row[3:]])
            dump.rows.append(LatentRow(domain_id=int(row[0]), series_name=row[1],
                                       origin=int(row[2]), z_shared=vals[:n_sh],
                                       z_specific=vals[n_sh:]))
    return dump


def _pair_means(vectors: np.ndarray, domains: np.ndarray) -> tuple[float, float, list[str]]:
    """(intra_mean, inter_mean) over unordered pairs; singleton domains are
    excluded from the intra mean."""
    notes = []
    for dom in np.unique(domains):
        if int((domains == dom).sum()) < 2:
            notes.append(f"domain {int(dom)} has a single row; excluded from intra-domain mean")
    # gram-based squared distances: O(n^2) memory regardless of latent width
    sq = (vectors ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (vectors @ vectors.T)
    dist = np.sqrt(np.maximum(d2, 0.0))
    upper = np.triu(np.ones(dist.shape, dtype=bool), k=1)
    same = domains[:, None] == domains[None, :]
    intra = dist[upper & same]
    inter = dist[upper & ~same]
    intra_mean = float(intra.mean()) if intra.size else 0.0
    inter_mean = float(inter.mean()) if inter.size else 0.0
    return intra_mean, inter_mean, notes


def separation_score(dump: LatentDump) -> tuple[float, float, list[str]]:
    """(shared_ratio, specific_ratio) of inter- over intra-domain distances.

    Degenerate 0/0 cases are reported as 1.0 with an explanatory note.
    """
    if len({r.domain_id for r in dump.rows}) < 2:
        raise ValueError("separation_score needs latents from at least 2 domains")
    domains = np.array([r.domain_id for r in dump.rows])
    ratios = []
    notes: list[str] = []
    for part in ("z_shared", "z_specific"):
        vectors = np.stack([getattr(r, part) for r in dump.rows])
        intra, inter, part_notes = _pair_means(vectors, domains)
        notes.extend(part_notes)
        if intra == 0.0 and inter == 0.0:
            notes.append(f"{part}: all pairwise distances zero; ratio defaults to 1.0")
            ratios.append(1.0)
        elif intra == 0.0:
            ratios.append(float("inf"))
        else:
            ratios.append(inter / intra)
    return ratios[0], ratios[1], sorted(set(notes))
