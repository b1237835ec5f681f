"""Latent dumps and the shared/specific separation score."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latentcast import latent
from latentcast.latent import (LatentDump, dump_latents, read_dump, separation_score,
                               write_dump)
from latentcast.data import WindowSample


def _windows(n, length=6, domains=(0, 1)):
    rng = np.random.default_rng(0)
    return [WindowSample(x=rng.normal(size=length), a=np.zeros((length, 0)),
                         y=np.zeros(1), domain_id=domains[i % len(domains)],
                         series_name=f"s{i}", origin=length - 1, y_raw=np.zeros(1))
            for i in range(n)]


def _dump_from(shared, specific, domains):
    n = shared.shape[0]
    return LatentDump(d_z=shared.shape[1], alpha=0.5, domain_id=np.asarray(domains),
                      series_name=np.full(n, "s"), origin=np.arange(n),
                      z_shared=shared, z_specific=specific)


class TestDump:
    def test_one_row_per_window(self, tiny_pair):
        wins = _windows(7)
        dump = dump_latents(tiny_pair, wins)
        assert len(dump) == 7
        assert dump.z_shared.shape == (7, 2 * tiny_pair.index)
        assert dump.z_specific.shape == (7, 2 * (tiny_pair.d_z - tiny_pair.index))

    def test_repeated_dumps_identical(self, tiny_pair, tmp_path):
        wins = _windows(5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dump(dump_latents(tiny_pair, wins), p1)
        write_dump(dump_latents(tiny_pair, wins), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_roundtrip_and_header(self, tiny_pair, tmp_path):
        # an empty set's dump has no latent column and reads back as written
        for n in (4, 0):
            dump = dump_latents(tiny_pair, _windows(n))
            path = tmp_path / f"latents{n}.csv"
            write_dump(dump, path)
            header = path.read_text().splitlines()[1]
            assert header.count("zsh_") == (2 * tiny_pair.index if n else 0)
            assert header.count("zsp_") == (2 * (tiny_pair.d_z - tiny_pair.index) if n else 0)
            back = read_dump(path)
            assert len(back) == n
            assert back.d_z == dump.d_z and back.alpha == dump.alpha
            assert np.array_equal(dump.z_shared, back.z_shared)
            assert np.array_equal(dump.z_specific, back.z_specific)
            assert np.array_equal(dump.domain_id, back.domain_id)
            assert list(dump.series_name) == list(back.series_name)


class TestSeparationScore:
    def test_all_identical_reports_one_with_note(self):
        z = np.ones((6, 4))
        dump = _dump_from(z, z, [0, 0, 0, 1, 1, 1])
        shared, specific, notes = separation_score(dump)
        assert shared == 1.0 and specific == 1.0
        assert any("defaults to 1.0" in n for n in notes)

    def test_clustered_specific_dominates(self):
        rng = np.random.default_rng(1)
        n = 20
        domains = np.array([0] * 10 + [1] * 10)
        shared = rng.normal(size=(n, 3))                      # mixed across domains
        specific = np.where(domains[:, None] == 0, 0.0, 10.0) + rng.normal(
            size=(n, 2)) * 0.01
        dump = _dump_from(shared, specific, domains)
        shared_ratio, specific_ratio, _ = separation_score(dump)
        assert specific_ratio > 10 * shared_ratio

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        n = 12
        domains = rng.integers(0, 3, size=n)
        shared = rng.normal(size=(n, 3))
        specific = rng.normal(size=(n, 3))
        base = separation_score(_dump_from(shared, specific, domains))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = separation_score(_dump_from(shared @ q, specific @ q, domains))
        assert abs(base[0] - rotated[0]) < 1e-9
        assert abs(base[1] - rotated[1]) < 1e-9

    def test_singleton_domain_noted(self):
        rng = np.random.default_rng(3)
        dump = _dump_from(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), [0, 0, 1])
        _, _, notes = separation_score(dump)
        assert any("single row" in n for n in notes)

    def test_needs_two_domains(self):
        rng = np.random.default_rng(4)
        dump = _dump_from(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), [0] * 4)
        with pytest.raises(ValueError):
            separation_score(dump)

    def test_far_from_origin_matches_double_loop(self):
        # two tight clusters at offset 100: squared norms of 3e4 against
        # squared distances of 1e-4, where an uncentered Gram form cancels
        rng = np.random.default_rng(5)
        n = 40
        domains = np.repeat([0, 1], n // 2)
        z = 100.0 + np.where(domains[:, None] == 0, 0.0, 1.0) + 0.01 * rng.normal(size=(n, 3))
        intra, inter = [], []
        for i in range(n):
            for j in range(i + 1, n):
                (intra if domains[i] == domains[j] else inter).append(
                    np.linalg.norm(z[i] - z[j]))
        shared_ratio, _, _ = separation_score(_dump_from(z, z, domains))
        expected = np.mean(inter) / np.mean(intra)
        assert abs(shared_ratio - expected) <= 1e-10 * expected


# ---------------------------------------------------------------------------
# The row-tiled pair sums against the dense (N, N) form they replaced
# ---------------------------------------------------------------------------

def dense_pair_means(vectors, domains):
    """`latent._pair_means` as it was before its distances came in row tiles:
    one (N, N) distance matrix."""
    labels, index, counts = np.unique(domains, return_inverse=True, return_counts=True)
    notes = [f"domain {int(dom)} has a single row; excluded from intra-domain mean"
             for dom in labels[counts < 2]]
    v = vectors - vectors.mean(axis=0)
    sq = (v ** 2).sum(axis=1)
    dist = v @ v.T
    dist *= -2.0
    dist += sq[:, None]
    dist += sq[None, :]
    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
    np.fill_diagonal(dist, 0.0)
    onehot = (index[:, None] == np.arange(labels.size)).astype(np.float64)
    blocks = onehot.T @ dist @ onehot
    same = np.eye(labels.size, dtype=bool)
    n_intra = int((counts * (counts - 1)).sum())
    n_inter = int(counts.sum() ** 2 - (counts ** 2).sum())
    intra_mean = float(blocks[same].sum() / n_intra) if n_intra else 0.0
    inter_mean = float(blocks[~same].sum() / n_inter) if n_inter else 0.0
    return intra_mean, inter_mean, notes


def dense_separation_score(dump):
    """`separation_score` over `dense_pair_means`."""
    ratios, notes = [], []
    for part in ("z_shared", "z_specific"):
        intra, inter, part_notes = dense_pair_means(getattr(dump, part), dump.domain_id)
        notes.extend(part_notes)
        if intra == 0.0 and inter == 0.0:
            notes.append(f"{part}: all pairwise distances zero; ratio defaults to 1.0")
            ratios.append(1.0)
        else:
            ratios.append(float("inf") if intra == 0.0 else inter / intra)
    return ratios[0], ratios[1], sorted(set(notes))


TILE = latent.PAIR_TILE


@st.composite
def latent_dumps(draw):
    """A dump whose row count sits at a tile edge or is small, with 1-4
    domains (singletons among them), repeated rows and an offset from the
    origin. The entries are multiples of a power of two with a column sum of
    zero before the offset, so the centred squared distances are exact and
    the dense and tiled forms differ only in the order of their sums: a
    coincident pair's distance is 0 in both, not rounding noise under a
    square root."""
    n = draw(st.sampled_from((2, 3, 5, TILE - 1, TILE, TILE + 1, 2 * TILE + 1)))
    unit = 2.0 ** draw(st.integers(-4, 4))
    offset = draw(st.sampled_from((0.0, 1024.0, -3.0 * 2 ** 20)))
    rows = st.lists(st.integers(-8, 8), min_size=5, max_size=5)
    distinct = draw(st.lists(rows, min_size=1, max_size=6))
    z = np.array([draw(st.sampled_from(distinct)) for _ in range(n - 1)], dtype=float)
    z = np.vstack([z, -z.sum(axis=0)]) * unit + offset
    domains = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    width = draw(st.integers(1, 4))
    return _dump_from(z[:, :width], z[:, width:], domains)


@given(dump=latent_dumps())
def test_the_tiled_score_matches_the_dense_one(dump):
    if np.unique(dump.domain_id).size < 2:
        with pytest.raises(ValueError, match="at least 2 domains"):
            separation_score(dump)
        return
    got, expected = separation_score(dump), dense_separation_score(dump)
    assert got[2] == expected[2]
    for ratio, reference in zip(got[:2], expected[:2]):
        assert ratio == reference or math.isclose(ratio, reference, rel_tol=1e-12)


def test_the_score_holds_one_tile_of_distances():
    # 4,640 rows, the test windows of the stride-1 scale set: the dense
    # (N, N) form held 167 MB; a tile of PAIR_TILE rows holds 4.8 MB
    n = 4640
    rng = np.random.default_rng(7)
    dump = _dump_from(rng.normal(size=(n, 8)), rng.normal(size=(n, 8)), np.arange(n) % 8)
    tracemalloc.start()
    try:
        separation_score(dump)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
