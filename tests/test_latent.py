"""Latent dumps and the shared/specific separation score."""

import numpy as np
import pytest

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
        wins = _windows(4)
        dump = dump_latents(tiny_pair, wins)
        path = tmp_path / "latents.csv"
        write_dump(dump, path)
        header = path.read_text().splitlines()[1]
        assert header.count("zsh_") == 2 * tiny_pair.index
        assert header.count("zsp_") == 2 * (tiny_pair.d_z - tiny_pair.index)
        back = read_dump(path)
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
