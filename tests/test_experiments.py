import hashlib
import json
import math

import numpy as np
import pytest

from gpswf import __version__
from gpswf import basis as B
from gpswf import experiments as X
from gpswf.errors import DomainError


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


@pytest.fixture(scope="module")
def small_basis():
    return B.build_basis(0.5, 2.0, 8)


class TestSerialization:
    def test_roundtrip_bit_exact(self, small_basis, tmp_path):
        path = X.save_basis(small_basis, tmp_path / "b.gpswf")
        loaded = X.load_basis(path)
        assert loaded.alpha == small_basis.alpha
        assert loaded.c == small_basis.c
        assert loaded.trunc == small_basis.trunc
        np.testing.assert_array_equal(loaded.chi, small_basis.chi)
        for a, b in zip(loaded.beta, small_basis.beta):
            np.testing.assert_array_equal(a, b)

    def test_content_hash_guards_corruption(self, small_basis, tmp_path):
        path = X.save_basis(small_basis, tmp_path / "b.gpswf")
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DomainError):
            X.load_basis(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.gpswf"
        path.write_bytes(b"not a basis at all" * 10)
        with pytest.raises(DomainError):
            X.load_basis(path)


class TestCache:
    def test_put_get_roundtrip(self, small_basis, cache_dir):
        X.cache_put(small_basis, cache_dir)
        got = X.cache_get(0.5, 2.0, 8, cache_dir)
        assert got is not None
        np.testing.assert_array_equal(got.chi, small_basis.chi)

    def test_version_bump_misses(self, small_basis, cache_dir):
        entry = X.cache_put(small_basis, cache_dir)
        other = X.cache_key(0.5, 2.0, small_basis.trunc, 8, version="99.0")
        assert other != entry.key
        assert X.cache_get(0.5, 2.0, 9, cache_dir) is None  # different nmax

    def test_corrupt_entry_discarded(self, small_basis, cache_dir):
        entry = X.cache_put(small_basis, cache_dir)
        raw = bytearray(entry.path.read_bytes())
        raw[-1] ^= 0xFF
        entry.path.write_bytes(bytes(raw))
        with pytest.warns(UserWarning):
            assert X.cache_get(0.5, 2.0, 8, cache_dir) is None
        assert not entry.path.exists()

    def test_entry_under_old_key_not_returned(self, small_basis, cache_dir):
        # keys without the container format version hold eigenvectors from
        # the earlier eigensolver
        text = f"gpswf|{__version__}|{0.5!r}|{2.0!r}|{small_basis.trunc}|8"
        old = hashlib.sha256(text.encode()).hexdigest()
        X.save_basis(small_basis, cache_dir / f"{old}.gpswf")
        assert X.cache_get(0.5, 2.0, 8, cache_dir) is None

    def test_corrupt_entry_does_not_end_lookup(self, small_basis, cache_dir):
        first = small_basis.trunc
        X.cache_put(B.build_basis(0.5, 2.0, 8, m_start=2 * first), cache_dir)
        bad = cache_dir / f"{X.cache_key(0.5, 2.0, first, 8)}.gpswf"
        bad.write_bytes(b"corrupt" * 10)
        with pytest.warns(UserWarning):
            got = X.cache_get(0.5, 2.0, 8, cache_dir)
        assert got is not None and got.trunc == 2 * first
        assert not bad.exists()

    def test_ls_and_clear(self, small_basis, cache_dir):
        X.cache_put(small_basis, cache_dir)
        assert len(X.cache_ls(cache_dir)) == 1
        assert X.cache_clear(cache_dir) == 1
        assert X.cache_ls(cache_dir) == []

    def test_get_basis_warm_is_identical(self, cache_dir):
        b1 = X.get_basis(0.5, 2.0, 6, cache_dir=cache_dir)
        b2 = X.get_basis(0.5, 2.0, 6, cache_dir=cache_dir)
        np.testing.assert_array_equal(b1.chi, b2.chi)
        for a, b in zip(b1.beta, b2.beta):
            np.testing.assert_array_equal(a, b)


class TestConfig:
    def test_unknown_scenario(self):
        with pytest.raises(DomainError):
            X.ExperimentConfig(name="nonsense", alpha_list=(1.0,),
                               c_list=(1.0,), N_list=(1,))

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            X.ExperimentConfig(name="brownian", alpha_list=(),
                               c_list=(1.0,), N_list=(1,))

    def test_n_list_required_only_where_read(self):
        X.ExperimentConfig(name="lambda-decay", alpha_list=(1.0,),
                           c_list=(1.0,), N_list=())
        with pytest.raises(DomainError):
            X.ExperimentConfig(name="brownian", alpha_list=(1.5,),
                               c_list=(1.0,), N_list=(), s_list=(1.5,))

    def test_custom_is_not_a_scenario(self):
        with pytest.raises(DomainError):
            X.ExperimentConfig(name="custom", alpha_list=(1.0,),
                               c_list=(1.0,), N_list=(1,))


class TestLambdaDecay:
    def _cfg(self, tmp_path, cache_dir):
        return X.ExperimentConfig(name="lambda-decay", alpha_list=(1.0, 1.5),
                                  c_list=(2.0,), N_list=(0,), nmax=12,
                                  output_dir=str(tmp_path / "reports"),
                                  cache_dir=str(cache_dir))

    def test_schema_and_margins(self, tmp_path, cache_dir):
        out_dir, files = X.run_lambda_decay(self._cfg(tmp_path, cache_dir))
        assert len(files) == 2
        for path in files:
            lines = path.read_text().strip().splitlines()
            header = lines[0].split(",")
            assert header == ["n", "chi", "lambda", "log_lambda", "log_bound",
                              "margin", "comparison_curve"]
            assert len(lines) - 1 == 12  # nmax rows per (alpha, c) cell
            for row in lines[1:]:
                cells = row.split(",")
                if cells[5]:
                    assert float(cells[5]) >= 0.0
            lams = [float(r.split(",")[2]) for r in lines[1:]]
            assert lams[0] > lams[1]  # leading eigenvalue dominates
        assert (out_dir / "config.json").exists()

    def test_same_second_runs_do_not_collide(self, tmp_path, cache_dir,
                                             monkeypatch):
        monkeypatch.setattr(X.time, "strftime", lambda fmt, t=None: "20260101T000000")
        runs = [X.run_lambda_decay(self._cfg(tmp_path, cache_dir)) for _ in range(2)]
        assert runs[0][0] != runs[1][0]
        for out_dir, files in runs:
            assert sorted(p.name for p in out_dir.iterdir()) == sorted(
                ["config.json"] + [p.name for p in files])

    def test_cold_warm_identical(self, tmp_path, cache_dir):
        _, files1 = X.run_lambda_decay(self._cfg(tmp_path, cache_dir))
        _, files2 = X.run_lambda_decay(self._cfg(tmp_path, cache_dir))
        for p1, p2 in zip(files1, files2):
            assert p1.read_bytes() == p2.read_bytes()


class TestBrownian:
    def test_quick_run(self, tmp_path, cache_dir):
        cfg = X.ExperimentConfig(name="brownian", alpha_list=(1.5,),
                                 c_list=(2.0,), N_list=(6, 12),
                                 s_list=(1.5,), seed=5, n_seeds=3,
                                 output_dir=str(tmp_path / "reports"),
                                 cache_dir=str(cache_dir))
        out_dir, medians = X.run_brownian(cfg)
        assert set(medians) == {6, 12}
        assert medians[12] < medians[6]
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "seed,N,sup_error,l2w_error"
        assert len(summary) == 1 + 3 * 2 + 2  # seeds x N plus medians

    def test_same_seed_same_report(self, tmp_path, cache_dir):
        cfg = dict(alpha_list=(1.5,), c_list=(2.0,), N_list=(6,),
                   s_list=(1.5,), seed=7, n_seeds=2,
                   cache_dir=str(cache_dir))
        out1, _ = X.run_brownian(X.ExperimentConfig(
            name="brownian", output_dir=str(tmp_path / "r1"), **cfg))
        out2, _ = X.run_brownian(X.ExperimentConfig(
            name="brownian", output_dir=str(tmp_path / "r2"), **cfg))
        assert ((out1 / "summary.csv").read_bytes()
                == (out2 / "summary.csv").read_bytes())


class TestWmTable:
    def test_single_cell(self, tmp_path, cache_dir):
        cfg = X.ExperimentConfig(name="wm-table", alpha_list=(0.5,),
                                 c_list=(5 * math.pi,), N_list=(95,),
                                 s_list=(0.25, 1.0),
                                 output_dir=str(tmp_path / "reports"),
                                 cache_dir=str(cache_dir))
        out_dir, table = X.run_wm_table(cfg)
        assert table[(0.5, 1.0)] > table[(0.5, 0.25)]  # monotone in s
        ref = X.WM_REFERENCE_ERRORS[(0.5, 0.25)]
        assert 0.5 <= table[(0.5, 0.25)] / ref <= 2.0
        rows = (out_dir / "wm_table.csv").read_text().splitlines()
        assert rows[0] == "alpha,s,computed_error,reference_error,ratio"
        payload = json.loads((out_dir / "config.json").read_text())
        assert payload["gaussian_generator"] == "philox4x64-boxmuller"
