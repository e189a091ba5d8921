import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_rehashed_inconsistent_fields_raise_domain_error(self, small_basis):
        # a valid content hash over fields that disagree: trailing bytes, a
        # trunc that is not the beta row length
        def rehashed(payload):
            return bytes(payload) + hashlib.sha256(bytes(payload)).digest()

        payload = bytearray(X.basis_to_bytes(small_basis)[:-32])
        trunc = bytearray(payload)
        struct.pack_into("<I", trunc, 24, small_basis.trunc + 4)  # magic, version, alpha, c
        for raw in (rehashed(payload + b"\0" * 8), rehashed(trunc)):
            with pytest.raises(DomainError, match="malformed"):
                X.basis_from_bytes(raw)

    def test_container_size_is_header_chi_beta_digest(self, small_basis):
        b = small_basis
        assert len(X.basis_to_bytes(b)) == 64 + 8 * b.nmax * (b.trunc + 1)

    def test_loaded_basis_is_read_only(self, small_basis):
        got = X.basis_from_bytes(X.basis_to_bytes(small_basis))
        assert got.beta.shape == (small_basis.nmax, small_basis.trunc)
        for arr in (got.beta, got.chi):
            with pytest.raises(ValueError):
                arr[0] = 1.0


# any doubles, NaN payloads and signed zeros included: the container must
# carry them bit for bit
_DOUBLES = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _small_bases(draw):
    nmax, trunc = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    chi = np.array(draw(st.lists(_DOUBLES, min_size=nmax, max_size=nmax)), dtype=float)
    beta = np.array(draw(st.lists(_DOUBLES, min_size=nmax * trunc,
                                  max_size=nmax * trunc)), dtype=float).reshape(nmax, trunc)
    return B.GpswfBasis(alpha=draw(_DOUBLES), c=draw(_DOUBLES), trunc=trunc,
                        nmax=nmax, chi=chi, beta=beta)


def _bits(x):
    return np.float64(x).tobytes()


class TestContainerProperties:
    @given(_small_bases())
    def test_round_trip_bit_for_bit(self, b):
        got = X.basis_from_bytes(X.basis_to_bytes(b))
        assert (_bits(got.alpha), _bits(got.c)) == (_bits(b.alpha), _bits(b.c))
        assert (got.trunc, got.nmax) == (b.trunc, b.nmax)
        assert got.chi.tobytes() == b.chi.tobytes()
        assert got.beta.shape == b.beta.shape
        assert got.beta.tobytes() == b.beta.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(_small_bases())
    def test_every_bit_flip_and_truncation_raises_domain_error(self, b):
        # pytest.raises(DomainError) lets any other exception through, and a
        # struct.error, a plain ValueError or an IndexError is not one
        raw = X.basis_to_bytes(b)
        for bit in range(8 * len(raw)):
            bad = bytearray(raw)
            bad[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(DomainError):
                X.basis_from_bytes(bytes(bad))
        for size in range(len(raw)):
            with pytest.raises(DomainError):
                X.basis_from_bytes(raw[:size])


class TestCache:
    def test_put_get_roundtrip(self, small_basis, cache_dir):
        X.cache_put(small_basis, cache_dir)
        got = X.cache_get(0.5, 2.0, 8, cache_dir)
        assert got is not None
        np.testing.assert_array_equal(got.chi, small_basis.chi)

    def test_version_bump_misses(self, small_basis, cache_dir, monkeypatch):
        entry = X.cache_put(small_basis, cache_dir)
        assert X.cache_get(0.5, 2.0, 9, cache_dir) is None  # different nmax
        for attr, value in (("__version__", "99.0"),
                            ("_FORMAT_VERSION", X._FORMAT_VERSION + 1)):
            with monkeypatch.context() as m:
                m.setattr(X, attr, value)
                assert X.cache_key(0.5, 2.0, 8) != entry.key
                assert X.cache_get(0.5, 2.0, 8, cache_dir) is None
        assert X.cache_get(0.5, 2.0, 8, cache_dir) is not None

    def test_version_2_entry_rebuilt_at_the_bracket_start(self, cache_dir, monkeypatch):
        # version 2 entries hold bases at the former start order,
        # nmax + ceil(c) + 40; under version 6 they miss and are rebuilt
        with monkeypatch.context() as m:
            m.setattr(X, "_FORMAT_VERSION", 2)
            m.setattr(B, "_start_order", lambda c, nmax: nmax + math.ceil(c) + 40)
            assert X.get_basis(0.5, 2.0, 8, cache_dir=cache_dir).trunc == 50
        assert X._FORMAT_VERSION == 6
        assert X.cache_get(0.5, 2.0, 8, cache_dir) is None
        got = X.get_basis(0.5, 2.0, 8, cache_dir=cache_dir)
        assert got.trunc == B._start_order(2.0, 8) == 29
        assert X.cache_get(0.5, 2.0, 8, cache_dir).trunc == 29
        assert len(X.cache_ls(cache_dir)) == 2

    def test_version_4_entry_rebuilt_at_the_shorter_start(self, cache_dir, monkeypatch):
        # version 4 entries hold bases 16 rows per parity longer, at
        # ceil(hypot(nmax, c) / 2) + 40; under version 6 they miss
        with monkeypatch.context() as m:
            m.setattr(X, "_FORMAT_VERSION", 4)
            m.setattr(B, "_start_order",
                      lambda c, nmax: math.ceil(math.hypot(nmax, c) / 2) + 40)
            assert X.get_basis(0.5, 2.0, 8, cache_dir=cache_dir).trunc == 45
        assert X.cache_get(0.5, 2.0, 8, cache_dir) is None
        assert X.get_basis(0.5, 2.0, 8, cache_dir=cache_dir).trunc == 29
        assert len(X.cache_ls(cache_dir)) == 2

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

    def test_corrupt_entry_rebuilt_by_get_basis(self, small_basis, cache_dir):
        entry = X.cache_put(small_basis, cache_dir)
        entry.path.write_bytes(b"corrupt" * 10)
        with pytest.warns(UserWarning, match="corrupt"):
            got = X.get_basis(0.5, 2.0, 8, cache_dir=cache_dir)
        assert got.trunc == small_basis.trunc
        assert got.chi.tobytes() == small_basis.chi.tobytes()
        for a, b in zip(got.beta, small_basis.beta):
            assert a.tobytes() == b.tobytes()
        # the fresh build replaced the corrupt entry
        assert X.cache_get(0.5, 2.0, 8, cache_dir).chi.tobytes() == got.chi.tobytes()

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

    def test_path_fields_take_str_or_pathlike(self, tmp_path):
        grid = dict(name="lambda-decay", alpha_list=(1.0,), c_list=(1.0,))
        X.ExperimentConfig(**grid, output_dir=tmp_path, cache_dir=tmp_path / "c")
        X.ExperimentConfig(**grid, output_dir="r", cache_dir="c", cache=False)
        for bad in (dict(output_dir=5), dict(output_dir=None), dict(cache_dir=b"c"),
                    dict(cache="no"), dict(cache=1), dict(cache=None)):
            with pytest.raises(DomainError, match=f"{next(iter(bad))} takes "):
                X.ExperimentConfig(**grid, **bad)

    def test_brownian_seed_range_covers_the_last_seed(self):
        grid = dict(name="brownian", alpha_list=(1.5,), c_list=(2.0,), N_list=(4,),
                    s_list=(1.5,))
        X.ExperimentConfig(**grid, seed=2 ** 128 - 10, n_seeds=10)
        with pytest.raises(DomainError, match="past 2\\*\\*128-1"):
            X.ExperimentConfig(**grid, seed=2 ** 128 - 10, n_seeds=11)
        # other scenarios draw no brownian seeds
        X.ExperimentConfig(name="lambda-decay", alpha_list=(1.0,), c_list=(1.0,),
                           seed=2 ** 128)


@pytest.mark.parametrize("size", [1, 2, 7, 10, 11])
def test_median_bitwise_numpy(size):
    rng = np.random.default_rng(size)
    for _ in range(50):
        values = (rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)).tolist()
        assert X._median(values) == float(np.median(values))


class TestLambdaDecay:
    def _cfg(self, tmp_path, cache_dir):
        return X.ExperimentConfig(name="lambda-decay", alpha_list=(1.0, 1.5),
                                  c_list=(2.0,), nmax=12,
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


def test_cache_refuses_what_a_build_refuses(cache_dir):
    # the key read int(nmax): a warm nmax-2 entry answered nmax 2.9, 2.5 and
    # 2.0, which a cold call refuses
    X.get_basis(0.5, 5.0, 2, cache_dir=cache_dir)
    for nmax in (2.9, 2.5, 2.0):
        for use_cache in (True, False):
            with pytest.raises(DomainError, match="nmax must be an integer >= 1"):
                X.get_basis(0.5, 5.0, nmax, cache_dir=cache_dir, use_cache=use_cache)
    for args, match in (((-1.0, 5.0, 2), "alpha >= 0"), ((0.5, math.nan, 2), "c > 0")):
        with pytest.raises(DomainError, match=match):
            X.cache_key(*args)


def test_version_name_and_cache_dir_refusals(small_basis, monkeypatch, tmp_path):
    # a container of another version, a scenario name that is not one, and
    # the cache directory taken from GPSWF_CACHE_DIR
    raw = bytearray(X.basis_to_bytes(small_basis)[:-32])
    struct.pack_into("<I", raw, 4, X._FORMAT_VERSION + 1)
    with pytest.raises(DomainError, match=f"unsupported container version "
                                          f"{X._FORMAT_VERSION + 1}"):
        X.basis_from_bytes(bytes(raw) + hashlib.sha256(raw).digest())
    with pytest.raises(DomainError, match="unknown experiment 'nope'"):
        X.run_experiment("nope")
    monkeypatch.setenv("GPSWF_CACHE_DIR", str(tmp_path))
    assert X.default_cache_dir() == tmp_path
