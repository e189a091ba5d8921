"""Declarative experiment runner with an on-disk basis cache and CSV reports.

Scenarios: ``lambda-decay`` (eigenvalue decay curves per alpha),
``brownian`` (random cosine-series approximation, sup/L2 errors over seeds),
``wm-table`` (Weierstrass-Mandelbrot L2 errors against reference values).
"""

import csv
import hashlib
import itertools
import json
import math
import numbers
import os
import re
import struct
import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, approx, basis as basis_mod, spectral
from .errors import ConsistencyError, DomainError

__all__ = [
    "ExperimentConfig",
    "CacheEntry",
    "WM_REFERENCE_ERRORS",
    "default_cache_dir",
    "save_basis",
    "load_basis",
    "cache_key",
    "cache_put",
    "cache_get",
    "cache_ls",
    "cache_clear",
    "get_basis",
    "run_lambda_decay",
    "run_brownian",
    "run_wm_table",
    "run_experiment",
]

# grids a scenario does not sweep: a second entry would be silently dropped
_SINGLE_VALUED = {"brownian": ("alpha_list", "c_list", "s_list"),
                  "wm-table": ("c_list", "N_list")}
# fields a scenario never reads: they must keep their defaults (lambda-decay's
# curves run to nmax, brownian's and wm-table's bases to max(N_list) + 1)
_UNREAD = {"lambda-decay": ("N_list", "s_list", "n_seeds"),
           "brownian": ("nmax",),
           "wm-table": ("nmax", "n_seeds")}

# Reference weighted-L2 errors for approximating the lambda=2 rough
# sine-series benchmark with c = 5*pi, N = 95; regression targets (factor-2).
WM_REFERENCE_ERRORS = {
    (0.1, 0.25): 1.69146e-04, (0.1, 0.5): 5.42800e-04,
    (0.1, 0.75): 1.74173e-03, (0.1, 1.0): 5.61554e-03,
    (0.5, 0.25): 1.90589e-04, (0.5, 0.5): 6.07253e-04,
    (0.5, 0.75): 1.93120e-03, (0.5, 1.0): 6.15556e-03,
    (1.0, 0.25): 2.12572e-04, (1.0, 0.5): 6.72661e-04,
    (1.0, 0.75): 2.12113e-03, (1.0, 1.0): 6.68912e-03,
    (1.5, 0.25): 2.30518e-04, (1.5, 0.5): 7.25472e-04,
    (1.5, 0.75): 2.27216e-03, (1.5, 1.0): 7.10411e-03,
    (2.0, 0.25): 2.45810e-04, (2.0, 0.5): 7.70063e-04,
    (2.0, 0.75): 2.39797e-03, (2.0, 1.0): 7.44278e-03,
}


@dataclass
class ExperimentConfig:
    name: str
    alpha_list: tuple = ()
    c_list: tuple = ()
    N_list: tuple = ()
    s_list: tuple = ()
    seed: int = 1234
    n_seeds: int = 10
    nmax: int = 40
    output_dir: str = "reports"
    cache: bool = True
    cache_dir: str | None = None
    threads: int = 0

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise DomainError(f"unknown scenario {self.name!r}; "
                              f"expected one of {tuple(SCENARIOS)}")
        for grid in ("alpha_list", "c_list", "N_list", "s_list"):
            if grid not in _UNREAD[self.name] and not tuple(getattr(self, grid)):
                raise DomainError(f"{self.name} needs a nonempty {grid}")
        for grid in _SINGLE_VALUED.get(self.name, ()):
            if len(tuple(getattr(self, grid))) != 1:
                raise DomainError(f"{self.name} reads one {grid} value, "
                                  f"got {list(getattr(self, grid))}")
        defaults = {f.name: f.default for f in fields(self)}
        for name in _UNREAD[self.name]:
            value = getattr(self, name)
            if isinstance(value, list):
                value = tuple(value)
            if value != defaults[name]:
                raise DomainError(f"{self.name} does not read {name}, "
                                  f"got {getattr(self, name)!r}")
        ints = [("N_list", v, 1) for v in tuple(self.N_list)] + [
            ("seed", self.seed, 0), ("n_seeds", self.n_seeds, 1),
            ("nmax", self.nmax, 1), ("threads", self.threads, 0)]
        for name, v, low in ints:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise DomainError(f"{name} takes integers >= {low}, got {v!r}")
        for grid in ("alpha_list", "c_list", "s_list"):
            for v in tuple(getattr(self, grid)):
                if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                    raise DomainError(f"{grid} takes finite reals, got {v!r}")
        if self.name == "brownian" and self.seed + self.n_seeds - 1 >= approx.SEED_END:
            raise DomainError(f"brownian seeds run from seed to seed + n_seeds - 1 = "
                              f"{self.seed + self.n_seeds - 1}, past 2**128-1")
        # a JSON "no" is truthy: only a bool turns the cache on or off
        if not isinstance(self.cache, bool):
            raise DomainError(f"cache takes true or false, got {self.cache!r}")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise DomainError(f"output_dir takes a path, got {self.output_dir!r}")
        if not isinstance(self.cache_dir, (str, os.PathLike, type(None))):
            raise DomainError(f"cache_dir takes a path or null, got {self.cache_dir!r}")


def default_cache_dir():
    env = os.environ.get("GPSWF_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gpswf"


# ---------------------------------------------------------------------------
# Basis container format: magic "GPSW", u32 version, f64 alpha, f64 c,
# u32 M, u32 nmax, chi[nmax] f64, beta as one nmax x M block of f64 in row
# order, then a sha256 digest of everything before it: 64 + 8 nmax (M + 1)
# bytes.  Little-endian throughout.
# ---------------------------------------------------------------------------

_MAGIC = b"GPSW"
_HEADER = struct.Struct("<4sIddII")
# 2: eigenvectors from the spliced recurrence, bottom entries relatively
# accurate.  3: the truncation starts from the chi bracket,
# ceil(hypot(nmax, c) / 2) + 40.  4: beta as one block, no per-row lengths.
# Part of the cache key, so older entries are rebuilt once; bump it also when
# the truncation rule of ``basis`` (its ``_TAIL_*`` and ``_M_CAP`` constants
# or its start order) changes, as the key leaves M out.
_FORMAT_VERSION = 4


def basis_to_bytes(b):
    payload = (_HEADER.pack(_MAGIC, _FORMAT_VERSION, b.alpha, b.c, b.trunc, b.nmax)
               + np.asarray(b.chi, dtype="<f8").tobytes()
               + np.asarray(b.beta, dtype="<f8").tobytes())
    return payload + hashlib.sha256(payload).digest()


def basis_from_bytes(raw):
    if len(raw) < _HEADER.size + 32 or raw[:4] != _MAGIC:
        raise DomainError("not a basis container")
    payload, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise DomainError("basis container failed its content hash")
    _, version, alpha, c, trunc, nmax = _HEADER.unpack_from(payload)
    if version != _FORMAT_VERSION:
        raise DomainError(f"unsupported container version {version}")
    if len(payload) != _HEADER.size + 8 * nmax * (trunc + 1):
        raise DomainError(f"malformed basis container: {len(payload)} bytes before "
                          f"the digest for nmax {nmax}, trunc {trunc}")
    values = np.frombuffer(payload, dtype="<f8", offset=_HEADER.size)
    return basis_mod.GpswfBasis(alpha=alpha, c=c, trunc=trunc, nmax=nmax,
                                chi=values[:nmax],
                                beta=values[nmax:].reshape(nmax, trunc))


def save_basis(b, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    tmp.write_bytes(basis_to_bytes(b))
    tmp.replace(path)  # atomic on POSIX; keeps concurrent readers safe
    return path


def load_basis(path):
    return basis_from_bytes(Path(path).read_bytes())


@dataclass(frozen=True)
class CacheEntry:
    key: str
    path: Path
    created_at: float


def cache_key(alpha, c, nmax):
    """M is left out: ``build_basis`` derives it from (alpha, c, nmax), and
    the entry records it."""
    text = (f"gpswf|{__version__}|v{_FORMAT_VERSION}|{float(alpha)!r}"
            f"|{float(c)!r}|{int(nmax)}")
    return hashlib.sha256(text.encode()).hexdigest()


def cache_put(b, cache_dir=None):
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    key = cache_key(b.alpha, b.c, b.nmax)
    path = cache_dir / f"{key}.gpswf"
    save_basis(b, path)
    return CacheEntry(key=key, path=path, created_at=path.stat().st_mtime)


def cache_get(alpha, c, nmax, cache_dir=None):
    """The cached basis for (alpha, c, nmax), or None.  A corrupt entry is
    deleted with a warning and counts as a miss."""
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    path = cache_dir / f"{cache_key(alpha, c, nmax)}.gpswf"
    if not path.exists():
        return None
    try:
        return load_basis(path)
    except (DomainError, OSError) as exc:
        warnings.warn(f"discarding corrupt cache entry {path.name}: {exc}")
        path.unlink(missing_ok=True)
        return None


def cache_ls(cache_dir=None):
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    if not cache_dir.is_dir():
        return []
    out = []
    for path in sorted(cache_dir.glob("*.gpswf")):
        out.append(CacheEntry(key=path.stem, path=path,
                              created_at=path.stat().st_mtime))
    return out


def cache_clear(cache_dir=None):
    entries = cache_ls(cache_dir)
    for entry in entries:
        entry.path.unlink(missing_ok=True)
    return len(entries)


def get_basis(alpha, c, nmax, cache_dir=None, use_cache=True):
    if use_cache:
        b = cache_get(alpha, c, nmax, cache_dir)
        if b is not None:
            return b
    b = basis_mod.build_basis(alpha, c, nmax)
    if use_cache:
        cache_put(b, cache_dir)
    return b


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------

def _report_dir(cfg):
    """A new directory per run; a run in the same second as an earlier one
    gets a numeric suffix instead of overwriting that run's CSVs."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    root = Path(cfg.output_dir) / cfg.name
    root.mkdir(parents=True, exist_ok=True)
    path, i = root / stamp, 0
    while True:
        try:
            path.mkdir()
            return path
        except FileExistsError:
            i += 1
            path = root / f"{stamp}-{i}"


# a cell that formats a number that is not finite: nan, inf or -inf, alone or
# as a part of a complex phase such as +nan+0.000j
_NON_FINITE = re.compile(r"[-+\d.e]*(?:nan|inf)[-+\d.ej]*")


def _check_finite(header, rows, text, where):
    """Raise ConsistencyError, naming ``where``, the column and the row, when
    a cell of ``rows`` formats a non-finite number.  ``text`` holds every
    cell as it is printed: when it has no "nan" and no "inf", two substring
    searches clear them all."""
    if "nan" not in text and "inf" not in text:
        return
    for i, row in enumerate(rows):
        for name, cell in zip(header, row):
            if _NON_FINITE.fullmatch(str(cell)):
                raise ConsistencyError(f"non-finite {name} = {cell} in row {i} of {where}")


def _write_csv(path, header, rows):
    """Write the CSV once every cell is checked finite (:func:`_check_finite`)."""
    _check_finite(header, rows, "\n".join(map(str, itertools.chain.from_iterable(rows))),
                  path.name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_config(out_dir, cfg, extra=None):
    payload = {
        "name": cfg.name,
        "alpha_list": list(cfg.alpha_list),
        "c_list": list(cfg.c_list),
        "N_list": list(cfg.N_list),
        "s_list": list(cfg.s_list),
        "seed": cfg.seed,
        "n_seeds": cfg.n_seeds,
        "nmax": cfg.nmax,
        "gaussian_generator": approx.GAUSSIAN_GENERATOR,
        "code_version": __version__,
    }
    if extra:
        payload.update(extra)
    (out_dir / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True))


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _median(values):
    """The median of finite floats, as ``np.median`` rounds it (the mean of
    the middle two, (a + b) / 2), without the first call's import of
    ``numpy.ma``."""
    v = sorted(values)
    h = len(v) // 2
    return v[h] if len(v) % 2 else (v[h - 1] + v[h]) / 2


def _pool_map(fn, items, threads):
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported on use, so that a one-thread run never loads it
    from concurrent.futures import ThreadPoolExecutor

    workers = threads if threads > 0 else min(len(items), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Scenarios.
# ---------------------------------------------------------------------------

def _config(cfg, overrides, **defaults):
    """``cfg``, or the scenario's defaults when it is None, with the keyword
    ``overrides`` applied on top."""
    if cfg is None:
        return ExperimentConfig(**{**defaults, **overrides})
    return replace(cfg, **overrides)


def run_lambda_decay(cfg=None, **overrides):
    """Per-alpha eigenvalue decay curves with bound margins.

    Columns: n, chi, lambda, log_lambda, log_bound (the decay estimate, in
    log space), margin (log_bound - log_lambda, nonnegative when applicable),
    and the comparison curve -(2n+1) log((4n+4a+2)/(ec)).
    """
    cfg = _config(cfg, overrides, name="lambda-decay",
                  alpha_list=(1.0, 1.5, 2.0, 2.5), c_list=(5 * math.pi,))
    out_dir = _report_dir(cfg)
    _write_config(out_dir, cfg)
    files = []

    def one(args):
        alpha, c = args
        b = get_basis(alpha, c, cfg.nmax, cfg.cache_dir, cfg.cache)
        entries = spectral.compute_spectrum(b)
        rows = []
        for e in entries:
            v = e.bound
            comparison = -(2 * e.n + 1) * math.log(
                (4 * e.n + 4 * alpha + 2) / (math.e * c))
            rows.append([e.n, _fmt(e.chi), _fmt(e.lam), _fmt(e.log_lam),
                         _fmt(v.log_lambda_bound) if v.applicable else "",
                         _fmt(v.margin_lambda) if v.applicable else "",
                         _fmt(comparison)])
        return alpha, c, rows

    cells = [(alpha, c) for alpha in cfg.alpha_list for c in cfg.c_list]
    for alpha, c, rows in _pool_map(one, cells, cfg.threads):
        name = f"lambda_decay_alpha{alpha:g}_c{c:g}.csv"
        _write_csv(out_dir / name,
                   ["n", "chi", "lambda", "log_lambda", "log_bound",
                    "margin", "comparison_curve"], rows)
        files.append(out_dir / name)
    return out_dir, files


# Reported sup errors exclude the outer 0.5% near each endpoint: the weight
# (1 - x^2)^a vanishes there, so the weighted projection does not control
# pointwise values inside that layer (the L2 column is unaffected).
BULK_SUP_LIMIT = 0.995


def run_brownian(cfg=None, **overrides):
    """Random cosine-series approximation errors at the configured N values.

    Coefficients come from the exact cosine-transform table (a quadrature
    rule cannot resolve thousands of cosine modes).  Writes per-seed summary
    rows plus the across-seed medians, and sample curves (x, f, S_N f, error)
    for the first seed.
    """
    cfg = _config(cfg, overrides, name="brownian", alpha_list=(1.5,),
                  c_list=(5 * math.pi,), N_list=(46, 90), s_list=(1.5,))
    out_dir = _report_dir(cfg)
    _write_config(out_dir, cfg, extra={"bulk_sup_limit": BULK_SUP_LIMIT})
    alpha, c, s = cfg.alpha_list[0], cfg.c_list[0], cfg.s_list[0]
    n_top = max(cfg.N_list)
    b = get_basis(alpha, c, n_top + 1, cfg.cache_dir, cfg.cache)
    k_terms = 4000
    table = approx.cosine_transform_table(b, k_terms, n_top + 1)
    xg = approx._SUP_GRID
    bulk = np.abs(xg) <= BULK_SUP_LIMIT
    psi_grid = b.psi_table(xg, range(n_top))
    seeds = [cfg.seed + i for i in range(cfg.n_seeds)]

    def one(seed):
        f = approx.brownian(s, seed, K=k_terms)
        k = np.arange(1, k_terms + 1, dtype=float)
        y = f.params["amplitudes"] / k ** s
        coeffs = y @ table
        norm2 = approx.cosine_series_norm2(alpha, y)
        fx = f(xg)
        out = []
        for N in sorted(cfg.N_list):
            err2 = norm2 - float(np.sum(coeffs[:N] ** 2))
            l2 = math.sqrt(max(err2, 0.0))
            resid = np.abs(fx - coeffs[:N] @ psi_grid[:N])
            out.append((seed, N, float(np.max(resid[bulk])), l2))
        return out, fx, coeffs

    results = _pool_map(one, seeds, cfg.threads)
    summary = []
    sup_by_n = {N: [] for N in cfg.N_list}
    for per_seed, _, _ in results:
        for seed, N, sup, l2 in per_seed:
            summary.append([seed, N, _fmt(sup), _fmt(l2)])
            sup_by_n[N].append(sup)
    for N in sorted(cfg.N_list):
        summary.append(["median", N, _fmt(_median(sup_by_n[N])), ""])
    _write_csv(out_dir / "summary.csv", ["seed", "N", "sup_error", "l2w_error"],
               summary)
    # sample curves for the first seed
    _, fx0, coeffs0 = results[0]
    for N in sorted(cfg.N_list):
        sx = coeffs0[:N] @ psi_grid[:N]
        rows = [[_fmt(x), _fmt(v), _fmt(sv), _fmt(v - sv)]
                for x, v, sv in zip(xg.tolist(), fx0.tolist(), sx.tolist())]
        name = f"samples_N{N}_seed{seeds[0]}.csv"
        _write_csv(out_dir / name, ["x", "f", "S_N_f", "error"], rows)
    medians = {N: _median(sup_by_n[N]) for N in cfg.N_list}
    return out_dir, medians


def run_wm_table(cfg=None, **overrides):
    """Weighted-L2 approximation errors of the rough sine-series function,
    side by side with the reference values and their ratios."""
    cfg = _config(cfg, overrides, name="wm-table",
                  alpha_list=(0.1, 0.5, 1.0, 1.5, 2.0), c_list=(5 * math.pi,),
                  N_list=(95,), s_list=(0.25, 0.5, 0.75, 1.0))
    out_dir = _report_dir(cfg)
    _write_config(out_dir, cfg, extra={"lambda": 2.0,
                                       "assumed_cell_params": "c=5*pi, N=95"})
    c = cfg.c_list[0]
    N = cfg.N_list[0]

    def one(alpha):
        b = get_basis(alpha, c, N + 1, cfg.cache_dir, cfg.cache)
        # the largest s first: its K = wm_truncation(s, 2) is the largest, and
        # the transforms it keeps cover every smaller K
        errs = {s: approx.wm_projection_error(b, s, 2.0, N)
                for s in sorted(cfg.s_list, reverse=True)}
        return [(alpha, s, errs[s], WM_REFERENCE_ERRORS.get((alpha, s)))
                for s in cfg.s_list]

    rows = []
    for chunk in _pool_map(one, list(cfg.alpha_list), cfg.threads):
        for alpha, s, err, ref in chunk:
            rows.append([_fmt(alpha), _fmt(s), _fmt(err),
                         _fmt(ref) if ref is not None else "",
                         _fmt(err / ref) if ref else ""])
    _write_csv(out_dir / "wm_table.csv",
               ["alpha", "s", "computed_error", "reference_error", "ratio"],
               rows)
    table = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    return out_dir, table


# every scenario by name: the config check, run_experiment and the CLI's
# --name choices read this one table
SCENARIOS = {"lambda-decay": run_lambda_decay, "brownian": run_brownian,
             "wm-table": run_wm_table}


def run_experiment(name, cfg=None, **overrides):
    if name not in SCENARIOS:
        raise DomainError(f"unknown experiment {name!r}")
    # the runner is looked up on the module by name, so that a wrapper bound
    # in its place (perfbench's tracer) is the one that runs
    return globals()[SCENARIOS[name].__name__](cfg, **overrides)
