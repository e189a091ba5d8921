"""The golden file: sha256 hashes that pin gpswf's outputs bit for bit.

The eigenvalues decay super-exponentially (lambda_n reaches 6e-299 at
(alpha, c, nmax) = (0.5, 10, 120)), so a change that moves one rounding
moves the last bits of the outputs after it.  ``golden.json`` holds one hash per entry of
:func:`entries`, the single table of what is pinned, together with the
environment the hashes were recorded in.  ``tests/test_golden.py``
recomputes every entry in process and fails naming the first that moved.

Re-record after a deliberate change of outputs, and list the moved entries
in CHANGES.md::

    PYTHONPATH=src python tests/golden/record.py

It rewrites ``golden.json`` and prints each entry that moved, old -> new.
The hashes say only that an entry moved.  To see by how much, dump every
entry's parts as text in two trees and diff the files::

    PYTHONPATH=src python tests/golden/record.py --values values.json

This writes ``{name: [part, ...]}`` and leaves ``golden.json`` alone: a
string part as it is, an array one value per line (``repr``), bytes as
UTF-8 text, or as hex where they are not.  Two such files compare with::

    PYTHONPATH=src python tests/golden/record.py --compare OLD NEW

which prints each entry that moved with its worst absolute and relative
move over the numbers its text holds, or says where the text around them
changed.
"""

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from gpswf import approx, basis as B, cli, experiments, spectral
from gpswf.errors import ConsistencyError

GOLDEN = Path(__file__).with_name("golden.json")

PI5, PI20 = 5 * math.pi, 20 * math.pi
# (alpha, c, nmax) of the CLI's spectrum and bounds tables
CLI_CELLS = [(0.0, math.pi, 34), (2.5, PI20, 93), (0.5, 10.0, 120)]
PROJECT_FNS = ["brownian:s=1.5,seed=3", "wm:s=1,lambda=2", "wm:s=0.5,lambda=1.3,K=12",
               "periodic:k=7"]
# the march rescales past 2**600 at (0, 5, 200), (0.5, 10, 240) and
# (5, 1000, 1130); nmax 1 keeps no odd column
BASIS_CELLS = [(0.5, 2.0, 1), (0.5, 2.0, 16), (0.25, 3.0, 50), (0.0, 5.0, 200),
               (0.5, 10.0, 240), (2.5, PI20, 93), (5.0, 200.0, 230), (5.0, 1000.0, 1130)]
# cells whose spectrum underflows |mu_n| and is refused
UNDERFLOW_CELLS = [(0.0, 5.0, 200), (0.5, 10.0, 240)]
SPECTRUM_CELLS = [(0.5, 2.0, 16), (0.5, PI5, 96), (1.0, PI20, 93), (2.5, PI20, 93),
                  (0.0, 10.0, 60)]
# rows of the (0.5, 2, 24) basis mixed with a neighbouring mode
PERTURBED_ROWS = [(1,), (9, 6), (11, 3), (20,)]
SWEEP_ALPHAS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5)


def environment():
    """What the hashes depend on besides the code: NumPy, Python, the
    machine, the BLAS that NumPy was built against, and the kernels both
    picked on this CPU: OpenBLAS's core (None where NumPy's BLAS does not
    name one) and the SIMD targets of NumPy's own loops."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas(("scipy_openblas_get_corename64_", "openblas_get_corename"),
                     ctypes.c_char_p)
    from numpy._core import _multiarray_umath
    simd = [t for t in _multiarray_umath.__cpu_dispatch__
            if _multiarray_umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": None if core is None else core.decode(),
            "numpy_simd": simd}


def _openblas(names, restype):
    """The value of the first OpenBLAS function of ``names`` (no arguments)
    that NumPy's BLAS exports, or None where it exports none of them."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    # NumPy's wheels prefix and suffix OpenBLAS's symbols; a system build does not
    for name in names:
        get = getattr(lib, name, None)
        if get is not None:
            get.argtypes, get.restype = [], restype
            return get()
    return None


def blas_threads():
    """OpenBLAS's thread count in this process, or None where NumPy's BLAS
    does not report one.  Not an environment field: the hashes hold at
    every thread count (``tests/test_golden.py`` checks ``project`` at 1
    thread), and a moved hash names the count it ran at."""
    return _openblas(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"),
                     ctypes.c_int)


def _bytes(part):
    """The bytes of an entry part that its hash reads: a string's UTF-8, an
    array's C-order buffer."""
    if isinstance(part, str):
        return part.encode()
    return part.tobytes() if isinstance(part, np.ndarray) else part


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(_bytes(part))
    return h.hexdigest()


def _text(part):
    """An entry part as text for ``--values``: an array one ``repr`` per
    value, bytes as UTF-8 or else as hex."""
    if isinstance(part, np.ndarray):
        return "\n".join(map(repr, part.ravel().tolist()))
    if isinstance(part, bytes):
        try:
            return part.decode()
        except UnicodeDecodeError:
            return part.hex()
    return part


def _cli(*argv):
    """stdout and stderr of ``gpswf ARGV``, with its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def _refusal(basis):
    try:
        spectral.compute_spectrum(basis)
    except ConsistencyError as exc:
        return str(exc)
    return "no error"


def _reprs(values):
    return "\n".join(repr(v) for v in values)


def _sweep_requests(seed):
    """The two sweep rounds of perfbench's ``seed``: per round, one op per
    alpha, with c drawn once in each of seven equal slices of [pi, 20 pi].
    Drawn here, not imported, so that a change to the benchmark leaves the
    golden file alone."""
    rng = np.random.default_rng(seed)
    k = len(SWEEP_ALPHAS)
    for _ in range(2):
        cs = math.pi + (PI20 - math.pi) * (np.arange(k) + rng.random(k)) / k
        alphas = rng.permutation(SWEEP_ALPHAS)
        yield from zip(alphas.tolist(), rng.permutation(cs).tolist())


def _sweep_op(alpha, c):
    b = B.build_basis(alpha, c, math.ceil(c) + 30)
    entries = spectral.compute_spectrum(b)
    verdicts = [(B.chi_bracket(alpha, c, e.n), B.chi_lower_bound_check(b, e.n),
                 B.local_estimate(b, e.n)) for e in entries]
    return _reprs(entries), _reprs(verdicts)


def _march(cell):
    """The march of both parity blocks at the start order, over
    ceil(nmax / 2) eigenvalues of each, as ``build_basis`` runs it."""
    alpha, c, nmax = cell
    M = B._start_order(c, nmax)
    tris = [B.assemble_eigensystem(alpha, c, M, parity) for parity in ("even", "odd")]
    return B._march(tris, np.stack([B.eig_symtridiag(t).values[:(nmax + 1) // 2]
                                    for t in tris]))


def entries(tmp):
    """Every golden entry in order, as (name, parts): the strings, bytes and
    arrays whose sha256 (:func:`hashes`) the golden file pins; ``tmp`` is an
    empty directory for the scenario reports."""
    for name in experiments.SCENARIOS:
        _cli("experiment", "--name", name, "--seed", 1, "--threads", 1, "--no-cache",
             "--out-dir", tmp)
        for path in sorted(Path(tmp, name).glob("*/*.csv")):
            yield f"experiment {name}: {path.name}", (path.read_bytes(),)

    for alpha, c, nmax in CLI_CELLS:
        for command in ("spectrum", "bounds"):
            argv = (command, "--alpha", repr(alpha), "--c", repr(c), "--nmax", nmax,
                    "--format", "csv", "--no-cache")
            yield f"gpswf {' '.join(map(str, argv))}", (_cli(*argv),)
    yield from _cli_project_entries()

    for seed in (1, 2):
        for i, (alpha, c) in enumerate(_sweep_requests(seed)):
            yield f"sweep seed {seed} op {i}: alpha={alpha!r} c={c!r}", _sweep_op(alpha, c)

    bases = {cell: B.build_basis(*cell) for cell in BASIS_CELLS + SPECTRUM_CELLS}
    for cell in BASIS_CELLS:
        b = bases[cell]
        yield (f"build_basis{cell}: basis_to_bytes, psi_n(0), psi_n'(0)",
               (experiments.basis_to_bytes(b), B._psi_at0(b)))
    for cell in BASIS_CELLS[:-1]:
        yield f"_march at build_basis{cell}'s start order", _march(cell)
    for cell in UNDERFLOW_CELLS:
        yield f"compute_spectrum{cell} refusal", (_refusal(bases[cell]),)

    for cell in SPECTRUM_CELLS:
        b = bases[cell]
        yield f"compute_spectrum{cell}", (_reprs(spectral.compute_spectrum(b)),)
        for grid_size in (400, 137):
            yield (f"local_estimate at build_basis{cell}, grid_size {grid_size}",
                   (_reprs(B.local_estimate(b, n, grid_size) for n in range(b.nmax)),))
    b = B.build_basis(0.5, 2.0, 24)
    for rows in PERTURBED_ROWS:
        beta = np.array(b.beta)
        for n in rows:
            beta[n, 1] += 0.01
            beta[n] /= np.linalg.norm(beta[n])
        yield (f"compute_spectrum(0.5, 2.0, 24) refusal, rows {rows} perturbed",
               (_refusal(dataclasses.replace(b, beta=beta)),))
    yield "decay_bound_check grid", (_reprs(
        spectral.decay_bound_check(n, mu_abs, alpha, 3.7)
        for alpha in (0.0, 0.25, 1.3, 2.5) for n in (1, 3, 9, 40, 200, 5000)
        for mu_abs in (0.0, 1e-300, 1e-5, 0.4)),)

    # the wm-table scenario's CSV pins its errors; these are its coefficients
    proj = [B.build_basis(alpha, PI5, 96) for alpha in (0.5, 1.5)]
    for b in proj:
        for s in (0.25, 1.0):
            yield (f"wm_all_coefficients at build_basis({b.alpha}, 5 pi, 96), s={s}, "
                   f"lambda=2, N=95"), (approx.wm_all_coefficients(b, s, 2.0, 95),)
        yield (f"cosine_transform_table at build_basis({b.alpha}, 5 pi, 96), "
               f"k_max=4000, N=91"), (approx.cosine_transform_table(b, 4000, 91),)
    yield ("periodic_coefficient at build_basis(0.5 and 1.5, 5 pi, 96), "
           "k in (-3, 1, 7, 64), n < 96"), (np.array(
               [approx.periodic_coefficient(b, k, n)
                for b in proj for k in (-3, 1, 7, 64) for n in range(96)]),)
    b = B.build_basis(0.5, PI5, 24)
    for K in (300, None, 1000):
        yield (f"wm_all_coefficients at build_basis(0.5, 5 pi, 24), s=0.5, "
               f"lambda=1.03, N=12, K={K}"), (approx.wm_all_coefficients(
                   b, 0.5, 1.03, 12, K=K),)
    b = B.build_basis(1.5, PI5, 91)
    for k_max in (1, 255, 256, 257, 4000):
        yield (f"cosine_transform_table at build_basis(1.5, 5 pi, 91), k_max={k_max}, "
               f"N=91"), (approx.cosine_transform_table(b, k_max, 91),)

    yield from _project_entries()


def _cli_project_entries():
    for alpha in (0.5, 1.5):
        for fn in PROJECT_FNS:
            argv = ("project", "--alpha", alpha, "--c", repr(PI5), "--N", 60, "--fn", fn,
                    "--format", "json", "--no-cache")
            yield f"gpswf {' '.join(map(str, argv))}", (_cli(*argv),)


def _project_entries():
    # project at the sizes the CLI entries miss: one row (a one-row matrix
    # product), every row, and a coefficient rule apart from the residual
    # rule, which the wm target takes without its closed form
    b = B.build_basis(0.5, PI5, 96)
    m = max(b.trunc, b.nmax + math.ceil(b.c) + 40)
    for fn, f in (("wm:s=1,lambda=2", approx.weierstrass_mandelbrot(1.0, 2.0)),
                  ("periodic:k=7", approx.periodic_exponential(7))):
        for N, quad_order in ((1, None), (b.nmax, None), (60, m + 32)):
            if quad_order is not None:
                f = dataclasses.replace(f, exact=None)
            pr = approx.project(b, f, N, quad_order)
            yield (f"project(build_basis(0.5, 5 pi, 96), {fn}, N={N}, "
                   f"quad_order={quad_order})"), (
                       pr.coefficients, repr((pr.l2w_error, pr.sup_error)))
    # and at alpha 5, where Jt_k(1) grows like k^5.5 and the sup error shows
    # the order in which its series is summed
    b = B.build_basis(5.0, PI20, 96)
    for fn, f in (("wm:s=0.5,lambda=2,K=8", approx.weierstrass_mandelbrot(0.5, 2.0, K=8)),
                  ("periodic:k=3", approx.periodic_exponential(3))):
        pr = approx.project(b, f, 60)
        yield f"project(build_basis(5.0, 20 pi, 96), {fn}, N=60)", (
            pr.coefficients, repr((pr.l2w_error, pr.sup_error)))


def project_entries():
    """The entries of ``project``, the CLI's and the in-process ones, in
    their order among :func:`entries`."""
    yield from _cli_project_entries()
    yield from _project_entries()


def hashes(tmp):
    """Every golden entry in order, as (name, sha256 hex digest of its
    parts)."""
    for name, parts in entries(tmp):
        yield name, _sha(*parts)


def moved(old, new):
    """(name, old hash, new hash) of every entry that differs, in the order
    of ``new``, then the entries only ``old`` has; None marks a missing side."""
    out = [(name, old.get(name), h) for name, h in new.items() if old.get(name) != h]
    return out + [(name, h, None) for name, h in old.items() if name not in new]


def load():
    return json.loads(GOLDEN.read_text())


_HEX = re.compile(r"[0-9a-f]{64,}")  # bytes that are not UTF-8 (_text)
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _moves(old, new):
    """The worst absolute and relative move between the numbers of two part
    texts, or None where the text around them differs."""
    if _HEX.fullmatch(old) or _NUMBER.split(old) != _NUMBER.split(new):
        return None
    worst_abs = worst_rel = 0.0
    for a, b in zip(map(float, _NUMBER.findall(old)), map(float, _NUMBER.findall(new))):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        diff = abs(a - b)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(a), abs(b)))
    return worst_abs, worst_rel


def compare(old, new):
    """One line per entry of two ``--values`` dumps that moved: its worst
    absolute and relative move over every part, or which parts changed
    beyond their numbers (a new array length, other text, other bytes)."""
    lines = []
    for name, parts in new.items():
        was = old.get(name)
        if was == parts:
            continue
        if was is None or len(was) != len(parts):
            lines.append(f"{name}: only in NEW" if was is None else f"{name}: parts differ")
            continue
        moves = [_moves(a, b) for a, b in zip(was, parts)]
        shown = [f"part {i}: text differs" for i, m in enumerate(moves) if m is None]
        numeric = [m for m in moves if m is not None]
        if numeric:
            shown.insert(0, f"abs {max(m[0] for m in numeric):.2e}, "
                            f"rel {max(m[1] for m in numeric):.2e}")
        lines.append(f"{name}: {'; '.join(shown)}")
    lines += [f"{name}: only in OLD" for name in old if name not in new]
    return lines


def main(argv):
    if argv[:1] == ["--values"] and len(argv) == 2:
        with tempfile.TemporaryDirectory() as tmp:
            values = {name: [_text(part) for part in parts]
                      for name, parts in entries(tmp)}
        Path(argv[1]).write_text(json.dumps(values, indent=1) + "\n")
        print(f"{len(values)} entries; wrote {argv[1]}")
        return
    if argv[:1] == ["--compare"] and len(argv) == 3:
        old, new = (json.loads(Path(a).read_text()) for a in argv[1:])
        lines = compare(old, new)
        print("\n".join(lines + [f"{len(new)} entries, {len(lines)} moved"]))
        return
    if argv:
        sys.exit("usage: record.py [--values FILE | --compare OLD NEW]")
    with tempfile.TemporaryDirectory() as tmp:
        current = {"environment": environment(), "entries": dict(hashes(tmp))}
    recorded = load() if GOLDEN.exists() else {"environment": {}, "entries": {}}
    GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
    changes = [c for key in current for c in moved(recorded[key], current[key])]
    for name, was, now in changes:
        print(f"{name}: {was} -> {now}")
    print(f"{len(current['entries'])} entries, {len(changes)} moved; wrote {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
