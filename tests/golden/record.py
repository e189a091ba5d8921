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
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import platform
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
# the march rescales past 2**600 at (0, 5, 200), (0.5, 10, 240) and the two
# c >= 200 cells; nmax 1 marches no odd column
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
    machine and the BLAS that NumPy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


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
    return _sha(_reprs(entries), _reprs(verdicts))


def _march(cell):
    alpha, c, nmax = cell
    M = B._start_order(c, nmax)
    parts = []
    for p, parity in enumerate(("even", "odd")):
        tri = B.assemble_eigensystem(alpha, c, M, parity)
        lam = B.eig_symtridiag(tri).values[:(nmax - p + 1) // 2]
        lower = np.concatenate([[0.0], tri.offdiag])
        upper = np.concatenate([tri.offdiag, [0.0]])
        parts += [a.tobytes() for a in B._march(tri.diag, lower, upper, lam)]
    return _sha(*parts)


def entries(tmp):
    """Every golden entry in order, as (name, sha256 hex digest); ``tmp`` is
    an empty directory for the scenario reports."""
    for name in experiments.SCENARIOS:
        _cli("experiment", "--name", name, "--seed", 1, "--threads", 1, "--no-cache",
             "--out-dir", tmp)
        for path in sorted(Path(tmp, name).glob("*/*.csv")):
            yield f"experiment {name}: {path.name}", _sha(path.read_bytes())

    for alpha, c, nmax in CLI_CELLS:
        for command in ("spectrum", "bounds"):
            argv = (command, "--alpha", repr(alpha), "--c", repr(c), "--nmax", nmax,
                    "--format", "csv", "--no-cache")
            yield f"gpswf {' '.join(map(str, argv))}", _sha(_cli(*argv))
    for alpha in (0.5, 1.5):
        for fn in PROJECT_FNS:
            argv = ("project", "--alpha", alpha, "--c", repr(PI5), "--N", 60, "--fn", fn,
                    "--format", "json", "--no-cache")
            yield f"gpswf {' '.join(map(str, argv))}", _sha(_cli(*argv))

    for seed in (1, 2):
        for i, (alpha, c) in enumerate(_sweep_requests(seed)):
            yield f"sweep seed {seed} op {i}: alpha={alpha!r} c={c!r}", _sweep_op(alpha, c)

    bases = {cell: B.build_basis(*cell) for cell in BASIS_CELLS + SPECTRUM_CELLS}
    for cell in BASIS_CELLS:
        b = bases[cell]
        yield (f"build_basis{cell}: basis_to_bytes, psi_n(0), psi_n'(0)",
               _sha(experiments.basis_to_bytes(b), B._psi_at0(b).tobytes()))
    for cell in BASIS_CELLS[:-1]:
        yield f"_march at build_basis{cell}'s start order", _march(cell)
    for cell in UNDERFLOW_CELLS:
        yield f"compute_spectrum{cell} refusal", _sha(_refusal(bases[cell]))

    for cell in SPECTRUM_CELLS:
        b = bases[cell]
        yield f"compute_spectrum{cell}", _sha(_reprs(spectral.compute_spectrum(b)))
        for grid_size in (400, 137):
            yield (f"local_estimate at build_basis{cell}, grid_size {grid_size}",
                   _sha(_reprs(B.local_estimate(b, n, grid_size) for n in range(b.nmax))))
    b = B.build_basis(0.5, 2.0, 24)
    for rows in PERTURBED_ROWS:
        beta = np.array(b.beta)
        for n in rows:
            beta[n, 1] += 0.01
            beta[n] /= np.linalg.norm(beta[n])
        yield (f"compute_spectrum(0.5, 2.0, 24) refusal, rows {rows} perturbed",
               _sha(_refusal(dataclasses.replace(b, beta=beta))))
    yield "decay_bound_check grid", _sha(_reprs(
        spectral.decay_bound_check(n, mu_abs, alpha, 3.7)
        for alpha in (0.0, 0.25, 1.3, 2.5) for n in (1, 3, 9, 40, 200, 5000)
        for mu_abs in (0.0, 1e-300, 1e-5, 0.4)))
    b = bases[0.5, 2.0, 16]
    yield "beta_bound_check grid at build_basis(0.5, 2.0, 16)", _sha(_reprs(
        B.beta_bound_check(b, n, k, mu_abs, c_prime)
        for n in (0, 1, 6, 15, np.int64(9))
        for k in (0, 1, 2, 3, 16, 17, 2 * b.trunc - 2, 2 * b.trunc - 1, 2 * b.trunc,
                  2 * b.trunc + 1, 3 * b.trunc, -1, -2)
        for mu_abs, c_prime in ((1e-3, None), (0.0, 1.0))))

    # the wm-table scenario's CSV pins its errors; these are its coefficients
    for alpha in (0.5, 1.5):
        b = B.build_basis(alpha, PI5, 96)
        for s in (0.25, 1.0):
            yield (f"wm_all_coefficients at build_basis({alpha}, 5 pi, 96), s={s}, "
                   f"lambda=2, N=95"), _sha(approx.wm_all_coefficients(b, s, 2.0, 95))
        yield (f"cosine_transform_table at build_basis({alpha}, 5 pi, 96), "
               f"k_max=4000, N=91"), _sha(approx.cosine_transform_table(b, 4000, 91))
    b = B.build_basis(0.5, PI5, 24)
    for K in (300, None, 1000):
        yield (f"wm_all_coefficients at build_basis(0.5, 5 pi, 24), s=0.5, "
               f"lambda=1.03, N=12, K={K}"), _sha(approx.wm_all_coefficients(
                   b, 0.5, 1.03, 12, K=K))
    b = B.build_basis(1.5, PI5, 91)
    for k_max in (1, 255, 256, 257, 4000):
        yield (f"cosine_transform_table at build_basis(1.5, 5 pi, 91), k_max={k_max}, "
               f"N=91"), _sha(approx.cosine_transform_table(b, k_max, 91))


def moved(old, new):
    """(name, old hash, new hash) of every entry that differs, in the order
    of ``new``, then the entries only ``old`` has; None marks a missing side."""
    out = [(name, old.get(name), h) for name, h in new.items() if old.get(name) != h]
    return out + [(name, h, None) for name, h in old.items() if name not in new]


def load():
    return json.loads(GOLDEN.read_text())


def main():
    with tempfile.TemporaryDirectory() as tmp:
        current = {"environment": environment(), "entries": dict(entries(tmp))}
    recorded = load() if GOLDEN.exists() else {"environment": {}, "entries": {}}
    GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
    changes = [c for key in current for c in moved(recorded[key], current[key])]
    for name, was, now in changes:
        print(f"{name}: {was} -> {now}")
    print(f"{len(current['entries'])} entries, {len(changes)} moved; wrote {GOLDEN}")


if __name__ == "__main__":
    main()
