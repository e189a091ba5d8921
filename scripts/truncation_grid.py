"""How much room the truncation rule's start order leaves, over a grid of cells.

For each (alpha, c, nmax) this builds the basis at the start order
``basis._start_order(c, nmax)`` and reports:

* ``tail``: the largest squared mass of the last ``_TAIL_BUFFER``
  coefficients of any kept eigenvector at the start order (the tail check
  accepts up to ``_TAIL_TOL``);
* ``need``: the smallest per-parity order that passes the tail check, found
  by bisection between ceil(nmax / 2) - 1 and the start
  (:func:`smallest_order`);
* ``past``: need minus ceil(hypot(nmax, c) / 2), the rows past the turning
  degree K* ~ hypot(nmax, c) that the cell needs;
* ``slack``: start minus need, the rows the start keeps beyond it;
* ``spectrum``: whether ``compute_spectrum`` (its probe, lambda and decrease
  checks) accepts the basis at the start order and at the former start
  ceil(hypot(nmax, c) / 2) + 40: ``ok`` (both), ``refused`` (both),
  ``LOST`` (only the former start) or ``gained`` (only the start);
* ``spread`` and ``floor``: the probe check's margin at the start, the worst
  |ratio - mu| / |mu| and the worst kept floor over |mu| of any n, against
  ``spectral._PROBE_TOL`` (1e-8); for a probe refusal, those of the n that
  failed;
* ``refused``: the refusal of a cell whose start order ``build_basis``
  refuses (its tail or interleave check); such a cell has no other column.

Run from the repository root::

    PYTHONPATH=src python scripts/truncation_grid.py            # default grid
    PYTHONPATH=src python scripts/truncation_grid.py --quick    # a few cells
    PYTHONPATH=src python scripts/truncation_grid.py --cell 0 100 50

Exits 1 if any cell is refused at its start, or if any spectrum is LOST.
The default grid takes about four minutes on one core and about 100 MB.
"""

import argparse
import contextlib
import itertools
import json
import math
import re
import sys
import time

from gpswf import basis as B, spectral
from gpswf.errors import ConsistencyError, GpswfError

ALPHAS = (0.0, 0.5, 2.5, 5.0, 10.0, 30.0, 100.0)
CS = (0.5, 3.0, 20.0, 50.0, 100.0, 300.0, 1000.0)
NMAXES = (1, 2, 25, 50, 120, 400, 1130, 2001)
# the first five cells probe the tail check; the rest are cells whose probe
# verdict once turned on the order alone
QUICK = [(0.0, 50.0, 25), (0.0, 100.0, 50), (0.5, 2.0, 1), (2.5, 20 * math.pi, 93),
         (0.5, 1000.0, 1130), (98.3, 5.0, 40), (110.0, 5.0, 20), (89.7, 5.0, 100),
         (118.5, 5.0, 20), (130.0, 5.0, 20), (101.7, 5.0, 40), (105.0, 5.0, 40),
         (90.8, 5.0, 100), (95.0, 5.0, 100), (42.0, 50.0, 4), (8.5, 500.0, 1),
         (30.0, 200.0, 230), (60.0, 20 * math.pi, 93), (30.0, 20 * math.pi, 93)]
_REFUSAL = re.compile(r"spread ([0-9.e+-]+) \(floor ([0-9.e+-]+)\)")


@contextlib.contextmanager
def _only_order(M):
    """``build_basis`` builds at per-parity order M while this is open."""
    saved = B._start_order
    B._start_order = lambda *cell: M
    try:
        yield
    finally:
        B._start_order = saved


def _tail(b):
    """The largest tail mass of any kept eigenvector of basis ``b``."""
    return float((b.beta[:, -B._TAIL_BUFFER:] ** 2).sum(axis=1).max())


def _passes(alpha, c, nmax, M):
    """Whether ``build_basis`` accepts order M: its tail check and the
    interleave check."""
    with _only_order(M):
        try:
            B.build_basis(alpha, c, nmax)
        except ConsistencyError:
            return False
    return True


def smallest_order(alpha, c, nmax):
    """The smallest per-parity order at or below the start order that
    ``build_basis`` accepts, by bisection; each parity block needs
    (nmax + 1) // 2 rows to hold its eigenvalues at all."""
    lo, hi = max((nmax + 1) // 2 - 1, 1), B._start_order(c, nmax)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _passes(alpha, c, nmax, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _spectrum_margin(b):
    """Whether ``compute_spectrum`` accepts basis ``b``, with the probe
    check's worst spread and floor over |mu| (None where another check
    refused it); any refusal counts as refused."""
    try:
        entries = spectral.compute_spectrum(b)
    except GpswfError as exc:
        found = _REFUSAL.search(str(exc))
        return False, *(map(float, found.groups()) if found else (None, None))
    return (True, max(e.probe_spread / e.mu_abs for e in entries),
            max(e.probe_floor for e in entries))


def _spectrum(alpha, c, nmax, b):
    """The ``spectrum``, ``spread`` and ``floor`` columns: compute_spectrum
    at the start (basis ``b``) and at the former start."""
    now, spread, floor = _spectrum_margin(b)
    with _only_order(math.ceil(math.hypot(nmax, c) / 2) + 40):
        try:
            was = _spectrum_margin(B.build_basis(alpha, c, nmax))[0]
        except GpswfError:
            was = False
    verdict = {(True, True): "ok", (False, False): "refused",
               (False, True): "LOST", (True, False): "gained"}[now, was]
    return {"spectrum": verdict, "spread": spread, "floor": floor}


def survey(alpha, c, nmax):
    start = B._start_order(c, nmax)
    row = {"alpha": alpha, "c": c, "nmax": nmax, "start": start, "refused": None}
    try:
        b = B.build_basis(alpha, c, nmax)
    except ConsistencyError as exc:
        return {**row, "refused": str(exc), "tail": None, "need": None, "past": None,
                "slack": None, "spectrum": None, "spread": None, "floor": None}
    need = smallest_order(alpha, c, nmax)
    return {**row, "tail": _tail(b), "need": need,
            "past": need - math.ceil(math.hypot(nmax, c) / 2), "slack": start - need,
            **_spectrum(alpha, c, nmax, b)}


def _dash(value, spec=""):
    return "-" if value is None else format(value, spec)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="nineteen cells only")
    ap.add_argument("--cell", nargs=3, type=float, action="append",
                    metavar=("ALPHA", "C", "NMAX"), help="one cell (repeatable)")
    ap.add_argument("--json", metavar="FILE", help="write every row to FILE")
    args = ap.parse_args(argv)
    if args.cell:
        cells = [(a, c, int(n)) for a, c, n in args.cell]
    elif args.quick:
        cells = QUICK
    else:
        cells = list(itertools.product(ALPHAS, CS, NMAXES))
    rows = []
    t0 = time.perf_counter()
    print(f"{'alpha':>6} {'c':>8} {'nmax':>5} {'start':>5} {'need':>5} {'past':>5} "
          f"{'slack':>5} {'tail at start':>13} {'spectrum':>8} {'spread':>8} {'floor':>8}"
          f"  (probe tolerance {spectral._PROBE_TOL:.0e})")
    for cell in cells:
        row = survey(*cell)
        rows.append(row)
        print(f"{row['alpha']:6g} {row['c']:8.4g} {row['nmax']:5d} {row['start']:5d} "
              f"{_dash(row['need']):>5} {_dash(row['past']):>5} {_dash(row['slack']):>5} "
              f"{_dash(row['tail'], '.1e'):>13} {_dash(row['spectrum']):>8} "
              f"{_dash(row['spread'], '.1e'):>8} {_dash(row['floor'], '.1e'):>8}"
              f"{'  refused at the start: ' + row['refused'] if row['refused'] else ''}",
              flush=True)
    ok = [r for r in rows if not r["refused"]]
    bad = len(rows) - len(ok)
    summary = (f"{len(rows)} cells in {time.perf_counter() - t0:.0f} s; "
               f"{bad} refused at the start")
    if ok:
        worst = max(ok, key=lambda r: r["tail"])
        summary += (f"; largest need past ceil(hypot(nmax, c) / 2): "
                    f"{max(r['past'] for r in ok)} rows; smallest slack "
                    f"{min(r['slack'] for r in ok)}; worst tail {worst['tail']:.1e} at "
                    f"({worst['alpha']:g}, {worst['c']:g}, {worst['nmax']})")
    counts = {k: sum(r["spectrum"] == k for r in rows)
              for k in ("ok", "refused", "LOST", "gained")}
    summary += "; spectrum " + ", ".join(f"{k} {v}" for k, v in counts.items())
    print(summary)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)
    return 1 if bad or counts["LOST"] else 0


if __name__ == "__main__":
    sys.exit(main())
