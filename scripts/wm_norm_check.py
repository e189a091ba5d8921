"""The exact wm norm against the pair loop, bit for bit, with its time and peak.

For each cell (alpha, s, lambda, K) this empties the norm's memo and pair
table and reports:

* ``norm2``: ``approx.wm_l2_norm_squared`` as a hex double;
* ``match``: whether it is bitwise the pair loop of
  ``tests/oracles.py::wm_l2_norm_squared`` (one add per pair in row order,
  each row's transforms computed afresh, not read from the pair table);
* ``seconds``: the norm from empty tables, untraced;
* ``peak``: the tracemalloc peak of a second run from empty tables, against
  ``bound``: the table's 8 K^2 bytes plus one block of at most
  ``_EVAL_BLOCK^2 / 4`` pairs at 256 bytes per transform argument, two per
  pair.

A K past the cap (8 K^2 bytes above ``approx._WM_TABLE_BYTES``) must be
refused with DomainError before any transform is computed; such a cell
reports its refusal.

Run from the repository root::

    PYTHONPATH=src python scripts/wm_norm_check.py            # default cells
    PYTHONPATH=src python scripts/wm_norm_check.py --quick    # K <= 300
    PYTHONPATH=src python scripts/wm_norm_check.py --cell 0.5 0.5 1.0001 1000

Exits 1 on a mismatch, a peak above its bound, or a cell past the cap that
is not refused.  The default cells take about 25 seconds on one core, most
of it the pair-loop oracle and the cap's traced run, and about 100 MB.
"""

import argparse
import math
import sys
import time
import tracemalloc
from pathlib import Path

from gpswf import approx
from gpswf.errors import DomainError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402

# the largest K the cap admits, 2896 at 64 MiB
CAP = math.isqrt(approx._WM_TABLE_BYTES // 8)
# (alpha, s, lambda, K): the wm-table scenario's largest K, the cells the
# tests compare bitwise, K 2000 and the cap, and the first K past it
QUICK = [(0.5, 1.0, 2.0, 41), (0.5, 1.0, 1.3, 12), (0.5, 0.5, 1.0001, 300),
         (0.5, 0.5, 1.0001, CAP + 1)]
DEFAULT = QUICK[:3] + [(0.5, 0.5, 1.03, 694), (0.5, 0.5, 1.0001, 2000),
                       (0.5, 0.5, 1.0001, CAP), (0.5, 0.5, 1.0001, CAP + 1)]
BLOCK_BYTES = 2 * 256 * (approx._EVAL_BLOCK ** 2 // 4)


def _clear():
    approx._wm_l2_norm_squared.cache_clear()
    approx._wm_pair_products.cache_clear()


def _no_transforms(*args):
    raise AssertionError("computed a transform")


def check(alpha, s, lam, K):
    """One cell's row: its values, or its refusal past the cap."""
    row = {"alpha": alpha, "s": s, "lambda": lam, "K": K, "refused": None}
    if 8 * K * K > approx._WM_TABLE_BYTES:
        saved, approx._cos_transforms = approx._cos_transforms, _no_transforms
        try:
            approx.wm_l2_norm_squared(alpha, s, lam, K)
        except DomainError as exc:
            row["refused"] = str(exc)
        finally:
            approx._cos_transforms = saved
        row["ok"] = row["refused"] is not None
        return row
    _clear()
    t0 = time.perf_counter()
    got = approx.wm_l2_norm_squared(alpha, s, lam, K)
    row["seconds"] = time.perf_counter() - t0
    _clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        approx.wm_l2_norm_squared(alpha, s, lam, K)
        row["peak"] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    _clear()
    row["bound"] = 8 * K * K + BLOCK_BYTES
    row["norm2"] = got.hex()
    row["match"] = got.hex() == float(oracles.wm_l2_norm_squared(alpha, s, lam, K)).hex()
    row["ok"] = row["match"] and row["peak"] <= row["bound"]
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="the cells with K <= 300 "
                    "and the refusal past the cap")
    ap.add_argument("--cell", nargs=4, type=float, action="append",
                    metavar=("ALPHA", "S", "LAMBDA", "K"), help="one cell (repeatable)")
    args = ap.parse_args(argv)
    if args.cell:
        cells = [(a, s, lam, int(K)) for a, s, lam, K in args.cell]
    else:
        cells = QUICK if args.quick else DEFAULT
    print(f"{'alpha':>5} {'s':>4} {'lambda':>7} {'K':>5} {'norm2':>24} {'match':>5} "
          f"{'seconds':>8} {'peak MB':>8} {'bound MB':>8}")
    t0 = time.perf_counter()
    bad = 0
    for cell in cells:
        row = check(*cell)
        bad += not row["ok"]
        head = f"{row['alpha']:5g} {row['s']:4g} {row['lambda']:7g} {row['K']:5d}"
        if "match" not in row:
            print(f"{head} refused: {row['refused']}", flush=True)
            continue
        print(f"{head} {row['norm2']:>24} {'yes' if row['match'] else 'NO':>5} "
              f"{row['seconds']:8.3f} {row['peak'] / 1e6:8.1f} {row['bound'] / 1e6:8.1f}",
              flush=True)
    print(f"{len(cells)} cells in {time.perf_counter() - t0:.0f} s; {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
