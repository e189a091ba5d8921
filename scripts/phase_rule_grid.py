"""How the phase check's Gauss rule of ceil(c/2) + 32 nodes compares with the
former rule of 80 + int(c) nodes, over a grid of cells.

``spectral._check_phase`` compares four direct quadratures
int e^{i c x0 y} Jt_k(y) w_a(y) dy (k = 0, 1; x0 = 0.37, 0.61) with their
closed forms.  For each (alpha, c) this computes the four quadratures with
both rules and reports:

* ``new`` and ``former``: the node counts of the two rules;
* ``diff``: the worst difference of the two rules' values on the check's
  scale, |new - former| / max(1, |former|), over the four values (at
  large alpha and c the values fall to 1e-9 and below, 2e-16 at
  (100, 200), where a difference relative to the value itself reads only
  the rules' rounding);
* ``gap new`` and ``gap former``: the worst gap of each rule's values to the
  closed form, |quadrature - closed| / max(1, |quadrature|), the measure
  the check holds to 1e-8; ``refused`` where the closed form itself raises
  DomainError, so the check refuses the cell at both sizes.

Run from the repository root::

    PYTHONPATH=src python scripts/phase_rule_grid.py            # default grid
    PYTHONPATH=src python scripts/phase_rule_grid.py --cell 0.5 1000

Exits 1 if any difference passes 1e-13.  The default grid builds the former
rule at up to 2080 nodes; it takes about 5 s on one core and peaks near
120 MB resident.
"""

import argparse
import itertools
import math
import sys
import time

import numpy as np

from gpswf import spectral
from gpswf.errors import DomainError

ALPHAS = (0.0, 0.5, 2.5, 5.0, 30.0, 100.0)
CS = (1e-3, 0.5, math.pi, 10.0, 20 * math.pi, 200.0, 1000.0, 2000.0)
TOL = 1e-13


def former_order(c):
    """The node count of the phase check's rule before ceil(c/2) + 32."""
    return 80 + int(c)


def survey(alpha, c):
    """One row of the table at cell (alpha, c)."""
    new_m, old_m = spectral._phase_rule_order(c), former_order(c)
    new = spectral._phase_quadratures(alpha, c, new_m)
    old = spectral._phase_quadratures(alpha, c, old_m)
    diff = float(np.max(np.abs(new - old) / np.maximum(1.0, np.abs(old))))
    try:
        closed = np.array(spectral._phase_closed_forms(alpha, c))
    except DomainError:
        gaps = (None, None)
    else:
        gaps = tuple(float(np.max(np.abs(q - closed) / np.maximum(1.0, np.abs(q))))
                     for q in (new, old))
    return {"alpha": alpha, "c": c, "new": new_m, "former": old_m, "diff": diff,
            "gap_new": gaps[0], "gap_former": gaps[1]}


def _gap(g):
    return "refused" if g is None else f"{g:.1e}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cell", nargs=2, type=float, action="append",
                    metavar=("ALPHA", "C"), help="one cell (repeatable)")
    args = ap.parse_args(argv)
    cells = args.cell or list(itertools.product(ALPHAS, CS))
    t0 = time.perf_counter()
    print(f"{'alpha':>6} {'c':>9} {'new':>5} {'former':>6} {'diff':>8} "
          f"{'gap new':>8} {'gap former':>10}")
    rows = []
    for alpha, c in cells:
        row = survey(alpha, c)
        rows.append(row)
        print(f"{alpha:6g} {c:9.4g} {row['new']:5d} {row['former']:6d} "
              f"{row['diff']:8.1e} {_gap(row['gap_new']):>8} "
              f"{_gap(row['gap_former']):>10}", flush=True)
    worst = max(rows, key=lambda r: r["diff"])
    bad = sum(r["diff"] > TOL for r in rows)
    refused = sum(r["gap_new"] is None for r in rows)
    print(f"{len(rows)} cells in {time.perf_counter() - t0:.0f} s; worst difference "
          f"{worst['diff']:.1e} at ({worst['alpha']:g}, {worst['c']:.4g}); "
          f"{bad} past {TOL:g}; {refused} refused at both sizes")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
