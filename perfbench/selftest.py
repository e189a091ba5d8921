"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one real op of every kind, shows that its check passes, then feeds each
check perturbed copies of that output and shows that every one fails.  Exits
nonzero if a check accepts a perturbed output or rejects a real one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import dataclasses  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

problems = []


def expect(label, msgs, should_fail):
    ok = bool(msgs) == should_fail
    print(f"{'ok  ' if ok else 'BAD '} {'rejects' if should_fail else 'accepts'} "
          f"{label}" + (f": {msgs[0]}" if msgs else ""))
    if not ok:
        problems.append(label)


def replace_at(seq, i, **changes):
    out = list(seq)
    out[i] = dataclasses.replace(out[i], **changes)
    return out


def sweep():
    req = {"kind": "bounds", "alpha": 0.0, "c": math.pi}
    out = W.sweep_op(None, req)
    expect("sweep: real output", W.sweep_check(None, req, out), False)
    entries, verdicts = out["entries"], out["verdicts"]
    last = len(entries) - 1
    _, chi_v, est = verdicts[last]
    decay_n = next(i for i, e in enumerate(entries) if e.bound.applicable)
    cases = {
        "chi outside its bracket": dict(entries=replace_at(
            entries, 3, chi=verdicts[3][0][1] + 1.0)),
        "improved lower bound violated": dict(verdicts=verdicts[:last] + [(
            verdicts[last][0], dataclasses.replace(chi_v, applicable=True,
                                                   margin_lower=-1.0), est)]),
        "decay bound violated": dict(entries=replace_at(entries, decay_n, bound=(
            dataclasses.replace(entries[decay_n].bound, margin_lambda=-0.1)))),
        "local estimate violated": dict(verdicts=verdicts[:last] + [(
            verdicts[last][0], chi_v, dataclasses.replace(
                est, bound_applicable=True, sup_value=est.a_squared + 1e-6))]),
        "lambda sum off the kernel trace": dict(entries=replace_at(
            entries, 0, lam=entries[0].lam * 1.001)),
        "chi off the dense oracle": dict(basis=dataclasses.replace(
            out["basis"], chi=np.asarray(out["basis"].chi) * (1 + 1e-8))),
    }
    for label, change in cases.items():
        expect(f"sweep: {label}", W.sweep_check(None, req, {**out, **change}), True)


def projection():
    state = W.projection_setup()
    reqs = {
        "brownian": {"kind": "brownian", "basis": 0, "s": 1.5, "seed": 7},
        "wm": {"kind": "wm", "basis": 1, "s": 0.5},
        "periodic": {"kind": "periodic", "basis": 0, "k": 64},
        "quadrature wm": {"kind": "quadrature", "basis": 1, "fn": "wm", "s": 1.0, "k": 1},
        "quadrature periodic": {"kind": "quadrature", "basis": 0, "fn": "periodic",
                                "s": 1.0, "k": 3},
        "quadrature |x|": {"kind": "quadrature", "basis": 1, "fn": "abs", "s": 1.0, "k": 1},
    }
    outs = {label: W.projection_op(state, req) for label, req in reqs.items()}
    for label, req in reqs.items():
        expect(f"projection {label}: real output",
               W.projection_check(state, req, outs[label]), False)

    def perturbed_coefficients(label, n, delta):
        pr = outs[label]
        coeffs = np.array(pr.coefficients)
        coeffs[n] += delta * (abs(coeffs[n]) if label == "quadrature wm" else 1.0)
        return dataclasses.replace(pr, coefficients=coeffs)

    brown = outs["brownian"]
    periodic = outs["periodic"].copy()
    periodic[17] += 1e-9
    cases = [
        ("brownian", "error not decreasing", {46: brown[90], 90: brown[46]}),
        ("brownian", "non-finite sup error", {**brown, 90: (math.nan, brown[90][1])}),
        ("wm", "error 4x the reference", outs["wm"] * 4.0),
        ("wm", "error a quarter of the reference", outs["wm"] / 4.0),
        ("periodic", "coefficient off by 1e-9", periodic),
        ("quadrature wm", "coefficient off by 1e-7 relative",
         perturbed_coefficients("quadrature wm", 9, 1e-7)),
        ("quadrature periodic", "coefficient off by 1e-9",
         perturbed_coefficients("quadrature periodic", 4, 1e-9)),
        ("quadrature |x|", "odd coefficient 1e-10",
         perturbed_coefficients("quadrature |x|", 5, 1e-10)),
        ("quadrature |x|", "non-finite L2 error",
         dataclasses.replace(outs["quadrature |x|"], l2w_error=math.inf)),
    ]
    for label, what, bad in cases:
        expect(f"projection {label}: {what}",
               W.projection_check(state, reqs[label], copy.copy(bad)), True)


def scenarios():
    ref = {"lambda_decay_alpha1_c15.7.csv": b"n,chi\n0,1.5\n"}
    wm_ref = {"wm_table.csv": b"alpha,s,computed_error,reference_error,ratio\n"
                              b"0.1,0.25,1e-4,1.2e-4,0.83\n"}
    wm_bad = {"wm_table.csv": wm_ref["wm_table.csv"].replace(b"0.83", b"2.5")}
    expect("scenarios: real output", W.scenario_check("lambda-decay", 0, ref, ref), False)
    expect("scenarios: wm-table real output",
           W.scenario_check("wm-table", 0, wm_ref, wm_ref), False)
    cases = [
        ("nonzero exit code", "lambda-decay", 2, ref, ref),
        ("CSV bytes differ", "lambda-decay", 0,
         {k: v.replace(b"1.5", b"1.6") for k, v in ref.items()}, ref),
        ("CSV missing", "lambda-decay", 0, {}, ref),
        ("wm-table ratio outside [0.5, 2]", "wm-table", 0, wm_bad, wm_bad),
    ]
    for label, name, code, files, reference in cases:
        expect(f"scenarios: {label}", W.scenario_check(name, code, files, reference), True)


if __name__ == "__main__":
    sweep()
    projection()
    scenarios()
    print(f"{len(problems)} problem(s)" + (f": {problems}" if problems else ""))
    sys.exit(1 if problems else 0)
