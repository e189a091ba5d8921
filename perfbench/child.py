"""Child processes of the benchmark.

    child.py inproc WORKLOAD SEED ROUNDS RESULT [--setup-only] [--spans F]
        set up an in-process workload, run ROUNDS rounds of seeded requests,
        check every output and write a JSON result.
    child.py cli [--spans F] -- ARGV...
        call gpswf.cli.main(ARGV) in this fresh interpreter and exit with
        its return code.

With ``--spans`` the library is traced and the spans are written to F.
The parent sets the BLAS thread variables and PYTHONPATH before starting us.
"""

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import speed  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_inproc(args):
    import numpy as np

    import workloads

    setup, next_round, op, check = workloads.IN_PROCESS[args.workload]
    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
    state = setup()
    ready = time.perf_counter()
    result = {"ready": ready, "calib_ready": speed.sample()[1]}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return
    rng = np.random.default_rng(args.seed)
    done, ops, calib = [], [], [speed.sample()]
    for r in range(args.rounds):
        for req in next_round(rng):
            if time.perf_counter() - calib[-1][0] >= speed.CALIB_EVERY_S:
                calib.append(speed.sample())
            if tracer:
                tracer.op_id = len(done)
                span = tracer.open("bench.op")
            start = time.perf_counter()
            try:
                out = op(state, req)
            except Exception:  # the op failed; counted and reported below
                out = traceback.format_exc(limit=3)
            ops.append((start, time.perf_counter(), req["kind"], r))
            if tracer:
                tracer.close(span)
            done.append((req, out))
    calib.append(speed.sample())
    result.update(ops=ops, calib=calib)
    if tracer:
        tracer.restore()
        tracer.save(args.spans)
    failures = []
    for i, (req, out) in enumerate(done):
        try:
            msgs = [out] if isinstance(out, str) else check(state, req, out)
        except Exception:  # a check that cannot run counts as failed
            msgs = [traceback.format_exc(limit=3)]
        failures += [f"op {i} {req}: {m}" for m in msgs[:1]]
    result["failures"] = failures
    Path(args.result).write_text(json.dumps(result))


def run_cli(args):
    import gpswf.cli

    tracer = Tracer() if args.spans else None
    if tracer:
        tracer.install()
        tracer.op_id = 0
    try:
        code = gpswf.cli.main(args.argv)
    finally:
        if tracer:
            tracer.restore()
            tracer.save(args.spans)
    return code


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("inproc")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("rounds", type=int)
    p.add_argument("result")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans")
    p = sub.add_parser("cli")
    p.add_argument("--spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "inproc":
        run_inproc(args)
        return 0
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
