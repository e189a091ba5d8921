"""gpswf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,projection,scenarios} \
        --seed N --seconds S --trace {0,1} [--out FILE]

Prints a report (every metric with its unit and sample count) and, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 its per_layer list.  See perfbench/README.md.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"      # span files of traced runs

# set-ups per run, their median is setup_s (the short sweep set-up is noisier)
SETUP_REPEATS = {"sweep": 5, "projection": 3, "scenarios": 3}
TIME_LIMIT_S = 170.0               # whole run, children included
# --seconds sets a fixed amount of work: one round per this many seconds.  At
# reference speed (see speed.py) a sweep round takes about 12 s, a projection
# round 0.37 s and a scenarios cycle 5 s.  Sweep does more than --seconds would
# hold, as one round of 7 random requests does not repeat well across seeds;
# projection and scenarios do less, so that a run of any workload stays under
# a minute of wall time on a machine at 0.6 of reference speed.  The work does
# not depend on the speed of the machine or of the code under test, so two
# commits run the same requests and a traced run's counts repeat exactly.
SECONDS_PER_ROUND = {"sweep": 7.5, "projection": 0.75, "scenarios": 7.0}
PARENT_SAMPLE_REPS = 9             # longer speed samples around child processes
ENTRY = {"sweep": "bench.op", "projection": "bench.op", "scenarios": "cli.main"}
# Layers each workload must enter (setup included); a traced run in which one
# of them records no call fails.
EXPECTED = {
    "sweep": ("eigensolver.eig_symtridiag", "backend.tridiag_eig",
              "backend.bessel_ladder", "specfun.bessel_j_ladder",
              "backend.jacobi_series", "basis.GpswfBasis.psi",
              "specfun.jacobi_table", "specfun.gauss_jacobi", "basis.build_basis",
              "basis.assemble_eigensystem", "basis.local_estimate",
              "spectral.compute_spectrum"),
    "projection": ("backend.bessel_ladder", "specfun.bessel_j_ladder",
                   "specfun.bessel_j", "specfun.jacobi_table",
                   "basis.GpswfBasis.psi_table", "specfun.gauss_jacobi",
                   "approx.cosine_series_norm2", "approx.target_eval",
                   "approx.wm_projection_error", "approx.periodic_coefficient",
                   "approx.project", "approx.cosine_transform_table"),
    "scenarios": ("eigensolver.eig_symtridiag", "backend.tridiag_eig",
                  "backend.bessel_ladder", "specfun.bessel_j_ladder",
                  "specfun.bessel_j", "backend.jacobi_series", "basis.GpswfBasis.psi",
                  "specfun.jacobi_table", "basis.GpswfBasis.psi_table",
                  "basis.build_basis", "spectral.compute_spectrum",
                  "approx.cosine_series_norm2", "approx.target_eval",
                  "approx.wm_projection_error", "approx.cosine_transform_table",
                  "experiments.cache_get", "experiments.cache_put", "cli.main"),
}
WORKLOADS = tuple(EXPECTED)


class BenchError(Exception):
    """The benchmark could not measure (not an output-check failure)."""


@dataclass
class Child:
    code: int
    start: float
    end: float
    rss_mb: float

    @property
    def wall(self):
        return self.end - self.start


class Run:
    """One benchmark run: spawns children, collects metrics and failures."""

    def __init__(self, workload, seed, seconds, tmp):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.rounds = max(1, round(seconds / SECONDS_PER_ROUND[workload]))
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.report = []       # (name, value, unit, samples)
        self.failures = []     # output-check failures of timed ops
        self.setup_failures = []
        self.attempted = 0
        self.layers = {}
        self.calib = []        # speed samples taken here, around every child

    def metric(self, name, value, unit, samples):
        self.report.append((name, value, unit, samples))

    def spawn(self, argv, env=None):
        self.calib.append(speed.sample(PARENT_SAMPLE_REPS))
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *map(str, argv)],
                                cwd=ROOT, env=env or self.env,
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak RSS
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
        self.calib.append(speed.sample(PARENT_SAMPLE_REPS))
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0)

    def timings(self, name, values, unit, scale=1.0):
        """Report the speed-scaled statistic and, as raw.<name>, the wall one;
        ``values`` are (raw, scaled) pairs."""
        n = len(values)
        for prefix, pick in (("", 1), ("raw.", 0)):
            self.metric(prefix + name, scale * statistics.median(v[pick] for v in values),
                        unit, n)

    def op_metrics(self, ops, calib, per_round, kind_metric=("op_p50_ms", 1e3, "ms")):
        """ops: (start, end, kind, round) of every timed op; ``calib`` holds
        the speed samples taken around them.  Per kind, the median latency is
        reported as ``<kind>.<kind_metric name>``."""
        lat = [((e - s), (e - s) * speed.scale(calib, s, e)) for s, e, _, _ in ops]
        rounds = defaultdict(lambda: [0.0, 0.0])
        for (*_, r), (raw, scaled) in zip(ops, lat):
            rounds[r][0] += raw
            rounds[r][1] += scaled
        for prefix, pick in (("", 1), ("raw.", 0)):
            self.metric(prefix + "ops_per_s",
                        per_round / statistics.median(v[pick] for v in rounds.values()),
                        "ops/s", len(ops))
        self.timings("op_p50_ms", lat, "ms", 1e3)
        if len(lat) >= 100:
            p90 = statistics.quantiles([v[1] for v in lat], n=10)[-1]
            self.metric("op_p90_ms", 1e3 * p90, "ms", len(lat))
        name, factor, unit = kind_metric
        for kind in dict.fromkeys(k for _, _, k, _ in ops):
            sub = [v for (_, _, k, _), v in zip(ops, lat) if k == kind]
            self.timings(f"{kind.replace('-', '_')}.{name}", sub, unit, factor)
        self.metric("rounds", len(rounds), "count", 1)

    # -- in-process workloads (sweep, projection) ---------------------------

    def inproc_child(self, tag, setup_only=False, spans=None):
        result = self.tmp / f"{tag}.json"
        argv = ["inproc", self.workload, self.seed, self.rounds, result]
        argv += ["--setup-only"] if setup_only else []
        argv += ["--spans", spans] if spans else []
        child = self.spawn(argv)
        if child.code != 0:
            raise BenchError(f"{self.workload} child exited with {child.code}")
        res = json.loads(result.read_text())
        # set-up runs from spawn to ready, between the parent's speed sample
        # before the spawn and the child's right after ready
        raw = res["ready"] - child.start
        res["setup"] = (raw, raw * speed.REF_S / (0.5 * (self.calib[-2][1]
                                                         + res["calib_ready"])))
        if not setup_only:
            self.attempted += len(res["ops"])
            self.failures += res["failures"]
        return child, res

    def inproc(self):
        from workloads import ROUND_SIZE

        setups = [self.inproc_child(f"setup{i}", setup_only=True)[1]["setup"]
                  for i in range(SETUP_REPEATS[self.workload] - 1)]
        child, res = self.inproc_child("timed")
        setups.append(res["setup"])
        self.op_metrics(res["ops"], res["calib"], ROUND_SIZE[self.workload])
        self.timings("setup_s", setups, "s")
        self.metric("peak_rss_mb", child.rss_mb, "MB", 1)
        self.metric("machine_speed", statistics.median(
            speed.REF_S / k for _, k in res["calib"]), "ratio", len(res["calib"]))

    def inproc_traced(self, spans):
        from tracing import load_spans

        _, plain = self.inproc_child("plain")
        _, traced = self.inproc_child("traced", spans=spans)
        names, cols = load_spans(spans)
        self.trace_metrics(names, cols)
        self.layers["trace.slowdown"] = (
            sum((e - s) * speed.scale(traced["calib"], s, e) for s, e, *_ in traced["ops"])
            / sum((e - s) * speed.scale(plain["calib"], s, e) for s, e, *_ in plain["ops"]))

    # -- scenarios: fresh CLI processes -------------------------------------

    def scenario(self, name, out_dir, cache, spans=None):
        argv = ["cli"] + (["--spans", spans] if spans else [])
        argv += ["--", "experiment", "--name", name, "--out-dir", out_dir,
                 "--cache-dir", cache, "--threads", "1", "--seed", self.seed]
        # the cache directory also goes in the environment (see README)
        return self.spawn(argv, dict(self.env, GPSWF_CACHE_DIR=str(cache)))

    def scaled(self, child):
        return child.wall, child.wall * speed.scale(self.calib, child.start, child.end)

    def scenario_setup(self, repeats, traced=False):
        """Run every scenario against an empty cache, ``repeats`` times.
        Returns ((raw, scaled) set-up times, cache dir, reference CSVs,
        children)."""
        from workloads import SCENARIO_BASES, SCENARIOS, scenario_check

        times, reference, children = [], {}, []
        for rep in range(repeats):
            cache = self.tmp / f"cache{rep}"
            runs = []
            for name in SCENARIOS:
                out = self.tmp / f"setup{rep}-{name}"
                spans = self.tmp / f"{out.name}.npz" if traced else None
                runs.append((name, out, spans, self.scenario(name, out, cache, spans)))
            walls = [self.scaled(child) for *_, child in runs]
            times.append((sum(w[0] for w in walls), sum(w[1] for w in walls)))
            children += runs
            for name, out, _, child in runs:
                files = read_csvs(out)
                if rep == 0:
                    reference[name] = files
                self.setup_failures += scenario_check(name, child.code, files,
                                                      reference[name])
            entries = len(list(cache.glob("*.gpswf")))
            if entries != SCENARIO_BASES:
                self.setup_failures.append(
                    f"setup wrote {entries} cache entries, expected {SCENARIO_BASES}")
        return times, cache, reference, children

    def scenario_loop(self, cache, reference, tag, traced=False):
        """``self.rounds`` cycles of the three scenarios; outputs are checked
        after the loop."""
        from workloads import SCENARIOS, scenario_check

        runs = []
        for _ in range(self.rounds):
            for name in SCENARIOS:
                out = self.tmp / f"{tag}{len(runs)}-{name}"
                spans = self.tmp / f"{out.name}.npz" if traced else None
                runs.append((name, out, spans, self.scenario(name, out, cache, spans)))
        self.attempted += len(runs)
        for i, (name, out, _, child) in enumerate(runs):
            msgs = scenario_check(name, child.code, read_csvs(out), reference[name])
            self.failures += [f"op {i}: {m}" for m in msgs[:1]]
        return runs

    def scenarios(self):
        from workloads import SCENARIOS

        setups, cache, reference, _ = self.scenario_setup(SETUP_REPEATS["scenarios"])
        runs = self.scenario_loop(cache, reference, "op")
        k = len(SCENARIOS)
        ops = [(c.start, c.end, name, i // k) for i, (name, *_, c) in enumerate(runs)]
        self.op_metrics(ops, self.calib, k, kind_metric=("s", 1.0, "s"))
        self.timings("setup_s", setups, "s")
        self.metric("peak_rss_mb", max(c.rss_mb for *_, c in runs), "MB", len(runs))
        self.metric("machine_speed", statistics.median(
            speed.REF_S / k for _, k in self.calib), "ratio", len(self.calib))

    def scenarios_traced(self, spans):
        from tracing import load_spans, merge_spans, save_spans

        _, cache, reference, setup_runs = self.scenario_setup(1, traced=True)
        plain = self.scenario_loop(cache, reference, "plain")
        traced = self.scenario_loop(cache, reference, "traced", traced=True)
        parts, startup = [], 0.0
        for op_id, (_, _, path, child) in enumerate(setup_runs + traced):
            names, cols = load_spans(path)
            cols["op"][:] = op_id - len(setup_runs)   # setup children get ops < 0
            if op_id >= len(setup_runs):
                root = (cols["parent"] < 0) & (cols["name"] == names.index("cli.main"))
                startup += child.wall - float((cols["end"] - cols["start"])[root].sum())
            parts.append((names, cols))
        names, cols = merge_spans(parts)
        save_spans(spans, names, cols)
        self.trace_metrics(names, cols)
        files = [f for _, out, _, _ in setup_runs + traced for f in out.rglob("*") if f.is_file()]
        self.layers.update({
            "cli.startup_s": startup,
            "cli.main.exit_nonzero": sum(c.code != 0 for *_, c in setup_runs + traced),
            "experiments.report.files": len(files),
            "experiments.report.bytes": float(sum(f.stat().st_size for f in files)),
            "trace.slowdown": (sum(self.scaled(c)[1] for *_, c in traced)
                               / sum(self.scaled(c)[1] for *_, c in plain)),
        })

    # -- traced runs ---------------------------------------------------------

    def trace_metrics(self, names, cols):
        from tracing import layer_metrics

        self.layers = layer_metrics(names, cols, ENTRY[self.workload])
        self.ops_layers = layer_metrics(names, cols, ENTRY[self.workload],
                                        rows=cols["op"] >= 0)
        for layer in EXPECTED[self.workload]:
            if self.layers.get(f"{layer}.calls", 0) == 0:
                self.setup_failures.append(f"trace: layer {layer} recorded no call")


def read_csvs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).rglob("*.csv"))}


def provenance(args):
    sys.path.insert(0, str(SRC))
    import gpswf
    import numpy

    gpswf_file = Path(gpswf.__file__).resolve()
    if SRC.resolve() not in gpswf_file.parents:
        raise BenchError(f"gpswf imported from {gpswf_file}, not from {SRC}")
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"backend": gpswf.backend_name(), "gpswf_file": str(gpswf_file),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def format_layers(full, ops):
    lines = [f"  {'layer metric':<44} {'run total':>14} {'timed ops':>14}"]
    for key in sorted(full):
        if full[key] or ops.get(key):
            in_ops = f"{ops[key]:>14.6g}" if key in ops else f"{'-':>14}"
            lines.append(f"  {key:<44} {full[key]:>14.6g} {in_ops}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "gpswf" / "__init__.py").is_file():
        print(f"error: no gpswf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        prov = provenance(args)
        run = Run(args.workload, args.seed, args.seconds, tmp)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            if args.workload == "scenarios":
                run.scenarios_traced(spans)
            else:
                run.inproc_traced(spans)
            wanted = spec["per_layer"]
        else:
            run.scenarios() if args.workload == "scenarios" else run.inproc()
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(run.failures)
    correct = failed == 0 and not run.setup_failures
    print(f"gpswf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, value, unit, samples in run.report:
        print(f"  {name:<24} {value:>14.6g} {unit:<6} (n={samples})")
    print(f"  {'error_rate':<24} {failed / max(run.attempted, 1):>14.6g} "
          f"{'fraction':<6} ({failed}/{run.attempted} ops)")
    if args.trace:
        print("per-layer (traced run; s = inclusive seconds, self_s = exclusive):")
        print("\n".join(format_layers(run.layers, run.ops_layers)))
    for msg in (run.setup_failures + run.failures)[:10]:
        print(f"FAILED: {msg}")
    values = {name: value for name, value, _, _ in run.report}
    values.update(run.layers)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": correct, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"provenance": prov, "result": result, "all_metrics": values,
             "failures": run.setup_failures + run.failures}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
