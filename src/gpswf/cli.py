"""Command-line interface.

Exit codes: 0 success, 1 invalid parameters or configuration,
2 internal numerical-consistency failure.
"""

import argparse
import json
import sys

from . import __version__, approx, basis as basis_mod, experiments, spectral
from .errors import ConsistencyError, DomainError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract reserves 2
    # for numerical-consistency failures, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_format(p):
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")


def _add_cache(p):
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")


def _add_basis_params(p, nmax=True):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    if nmax:
        p.add_argument("--nmax", type=int, required=True)
    _add_format(p)
    _add_cache(p)


def build_parser():
    """Each subcommand takes only the flags it reads."""
    parser = _Parser(prog="gpswf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    p = sub.add_parser("basis",
                       help="eigenvalue table or basis file for (alpha, c)")
    _add_basis_params(p)
    p.add_argument("--out", default=None, help="write a binary basis container")

    p = sub.add_parser("spectrum",
                       help="adds mu/lambda columns to the basis table")
    _add_basis_params(p)

    text = ("verdicts of the chi bracket, the improved lower bound, the "
            "decay bounds and the local estimate")
    p = sub.add_parser("bounds", help=text, description=text)
    _add_basis_params(p)
    p.add_argument("--grid-size", type=int, default=400)

    p = sub.add_parser("project",
                       help="project a corpus function onto the basis")
    _add_basis_params(p, nmax=False)
    p.add_argument("--fn", required=True,
                   help="corpus spec, e.g. brownian:s=1.5,seed=7 | "
                        "wm:s=1,lambda=2 | periodic:k=3")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--quad-order", type=int, default=None)
    p.add_argument("--seed", type=int, default=1234,
                   help="brownian seed when --fn names none")

    p = sub.add_parser("experiment",
                       help="run a registered scenario")
    p.add_argument("--name", required=True, choices=tuple(experiments.SCENARIOS))
    p.add_argument("--config", default=None,
                   help="JSON config file; flags given here override its values")
    p.add_argument("--out-dir", default=None, help="report root (default: reports)")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, help="worker threads (0 = auto)")
    _add_cache(p)
    # a flag left unset keeps the config file's (or the scenario's) value
    p.set_defaults(no_cache=None)

    p = sub.add_parser("cache", help="cache maintenance")
    p.add_argument("action", choices=("ls", "clear"))
    p.add_argument("--cache-dir", default=None)
    _add_format(p)
    return parser


def _parse_fn_spec(spec):
    """``kind:key=value,...`` as a record of strings; the keys and values are
    checked by :func:`approx.target_from_config`."""
    kind, _, rest = spec.partition(":")
    cfg = {"kind": kind.strip()}
    for item in rest.split(",") if rest else ():
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq or not key or key in cfg:
            raise DomainError(f"--fn item {item!r} is not key=value with a new key")
        cfg[key] = value
    return cfg


def _emit(rows, header, fmt):
    """Print the rows as JSON, CSV or a table; a cell that formats a
    non-finite number raises ConsistencyError, and nothing is printed."""
    if fmt == "json":
        text = json.dumps([dict(zip(header, r)) for r in rows], indent=2)
    elif fmt == "csv":
        text = "\n".join(",".join(str(v) for v in r) for r in [header, *rows])
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        text = "\n".join("  ".join(str(v).ljust(w) for v, w in zip(r, widths))
                         for r in [header, *rows])
    experiments._check_finite(header, rows, text, "the output")
    print(text)


def _get_basis(args):
    return experiments.get_basis(args.alpha, args.c, args.nmax,
                                 cache_dir=args.cache_dir,
                                 use_cache=not args.no_cache)


def _cmd_basis(args):
    b = _get_basis(args)
    if args.out:
        experiments.save_basis(b, args.out)
        print(f"wrote {args.out} (alpha={b.alpha:g}, c={b.c:g}, M={b.trunc}, "
              f"nmax={b.nmax})")
        return 0
    rows = []
    for n in range(b.nmax):
        lo, hi = basis_mod.chi_bracket(b.alpha, b.c, n)
        ok = lo <= b.chi[n] <= hi
        rows.append([n, f"{b.chi[n]:.12e}", f"{lo:.6e}", f"{hi:.6e}",
                     "ok" if ok else "VIOLATED"])
    _emit(rows, ["n", "chi", "lower", "upper", "bracket"], args.format)
    return 0


def _cmd_spectrum(args):
    b = _get_basis(args)
    entries = spectral.compute_spectrum(b)
    rows = []
    for e in entries:
        rows.append([e.n, f"{e.chi:.12e}", f"{e.mu_abs:.12e}",
                     f"{e.mu_phase.real:+.3f}{e.mu_phase.imag:+.3f}j",
                     f"{e.lam:.12e}"])
    _emit(rows, ["n", "chi", "mu_abs", "mu_phase", "lambda"], args.format)
    return 0


def _verdict(applicable, ok):
    return ("ok" if ok else "VIOLATED") if applicable else "n/a"


def _cmd_bounds(args):
    basis_mod._check_grid_size(args.grid_size)
    b = _get_basis(args)
    entries = spectral.compute_spectrum(b)
    rows = []
    for e in entries:
        chi_verdict = basis_mod.chi_lower_bound_check(b, e.n)
        lo, hi = basis_mod.chi_bracket(b.alpha, b.c, e.n)
        est = basis_mod.local_estimate(b, e.n, args.grid_size)
        dv = e.bound
        rows.append([
            e.n,
            _verdict(True, lo <= e.chi <= hi),
            _verdict(chi_verdict.applicable, chi_verdict.ok),
            _verdict(dv.applicable, dv.ok),
            f"{dv.margin_lambda:.3e}" if dv.applicable else "",
            _verdict(est.bound_applicable, est.ok),
        ])
    _emit(rows, ["n", "chi_bracket", "chi_lower", "decay", "decay_margin",
                 "local_estimate"], args.format)
    return 0


def _cmd_project(args):
    cfg = _parse_fn_spec(args.fn)
    if cfg.get("kind") == "brownian" and "seed" not in cfg:
        cfg["seed"] = args.seed
    f = approx.target_from_config(cfg)
    b = experiments.get_basis(args.alpha, args.c, max(args.N, 1),
                              cache_dir=args.cache_dir,
                              use_cache=not args.no_cache)
    pr = approx.project(b, f, args.N, quad_order=args.quad_order)
    names = ["l2w_error", "sup_error"]
    errors = [f"{pr.l2w_error:.6e}", f"{pr.sup_error:.6e}"]
    line = " ".join(f"{k}={v}" for k, v in zip(names, errors))
    experiments._check_finite(names, [errors], line, "the error line")
    rows = [[n, f"{abs(pr.coefficients[n]):.12e}"] for n in range(pr.N)]
    _emit(rows, ["n", "abs_coefficient"], args.format)
    print(line, file=sys.stderr if args.format != "table" else sys.stdout)
    return 0


def _load_config(path, name):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DomainError(f"config {path} must hold a JSON object")
    payload["name"] = name
    try:  # an unknown key or a grid that is not a list
        return experiments.ExperimentConfig(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()})
    except TypeError as exc:
        raise DomainError(f"invalid config {path}: {exc}") from exc


def _cmd_experiment(args):
    cfg = _load_config(args.config, args.name) if args.config else None
    flags = dict(output_dir=args.out_dir, seed=args.seed,
                 cache=False if args.no_cache else None,
                 cache_dir=args.cache_dir, threads=args.threads)
    overrides = {k: v for k, v in flags.items() if v is not None}
    out_dir, detail = experiments.run_experiment(args.name, cfg, **overrides)
    print(f"reports written to {out_dir}")
    if isinstance(detail, dict):
        for key in sorted(detail, key=str):
            print(f"  {key}: {detail[key]:.6e}"
                  if isinstance(detail[key], float) else f"  {key}: {detail[key]}")
    return 0


def _cmd_cache(args):
    if args.action == "ls":
        entries = experiments.cache_ls(args.cache_dir)
        rows = [[e.key[:16], str(e.path), f"{e.created_at:.0f}"] for e in entries]
        _emit(rows, ["key", "path", "mtime"], args.format)
        return 0
    count = experiments.cache_clear(args.cache_dir)
    print(f"removed {count} cache entries")
    return 0


_COMMANDS = {
    "basis": _cmd_basis,
    "spectrum": _cmd_spectrum,
    "bounds": _cmd_bounds,
    "project": _cmd_project,
    "experiment": _cmd_experiment,
    "cache": _cmd_cache,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"numerical-consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
