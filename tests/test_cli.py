import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import gpswf
from gpswf import approx, cli, spectral
from gpswf.errors import DomainError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _experiment_with_config(capsys, tmp_path, cfg, *flags, name="lambda-decay"):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return run_cli(capsys, "experiment", "--name", name,
                   "--config", str(cfg_path), *flags)


@pytest.fixture()
def cache_args(tmp_path):
    return ["--cache-dir", str(tmp_path / "cache")]


def test_basis_table(capsys, cache_args):
    code, out, _ = run_cli(capsys, "basis", "--alpha", "0.5", "--c", "6.28",
                           "--nmax", "10", *cache_args)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all("ok" in line for line in lines[1:])


def test_basis_write_container(capsys, tmp_path, cache_args):
    out_file = tmp_path / "b.gpswf"
    code, out, _ = run_cli(capsys, "basis", "--alpha", "0.5", "--c", "2",
                           "--nmax", "4", "--out", str(out_file), *cache_args)
    assert code == 0
    assert out_file.exists()
    from gpswf.experiments import load_basis

    assert load_basis(out_file).nmax == 4


def test_spectrum_json_lambda_decreasing(capsys, cache_args):
    code, out, _ = run_cli(capsys, "spectrum", "--alpha", "0", "--c", "2",
                           "--nmax", "8", "--format", "json", *cache_args)
    assert code == 0
    rows = json.loads(out)
    lams = [float(r["lambda"]) for r in rows]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_bounds_table(capsys, cache_args):
    code, out, _ = run_cli(capsys, "bounds", "--alpha", "0", "--c", "1",
                           "--nmax", "8", *cache_args)
    assert code == 0
    assert "VIOLATED" not in out
    assert "chi_bracket" in out


def test_project_subcommand(capsys, cache_args):
    code, out, _ = run_cli(capsys, "project", "--alpha", "0.5", "--c", "2",
                           "--fn", "periodic:k=1", "--N", "8", *cache_args)
    assert code == 0
    assert "l2w_error=" in out


def _closed_form_error(b, fn, N):
    cfg = cli._parse_fn_spec(fn)
    if cfg["kind"] == "wm":
        return approx.wm_projection_error(b, float(cfg["s"]), float(cfg["lambda"]), N)
    f = approx.brownian(float(cfg["s"]), int(cfg["seed"]))
    y = f.params["amplitudes"] / np.arange(1.0, f.params["K"] + 1) ** f.params["s"]
    return approx.cosine_series_projection(b, y, N)[1]


@pytest.mark.parametrize("alpha", ["0.5", "1.5"])
@pytest.mark.parametrize("fn, N", [("wm:s=1,lambda=2", 95),
                                   ("brownian:s=1.5,seed=3", 60),
                                   ("brownian:s=1.5,seed=7", 60)])
def test_project_error_is_the_closed_form(capsys, monkeypatch, alpha, fn, N):
    # wm and brownian take their closed-form coefficients: the printed
    # l2w_error is Parseval's on the CLI's own basis, which a Gauss rule of
    # m + 64 nodes missed by 2.8-13%
    seen = []
    project = approx.project
    monkeypatch.setattr(approx, "project", lambda b, f, N, **kw: seen.append(
        (b, project(b, f, N, **kw))) or seen[-1][1])
    code, out, _ = run_cli(capsys, "project", "--alpha", alpha, "--c", repr(5 * math.pi),
                           "--N", str(N), "--fn", fn, "--no-cache")
    (b, pr), = seen
    assert code == 0 and f"l2w_error={pr.l2w_error:.6e}" in out
    assert pr.l2w_error == pytest.approx(_closed_form_error(b, fn, N), rel=1e-12)


@pytest.mark.parametrize("fn", ["wm:s=1,lambda=2", "brownian:s=1.5,K=50"])
def test_quad_order_with_a_closed_form_target_exits_1(capsys, cache_args, fn):
    # the closed form builds no rule, so a rule size would change nothing
    code, out, err = run_cli(capsys, "project", "--alpha", "0.5", "--c", "2", "--N", "4",
                             "--fn", fn, "--quad-order", "200", *cache_args)
    assert (code, out) == (1, "")
    assert err.startswith("error: quad_order=200 ")


def test_byte_identical_reruns(capsys, cache_args):
    args = ("spectrum", "--alpha", "0.5", "--c", "2", "--nmax", "6",
            "--format", "csv", *cache_args)
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_consistency_failure_exits_2(capsys, monkeypatch):
    from gpswf.errors import ConsistencyError

    def boom(args):
        raise ConsistencyError("probe spread too large")

    monkeypatch.setitem(cli._COMMANDS, "spectrum", boom)
    code, _, err = run_cli(capsys, "spectrum", "--alpha", "0.5", "--c", "2",
                           "--nmax", "4")
    assert code == 2
    assert "numerical-consistency" in err


def test_underflowed_mu_named_in_the_error(capsys, cache_args):
    # |mu_182| is subnormal at (0, 5, 200): the refusal names the underflow,
    # not the truncation
    code, _, err = run_cli(capsys, "spectrum", "--alpha", "0", "--c", "5",
                           "--nmax", "200", *cache_args)
    assert code == 2
    assert "|mu_n| = 2.058e-316 at n=182 underflowed" in err
    assert "truncation" not in err


def test_version_exits_0(capsys):
    from gpswf import __version__

    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip() == __version__


def test_truncation_failure_exits_2(capsys, monkeypatch):
    from gpswf import basis
    from gpswf.errors import TruncationError

    def unresolved(alpha, c, nmax):
        raise TruncationError("coefficient tail mass 1e-3 at n=3", n=3, tail_mass=1e-3)

    monkeypatch.setattr(basis, "build_basis", unresolved)
    code, out, err = run_cli(capsys, "basis", "--alpha", "0.5", "--c", "2",
                             "--nmax", "4", "--no-cache")
    assert code == 2
    assert out == ""
    assert err.startswith("numerical-consistency failure: coefficient tail mass")


@pytest.mark.parametrize("fn,N", [
    ("brownian:s=1.5,sed=3", "4"),  # unknown key
    ("wm:s=1", "4"),  # missing key
    ("brownian:s=abc", "4"),  # unparsable value
    ("periodic:k=1.5", "4"),  # not a whole number
    ("periodic:k=1", "-3"),  # N < 1
    ("brownian:s=nan,seed=1", "4"),  # s not finite
    ("brownian:s=inf,seed=1", "4"),
    ("wm:s=-inf,lambda=2", "4"),
    ("wm:s=nan,lambda=2,K=5", "4"),
    ("wm:s=1,lambda=inf", "4"),  # lambda not finite
    ("wm:s=0.5,lambda=nan", "4"),
    ("wm:s=0.5,lambda=1e10,K=100", "10"),  # lambda^(K-1) overflows
    pytest.param(f"periodic:k={2 ** 1023}", "4", id="periodic:k=2**1023-4"),  # k pi overflows
])
def test_project_bad_fn_or_N_exits_1(capsys, cache_args, fn, N):
    code, out, err = run_cli(capsys, "project", "--alpha", "0.5", "--c", "2",
                             "--fn", fn, "--N", N, *cache_args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("fn", [
    "wm:s=1,lambda=1.0000001",  # wm_truncation gives 437,491,191 terms
    "wm:s=1,lambda=2,K=1000001",
    "brownian:s=1.5,K=10000000000",
])
def test_project_term_count_past_cap_exits_1(capsys, cache_args, monkeypatch, fn):
    # the cap stops the spec before any series array is built
    def no_draw(seed, count):
        raise AssertionError(f"drew {count} samples")

    monkeypatch.setattr(approx, "_gaussian_samples", no_draw)
    code, out, err = run_cli(capsys, "project", "--alpha", "0.5", "--c", "2",
                             "--fn", fn, "--N", "4", *cache_args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "K must lie in 1..1000000" in err


# spec words: no separator and nothing str.strip would remove
_WORD_CHARS = st.characters(whitelist_categories=("L", "N", "P", "S"),
                            blacklist_characters=",=:")
_WORD = st.text(_WORD_CHARS)


def _format_fn_spec(cfg):
    items = ",".join(f"{k}={v}" for k, v in cfg.items() if k != "kind")
    return f"{cfg['kind']}:{items}" if items else cfg["kind"]


@given(_WORD, st.dictionaries(_WORD.filter(lambda k: k and k != "kind"), _WORD,
                              max_size=4))
def test_fn_spec_round_trips(kind, items):
    cfg = {"kind": kind, **items}
    assert cli._parse_fn_spec(_format_fn_spec(cfg)) == cfg


@given(st.text())
def test_fn_spec_parses_or_raises_domain_error(spec):
    try:
        cfg = cli._parse_fn_spec(spec)
    except DomainError:
        return
    assert cli._parse_fn_spec(_format_fn_spec(cfg)) == cfg


@given(st.sampled_from(["brownian:s={bad},seed=1", "brownian:s={bad},K=50",
                        "wm:s={bad},lambda={lam}", "wm:s={bad},lambda={lam},K=5",
                        "wm:s={s},lambda={bad}", "wm:s={s},lambda={bad},K=5"]),
       st.sampled_from([math.nan, math.inf, -math.inf]),
       st.floats(max_value=1.0, allow_nan=False, allow_infinity=False),
       st.floats(min_value=1.5, max_value=1e3))
def test_fn_non_finite_parameter_raises_domain_error(template, bad, s, lam):
    # a NaN or infinite s or lambda, the other parameters valid, is refused
    spec = template.format(bad=bad, s=s, lam=lam)
    with pytest.raises(DomainError):
        approx.target_from_config(cli._parse_fn_spec(spec))


_FINITE = {"allow_nan": False, "allow_infinity": False}
# term counts: short series, or past the cap of 10^6 and refused
_TERMS = st.one_of(st.integers(1, 64), st.integers(10 ** 6 + 1, 2 ** 70))
# lambda near 1 or from 1.5 up: in between, the default K reaches 10^5 terms,
# too many for 200 examples
_LAMBDAS = st.one_of(st.floats(1.0, 1.0 + 1e-9), st.floats(min_value=1.5, **_FINITE))
_FN_SPECS = st.one_of(
    st.builds("wm:s={!r},lambda={!r}".format, st.floats(max_value=1.0, **_FINITE), _LAMBDAS),
    st.builds("wm:s={!r},lambda={!r},K={}".format, st.floats(max_value=1.0, **_FINITE),
              st.floats(min_value=1.0, **_FINITE), _TERMS),
    st.builds("brownian:s={!r},seed={},K={}".format, st.floats(min_value=0.5, **_FINITE),
              st.integers(-1, 2 ** 129), _TERMS),
    st.builds("periodic:k={}".format, st.integers(-2 ** 1100, 2 ** 1100)))


# at an extreme s, k**s and lambda**((s-2) k) overflow to inf and the term's
# amplitude to 0, its limit; NumPy warns on the way.  No shrink phase: when
# project raises on every input, shrinking alone takes minutes
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_FN_SPECS)
@example("wm:s=-364628.0662452155,lambda=1.0000000009130565")  # K 107047
def test_fn_spec_exits_0_only_with_finite_numbers(spec):
    # finite but extreme parameters are refused, or projected to finite
    # coefficients and errors
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["project", "--alpha", "0.5", "--c", "2", "--N", "3",
                         "--fn", spec, "--format", "csv", "--no-cache"])
    if code == 0:
        assert not re.search("nan|inf", out.getvalue() + err.getvalue()), spec
    else:
        assert code == 1 and err.getvalue().startswith("error: "), spec


@pytest.mark.parametrize("fn, K", [
    ("wm:s=-364628.0662452155,lambda=1.0000000009130565", 107047),
    ("wm:s=0.5,lambda=1.0001", 242919),
    ("wm:s=1,lambda=1.1,K=2897", 2897),  # the first K past the bound
])
def test_project_wm_norm_past_its_pair_bound_exits_1(capsys, cache_args, monkeypatch, fn, K):
    # refused before the exact norm computes any transform of its pair
    # table (8 K^2 bytes, 85 GiB at K 107047), with an error line, not a
    # traceback
    def no_transforms(*args):
        raise AssertionError("computed a transform")

    monkeypatch.setattr(approx, "_cos_transforms", no_transforms)
    code, out, err = run_cli(capsys, "project", "--alpha", "0.5", "--c", "2",
                             "--fn", fn, "--N", "3", *cache_args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and f"got K={K}:" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--alpha", "0.5", "--c", "2", "--nmax", "4", "--grid-size", "100000000"),
    ("project", "--alpha", "0.5", "--c", "2", "--N", "4", "--fn", "periodic:k=3",
     "--quad-order", "10000000"),
])
def test_size_past_its_cap_exits_1(capsys, cache_args, argv):
    # refused before the 24 GB grid or the 728 TB rule is allocated
    code, out, err = run_cli(capsys, *argv, *cache_args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must lie in" in err


def test_start_order_past_the_cap_exits_1(capsys, cache_args):
    # the start order turns on (c, nmax) alone: an input out of range
    assert run_cli(capsys, "spectrum", "--alpha", "0.5", "--c", "5", "--nmax", "20000",
                   *cache_args) == (
        1, "", "error: start order 10025 for alpha=0.5, c=5.0, nmax=20000 is past the "
        "truncation cap 8192\n")


def test_bounds_checks_the_grid_before_the_basis(capsys, monkeypatch):
    from gpswf import basis

    monkeypatch.setattr(basis, "build_basis", None)  # a build raises TypeError
    assert run_cli(capsys, "bounds", "--alpha", "0.5", "--c", "500", "--nmax", "600",
                   "--grid-size", "50", "--no-cache") == (
        1, "", "error: grid_size must lie in 100..100000, got 50\n")


# Which large-alpha runs exit 1: only where a factor that is still a double
# passes the largest double (the name is the one the refusals had when every
# case here exited 1).  The transform terms carry (2/u)^(alpha+1/2) and
# gamma_k as exponents, so the rest run
@pytest.mark.parametrize("name, cfg, shown", [
    # the spectrum at the smallest probe u = 1e-3 c, which refused alpha 118,
    # and the scenarios at alpha 160 (gamma_k past k = 33) run; brownian's
    # sup errors there are true sums (tests/test_approx.py,
    # test_large_alpha_sums_are_not_rounding_noise)
    ("spectrum", "118", None),
    ("spectrum", "110", None),
    # W(1) of the exact wm norm keeps its factors as doubles
    ("wm-table", {"alpha_list": [160], "N_list": [4], "s_list": [1.0]}, "alpha=160.0, u=1.0"),
    ("brownian", {"alpha_list": [160], "N_list": [4], "s_list": [1.5]}, None),
    ("lambda-decay", {"alpha_list": [160]}, None),
    # exp(ln Gamma(alpha + 1)) overflows
    ("wm-table", {"alpha_list": [300], "N_list": [4], "s_list": [1.0]}, "alpha=300.0, u=1.0"),
], ids=["spectrum-118", "spectrum-110", "wm-table-160", "brownian-160", "lambda-decay-160",
        "wm-table-300"])
def test_transform_factor_past_the_largest_double_exits_1(capsys, tmp_path, monkeypatch,
                                                          name, cfg, shown):
    monkeypatch.chdir(tmp_path)  # the scenarios' reports/
    if name == "spectrum":
        code, out, err = run_cli(capsys, name, "--alpha", cfg, "--c", "5", "--nmax", "4",
                                 "--no-cache")
    else:
        code, out, err = _experiment_with_config(
            capsys, tmp_path, {"c_list": [5 * math.pi], **cfg}, "--no-cache", name=name)
    assert code == (1 if shown else 0)
    if shown:
        assert out == "" and err.startswith("error: ") and shown in err
        assert not list(tmp_path.rglob("*.csv"))


def run_cli_warned(capsys, *argv):
    """``run_cli`` with the messages of every warning the call raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(capsys, *argv)
    return result, [str(w.message) for w in caught]


def test_overflowed_probe_terms_warn_nothing(capsys):
    # at alpha 110 the terms at the smallest probes pass the largest double;
    # those probes rank last by their infinite floor, silently, and the
    # table is pinned byte for byte
    result, warned = run_cli_warned(capsys, "spectrum", "--alpha", "110", "--c", "5",
                                    "--nmax", "4", "--no-cache")
    assert warned == []
    assert result == (0, (
        "n  chi                 mu_abs              mu_phase       lambda            \n"
        "0  1.120520698637e-01  1.683811344237e-01  +1.000+0.000j  2.256196900434e-02\n"
        "1  2.223331725019e+02  3.773515935985e-03  +0.000+1.000j  1.133137240347e-05\n"
        "2  4.465484303593e+02  8.344122440669e-05  -1.000+0.000j  5.540532063039e-09\n"
        "3  6.727580307687e+02  1.820776832093e-06  +0.000-1.000j  2.638174835062e-12\n"),
        "")


def test_overflowed_march_prints_only_its_refusal(capsys, cache_args):
    result, warned = run_cli_warned(capsys, "spectrum", "--alpha", "0.5", "--c", "1e-70",
                                    "--nmax", "4", *cache_args)
    assert warned == []
    assert result == (2, "", (
        "numerical-consistency failure: coefficient tail mass nan at n=0, truncation "
        "order 26: the eigenvector march overflowed at c=1e-70, whose off-diagonals "
        "fall to 2.500e-141\n"))


@pytest.mark.parametrize("argv, shown", [
    *[(("spectrum", "--alpha", "0.5", "--c", "2", "--nmax", "4", "--format", fmt),
       "lambda = nan in row 2 of the output") for fmt in ("table", "csv", "json")],
    (("project", "--alpha", "0.5", "--c", "2", "--N", "4", "--fn", "periodic:k=3"),
     "sup_error = inf in row 0 of the error line"),
    (("experiment", "--name", "lambda-decay"),
     "lambda = nan in row 2 of lambda_decay_alpha1_c15.708.csv"),
    (("experiment", "--name", "wm-table"), "computed_error = nan in row 0 of wm_table.csv"),
], ids=["spectrum-table", "spectrum-csv", "spectrum-json", "project", "lambda-decay",
        "wm-table"])
def test_non_finite_value_exits_2_printing_nothing(capsys, tmp_path, monkeypatch, argv,
                                                   shown):
    spectrum, project = spectral.compute_spectrum, approx.project
    monkeypatch.setattr(spectral, "compute_spectrum", lambda b: [
        dataclasses.replace(e, lam=math.nan) if e.n == 2 else e for e in spectrum(b)])
    monkeypatch.setattr(approx, "project", lambda *args, **kw: dataclasses.replace(
        project(*args, **kw), sup_error=math.inf))
    monkeypatch.setattr(approx, "wm_projection_error", lambda *args: math.nan)
    monkeypatch.chdir(tmp_path)  # the scenarios' reports/
    code, out, err = run_cli(capsys, *argv, "--no-cache")
    assert code == 2 and out == ""
    assert err == f"numerical-consistency failure: non-finite {shown}\n"
    assert not list(tmp_path.rglob("*.csv"))


def test_invalid_parameter_exits_1(capsys, cache_args):
    code, _, err = run_cli(capsys, "basis", "--alpha", "-3", "--c", "2",
                           "--nmax", "4", *cache_args)
    assert code == 1
    assert "error" in err.lower()


def test_unknown_flag_exits_1_with_usage(capsys):
    code, _, err = run_cli(capsys, "basis", "--alpha", "0.5", "--c", "2",
                           "--nmax", "4", "--frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_missing_subcommand_exits_1(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_cache_ls_and_clear(capsys, tmp_path):
    # a path is not checked as a number, and may hold "inf" and "nan"
    cache = str(tmp_path / "inf" / "nan")
    run_cli(capsys, "basis", "--alpha", "0.5", "--c", "2", "--nmax", "4",
            "--cache-dir", cache)
    code, out, _ = run_cli(capsys, "cache", "ls", "--cache-dir", cache)
    assert code == 0
    assert ".gpswf" in out
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", cache)
    assert code == 0
    assert "removed 1" in out


def test_experiment_lambda_decay(capsys, tmp_path):
    cfg = {"alpha_list": [1.0], "c_list": [2.0], "nmax": 6}
    code, out, _ = _experiment_with_config(
        capsys, tmp_path, cfg, "--out-dir", str(tmp_path / "reports"),
        "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert "reports written" in out


def test_experiment_wm_table_with_config(capsys, tmp_path):
    cfg = {"alpha_list": [0.5], "c_list": [15.707963267948966],
           "N_list": [95], "s_list": [0.25, 1.0]}
    code, out, _ = _experiment_with_config(
        capsys, tmp_path, cfg, "--out-dir", str(tmp_path / "reports"),
        "--cache-dir", str(tmp_path / "cache"), name="wm-table")
    assert code == 0
    assert "reports written" in out
    assert "(0.5, 0.25)" in out


def _written_config(root):
    (path,) = root.glob("lambda-decay/*/config.json")
    return json.loads(path.read_text())


LAMBDA_CFG = {"alpha_list": [1.0], "c_list": [2.0], "nmax": 4}


def test_experiment_flags_override_config(capsys, tmp_path):
    cfg = dict(LAMBDA_CFG, seed=99, output_dir=str(tmp_path / "file"),
               cache_dir=str(tmp_path / "file_cache"))
    code, _, _ = _experiment_with_config(
        capsys, tmp_path, cfg, "--seed", "7", "--out-dir", str(tmp_path / "flag"),
        "--cache-dir", str(tmp_path / "flag_cache"))
    assert code == 0
    assert _written_config(tmp_path / "flag")["seed"] == 7
    assert list((tmp_path / "flag_cache").glob("*.gpswf"))
    assert not (tmp_path / "file").exists()
    assert not (tmp_path / "file_cache").exists()


def test_experiment_flag_defaults_keep_config(capsys, tmp_path):
    cfg = dict(LAMBDA_CFG, seed=99, output_dir=str(tmp_path / "file"),
               cache_dir=str(tmp_path / "file_cache"))
    code, _, _ = _experiment_with_config(capsys, tmp_path, cfg)
    assert code == 0
    assert _written_config(tmp_path / "file")["seed"] == 99
    assert list((tmp_path / "file_cache").glob("*.gpswf"))


@pytest.mark.parametrize("key,value", [("alpha_lsit", [2.0]), ("alpha_list", 2.0)])
def test_experiment_invalid_config_exits_1(capsys, tmp_path, key, value):
    cfg = dict(LAMBDA_CFG, **{key: value})
    code, _, err = _experiment_with_config(capsys, tmp_path, cfg,
                                           "--out-dir", str(tmp_path / "r"))
    assert code == 1
    assert "invalid config" in err


# the flags each subcommand reads, and flags it used to accept and ignore
HELP_FLAGS = {
    "basis": (("--alpha", "--c", "--nmax", "--format", "--cache-dir",
               "--no-cache", "--out"), ("--quad-order", "--seed", "--threads")),
    "spectrum": (("--alpha", "--c", "--nmax", "--format", "--cache-dir",
                  "--no-cache"), ("--quad-order", "--seed", "--threads")),
    "bounds": (("--alpha", "--c", "--nmax", "--format", "--cache-dir",
                "--no-cache", "--grid-size"), ("--quad-order", "--seed", "--threads")),
    "project": (("--alpha", "--c", "--fn", "--N", "--format", "--quad-order",
                 "--seed", "--cache-dir", "--no-cache"), ("--nmax", "--threads")),
    "experiment": (("--name", "--config", "--out-dir", "--seed", "--threads",
                    "--cache-dir", "--no-cache"), ("--quad-order", "--format")),
}


def test_help_lists_flags(capsys):
    for command, (flags, absent) in HELP_FLAGS.items():
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        for flag in flags:
            assert flag in out, (command, flag)
        for flag in absent:
            assert flag not in out, (command, flag)


def test_ignored_flag_and_config_key_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "basis", "--alpha", "0.5", "--c", "2",
                           "--nmax", "4", "--threads", "2")
    assert code == 1
    assert "usage" in err.lower()
    code, _, err = _experiment_with_config(capsys, tmp_path,
                                           dict(LAMBDA_CFG, corpus=["wm"]))
    assert code == 1
    assert "invalid config" in err


@pytest.mark.parametrize("name,grid", [("brownian", "alpha_list"),
                                       ("brownian", "c_list"),
                                       ("brownian", "s_list"),
                                       ("wm-table", "c_list"),
                                       ("wm-table", "N_list")])
def test_grid_the_scenario_does_not_sweep_exits_1(capsys, tmp_path, name, grid):
    cfg = dict(alpha_list=[1.0], c_list=[1.0], N_list=[4], s_list=[1.0])
    cfg[grid] = cfg[grid] * 2
    code, _, err = _experiment_with_config(
        capsys, tmp_path, cfg, "--out-dir", str(tmp_path / "r"), name=name)
    assert code == 1
    assert grid in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name,field,value", [("lambda-decay", "N_list", [4]),
                                              ("lambda-decay", "s_list", [1.0]),
                                              ("lambda-decay", "n_seeds", 3),
                                              ("brownian", "nmax", 12),
                                              ("wm-table", "nmax", 12),
                                              ("wm-table", "n_seeds", 3)])
def test_field_the_scenario_does_not_read_exits_1(capsys, tmp_path, name,
                                                  field, value):
    cfg = dict(alpha_list=[1.0], c_list=[1.0])
    if name != "lambda-decay":
        cfg.update(N_list=[4], s_list=[1.0])
    cfg[field] = value
    code, _, err = _experiment_with_config(
        capsys, tmp_path, cfg, "--out-dir", str(tmp_path / "r"), name=name)
    assert code == 1
    assert f"does not read {field}" in err
    assert not (tmp_path / "r").exists()


BROWNIAN_CFG = {"alpha_list": [1.5], "c_list": [2.0], "N_list": [4], "s_list": [1.5]}


@pytest.mark.parametrize("name,cfg,flags,field", [
    ("brownian", dict(BROWNIAN_CFG, n_seeds=0), (), "n_seeds"),
    ("lambda-decay", dict(LAMBDA_CFG, nmax=10.5), (), "nmax"),
    ("lambda-decay", dict(LAMBDA_CFG, alpha_list=["a"]), (), "alpha_list"),
    ("lambda-decay", dict(LAMBDA_CFG, c_list=[float("nan")]), (), "c_list"),
    ("brownian", dict(BROWNIAN_CFG, N_list=[0]), (), "N_list"),
    ("brownian", dict(BROWNIAN_CFG, N_list=[4.0]), (), "N_list"),
    ("lambda-decay", dict(LAMBDA_CFG, seed=True), (), "seed"),
    ("lambda-decay", LAMBDA_CFG, ("--threads", "-3"), "threads"),
    ("brownian", BROWNIAN_CFG, ("--seed", "-5"), "seed"),
    ("lambda-decay", dict(LAMBDA_CFG, cache="no"), (), "cache"),
    ("lambda-decay", dict(LAMBDA_CFG, cache=0), (), "cache"),
    ("lambda-decay", dict(LAMBDA_CFG, output_dir=5), (), "output_dir"),
    ("brownian", dict(BROWNIAN_CFG, cache_dir=["c"]), (), "cache_dir"),
])
def test_config_field_out_of_range_exits_1(capsys, tmp_path, name, cfg, flags, field):
    # each field's type and range is checked before any report or cache exists
    code, out, err = _experiment_with_config(
        capsys, tmp_path, cfg, "--out-dir", str(tmp_path / "r"),
        "--cache-dir", str(tmp_path / "cache"), *flags, name=name)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} takes ")
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("cfg,flags", [
    (dict(BROWNIAN_CFG, seed=2 ** 128 - 1, n_seeds=2), ()),
    (dict(BROWNIAN_CFG, n_seeds=3), ("--seed", str(2 ** 128 - 2))),
])
def test_brownian_last_seed_out_of_range_exits_1(capsys, tmp_path, cfg, flags):
    # refused by the config, before the report directory exists
    code, out, err = _experiment_with_config(
        capsys, tmp_path, cfg, "--out-dir", str(tmp_path / "r"),
        "--cache-dir", str(tmp_path / "cache"), *flags, name="brownian")
    assert code == 1
    assert out == ""
    assert err == ("error: brownian seeds run from seed to seed + n_seeds - 1 = "
                   f"{2 ** 128}, past 2**128-1\n")
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "cache").exists()


def test_config_paths_accepted(capsys, tmp_path):
    # a null cache_dir keeps the default; false turns the cache off
    cfg = dict(LAMBDA_CFG, output_dir=str(tmp_path / "r"), cache=False, cache_dir=None)
    code, out, _ = _experiment_with_config(capsys, tmp_path, cfg)
    assert code == 0
    assert out.startswith(f"reports written to {tmp_path / 'r'}")


def test_project_brownian_seed_out_of_range_exits_1(capsys, cache_args):
    code, out, err = run_cli(capsys, "project", "--alpha", "0.5", "--c", "2",
                             "--fn", "brownian:s=1.5,seed=-1", "--N", "4", *cache_args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: brownian seed must lie in 0..2**128-1")


@pytest.mark.parametrize("name", ["wm-table", "brownian"])
def test_empty_s_list_exits_1(capsys, tmp_path, name):
    cfg = {"alpha_list": [0.5], "c_list": [2.0], "N_list": [6], "s_list": []}
    code, _, err = _experiment_with_config(
        capsys, tmp_path, cfg, "--out-dir", str(tmp_path / "r"),
        "--cache-dir", str(tmp_path / "cache"), name=name)
    assert code == 1
    assert "s_list" in err
    assert not (tmp_path / "r").exists()
    assert not (tmp_path / "cache").exists()


def test_import_leaves_the_thread_pool_unloaded():
    # the CLI imports concurrent.futures (and with it logging and queue) only
    # for a scenario run on more than one thread
    code = ("import sys, gpswf.cli; print(sorted(m for m in "
            "('concurrent.futures', 'logging', 'queue') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(gpswf.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", ["wm-table", "brownian"])
def test_two_threads_write_the_same_csvs(capsys, tmp_path, name):
    written = {}
    for threads in ("1", "2"):
        for cached in (approx._wm_l2_norm_squared, approx._wm_pair_products,
                       approx._wm_term_rows, approx._cos_spectra):
            cached.cache_clear()
        out_dir = tmp_path / f"threads{threads}"
        code, _, _ = run_cli(capsys, "experiment", "--name", name,
                             "--out-dir", str(out_dir),
                             "--cache-dir", str(tmp_path / "cache"),
                             "--threads", threads, "--seed", "1")
        assert code == 0
        written[threads] = {p.name: p.read_bytes() for p in out_dir.rglob("*.csv")}
    assert written["1"] and written["1"] == written["2"]


def test_fn_item_and_config_refusals_exit_1(capsys, tmp_path):
    # an --fn item with no "=", a config file that cannot be read and one
    # whose JSON is not an object are each refused before anything runs
    code, out, err = run_cli(capsys, "project", "--alpha", "0.5", "--c", "2",
                             "--fn", "periodic:k", "--N", "4", "--no-cache")
    assert (code, out) == (1, "")
    assert "--fn item 'k' is not key=value with a new key" in err
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for path, message in ((tmp_path / "missing.json", "cannot read config"),
                          (listed, "must hold a JSON object")):
        code, out, err = run_cli(capsys, "experiment", "--name", "lambda-decay",
                                 "--config", str(path))
        assert (code, out) == (1, "")
        assert message in err and str(path) in err
