"""Seeded requests, the work of one op and the output checks of each workload.

Every workload runs in whole rounds: one round is one balanced block of the
workload's mix, so every run measures the stated mix exactly.  Checks take an
op's output and return a list of failure messages (empty when it passes);
they run after the timed loop.
"""

import math

import numpy as np

from gpswf import approx, basis as B, experiments, spectral, specfun

# ---------------------------------------------------------------------------
# sweep: closed loop of `gpswf bounds`-style requests, cache off.
# ---------------------------------------------------------------------------

SWEEP_ALPHAS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5)
SWEEP_C = (math.pi, 20.0 * math.pi)


def sweep_setup():
    # warm numpy and the library's code paths on a cell outside the drawn
    # range, so no drawn request finds its Gauss rules already cached
    sweep_op(None, {"alpha": 0.0, "c": 1.0})
    return None


def sweep_round(rng):
    """One op per alpha; c stratified: one uniform draw in each of len(alphas)
    equal slices of [pi, 20 pi], paired with the alphas at random."""
    k = len(SWEEP_ALPHAS)
    lo, hi = SWEEP_C
    cs = lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k
    alphas = rng.permutation(SWEEP_ALPHAS)
    return [{"kind": "bounds", "alpha": float(a), "c": float(c)}
            for a, c in zip(alphas, rng.permutation(cs))]


def sweep_op(state, req):
    alpha, c = req["alpha"], req["c"]
    b = B.build_basis(alpha, c, math.ceil(c) + 30)
    entries = spectral.compute_spectrum(b)
    verdicts = []
    for e in entries:
        verdicts.append((B.chi_bracket(alpha, c, e.n),
                         B.chi_lower_bound_check(b, e.n),
                         B.local_estimate(b, e.n)))
    return {"basis": b, "entries": entries, "verdicts": verdicts}


def sweep_check(state, req, out):
    b, entries = out["basis"], out["entries"]
    alpha, c, nmax = b.alpha, b.c, b.nmax
    bad = []
    for e, ((lo, hi), chi_v, est) in zip(entries, out["verdicts"]):
        if not lo <= e.chi <= hi:
            bad.append(f"n={e.n}: chi bracket violated")
        if chi_v.applicable and not chi_v.ok:
            bad.append(f"n={e.n}: improved lower bound violated")
        if e.bound.applicable and not (e.bound.margin_mu >= 0.0
                                       and e.bound.margin_lambda >= 0.0):
            bad.append(f"n={e.n}: decay bound violated")
        if est.bound_applicable and not (
                est.sup_value <= est.a_squared + 1e-9
                and est.a_squared <= 2 * alpha + 1 + 1e-9
                and 1 - est.b_moment <= 2 * est.a_squared + 1e-9):
            bad.append(f"n={e.n}: local estimate violated")
    lam_sum = sum(e.lam for e in entries)
    gap = abs(lam_sum - spectral.kernel_trace(alpha, c))
    if not gap <= 1e-6 + spectral.lambda_bound_tail(alpha, c, nmax):
        bad.append(f"sum of lambda misses the kernel trace by {gap:.3e}")
    # independent oracle: dense symmetric eigenvalues of both parity blocks
    dense = np.sort(np.concatenate([
        np.linalg.eigvalsh(B.assemble_eigensystem(alpha, c, b.trunc, p).dense())
        for p in ("even", "odd")]))[:nmax]
    rel = np.max(np.abs(np.asarray(b.chi) - dense) / np.abs(dense))
    if not rel <= 1e-9:
        bad.append(f"chi differs from the dense eigvalsh oracle by {rel:.3e}")
    return bad


# ---------------------------------------------------------------------------
# projection: a long-lived library user with two prepared bases.
# ---------------------------------------------------------------------------

PROJ_ALPHAS = (0.5, 1.5)
PROJ_C = 5.0 * math.pi
PROJ_NMAX = 96
BROWNIAN_K = 4000
BROWNIAN_N = (46, 90)
WM_S = (0.25, 0.5, 0.75, 1.0)
WM_LAMBDA = 2.0
WM_N = 95
PERIODIC_K = 64
QUAD_N = 60
KINDS = ("brownian", "wm", "periodic", "quadrature")


def projection_setup():
    """Bases, their cosine-transform tables, the brownian scenario's sample
    grid and psi table, the projection Gauss rules, then one warm-up request
    of each kind."""
    xg = np.linspace(-1.0, 1.0, 2003)[1:-1]
    state = {"xg": xg, "bulk": np.abs(xg) <= experiments.BULK_SUP_LIMIT,
             "bases": []}
    for alpha in PROJ_ALPHAS:
        b = B.build_basis(alpha, PROJ_C, PROJ_NMAX)
        specfun.gauss_jacobi(alpha, b.trunc + 64)
        state["bases"].append({
            "basis": b,
            "table": approx.cosine_transform_table(b, BROWNIAN_K, max(BROWNIAN_N) + 1),
            "psi_grid": b.psi_table(xg, range(max(BROWNIAN_N))),
        })
    warm = np.random.default_rng(0)
    for kind in KINDS:
        projection_op(state, _projection_request(warm, kind))
    return state


def _projection_request(rng, kind):
    req = {"kind": kind, "basis": int(rng.integers(len(PROJ_ALPHAS)))}
    if kind == "brownian":
        req.update(s=float(rng.choice((1.5, 2.0))), seed=int(rng.integers(2 ** 31)))
    elif kind == "wm":
        req.update(s=float(rng.choice(WM_S)))
    elif kind == "periodic":
        req.update(k=int(rng.integers(1, PERIODIC_K + 1)))
    else:
        req.update(fn=str(rng.choice(("wm", "periodic", "abs"))),
                   s=float(rng.choice(WM_S)), k=int(rng.integers(1, 5)))
    return req


def projection_round(rng):
    return [_projection_request(rng, kind) for kind in rng.permutation(KINDS)]


def _quadrature_target(req):
    if req["fn"] == "wm":
        return approx.weierstrass_mandelbrot(req["s"], WM_LAMBDA, K=8)
    if req["fn"] == "periodic":
        return approx.periodic_exponential(req["k"])
    grid = np.linspace(-1.0, 1.0, 401)
    return approx.user_sampled(grid, np.abs(grid))


def projection_op(state, req):
    prep = state["bases"][req["basis"]]
    b = prep["basis"]
    kind = req["kind"]
    if kind == "brownian":
        f = approx.brownian(req["s"], req["seed"], K=BROWNIAN_K)
        y = f.params["amplitudes"] / np.arange(1, BROWNIAN_K + 1.0) ** req["s"]
        n_hi = max(BROWNIAN_N)
        coeffs, l2_hi = approx.cosine_series_projection(b, y, n_hi, table=prep["table"])
        fx = f(state["xg"])
        out = {}
        for N in BROWNIAN_N:
            l2 = math.sqrt(l2_hi ** 2 + float(np.sum(coeffs[N:n_hi] ** 2)))
            resid = np.abs(fx - coeffs[:N] @ prep["psi_grid"][:N])
            out[N] = (float(np.max(resid[state["bulk"]])), l2)
        return out
    if kind == "wm":
        return approx.wm_projection_error(b, req["s"], WM_LAMBDA, WM_N)
    if kind == "periodic":
        return np.array([approx.periodic_coefficient(b, req["k"], n)
                         for n in range(PROJ_NMAX)])
    return approx.project(b, _quadrature_target(req), QUAD_N)


def _check_rule(state, b):
    """A 400-node Gauss rule (room for e^{i 64 pi x} psi_n) from LAPACK's
    dense eigensolver, independent of the library's, with psi on its nodes."""
    key = ("check", b.alpha)
    if key not in state:
        m = 400
        off = specfun.jacobi_recurrence(b.alpha, m + 1)[1:m]
        nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        weights = specfun.weight_mass(b.alpha) * vecs[0] ** 2
        state[key] = (nodes, weights, b.psi_table(nodes))
    return state[key]


def projection_check(state, req, out):
    b = state["bases"][req["basis"]]["basis"]
    kind = req["kind"]
    if kind == "brownian":
        (sup46, l2_46), (sup90, l2_90) = out[46], out[90]
        if not (math.isfinite(sup46) and math.isfinite(sup90)
                and math.isfinite(l2_90) and l2_90 < l2_46):
            return [f"brownian errors not finite or not decreasing: {out}"]
        return []
    if kind == "wm":
        ref = experiments.WM_REFERENCE_ERRORS[(b.alpha, req["s"])]
        if not 0.5 <= out / ref <= 2.0:
            return [f"wm error {out:.3e} not within 2x of reference {ref:.3e}"]
        return []
    if kind == "periodic":
        nodes, weights, tab = _check_rule(state, b)
        ref = tab @ (weights * np.exp(1j * req["k"] * math.pi * nodes))
        dev = float(np.max(np.abs(out - ref)))
        return [] if dev <= 1e-10 else [f"periodic coefficients off quadrature by {dev:.3e}"]
    coeffs = out.coefficients
    if not (math.isfinite(out.l2w_error) and math.isfinite(out.sup_error)):
        return ["projection errors not finite"]
    if req["fn"] == "wm":
        closed = approx.wm_all_coefficients(b, req["s"], WM_LAMBDA, QUAD_N, K=8)
        odd = slice(1, QUAD_N, 2)
        rel = float(np.max(np.abs(coeffs[odd] - closed[odd]) / np.abs(closed[odd])))
        return [] if rel <= 1e-8 else [f"wm quadrature vs closed form rel {rel:.3e}"]
    if req["fn"] == "periodic":
        closed = np.array([approx.periodic_coefficient(b, req["k"], n)
                           for n in range(QUAD_N)])
        dev = float(np.max(np.abs(coeffs - closed)))
        return [] if dev <= 1e-10 else [f"periodic quadrature vs closed form {dev:.3e}"]
    # |x| is even: every odd coefficient vanishes
    odd = float(np.max(np.abs(coeffs[1::2])))
    return [] if odd <= 1e-12 else [f"odd coefficient {odd:.3e} of an even function"]


ROUND_SIZE = {"sweep": len(SWEEP_ALPHAS), "projection": len(KINDS)}
IN_PROCESS = {
    "sweep": (sweep_setup, sweep_round, sweep_op, sweep_check),
    "projection": (projection_setup, projection_round, projection_op, projection_check),
}

# ---------------------------------------------------------------------------
# scenarios: the three paper reproductions, each as a fresh CLI process.
# ---------------------------------------------------------------------------

SCENARIOS = ("lambda-decay", "wm-table", "brownian")
SCENARIO_BASES = 10  # 4 lambda-decay + 5 wm-table + 1 brownian


def scenario_check(name, code, files, reference):
    """``code`` is the child's exit code; ``files`` and ``reference`` map CSV
    file names to their bytes."""
    if code != 0:
        return [f"{name}: exited with {code}"]
    bad = []
    if sorted(files) != sorted(reference):
        bad.append(f"{name}: CSV set {sorted(files)} != reference {sorted(reference)}")
    bad += [f"{name}: {f} differs from the cold-cache reference"
            for f in sorted(set(files) & set(reference)) if files[f] != reference[f]]
    if name == "wm-table" and "wm_table.csv" in files:
        lines = files["wm_table.csv"].decode().splitlines()[1:]
        ratios = [float(line.split(",")[4]) for line in lines]
        if not ratios or not all(0.5 <= r <= 2.0 for r in ratios):
            bad.append(f"wm-table ratios outside [0.5, 2]: {ratios}")
    return bad
