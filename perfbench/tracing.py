"""Layer tracing from outside the library.

``Tracer.install`` replaces the public functions of every module of the
``gpswf`` package with wrappers that record one span per call: layer name,
start, end, parent span and op id.  Names bound by ``from ... import`` in
another gpswf module are pointed at the same wrapper, so those calls do not
escape the trace.  ``Tracer.restore`` puts every original back.

Spans live in flat ``array`` columns (about 30 bytes each) and are written
out with :meth:`Tracer.save`; :func:`layer_metrics` turns a span set into the
per-layer numbers the benchmark reports.
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from array import array

import numpy as np

# Scalar helpers called from inner loops (tens of thousands of times per op).
# A span costs about a microsecond, more than these functions do, so they stay
# unwrapped and their time counts as their caller's self time.
UNWRAPPED = {
    "specfun.ln_gamma", "specfun.ln_beta", "specfun.gamma_bracket",
    "specfun.weight_mass", "specfun.jacobi_recurrence", "specfun.jacobi_norm0",
    "backend.backend_name", "experiments.cache_key",
}

# Methods traced as layers: (module, class, method, layer name).
METHODS = [
    ("basis", "GpswfBasis", "psi", "basis.GpswfBasis.psi"),
    ("basis", "GpswfBasis", "psi_table", "basis.GpswfBasis.psi_table"),
    ("approx", "TargetFunction", "__call__", "approx.target_eval"),
]


def _points(x):
    return float(np.size(x))


# Work size recorded with each span, per layer: (stat name, f(args, result)).
SIZES = {
    "eigensolver.eig_symtridiag": ("order_sum", lambda a, r: float(r.values.size)),
    "backend.tridiag_eig": ("order_sum", lambda a, r: float(np.size(a[0]))),
    "backend.bessel_ladder": ("orders", lambda a, r: float(a[1])),
    "specfun.bessel_j_ladder": ("orders", lambda a, r: float(a[1]) + 1.0),
    "backend.jacobi_series": ("points", lambda a, r: _points(a[3])),
    "basis.GpswfBasis.psi": ("points", lambda a, r: _points(a[2])),
    "approx.target_eval": ("points", lambda a, r: _points(a[1])),
    "specfun.jacobi_table": ("cells", lambda a, r: float(r.size)),
    "basis.build_basis": ("trunc_sum", lambda a, r: float(r.trunc)),
    "spectral.compute_spectrum": ("entries", lambda a, r: float(len(r))),
    "experiments.cache_get": ("hits", lambda a, r: float(r is not None)),
    "experiments.load_basis": ("bytes", lambda a, r: float(os.path.getsize(a[0]))),
    "experiments.cache_put": ("bytes", lambda a, r: float(r.path.stat().st_size)),
}


def gpswf_modules():
    import gpswf

    mods = {"gpswf": gpswf}
    for info in pkgutil.iter_modules(gpswf.__path__):
        if not info.name.startswith("_"):
            mods[info.name] = importlib.import_module(f"gpswf.{info.name}")
    return mods


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("d")
        self.stack = [-1]
        self.op_id = -1          # -1 while setting up, then the op index
        self._saved = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.name)
        self.name.append(self._nid(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.size.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, layer):
        nid = self._nid(layer)
        sizer = SIZES.get(layer, (None, None))[1]
        name, start, end, parent = self.name, self.start, self.end, self.parent
        op, size, stack, clock = self.op, self.size, self.stack, time.perf_counter

        # open() and close() inlined: this runs on every call of the library
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            size.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sizer is not None:
                size[idx] = sizer(args, result)
            return result

        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = gpswf_modules()
        wrappers = {}  # id(original) -> wrapper
        # functions defined in each module, plus the backend's kernel entries
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__ or ""
                if home == mod.__name__ or (
                        home.startswith("gpswf._") and short != "gpswf"):
                    layer = f"{short}.{attr}"
                    if layer not in UNWRAPPED and id(fn) not in wrappers:
                        wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        # every binding of a wrapped function, including from-imports
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and id(fn) in wrappers \
                        and wrappers[id(fn)][0] is fn:
                    self._replace(mod, attr, wrappers[id(fn)][1])
        for short, cls, meth, layer in METHODS:
            owner = getattr(mods[short], cls)
            self._replace(owner, meth, self._wrap(owner.__dict__[meth], layer))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def columns(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=float).copy(),
                "end": np.frombuffer(self.end, dtype=float).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "size": np.frombuffer(self.size, dtype=float).copy()}

    def save(self, path):
        save_spans(path, self.names, self.columns())


def save_spans(path, names, cols):
    np.savez_compressed(path, names=np.array(json.dumps(names)), **cols)


def load_spans(path):
    with np.load(path) as z:
        names = json.loads(str(z["names"]))
        return names, {k: z[k] for k in z.files if k != "names"}


def merge_spans(parts):
    """Concatenate (names, columns) span sets into one, remapping name ids and
    parent indices."""
    ids, out = {}, {k: [] for k in ("name", "start", "end", "parent", "op", "size")}
    offset = 0
    for part_names, cols in parts:
        remap = np.array([ids.setdefault(n, len(ids)) for n in part_names],
                         dtype=np.int32)
        out["name"].append(remap[cols["name"]])
        out["parent"].append(np.where(cols["parent"] >= 0,
                                      cols["parent"] + offset, -1))
        for k in ("start", "end", "op", "size"):
            out[k].append(cols[k])
        offset += cols["name"].size
    return list(ids), {k: np.concatenate(v) for k, v in out.items()}


def layer_metrics(names, cols, entry, rows=None):
    """Per-layer totals over the spans selected by the boolean mask ``rows``
    (all spans by default).

    ``entry`` is the layer name of each op's entry call.  Returns a dict of
    metric name -> value: ``<layer>.calls``, ``.s`` (inclusive), ``.self_s``
    and the layer's size stat, plus the gauss_jacobi hit ratio (a call that
    builds no rule opens no child span), cache hits, misses and bytes read,
    truncation doublings (assemble calls inside build_basis / 2 - builds) and
    the share of entry-call time not covered by any layer span below it.
    """
    n = cols["name"].size
    rows = np.ones(n, bool) if rows is None else rows
    name, parent, size = cols["name"], cols["parent"], cols["size"]
    dur = cols["end"] - cols["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    child_count = np.bincount(parent[has_parent], minlength=n)
    selft = dur - child_time
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    nid = {layer: i for i, layer in enumerate(names)}

    def per_layer(values):
        return np.bincount(name[rows], weights=values[rows], minlength=len(names))

    calls, total, self_total, sizes = (per_layer(np.ones(n)), per_layer(dur),
                                       per_layer(selft), per_layer(size))
    out = {}
    for layer, i in nid.items():
        out[f"{layer}.calls"] = int(calls[i])
        out[f"{layer}.s"] = float(total[i])
        out[f"{layer}.self_s"] = float(self_total[i])
        if layer in SIZES:
            out[f"{layer}.{SIZES[layer][0]}"] = float(sizes[i])

    def where(layer, under=None):
        m = rows & (name == nid.get(layer, -1))
        return m if under is None else m & (parent_name == nid.get(under, -1))

    g = where("specfun.gauss_jacobi")
    out["specfun.gauss_jacobi.hit_ratio"] = (
        float(np.mean(child_count[g] == 0)) if g.any() else 0.0)
    out["specfun.gauss_jacobi.misses"] = int(np.sum(child_count[g] > 0))
    cg = where("experiments.cache_get")
    out["experiments.cache_get.misses"] = int(cg.sum() - size[cg].sum())
    out["experiments.cache_get.bytes"] = float(
        size[where("experiments.load_basis", "experiments.cache_get")].sum())
    out["basis.doublings"] = (int(where("basis.assemble_eigensystem",
                                        "basis.build_basis").sum()) // 2
                              - int(where("basis.build_basis").sum()))
    e = where(entry)
    op_time = float(dur[e].sum())
    out["trace.unattributed_share"] = float(selft[e].sum()) / op_time if op_time else 0.0
    out["trace.spans"] = int(rows.sum())
    return out
