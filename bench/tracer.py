"""Outside-in span tracer for the hklab layers.

The tracer changes no hklab source file.  `Tracer.install()` replaces
every public function of the hklab modules, in every hklab namespace that
bound it by name (so `multiplicity.buchberger` is wrapped as well as
`groebner.buchberger`), plus a few methods on their classes:
`GroebnerBasis.colength`, `GroebnerBasis.normal_form`, `Polynomial.__mul__`
and the arithmetic methods of the three field classes.

Each wrapped call records one span: name, start, end and parent span,
kept in per-thread arrays in memory and written out by `dump()` at the
end.  Times are thread CPU time (`time.thread_time_ns`), so two pool
threads taking turns on the interpreter lock do not count each other's
work.  `summarize()` derives the per-layer metrics from the spans alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import threading
import time
import types
from array import array

HKLAB_MODULES = (
    "hklab",
    "hklab.coeff",
    "hklab.polyring",
    "hklab.groebner",
    "hklab.linalg",
    "hklab.multiplicity",
    "hklab.family",
    "hklab.cli",
)

FIELD_METHODS = ("add", "sub", "neg", "mul", "inv", "div", "pow", "frobenius_raw")
FIELD_KINDS = {
    "PrimeField": "coeff.fp",
    "ExtensionField": "coeff.gf",
    "RationalFunctionField": "coeff.fpt",
}
METHOD_GROUPS = {
    "polyring.Polynomial.__mul__": "polyring.mul",
    "groebner.GroebnerBasis.colength": "groebner.colength",
    "groebner.GroebnerBasis.normal_form": "groebner.normal_form",
}
MAX_E = 8


def group_of(name: str) -> str:
    """Layer metric group of a span name; nested spans of one group count once."""
    if name in METHOD_GROUPS:
        return METHOD_GROUPS[name]
    module, _, rest = name.partition(".")
    cls = rest.partition(".")[0]
    if module == "coeff" and cls in FIELD_KINDS:
        return FIELD_KINDS[cls]
    return name


def fiber_key(R, I) -> str:
    """Identity of a fiber's (ring, ideal) pair, for cell-redundancy counts."""
    defining = ";".join(repr(g) for g in R.defining)
    ideal = ";".join(repr(g) for g in I.generators)
    return f"{R.ring.domain!r}|{defining}|{ideal}"


class _Buffer:
    """Spans of one thread, in parallel arrays indexed by span number."""

    def __init__(self):
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = []
        self.attrs = {}  # span number -> JSON-able annotation


class Tracer:
    """Records spans of the wrapped hklab calls; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._buffers = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []  # (namespace, attribute, original)
        self._pending_e = {}  # id(GroebnerBasis) -> (e, basis) awaiting its colength

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def wrap(self, fn, name: str, annotate=None):
        """A wrapper of `fn` recording one span per call; `annotate(args,
        kwargs, result)` may return an attribute stored with the span."""
        nid = self._name_id(name)
        clock = time.thread_time_ns
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if annotate is not None:
                buf.attrs[idx] = annotate(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- annotations ---------------------------------------------------------

    def _note_hk_sample(self, args, kwargs, gb):
        R, _, q = args[:3]
        p = R.ring.domain.characteristic
        e = 0
        while q > 1:
            q //= p
            e += 1
        self._pending_e[id(gb)] = (e, gb)
        return {"e": e}

    def _note_colength(self, args, kwargs, result):
        note = {"value": None if result == math.inf else result}
        pending = self._pending_e.pop(id(args[0]), None)
        if pending is not None:
            note["e"] = pending[0]
        return note

    @staticmethod
    def _note_basis(args, kwargs, gb):
        return {"size": len(gb.elements), "terms": sum(len(g._terms) for g in gb.elements)}

    @staticmethod
    def _note_cells(args, kwargs, result):
        R, I, top = args[:3]
        return {"fiber": fiber_key(R, I), "top": top}

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap the hklab layers; the modules must already be imported."""
        modules = [importlib.import_module(m) for m in HKLAB_MODULES]
        annotate = {
            "multiplicity.hk_sample_gb": self._note_hk_sample,
            "groebner.buchberger": self._note_basis,
            "multiplicity.hk_function": self._note_cells,
            "multiplicity.hs_function": self._note_cells,
        }
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                origin = value.__module__ or ""
                if not origin.startswith("hklab."):
                    continue
                wrapper = wrappers.get(value)
                if wrapper is None:
                    name = f"{origin[len('hklab.'):]}.{value.__qualname__}"
                    wrapper = self.wrap(value, name, annotate.get(name))
                    wrappers[value] = wrapper
                self._set(module, attr, wrapper)

        coeff, polyring, groebner = (
            importlib.import_module(f"hklab.{m}") for m in ("coeff", "polyring", "groebner"))
        for cls_name in FIELD_KINDS:
            cls = getattr(coeff, cls_name)
            for method in FIELD_METHODS:
                self._set(cls, method, self.wrap(getattr(cls, method), f"coeff.{cls_name}.{method}"))
        poly = polyring.Polynomial
        mul = self.wrap(poly.__mul__, "polyring.Polynomial.__mul__")
        self._set(poly, "__mul__", mul)
        self._set(poly, "__rmul__", mul)
        basis = groebner.GroebnerBasis
        self._set(basis, "colength", self.wrap(
            basis.colength, "groebner.GroebnerBasis.colength", self._note_colength))
        self._set(basis, "normal_form", self.wrap(
            basis.normal_form, "groebner.GroebnerBasis.normal_form"))

    def _set(self, namespace, attr, value):
        self._restore.append((namespace, attr, namespace.__dict__.get(attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            if original is None:
                delattr(namespace, attr)
            else:
                setattr(namespace, attr, original)
        self._restore.clear()
        self._pending_e.clear()

    # -- output --------------------------------------------------------------

    def spans(self) -> dict:
        """All recorded spans as plain lists; parents index within a thread."""
        return {
            "names": list(self.names),
            "clock": "thread_time_ns",
            "threads": [
                {
                    "name": buf.name.tolist(),
                    "start": buf.start.tolist(),
                    "end": buf.end.tolist(),
                    "parent": buf.parent.tolist(),
                    "attrs": {str(k): v for k, v in buf.attrs.items()},
                }
                for buf in self._buffers
            ],
        }

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans(), fh, separators=(",", ":"))


def _per_group(spans: dict):
    """Self time (ns) and outside-in call count per metric group."""
    names = spans["names"]
    groups = [group_of(n) for n in names]
    self_ns, calls = {}, {}
    for thread in spans["threads"]:
        name, start, end, parent = (thread[k] for k in ("name", "start", "end", "parent"))
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        for i, nid in enumerate(name):
            g = groups[nid]
            self_ns[g] = self_ns.get(g, 0) + own[i]
            p = parent[i]
            if p < 0 or groups[name[p]] != g:
                calls[g] = calls.get(g, 0) + 1
    return self_ns, calls


def summarize(spans: dict) -> dict:
    """Per-layer metrics (name -> value) of one traced run."""
    self_ns, calls = _per_group(spans)
    names = spans["names"]

    def s(group):
        return self_ns.get(group, 0) / 1e9

    def n(group):
        return calls.get(group, 0)

    metrics = {}
    for kind in ("fpt", "gf", "fp"):
        metrics[f"coeff.{kind}.calls"] = n(f"coeff.{kind}")
        metrics[f"coeff.{kind}.self_s"] = s(f"coeff.{kind}")
    for fn in ("frobenius_power", "ordinary_power", "mul"):
        metrics[f"polyring.{fn}.calls"] = n(f"polyring.{fn}")
        metrics[f"polyring.{fn}.self_s"] = s(f"polyring.{fn}")
    for fn in ("buchberger", "colength", "normal_form"):
        metrics[f"groebner.{fn}.calls"] = n(f"groebner.{fn}")
        metrics[f"groebner.{fn}.self_s"] = s(f"groebner.{fn}")

    sizes, terms, colengths = [], 0, 0
    e_ns = [0] * (MAX_E + 1)
    cells = {"hk": [], "hs": []}
    for thread in spans["threads"]:
        start, end, name = thread["start"], thread["end"], thread["name"]
        for key, note in thread["attrs"].items():
            i = int(key)
            span = names[name[i]]
            if span == "groebner.buchberger":
                sizes.append(note["size"])
                terms += note["terms"]
            elif span == "groebner.GroebnerBasis.colength":
                colengths += note["value"] or 0
            elif span == "multiplicity.hk_function":
                cells["hk"].append(note)
            elif span == "multiplicity.hs_function":
                cells["hs"].append(note)
            if "e" in note and 1 <= note["e"] <= MAX_E:
                e_ns[note["e"]] += end[i] - start[i]
    metrics["groebner.basis_size.max"] = max(sizes, default=0)
    metrics["groebner.basis_terms.sum"] = terms
    metrics["groebner.colength.sum"] = colengths

    for fn in ("hk_function", "hs_function"):
        metrics[f"multiplicity.{fn}.calls"] = n(f"multiplicity.{fn}")
        metrics[f"multiplicity.{fn}.self_s"] = s(f"multiplicity.{fn}")
    for e in range(1, MAX_E + 1):
        metrics[f"multiplicity.hk_e{e}_s"] = e_ns[e] / 1e9
    metrics["multiplicity.socle_basis.self_s"] = s("multiplicity.socle_basis")

    metrics["linalg.kernel_basis.calls"] = n("linalg.kernel_basis")
    metrics["linalg.kernel_basis.self_s"] = s("linalg.kernel_basis")
    metrics["linalg.rref.calls"] = n("linalg.rref")
    metrics["linalg.det.calls"] = n("linalg.det")

    metrics["family.specialize_fiber.calls"] = n("family.specialize_fiber")
    metrics["family.specialize_fiber.self_s"] = s("family.specialize_fiber")
    for kind in ("hk", "hs"):
        computed = [(c["fiber"], k) for c in cells[kind] for k in range(1, c["top"] + 1)]
        # no cells computed means no redundant ones either
        ratio = len(computed) / len(set(computed)) if computed else 1.0
        metrics[f"family.{kind}_cells.redundancy"] = ratio

    metrics["cli.self_s"] = sum(v for g, v in self_ns.items() if g.startswith("cli.")) / 1e9
    return metrics
