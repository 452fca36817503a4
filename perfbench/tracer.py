"""Span tracer that times tatekit's layers from outside the library.

``Tracer.install`` replaces every binding of each target in ``TARGETS``
with a wrapper: the defining module's name, every re-import of the same
function object in another tatekit module (``frobenius.divide``,
``cli.divide``, ``gabber.compare``, ...), and class attributes such as
``LaurentSeries.__mul__``.  ``uninstall`` puts the originals back.

While an op is open (``begin_op``) each wrapped call records a span:
name, start, end, parent span and op id.  Spans stay in flat arrays in
memory and are written out at the end of the run.  A span's self time is
its duration minus the durations of its child spans, so the self times
of one op's spans add up to the op's duration.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  Dotted attributes live on a class.
TARGETS = (
    ("tatekit.field", "LaurentSeries.__mul__", "field.laurent.mul"),
    ("tatekit.field", "LaurentSeries.__add__", "field.laurent.add"),
    ("tatekit.field", "LaurentSeries.inverse", "field.laurent.inverse"),
    ("tatekit.field", "HahnSum.__mul__", "field.hahn.mul"),
    ("tatekit.field", "HahnSum.__add__", "field.hahn.add"),
    ("tatekit.field", "NormValue.compare", "field.norm.compare"),
    ("tatekit.exponents", "compare", "exponents.compare"),
    ("tatekit.exponents", "enclose", "exponents.enclose"),
    ("tatekit.tate", "TateElem.__mul__", "tate.mul"),
    ("tatekit.tate", "TateElem.__add__", "tate.add"),
    ("tatekit.tate", "gauss_norm", "tate.gauss_norm"),
    ("tatekit.tate", "apply_automorphism", "tate.apply_automorphism"),
    ("tatekit.tate", "find_distinguishing_automorphism", "tate.shear_search"),
    ("tatekit.tate", "distinguished_order", "tate.distinguished_order"),
    ("tatekit.weierstrass", "divide", "weierstrass.divide"),
    ("tatekit.frobenius", "lift_splitting_tate", "frobenius.lift"),
    ("tatekit.frobenius", "ReducedMap.apply", "frobenius.reduced_map"),
    ("tatekit.frobenius", "normalize_to_unital", "frobenius.normalize"),
    ("tatekit.gabber", "distance_lower_bound_check", "gabber.distance"),
    ("tatekit.gabber", "build_context", "gabber.build_context"),
    ("tatekit.parsing", "parse_tate", "parsing.parse"),
    ("tatekit.parsing", "parse_hahn", "parsing.parse"),
    ("tatekit.parsing", "parse_laurent", "parsing.parse"),
    ("tatekit.parsing", "parse_norm_value", "parsing.parse"),
    ("tatekit.parsing", "parse_exponent_vector", "parsing.parse"),
    ("tatekit.parsing", "format_tate", "parsing.format"),
    ("tatekit.parsing", "format_laurent", "parsing.format"),
    ("tatekit.parsing", "format_hahn", "parsing.format"),
    ("tatekit.parsing", "format_norm_value", "parsing.format"),
    ("tatekit.parsing", "format_rational", "parsing.format"),
    ("tatekit.cli", "main", "cli.main"),
)

OP = "op"


def _laurent_mul(counters, args, result):
    counters["field.laurent.mul.term_products"] += len(args[0].terms) * len(args[1].terms)
    counters["field.laurent.mul.terms_out"] += len(result.terms)


def _hahn_mul(counters, args, result):
    counters["field.hahn.mul.term_products"] += len(args[0].terms) * len(args[1].terms)


def _divide(counters, args, result):
    counters["weierstrass.divide.quotient_terms"] += sum(
        len(c.terms) for _, c in result[0].terms
    )


# Work counts taken at the boundary from arguments and results.
HOOKS = {
    "field.laurent.mul": _laurent_mul,
    "field.hahn.mul": _hahn_mul,
    "weierstrass.divide": _divide,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._op_id = None  # None while no op is open: wrappers only forward
        self._root = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, root: bool = True) -> None:
        """Start recording spans for one op, under a root span ``op``."""
        self._op_id = op_id
        self._root = self._open(self.name_id(OP)) if root else None

    def end_op(self) -> None:
        if self._root is not None:
            self._close(self._root)
        self._op_id = None

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "tatekit" or n.startswith("tatekit.")) and m is not None]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                self._patch(owner, leaf, self.wrap(original, name))
                continue
            original = getattr(module, leaf)
            wrapper = self.wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- child processes ---------------------------------------------------

    def export(self) -> list:
        return [[self.names[n], p, s, e]
                for n, p, s, e in zip(self.name, self.parent, self.start, self.end)]

    def merge(self, spans: list, counters: dict) -> None:
        """Attach a child process's spans under the open op's root span."""
        base = len(self.name)
        for name, parent, start, end in spans:
            self.name.append(self.name_id(name))
            self.parent.append(base + parent if parent >= 0 else self._stack[-1])
            self.op.append(self._op_id)
            self.start.append(start)
            self.end.append(end)
        for key, value in counters.items():
            self.counters[key] += value

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def inside(self, scope: str) -> bytearray:
        """flags[i] = 1 when span i has an ancestor named ``scope``."""
        sid = self._ids.get(scope, -1)
        flags = bytearray(len(self.name))
        for i, p in enumerate(self.parent):
            if p >= 0 and (self.name[p] == sid or flags[p]):
                flags[i] = 1
        return flags

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,op,parent,start,end\n")
            for n, o, p, s, e in zip(self.name, self.op, self.parent, self.start, self.end):
                out.write(f"{self.names[n]},{o},{p},{s!r},{e!r}\n")


# Spans reported as ``<name>.calls`` and ``<name>.self_s``.
CALL_LAYERS = (
    "field.laurent.mul", "field.laurent.add", "field.laurent.inverse",
    "weierstrass.divide",
    "exponents.compare", "exponents.enclose",
    "field.hahn.mul", "field.hahn.add", "field.norm.compare",
    "gabber.distance",
    "tate.mul", "tate.add", "tate.gauss_norm", "tate.apply_automorphism",
    "tate.shear_search",
    "frobenius.lift", "frobenius.reduced_map", "frobenius.normalize",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced run.  Spans of op -1 (set-up)
    count only towards ``gabber.build_context.busy_s``."""
    own = tracer.self_times()
    ids = tracer._ids
    calls: defaultdict[int, int] = defaultdict(int)
    self_s: defaultdict[int, float] = defaultdict(float)
    for i, (n, o) in enumerate(zip(tracer.name, tracer.op)):
        if o >= 0:
            calls[n] += 1
            self_s[n] += own[i]

    def count(name):
        return calls[ids[name]] if name in ids else 0

    def self_time(name):
        return self_s[ids[name]] if name in ids else 0.0

    def busy(name, ops_only=True):
        # Time inside outermost spans of this name.
        if name not in ids:
            return 0.0
        nested = tracer.inside(name)
        return sum(tracer.end[i] - tracer.start[i]
                   for i, n in enumerate(tracer.name)
                   if n == ids[name] and not nested[i]
                   and (tracer.op[i] >= 0 or not ops_only))

    def count_inside(name, scope):
        if name not in ids:
            return 0
        flags = tracer.inside(scope)
        return sum(1 for i, (n, o) in enumerate(zip(tracer.name, tracer.op))
                   if n == ids[name] and o >= 0 and flags[i])

    def per(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = count(name)
        out[f"{name}.self_s"] = self_time(name)
    for key in ("field.laurent.mul.term_products", "field.laurent.mul.terms_out",
                "field.hahn.mul.term_products", "weierstrass.divide.quotient_terms"):
        out[key] = tracer.counters.get(key, 0)
    out["weierstrass.divide.busy_s"] = busy("weierstrass.divide")
    out["weierstrass.divide.laurent_mul_per_call"] = per(
        count_inside("field.laurent.mul", "weierstrass.divide"), count("weierstrass.divide"))
    out["exponents.enclose_per_compare"] = per(
        count_inside("exponents.enclose", "exponents.compare"), count("exponents.compare"))
    out["tate.shear_search.candidates"] = per(
        count_inside("tate.distinguished_order", "tate.shear_search"),
        count("tate.shear_search"))
    out["parsing.parse.self_s"] = self_time("parsing.parse")
    out["parsing.format.self_s"] = self_time("parsing.format")
    out["cli.main.self_s"] = self_time("cli.main")
    out["gabber.build_context.busy_s"] = busy("gabber.build_context", ops_only=False)
    return out


def _units() -> dict[str, str]:
    units = {}
    for name in CALL_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "field.laurent.mul.term_products": "count",
        "field.laurent.mul.terms_out": "count",
        "field.hahn.mul.term_products": "count",
        "weierstrass.divide.quotient_terms": "count",
        "weierstrass.divide.busy_s": "s",
        "weierstrass.divide.laurent_mul_per_call": "count/call",
        "exponents.enclose_per_compare": "count/call",
        "tate.shear_search.candidates": "count/call",
        "parsing.parse.self_s": "s",
        "parsing.format.self_s": "s",
        "cli.main.self_s": "s",
        "gabber.build_context.busy_s": "s",
        "cli.interp_s": "s",
        "cli.import_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


# Every per-layer metric a traced run prints, with its unit.
UNITS = _units()
