"""Span tracer that wraps hermiteforge's layers from outside the package.

Every public function of a hermiteforge module, the public methods and
arithmetic dunders of its classes, and the `fractions.Fraction` constructor
and operators are replaced by timing wrappers for the duration of a traced
pass. Modules import each other with `from .x import y`, so a function is
rebound in every hermiteforge namespace that holds it, not only where it is
defined. Nothing in `src/` is edited; `Tracer.uninstall` restores the
originals.

A span is (name, start, end, parent). Spans live in memory in flat arrays and
are written out by `Tracer.write_spans` when the run ends. Fraction operators
run millions of times per item, so they are aggregated per name and not kept
as span records; they still count as children when their callers' self time
is computed. A span's self time is its duration minus the time its children
cover.
"""

from __future__ import annotations

import inspect
import json
import numbers
import sys
import time
from array import array
from fractions import Fraction

LAYERS = (
    "exactalg",
    "polybasis",
    "taylor",
    "subdivision",
    "factor",
    "construct",
    "analysis",
    "splines",
    "cli",
)

# Dunders that do arithmetic or build objects; other dunders (repr, getitem,
# bool on library types) are cheap plumbing and stay unwrapped.
_WORK_DUNDERS = {
    "__init__", "__post_init__", "__eq__", "__hash__", "__neg__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__pow__",
}

# Accessors called once per stencil entry inside the subdivision loops: a
# wrapper there would cost more than the call it measures, so their time is
# charged to the caller.
_HOT_ACCESSORS = {"Mask.matrix", "LaurentPoly.coeff", "LaurentPoly.items"}

_FRACTION_OPS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__pow__", "__rpow__", "__pos__", "__neg__", "__abs__", "__int__",
    "__trunc__", "__floor__", "__ceil__", "__round__", "__hash__", "__eq__",
    "__lt__", "__gt__", "__le__", "__ge__", "__bool__", "__float__", "__str__",
    "limit_denominator", "as_integer_ratio",
)

# Bound on kept span records (4 arrays, 24 bytes a span); later spans are
# still timed and counted, only their records are dropped.
MAX_SPANS = 2_000_000

_MISSING = object()


def _coeff_bits(values) -> int:
    best = 0
    for v in values:
        if type(v) is Fraction:
            b = max(v.numerator.bit_length(), v.denominator.bit_length())
            if b > best:
                best = b
    return best


class Tracer:
    """Owns the wrappers, the span arrays and the per-name counters."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        # One frame per open span: [start, child_time, name_idx, span_id].
        self._stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.items = 0
        # Probe results.
        self.max_coeff_bits = 0
        self.max_value_bits = 0
        self.grid_points = 0
        self.iterated_support_max = 0
        self.gate_checks = 0
        self.chain_for_repeats = 0
        self._seen_ops: set = set()
        self.json_bytes = 0
        self._patches: list[tuple[object, str, object]] = []
        self._item_idx = self._name("bench.item", "bench")
        self._probe_idx = self._name("trace.probe", "trace")

    # -- bookkeeping -----------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self._index[name] = idx
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return idx

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) of one span name."""
        idx = self._index.get(name)
        if idx is None:
            return 0, 0.0, 0.0
        return self.calls[idx], self.self_s[idx], self.total_s[idx]

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for idx, layer in enumerate(self.layer_of):
            out[layer] = out.get(layer, 0.0) + self.self_s[idx]
        return out

    def layer_calls(self, layer: str) -> int:
        return sum(c for c, l in zip(self.calls, self.layer_of) if l == layer)

    # -- the wrapper -----------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, record: bool = True, probe=None):
        idx = self._name(name, layer)
        tracer = self
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        sname, sparent, sstart, send = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        clock = time.perf_counter
        probe_idx = self._probe_idx

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = parent[3] if parent else -1
            kept = False
            if record:
                if len(sstart) < MAX_SPANS:
                    sname.append(idx)
                    sparent.append(sid)
                    sid = len(sstart)
                    sstart.append(0.0)
                    send.append(0.0)
                    kept = True
                else:
                    tracer.spans_dropped += 1
            frame = [0.0, 0.0, idx, sid]
            stack.append(frame)
            start = frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                total_s[idx] += dur
                if parent is not None:
                    parent[1] += dur
                if kept:
                    sstart[sid] = start
                    send[sid] = end
            if probe is not None:
                # Probes read results and may hash Fractions; keep that out
                # of the counters and out of the caller's self time.
                tracer.on = False
                p0 = clock()
                probe(args, result, parent[2] if parent else -1)
                pd = clock() - p0
                tracer.on = True
                calls[probe_idx] += 1
                self_s[probe_idx] += pd
                total_s[probe_idx] += pd
                if parent is not None:
                    parent[1] += pd
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def item(self):
        """Context manager for one benchmark item: the root span."""
        return _ItemSpan(self)

    # -- probes ----------------------------------------------------------

    def _probe_poly(self, args, result, parent_idx):
        c = getattr(result, "_c", None)
        if c:
            b = _coeff_bits(c.values())
            if b > self.max_coeff_bits:
                self.max_coeff_bits = b

    def _probe_step(self, args, result, parent_idx):
        vals = result[0]
        self.grid_points += len(vals)
        if vals and vals[0] and type(vals[0][0]) is Fraction:
            b = max(_coeff_bits(col) for col in vals)
            if b > self.max_value_bits:
                self.max_value_bits = b

    def _probe_iterated(self, args, result, parent_idx):
        lo = hi = None
        for row in result.rows:
            for f in row:
                if f:
                    flo, fhi = f.lo, f.hi
                    lo = flo if lo is None or flo < lo else lo
                    hi = fhi if hi is None or fhi > hi else hi
        if lo is not None and hi - lo + 1 > self.iterated_support_max:
            self.iterated_support_max = hi - lo + 1

    def _probe_eigen(self, args, result, parent_idx):
        if parent_idx >= 0 and self.names[parent_idx] == "factor.factor_through":
            self.gate_checks += 1

    def _probe_chain_for(self, args, result, parent_idx):
        op = args[0]
        key = (op.w, op.complete)
        if key in self._seen_ops:
            self.chain_for_repeats += 1
        else:
            self._seen_ops.add(key)

    _PROBES = {
        "exactalg.LaurentPoly.__mul__": "_probe_poly",
        "exactalg.LaurentPoly.divide_exact": "_probe_poly",
        "subdivision.hermite_step": "_probe_step",
        "analysis.iterated_symbol": "_probe_iterated",
        "subdivision.eigen_check": "_probe_eigen",
        "taylor.chain_for": "_probe_chain_for",
    }

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer of the already imported hermiteforge package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = sys.modules["hermiteforge"]
        modules = {layer: sys.modules[f"hermiteforge.{layer}"] for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    probe = self._PROBES.get(name)
                    replaced[id(obj)] = self._wrap(
                        obj, name, layer, probe=getattr(self, probe) if probe else None
                    )
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        # Rebind each wrapped function wherever the package binds it.
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        self._wrap_fractions()
        cli = modules["cli"]
        self._set(cli, "json", _CountingJson(self))

    def _wrap_class(self, cls, layer: str) -> None:
        seen: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__"):
                if attr not in _WORK_DUNDERS:
                    continue
            elif attr.startswith("_"):
                continue
            if f"{cls.__name__}.{attr}" in _HOT_ACCESSORS:
                continue
            kind = type(raw)
            fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
            if not inspect.isfunction(fn):
                continue
            # __radd__ = __add__ binds one function twice; share the wrapper.
            wrapper = seen.get(id(fn))
            if wrapper is None:
                name = f"{layer}.{cls.__name__}.{fn.__name__}"
                probe = self._PROBES.get(name)
                wrapper = self._wrap(
                    fn, name, layer, probe=getattr(self, probe) if probe else None
                )
                seen[id(fn)] = wrapper
            self._set(cls, attr, kind(wrapper) if kind in (classmethod, staticmethod) else wrapper)

    def _wrap_fractions(self) -> None:
        for attr in _FRACTION_OPS:
            raw = Fraction.__dict__.get(attr)
            if raw is None:
                raw = getattr(numbers.Rational, attr, None)
            if raw is None:
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(fn, f"fractions.Fraction.{attr}", "fractions", record=False)
            self._set(Fraction, attr, staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self) -> None:
        self.on = False
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path_prefix: str) -> dict:
        """Write the span arrays and their name table; return the index."""
        index = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.span_start),
            "spans_dropped": self.spans_dropped,
            "fields": {
                "name": f"{path_prefix}.name.i32",
                "parent": f"{path_prefix}.parent.i32",
                "start": f"{path_prefix}.start.f64",
                "end": f"{path_prefix}.end.f64",
            },
            "byteorder": sys.byteorder,
        }
        for key, arr in (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("start", self.span_start),
            ("end", self.span_end),
        ):
            with open(index["fields"][key], "wb") as fh:
                arr.tofile(fh)
        with open(f"{path_prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(index, fh)
        return index


class _ItemSpan:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        if t._stack:
            raise RuntimeError("item spans do not nest")
        sid = -1
        if len(t.span_start) < MAX_SPANS:
            sid = len(t.span_start)
            t.span_name.append(t._item_idx)
            t.span_parent.append(-1)
            t.span_start.append(0.0)
            t.span_end.append(0.0)
        self.frame = [0.0, 0.0, t._item_idx, sid]
        t._stack.append(self.frame)
        t.on = True
        self.frame[0] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.on = False
        t._stack.pop()
        start, child, idx, sid = self.frame
        dur = end - start
        t.calls[idx] += 1
        t.self_s[idx] += dur - child
        t.total_s[idx] += dur
        t.items += 1
        if sid >= 0:
            t.span_start[sid] = start
            t.span_end[sid] = end
        self.duration = dur
        return False


class _CountingJson:
    """Stands in for the `json` module inside `hermiteforge.cli` and counts
    the bytes of JSON the CLI reads (`json.load`) and writes (`json.dumps`)."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(json, attr)

    def dumps(self, obj, **kwargs):
        text = json.dumps(obj, **kwargs)
        if self._tracer.on:
            self._tracer.json_bytes += len(text.encode("utf-8"))
        return text

    def load(self, fh, **kwargs):
        text = fh.read()
        if self._tracer.on:
            self._tracer.json_bytes += len(text.encode("utf-8"))
        return json.loads(text, **kwargs)
