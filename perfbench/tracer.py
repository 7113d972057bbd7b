"""Span recorder for the traced run, installed from outside the package.

``install`` wraps the public functions and methods of every psi_umbral
module (the layers) and rebinds each name wherever a module imported it
with ``from .x import y``, including functions held in module-level tables
such as ``cli.RUNNERS`` and ``verify.SUITES``.  Each call then records one
span: name, start, end, parent span and request id, appended to an
in-memory array and written out when the run ends.

Left unwrapped, to bound the overhead: constructors, properties, equality,
hashing and printing, the cheapest arithmetic (every class's ``__add__``
and ``__neg__``), single-element accessors (``coefficient``, ``image``) and
the scalar converters (``as_scalar``, ``scalar_to_str``,
``scalar_from_str``).  Their time is charged to the calling span.  ``PsiSequence.n_psi`` and ``factorial`` are
counted, with their memo hits, but record no span for the same reason.
"""

import functools
import importlib
import time
import types
from array import array

LAYERS = ("algebra", "psi", "operators", "umbral", "expansion", "star_product",
          "special", "integration", "verify", "exprparse", "jobs", "cli")

SKIP_METHODS = {"__init__", "__repr__", "__str__", "__eq__", "__hash__",
                "__add__", "__neg__", "__len__", "__getitem__", "coefficient",
                "image"}
SKIP_FUNCTIONS = {"as_scalar", "scalar_to_str", "scalar_from_str"}
COUNTED = {"psi.PsiSequence.n_psi": "_memo", "psi.PsiSequence.factorial": "_fact"}
DUNDERS = {"__mul__", "__rmul__", "__sub__", "__pow__", "__truediv__", "__call__"}

# Span names split by an argument, so each formula and suite gets its own.
RODRIGUES = "umbral.rodrigues_sequence"
RUN_SUITE = "verify.run_suite"
REVERSION = "algebra.TruncatedSeries.reversion"
SERIES_MUL = "algebra.TruncatedSeries.__mul__"
REQUEST = "bench.request"
# Calls whose own cap is kept with the span, for the cap-scaling fits.
CAP_TAGGED = {REVERSION, RODRIGUES, "operators.is_shift_invariant"}

FIELDS = 6  # span id, name id, start ns, end ns, parent span id, request id


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.records = array("q")
        self.stack = [-1]
        self.next_id = 0
        self.request = -1
        self.counts = {}
        self.memo_hits = 0
        self.series_products = 0
        self.poly_products = 0
        self.compose_rows_in = 0
        self.compose_rows_out = 0
        self.reversion_depth = 0
        self.series_mul_in_reversion = 0
        self.span_caps = {}
        self._undo = []
        self._request_span = self._span(lambda fn, *args: fn(*args), REQUEST)

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, probe=None, namer=None):
        records, stack, clock = self.records, self.stack, time.perf_counter_ns
        fixed = self.name_id(name)
        tracer = self
        span_caps = self.span_caps if name in CAP_TAGGED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            if span_caps is not None:
                span_caps[sid] = args[0].cap
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                nid = fixed if namer is None else namer(args, kwargs)
                records.extend((sid, nid, start, end, parent, tracer.request))
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _counter(self, fn, name, memo_attr):
        tracer = self
        tracer.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(self_, n, *rest):
            tracer.counts[name] += 1
            if n < len(getattr(self_, memo_attr)):
                tracer.memo_hits += 1
            return fn(self_, n, *rest)

        return wrapper

    def _series_mul_probe(self, args, result):
        if self.reversion_depth:
            self.series_mul_in_reversion += 1
        c = result.cap + 1
        # series x series walks a triangle; series x scalar one row
        self.series_products += c * (c + 1) // 2 if hasattr(args[1], "cap") else c

    def _poly_mul_probe(self, args, result):
        a, b = args
        self.poly_products += len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)

    def _compose_probe(self, args, result):
        self.compose_rows_in += args[1].cap + 1
        self.compose_rows_out += result.cap + 1

    def _namer(self, name):
        if name == RODRIGUES:
            ids = {f: self.name_id("umbral.rodrigues_f%d" % f) for f in (1, 2, 3, 4)}
            return lambda args, kw: ids[kw.get("formula", args[2] if len(args) > 2 else 4)]
        if name == RUN_SUITE:
            return lambda args, kw: self.name_id("verify.suite." + args[0])
        return None

    def _nested(self, fn):
        """Keep reversion_depth so series products inside reversion are known."""
        tracer = self

        def inner(*args, **kwargs):
            tracer.reversion_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.reversion_depth -= 1

        return functools.wraps(fn)(inner)

    def _wrap(self, fn, name):
        if name in COUNTED:
            return self._counter(fn, name, COUNTED[name])
        if name == REVERSION:
            fn = self._nested(fn)
        probe = {SERIES_MUL: self._series_mul_probe,
                 "algebra.Polynomial.__mul__": self._poly_mul_probe,
                 "operators.GradedOperator.compose": self._compose_probe}.get(name)
        return self._span(fn, name, probe, self._namer(name))

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every layer's entry points and rebind them everywhere."""
        modules = {layer: importlib.import_module("psi_umbral." + layer)
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and attr not in SKIP_FUNCTIONS:
                    replaced[obj] = self._wrap(obj, "%s.%s" % (layer, attr))
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj)
        for ns in list(modules.values()) + [importlib.import_module("psi_umbral")]:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        new = _rebind(value, replaced)
                        if new is not value:
                            self._undo.append((obj, key, value))
                            obj[key] = new
                else:
                    new = _rebind(obj, replaced)
                    if new is not obj:
                        self._undo.append((ns, attr, obj))
                        setattr(ns, attr, new)

    def _wrap_class(self, layer, cls):
        wrappers = {}
        for attr, raw in list(vars(cls).items()):
            if attr in SKIP_METHODS or (attr.startswith("_") and attr not in DUNDERS):
                continue
            kind = type(raw)
            fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
            if not isinstance(fn, types.FunctionType):
                continue
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, "%s.%s.%s" % (layer, cls.__name__,
                                                            fn.__name__))
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, kind(wrappers[fn])
                    if kind in (classmethod, staticmethod) else wrappers[fn])

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # -- requests and output ------------------------------------------------------

    def run_request(self, rid, fn, *args):
        """Run one request under a root span that carries its id."""
        self.request = rid
        return self._request_span(fn, *args)

    def write(self, path_prefix):
        """Spans as native int64 rows (FIELDS per span) plus a names file."""
        with open(path_prefix + ".spans", "wb") as fh:
            self.records.tofile(fh)
        with open(path_prefix + ".names", "w") as fh:
            fh.write("\n".join(self.names) + "\n")


def _rebind(value, replaced):
    if isinstance(value, types.FunctionType):
        return replaced.get(value, value)
    if isinstance(value, tuple) and value and all(
            isinstance(v, types.FunctionType) for v in value):
        if any(v in replaced for v in value):
            return tuple(replaced.get(v, v) for v in value)
    return value


# -- aggregation ---------------------------------------------------------------

def aggregate(tracer, timed=()):
    """Per-name [calls, inclusive ns, self ns], and (cap, ns) per call of
    each name in ``timed`` (names of CAP_TAGGED spans).

    Self time is a span's duration minus the durations of its direct
    children.  Calls are synchronous on one thread, so children nest inside
    their parent and end before it: records arrive children first, and only
    the still-open ancestors hold a pending child total.
    """
    rec = tracer.records
    timed_ids = {tracer.name_id(name): name for name in timed}
    durations = {name: [] for name in timed}
    pending = {}
    by_name = {}
    for base in range(0, len(rec), FIELDS):
        sid, nid, start, end, parent, req = rec[base:base + FIELDS]
        dur = end - start
        own = dur - pending.pop(sid, 0)
        if parent >= 0:
            pending[parent] = pending.get(parent, 0) + dur
        entry = by_name.get(nid)
        if entry is None:
            entry = by_name[nid] = [0, 0, 0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += own
        if nid in timed_ids:
            durations[timed_ids[nid]].append((tracer.span_caps[sid], dur))
    return {tracer.names[nid]: v for nid, v in by_name.items()}, durations


def layer_of(name):
    return name.split(".", 1)[0]
