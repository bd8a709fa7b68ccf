"""The traced run: spans and counters recorded around the program's layers.

Nothing here changes the program.  ``install`` imports the skewloci modules
in dependency order and, right after each import, replaces the module's
public functions and the public methods of its classes with wrappers that
record a span.  Modules bind names at import (``from .linalg import
kernel``), so a module is wrapped before any module that imports it is
loaded.  Hot scalar methods get count-only wrappers, and generators get
wrappers that count what they yield.

Each module is a layer.  A span's self time is its duration minus the
time of the spans of other layers that it encloses, so
``PlaneCubic.rational_points`` keeps the ``evaluate`` calls it makes but
not the ``projective`` or ``linalg`` work.  Spans of one group (a name, or
the names listed in GROUPS) nested inside each other count once.
``layer_metrics`` turns the totals of one pass into the per-layer metrics
named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# dependency order: every module comes after the modules it imports
MODULES = (
    "fields", "linalg", "projective", "polys", "complexes", "cubic",
    "pencils", "nets", "fournets", "cohomology", "cli",
)

# FieldElement methods counted as scalar arithmetic, without a span
ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
)

# classes of the scalar layer whose methods are too hot to wrap
SKIP_CLASSES = {"FieldElement", "Field", "Rationals", "PrimeField", "ExtField",
                "Embedding", "Poly", "RootResult", "MPoly"}

# private functions that carry a layer metric
EXTRA_SPANS = {"cli": ("_validate_or_messages",)}

# spans that share one time total
GROUPS = {
    "linalg.pfaffian_field": "linalg.pfaffian",
    "complexes.LinearComplex.classify": "complexes.classify",
    "complexes.LinearComplex.complex_class": "complexes.classify",
    "cubic.two_torsion": "cubic.torsion_scan",
    "cubic.halvings": "cubic.torsion_scan",
    "cli.load_schema": "cli.schema",
    "cli._validate_or_messages": "cli.schema",
}


def layer_of(name):
    """The module of a span; schema work is a layer of its own."""
    return "schema" if GROUPS.get(name) == "cli.schema" else name.split(".")[0]


class Tracer:
    """Call counts, self times and keyed repeat counts of one process."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.items = {}
        self.seen = {}
        self.repeats = {}
        self.maxima = {}
        self._active = {}
        self._stack = []

    def reset(self):
        """Start a new pass; the wrappers keep these same containers."""
        for table in (self.calls, self.self_s, self.items, self.seen,
                      self.repeats, self.maxima, self._active):
            table.clear()
        self._stack.clear()

    # wrappers -------------------------------------------------------------
    def span(self, name, fn):
        calls, self_s, active, stack = self.calls, self.self_s, self._active, self._stack
        group, layer = GROUPS.get(name, name), layer_of(name)
        before, after = BEFORE_HOOKS.get(name), AFTER_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            frame = [layer, 0.0]  # [layer, time in enclosed foreign spans]
            stack.append(frame)
            active[group] = active.get(group, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[group] -= 1
                if not active[group]:
                    self_s[group] = self_s.get(group, 0.0) + dt - frame[1]
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    parent = stack[-1]
                    parent[1] += dt if parent[0] != layer else frame[1]
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name, fn):
        items = self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for x in fn(*args, **kwargs):
                    n += 1
                    yield x
            finally:
                items[name] = items.get(name, 0) + n

        return wrapper

    def note_key(self, name, key):
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.repeats[name] = self.repeats.get(name, 0) + 1
        else:
            seen.add(key)

    def note_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    # installation ---------------------------------------------------------
    def _wrap_callable(self, qual, fn):
        if inspect.isgeneratorfunction(fn):
            return self.generator(qual, fn)
        return self.span(qual, fn)

    def install(self):
        """Import every module of MODULES and wrap it."""
        for short in MODULES:
            mod = importlib.import_module(f"skewloci.{short}")
            names = [n for n in vars(mod) if not n.startswith("_")]
            names += list(EXTRA_SPANS.get(short, ()))
            for name in names:
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    setattr(mod, name, self._wrap_callable(f"{short}.{name}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
            if short == "fields":
                self._wrap_scalars(mod)

    def _wrap_class(self, short, cls):
        if cls.__name__ in SKIP_CLASSES:
            return
        for name, attr in list(vars(cls).items()):
            qual = f"{short}.{cls.__name__}.{name}"
            if name == "__init__":
                setattr(cls, name, self.span(qual, attr))
            elif name.startswith("_"):
                continue
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap_callable(qual, attr.__func__)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap_callable(qual, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap_callable(qual, attr))

    def _wrap_scalars(self, fields):
        elem = fields.FieldElement
        for name in ARITH:
            if name in vars(elem):
                setattr(elem, name, self.counter("fields.arith", vars(elem)[name]))
        for name in ("zero", "one"):
            prop = vars(fields.Field).get(name)
            if isinstance(prop, property):
                setattr(fields.Field, name,
                        property(self.counter("fields.const", prop.fget)))


def _values(xs):
    return tuple(repr(x.v) for x in xs)


def _cubic_key(tracer, args):
    C = args[0]
    tracer.note_key("cubic.PlaneCubic.rational_points",
                    (C.field.short(), _values(C.coeffs)))


def _net_key(tracer, args):
    net = args[0]
    tracer.note_key("nets.net_pfaffian_cubic",
                    (net.field.short(),) + tuple(_values(g.coeffs()) for g in net.generators))


def _scan_points(tracer, args):
    q = args[0].field.order or 0
    tracer.items["nets.scan"] = tracer.items.get("nets.scan", 0) + (q ** 6 - 1) // max(q - 1, 1)


def _ext_degree(tracer, result):
    tracer.note_max("fields.extend_field", getattr(result[0], "degree", 0))


BEFORE_HOOKS = {
    "cubic.PlaneCubic.rational_points": _cubic_key,
    "nets.net_pfaffian_cubic": _net_key,
    "nets.count_scroll_points": _scan_points,
}
AFTER_HOOKS = {"fields.extend_field": _ext_degree}


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one pass, as {name: (value, unit)}."""
    def c(*names):
        return sum(t.calls.get(n, 0) for n in names)

    def s(group):
        return t.self_s.get(group, 0.0)

    def ratio(name):
        calls = t.calls.get(name, 0)
        return t.repeats.get(name, 0) / calls if calls else 0.0

    return {
        "fields.arith_ops": (c("fields.arith"), "count"),
        "fields.const_allocs": (c("fields.const"), "count"),
        "fields.extend_calls": (c("fields.extend_field"), "count"),
        "fields.ext_degree_max": (t.maxima.get("fields.extend_field", 0), "degree"),
        "fields.roots_s": (s("fields.roots"), "s"),
        "linalg.rref_calls": (c("linalg.rref"), "count"),
        "linalg.rref_s": (s("linalg.rref"), "s"),
        "linalg.pfaffian_s": (s("linalg.pfaffian"), "s"),
        "linalg.sub_pfaffians_calls": (
            c("linalg.sub_pfaffians_6", "linalg.sub_pfaffians_6_field"), "count"),
        "projective.subspace_calls": (c("projective.Subspace.__init__"), "count"),
        "projective.points_enumerated": (t.items.get("projective.projective_reps", 0), "count"),
        "projective.meet_s": (s("projective.meet"), "s"),
        "polys.common_zero_calls": (c("polys.common_projective_zero"), "count"),
        "polys.common_zero_s": (s("polys.common_projective_zero"), "s"),
        "complexes.classify_s": (s("complexes.classify"), "s"),
        "complexes.special_fiber_s": (s("complexes.special_fiber"), "s"),
        "pencils.singular_elements_s": (s("pencils.pencil_singular_elements"), "s"),
        "pencils.alpha_s": (s("pencils.alpha"), "s"),
        "cubic.rational_points_calls": (c("cubic.PlaneCubic.rational_points"), "count"),
        "cubic.rational_points_s": (s("cubic.PlaneCubic.rational_points"), "s"),
        "cubic.rational_points_repeat_ratio": (ratio("cubic.PlaneCubic.rational_points"), "ratio"),
        "cubic.add_points_calls": (c("cubic.add_points"), "count"),
        "cubic.add_points_s": (s("cubic.add_points"), "s"),
        "cubic.torsion_scan_s": (s("cubic.torsion_scan"), "s"),
        "nets.pfaffian_cubic_calls": (c("nets.net_pfaffian_cubic"), "count"),
        "nets.pfaffian_cubic_repeat_ratio": (ratio("nets.net_pfaffian_cubic"), "ratio"),
        "nets.count_scroll_points_s": (s("nets.count_scroll_points"), "s"),
        "nets.scan_points": (t.items.get("nets.scan", 0), "count"),
        "nets.directrix_planes_s": (s("nets.directrix_planes"), "s"),
        "nets.restricted_fiber_dim_s": (s("nets.restricted_fiber_dim"), "s"),
        "nets.degree_probe_s": (s("nets.degree_probe"), "s"),
        "nets.x_membership_calls": (c("nets.x_membership"), "count"),
        "fournets.companion_nets_s": (s("fournets.companion_nets"), "s"),
        "fournets.gamma_k_calls": (c("fournets.gamma_k"), "count"),
        "fournets.gamma_k_s": (s("fournets.gamma_k"), "s"),
        "cohomology.en_table_s": (s("cohomology.en_table"), "s"),
        "cli.schema_s": (s("cli.schema"), "s"),
        "cli.self_s": (s("cli.main"), "s"),
    }
