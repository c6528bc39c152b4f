"""Per-layer tracing of ladderdet, installed from outside the package.

`Tracer.install()` replaces every module binding of each traced callable
(the defining module, every module that imported it by name, and the
package namespace) with a wrapper that records a span: name, start, end,
parent span and instance id.  Methods are replaced on their class.  Hot
monomial functions get a call counter and no span.  Spans stay in memory
until `Tracer.write_spans`; nothing under src/ladderdet is edited.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

MARK = "__perfbench_original__"

# Traced callables: span name -> (module, attribute path).
SPANS = {
    "poly.expand_minor": ("poly", "expand_minor"),
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.is_groebner_basis": ("groebner", "is_groebner_basis"),
    "groebner.Reducer.reduce": ("groebner", "Reducer.reduce"),
    "groebner.s_polynomial": ("groebner", "s_polynomial"),
    "groebner.interreduce": ("groebner", "interreduce"),
    "groebner.Ideal.groebner_basis": ("groebner", "Ideal.groebner_basis"),
    "groebner.Ideal.intersect": ("groebner", "Ideal.intersect"),
    "groebner.Ideal.colon_poly": ("groebner", "Ideal.colon_poly"),
    "groebner.Ideal.saturate": ("groebner", "Ideal.saturate"),
    "groebner.Ideal.bracket": ("groebner", "Ideal.bracket"),
    "groebner.Ideal.contains": ("groebner", "Ideal.contains"),
    "groebner.min_cover_size": ("groebner", "min_cover_size"),
    "groebner.minimal_covers": ("groebner", "minimal_covers"),
    "groebner.MonomialIdeal.symbolic_power": ("groebner", "MonomialIdeal.symbolic_power"),
    "ladders.validate": ("ladders", "validate"),
    "ladders.chamfer": ("ladders", "chamfer"),
    "ladders.reduce_to_unmixed": ("ladders", "reduce_to_unmixed"),
    "ladders.antidiagonal_profile": ("ladders", "antidiagonal_profile"),
    "ideals.minors_in_ladder": ("ideals", "minors_in_ladder"),
    "ideals.mixed_ladder_ideal": ("ideals", "mixed_ladder_ideal"),
    "ideals.f_witness": ("ideals", "f_witness"),
    "knutson.verify": ("knutson", "verify"),
    "knutson.ladder_derivation": ("knutson", "ladder_derivation"),
    "knutson.corner_derivation": ("knutson", "corner_derivation"),
    "oracle.symbolic_fsplit_certificate": ("oracle", "symbolic_fsplit_certificate"),
    "oracle.fedder_check": ("oracle", "fedder_check"),
    "oracle.initial_symbolic_compare": ("oracle", "initial_symbolic_compare"),
    "oracle.symbolic_power_saturation": ("oracle", "symbolic_power_saturation"),
    "acceptance.run_criterion": ("acceptance", "run_criterion"),
    "cli.main": ("cli", "main"),
}

# Monomial operations: too hot for spans, so only counted.
COUNTED = {
    "poly.mono_lcm": ("poly", "mono_lcm"),
    "poly.mono_divides": ("poly", "mono_divides"),
    "poly.mono_mul": ("poly", "mono_mul"),
    "poly.mono_div": ("poly", "mono_div"),
}

MODULES = ("fields", "poly", "groebner", "ladders", "ideals", "knutson", "oracle",
           "acceptance", "cli")


def _modules():
    """The ladderdet package and all of its submodules, imported."""
    out = [importlib.import_module("ladderdet")]
    out += [importlib.import_module(f"ladderdet.{name}") for name in MODULES]
    return out


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`."""
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def installed_wrappers() -> list[str]:
    """Names of every tracer wrapper currently bound in ladderdet."""
    found = []
    for module in (m for name, m in sys.modules.items()
                   if name == "ladderdet" or name.startswith("ladderdet.")):
        for name, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                found += [f"{module.__name__}.{name}.{attr}"
                          for attr, member in vars(value).items() if hasattr(member, MARK)]
    return found


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        self.names = list(SPANS)
        # Each span: [name index, start, end, parent span index, instance, result is zero]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1
        self.counters = {name: [0] for name in COUNTED}
        self.missing: list[str] = []

    # -- installation

    def install(self) -> None:
        modules = _modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules[1:]}
        for index, (span, (mod, path)) in enumerate(SPANS.items()):
            self._wrap(modules, by_name[mod], path, span,
                       lambda fn, i=index, z=(span == "groebner.Reducer.reduce"):
                       self._span_wrapper(fn, i, z))
        for name, (mod, path) in COUNTED.items():
            self._wrap(modules, by_name[mod], path, name,
                       lambda fn, c=self.counters[name]: _count_wrapper(fn, c))

    def _wrap(self, modules, module, path, label, make) -> None:
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(label)
                return
            setattr(owner, attr, _marked(make(original), original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(label)
            return
        _rebind(modules, original, _marked(make(original), original))

    def _span_wrapper(self, fn, name_index: int, record_zero: bool):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1, tracer.instance, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if record_zero:
                span[5] = out.is_zero
            return out

        return functools.wraps(fn)(wrapper)

    # -- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics keyed `<module>.<callable>.<stat>`."""
        names, spans = self.names, self.spans
        n = len(names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        children = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent, _, _) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - children[index]
            if not self._has_ancestor(index, name):
                total_s[name] += duration
        out: dict[str, float] = {}
        for i, span in enumerate(names):
            out[f"{span}.calls"] = calls[i]
            out[f"{span}.self_s"] = self_s[i]
            out[f"{span}.total_s"] = total_s[i]
        for name, counter in self.counters.items():
            out[f"{name}.calls"] = counter[0]

        reduce_i = names.index("groebner.Reducer.reduce")
        zeros = sum(1 for s in spans if s[0] == reduce_i and s[5])
        out["groebner.Reducer.reduce.zero_frac"] = zeros / calls[reduce_i] if calls[reduce_i] else 0.0

        gb_i = names.index("groebner.Ideal.groebner_basis")
        bb_i = names.index("groebner.buchberger")
        ran = {s[3] for s in spans if s[0] == bb_i}
        gb_spans = [i for i, s in enumerate(spans) if s[0] == gb_i]
        hits = sum(1 for i in gb_spans if i not in ran)
        out["groebner.Ideal.groebner_basis.hit_frac"] = hits / len(gb_spans) if gb_spans else 0.0

        inter_i = names.index("groebner.Ideal.intersect")
        under = sum(1 for i, s in enumerate(spans)
                    if s[0] == bb_i and self._has_ancestor(i, inter_i))
        out["groebner.Ideal.intersect.buchberger_per_call"] = (
            under / calls[inter_i] if calls[inter_i] else 0.0)
        return out

    def _has_ancestor(self, index: int, name: int) -> bool:
        spans = self.spans
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def write_spans(self, path) -> None:
        """Gzipped JSON lines: [index, name, start, end, parent index, instance id]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for index, (name, start, end, parent, instance, _) in enumerate(self.spans):
                fh.write(json.dumps([index, self.names[name], round(start, 7), round(end, 7),
                                     parent, instance]))
                fh.write("\n")


def _marked(wrapper, original):
    setattr(wrapper, MARK, original)
    return wrapper


def _count_wrapper(fn, counter):
    def wrapper(*args):
        counter[0] += 1
        return fn(*args)

    return functools.wraps(fn)(wrapper)
