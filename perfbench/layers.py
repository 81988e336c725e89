"""Per-layer spans recorded from outside the program.

The tracer wraps module attributes of the installed ``toricreg`` package:
each wrapped call becomes a span (name, start, end, parent) kept in
memory.  A function is patched under every name it is looked up by, so
``toricreg.harness.regularity_rank`` is wrapped as well as
``toricreg.hilbert.regularity_rank``.  Nothing in the package changes;
every patch is undone when the ``installed()`` block ends.

A target that no longer exists (a renamed or deleted function) is not
an error: the metrics that need it are reported as absent, with the
reason, and everything else is still measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# span name -> "module:qualified.name" of the wrapped callable
TARGETS = {
    "cli.main": "toricreg.cli:main",
    "harness.evaluate_entry": "toricreg.harness:evaluate_entry",
    "points.enumerate_points": "toricreg.points:enumerate_points",
    "ideal.regularity_sieve": "toricreg.ideal:regularity_sieve",
    "hilbert.regularity_rank": "toricreg.hilbert:regularity_rank",
    "hilbert.hilbert_value": "toricreg.hilbert:hilbert_value",
    "hilbert.monomial_matrix": "toricreg.hilbert:monomial_matrix",
    "hilbert.evaluation_columns": "toricreg.hilbert:evaluation_columns",
    "hilbert._unique_rows": "toricreg.hilbert:_unique_rows",
    "hilbert.gf_rank": "toricreg.hilbert:gf_rank",
    "formulas.verify_bounds": "toricreg.formulas:verify_bounds",
    "formulas.reg_closed_form": "toricreg.formulas:reg_closed_form",
    "formulas.detect_closed_form": "toricreg.formulas:detect_closed_form",
    "field.Field.__init__": "toricreg.field:Field.__init__",
}


def _resolve(target):
    """(owner, attribute, original) for "module:a.b", or a reason string."""
    module_name, _, qualname = target.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        return f"module {module_name} is not loaded"
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return f"{module_name}.{part} not found"
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return f"{module_name}.{qualname} not found"
    return owner, attr, original


def patch_everywhere(target, make_wrapper):
    """Replace the callable named by `target` with make_wrapper(original)
    wherever a toricreg module binds it.  Returns a function undoing the
    patches, or a reason string when the target does not exist."""
    found = _resolve(target)
    if isinstance(found, str):
        return found
    owner, attr, original = found
    wrapper = make_wrapper(original)
    sites = [(owner, attr)]
    if not isinstance(owner, type):
        for name, module in list(sys.modules.items()):
            if name != "toricreg" and not name.startswith("toricreg."):
                continue
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    sites.append((module, key))
    for site, key in sites:
        setattr(site, key, wrapper)

    def undo():
        for site, key in sites:
            setattr(site, key, original)

    return undo


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "info")

    def __init__(self, name, parent, t0):
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1 = t0
        self.info = None

    @property
    def seconds(self):
        return self.t1 - self.t0

    def has_ancestor(self, names):
        p = self.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False


def _arguments(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Derived counts, computed from a call's arguments and result.  A hook
# that no longer fits the function's signature marks its counts absent.
def _rank_info(a, result):
    m, n = a["cols"].shape
    return {"rows": m, "cells": m * n, "ops": m * n * int(result)}


def _eval_info(a, result):
    m, n = result.shape
    return {"rows": m, "cells": m * n}


def _sieve_info(a, result):
    g, q = a["g"], a["q"]
    levels = int(result) + 1 if q > 2 else 0
    return {"state_cells": levels * g.s * (q - 1) ** g.n}


def _enumerate_info(a, result):
    g, q = a["g"], a["q"]
    return {"states": (q - 1) ** g.n}


def _profile_info(a, result):
    return {"profile": tuple(result.values)}


HOOKS = {
    "hilbert.gf_rank": _rank_info,
    "hilbert.evaluation_columns": _eval_info,
    "ideal.regularity_sieve": _sieve_info,
    "points.enumerate_points": _enumerate_info,
    "hilbert.regularity_rank": _profile_info,
}


class Tracer:
    """Spans of the calls into toricreg's layers, one list per pass."""

    def __init__(self):
        self.spans = []
        # span name (or "name:counts" for its derived counts) -> reason
        self.absent = {}
        self._current = None

    def reset(self):
        self.spans = []
        self._current = None

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        counts = name + ":counts"
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._current
            span = Span(name, parent, time.perf_counter())
            tracer._current = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                tracer._current = parent
                tracer.spans.append(span)
            if hook is not None and counts not in tracer.absent:
                try:
                    span.info = hook(_arguments(signature, args, kwargs), result)
                except (KeyError, TypeError, AttributeError, ValueError) as exc:
                    tracer.absent[counts] = f"{name} counts unavailable: {exc!r}"
            return result

        return wrapper

    @contextmanager
    def installed(self):
        undo = []
        try:
            for name, target in TARGETS.items():
                found = patch_everywhere(target, lambda fn, n=name: self._wrap(n, fn))
                if isinstance(found, str):
                    self.absent[name] = found
                else:
                    undo.append(found)
            yield self
        finally:
            for u in reversed(undo):
                u()

    def missing(self, need):
        """Why `need` ("span" or "span:counts") is unavailable, or None."""
        span = need.partition(":")[0]
        return self.absent.get(span) or self.absent.get(need)

    def profiles(self):
        """Hilbert profiles returned by regularity_rank in this pass, or
        None when that function could not be traced."""
        if self.missing("hilbert.regularity_rank:counts"):
            return None
        return [
            s.info["profile"]
            for s in self.spans
            if s.name == "hilbert.regularity_rank" and s.info is not None
        ]


def _of(spans, name):
    return [s for s in spans if s.name == name]


def _outer_seconds(spans, names):
    """Time inside any of `names`, not counting nested calls twice."""
    names = set(names)
    return sum(
        s.seconds for s in spans if s.name in names and not s.has_ancestor(names)
    )


def _self_seconds(spans, name):
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.seconds
    return sum(s.seconds - child.get(id(s), 0.0) for s in _of(spans, name))


def _info_sum(spans, name, key):
    # calls that raised (a cap refusal) carry no counts
    return sum(s.info[key] for s in _of(spans, name) if s.info is not None)


def _rank_last(spans):
    """Per regularity_rank call, the time of its last (highest-degree) rank."""
    last = {}
    for s in spans:
        if s.name != "hilbert.gf_rank":
            continue
        p = s.parent
        while p is not None and p.name != "hilbert.regularity_rank":
            p = p.parent
        if p is not None and (id(p) not in last or s.t0 > last[id(p)].t0):
            last[id(p)] = s
    return sum(s.seconds for s in last.values())


def _kept_ratio(spans):
    rows = _info_sum(spans, "hilbert.evaluation_columns", "rows")
    return _info_sum(spans, "hilbert.gf_rank", "rows") / rows if rows else 0.0


def _time(*names):
    return ("s", list(names), lambda sp: _outer_seconds(sp, names))


def _calls(name):
    return ("count", [name], lambda sp: len(_of(sp, name)))


def _count(name, key):
    return ("count", [name + ":counts"], lambda sp: _info_sum(sp, name, key))


def _bound_ranks(spans):
    bounds = {"formulas.verify_bounds"}
    return sum(1 for s in _of(spans, "hilbert.regularity_rank") if s.has_ancestor(bounds))


# metric -> (unit, spans it needs, function of the pass's spans); a
# "span:counts" need also needs the counts derived by that span's hook
LAYER_METRICS = {
    "hilbert.rank_s": _time("hilbert.gf_rank"),
    "hilbert.rank_last_s": ("s", ["hilbert.gf_rank", "hilbert.regularity_rank"], _rank_last),
    "hilbert.rank_ops": _count("hilbert.gf_rank", "ops"),
    "hilbert.rank_cells": _count("hilbert.gf_rank", "cells"),
    "hilbert.eval_s": _time("hilbert.evaluation_columns"),
    "hilbert.eval_cells": _count("hilbert.evaluation_columns", "cells"),
    "hilbert.dedup_kept_ratio": (
        "ratio",
        ["hilbert.gf_rank:counts", "hilbert.evaluation_columns:counts"],
        _kept_ratio,
    ),
    "hilbert.dedup_s": _time("hilbert._unique_rows"),
    "hilbert.value_calls": _calls("hilbert.hilbert_value"),
    "hilbert.monomials_s": _time("hilbert.monomial_matrix"),
    "ideal.sieve_calls": _calls("ideal.regularity_sieve"),
    "ideal.sieve_s": _time("ideal.regularity_sieve"),
    "ideal.state_cells": _count("ideal.regularity_sieve", "state_cells"),
    "points.enumerate_calls": _calls("points.enumerate_points"),
    "points.enumerate_s": _time("points.enumerate_points"),
    "points.states": _count("points.enumerate_points", "states"),
    "formulas.bounds_calls": _calls("formulas.verify_bounds"),
    "formulas.bounds_s": _time("formulas.verify_bounds"),
    "formulas.bound_rank_calls": (
        "count",
        ["formulas.verify_bounds", "hilbert.regularity_rank"],
        _bound_ranks,
    ),
    "formulas.closed_form_s": _time("formulas.reg_closed_form", "formulas.detect_closed_form"),
    "field.init_calls": _calls("field.Field.__init__"),
    "field.init_s": _time("field.Field.__init__"),
    "harness.evaluate_self_s": (
        "s",
        ["harness.evaluate_entry"],
        lambda sp: _self_seconds(sp, "harness.evaluate_entry"),
    ),
    "cli.self_s": ("s", ["cli.main"], lambda sp: _self_seconds(sp, "cli.main")),
}


def layer_values(tracer):
    """One pass's layer metrics: name -> value, and name -> absent reason."""
    values, absent = {}, {}
    for metric, (_, needs, fn) in LAYER_METRICS.items():
        missing = [r for r in map(tracer.missing, needs) if r]
        if missing:
            absent[metric] = "; ".join(missing)
        else:
            values[metric] = fn(tracer.spans)
    return values, absent
