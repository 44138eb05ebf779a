"""Outside-in tracer for the qprodasym package.

Spans are recorded by wrapping public functions at the module attribute
through which their callers look them up, so nothing under ``src/``
changes.  ``g_asymptotic``, for example, is wrapped both in
``asymptotics`` (called by the CLI) and in ``analysis`` (called by
``compare``), and ``_arc_datum_cached`` reaches ``arc_datum`` through the
``asymptotics`` module global.

Calls to *hot* leaves (Dedekind sums, arc data, Bessel factors, eta/theta
products) keep no span of their own: their count and time are added to
the enclosing span, keyed by the chain of hot names that led to them, so
the trace stays small however many of them a query makes.

A target that no longer exists is recorded as absent and skipped, so a
refactor of the package does not stop the benchmark.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import time
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    # hot-leaf aggregates: chain of hot names -> [calls, total seconds]
    agg: dict = field(default_factory=dict)


def summarize(spans: list[Span]) -> dict[str, list]:
    """Per name: [calls, total seconds, self seconds].

    A span's self time is its duration minus the durations of its direct
    child spans and of the hot calls made directly under it; a hot chain's
    self time is its total minus the hot calls it made.  Span 0 is the
    root and is not itself reported.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    out: dict[str, list] = {}

    def add(name, calls, total, self_s):
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_s

    for s in spans:
        nested: dict[tuple, float] = {}
        for path, (_, total) in s.agg.items():
            parent = path[:-1]
            nested[parent] = nested.get(parent, 0.0) + total
        if s.parent is not None:
            duration = s.end - s.start
            add(s.name, 1, duration,
                duration - child_time.get(s.id, 0.0) - nested.get((), 0.0))
        for path, (calls, total) in s.agg.items():
            add(path[-1], calls, total, total - nested.get(path, 0.0))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans = [Span(0, None, "root", clock())]
        self.counters: dict[str, float] = {}
        self.records: dict[str, list] = {}
        self.status: dict[str, str] = {}
        self.hook_errors: set[str] = set()
        self._stack: list[tuple] = []
        self._thread = threading.get_ident()

    # -- recording ------------------------------------------------------
    def _enter(self, name: str, hot: bool) -> tuple:
        top = self._stack[-1] if self._stack else None
        span_id = top[1] if top else 0
        if hot:
            path = (top[2] + (name,)) if top and top[0] else (name,)
            frame = (True, span_id, path, clock())
        else:
            span = Span(len(self.spans), span_id, name, clock())
            self.spans.append(span)
            frame = (False, span.id, (), span.start)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: tuple) -> None:
        end = clock()
        self._stack.pop()
        hot, span_id, path, start = frame
        if hot:
            entry = self.spans[span_id].agg.setdefault(path, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
        else:
            self.spans[span_id].end = end

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, fn, name: str, hot: bool, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.hook_errors.add(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.perfbench_traced = True
        return traced

    # -- installation ---------------------------------------------------
    def install(self, targets) -> None:
        """Wrap every (name, hot, after, attribute paths) target.

        A path whose module is importable but not loaded is skipped: that
        code does not run in this process.  A name is *absent* when its
        attribute is missing from every module that does exist.
        """
        for name, hot, after, paths in targets:
            found = missing = 0
            for path in paths:
                modname, attr = path.rsplit(".", 1)
                mod = sys.modules.get(modname)
                if mod is None:
                    if _module_exists(modname):
                        continue
                    missing += 1
                    continue
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    missing += 1
                    continue
                if not getattr(fn, "perfbench_traced", False):
                    setattr(mod, attr, self.wrap(fn, name, hot, after))
                found += 1
            if found:
                self.status[name] = "wrapped"
            elif missing:
                self.status[name] = "absent"
            else:
                self.status.setdefault(name, "unused")

    def report(self) -> dict:
        self.spans[0].end = clock()
        return {"names": summarize(self.spans), "counters": self.counters,
                "records": self.records, "status": self.status,
                "hook_errors": sorted(self.hook_errors)}


def _module_exists(modname: str) -> bool:
    try:
        return importlib.util.find_spec(modname) is not None
    except (ImportError, ValueError):
        return False


# -- hooks run after a traced call returns, outside its span ----------------

def _coeff_bytes(tracer, args, kwargs, result):
    tracer.add("coeff_bytes", sum((abs(c).bit_length() + 7) // 8 for c in result.coeffs))


def _zh_terms(tracer, args, kwargs, result):
    tracer.add("zh_terms", args[2] if len(args) > 2 else kwargs["terms"])


def _g_call(tracer, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    K = args[2] if len(args) > 2 else kwargs.get("K")
    tracer.records.setdefault("g_asymptotic", []).append(
        [list(spec.m), list(spec.r), list(spec.delta), n, K])


P = "qprodasym"
TARGETS = (
    ("qseries.expand_spec", False, _coeff_bytes,
     (f"{P}.qseries.expand_spec", f"{P}.expand_spec", f"{P}.analysis.expand_spec",
      f"{P}.cli.expand_spec")),
    ("asymptotics.classify_arcs", False, None,
     (f"{P}.asymptotics.classify_arcs", f"{P}.analysis.classify_arcs",
      f"{P}.classify_arcs")),
    ("asymptotics.check_assumption", False, None,
     (f"{P}.asymptotics.check_assumption", f"{P}.check_assumption")),
    ("asymptotics.g_asymptotic", False, _g_call,
     (f"{P}.asymptotics.g_asymptotic", f"{P}.analysis.g_asymptotic",
      f"{P}.g_asymptotic")),
    ("asymptotics.g_asymptotic_members", False, None,
     (f"{P}.asymptotics.g_asymptotic_members", f"{P}.g_asymptotic_members")),
    ("asymptotics.logc_sum", False, None, (f"{P}.asymptotics.logc_sum",)),
    ("asymptotics.arc_datum", True, None,
     (f"{P}.asymptotics.arc_datum", f"{P}.arc_datum")),
    ("asymptotics.bessel_I_minus1", True, None,
     (f"{P}.asymptotics.bessel_I_minus1", f"{P}.bessel_I_minus1")),
    ("arith.dedekind_sum_fast", True, None,
     (f"{P}.asymptotics.dedekind_sum_fast", f"{P}.transform.dedekind_sum_fast",
      f"{P}.arith.dedekind_sum_fast", f"{P}.dedekind_sum_fast")),
    ("analysis.dominant_levels", False, None,
     (f"{P}.analysis.dominant_levels", f"{P}.dominant_levels")),
    ("analysis.leading_profile", False, None,
     (f"{P}.analysis.leading_profile", f"{P}.leading_profile")),
    ("analysis.compare", False, None, (f"{P}.analysis.compare", f"{P}.compare")),
    ("transform.check_main_transform", False, None,
     (f"{P}.transform.check_main_transform", f"{P}.check_main_transform")),
    ("transform.eval_zh_point", True, _zh_terms, (f"{P}.transform.eval_zh_point",)),
    ("cli.main", False, None, (f"{P}.cli.main",)),
)
