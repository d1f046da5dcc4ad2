"""Span recorder for the traced benchmark run, and the per-layer table
derived from its spans.

The recorder wraps module-level names of robovalid from outside the
program.  The modules bind each other's functions with ``from`` imports,
so a function is wrapped under every name its callers look it up by
(``cli.holds_at``, ``ctgen.holds_at``, ``stl.holds_at``, ...).  A span
holds its name, start, end, parent span, request id (the configuration
index) and the call ordinal of its name.  Generators get one span per
``next()`` call, all sharing the call ordinal of the generator; they are
never materialised.  Spans stay in memory and are written once, at the
end of the run.
"""

from __future__ import annotations

import csv
import functools
import inspect
import math
import time

DONE = object()  # sentinel returned by an exhausted generator step
NO_PARENT = -1
NO_REQUEST = -1
SPAN_FIELDS = ("span", "parent", "name", "start_ns", "end_ns", "request",
               "call", "outcome")

# (module, attribute) pairs wrapped in the traced run.  The span name is
# the defining module and function of the wrapped object, e.g. ctgen's
# ``compute_wp`` and cli's ``wp`` both become ``wp.wp``.
WRAPPED = {
    "robovalid.cli": ("wp", "holds_at", "enumerate_initial_worlds",
                      "enumerate_derivations"),
    "robovalid.ctgen": ("build_model", "enumerate_valid",
                        "generate_covering_array", "realize_configuration",
                        "compute_wp", "holds_at", "enumerate_initial_worlds",
                        "enumerate_derivations", "satisfies_init"),
    "robovalid.stl": ("wp", "holds_at"),
    "robovalid.falsify": ("synthesize", "instantiate", "run_policy",
                          "robustness", "falsify"),
}
# Names whose call ordinal is the request id of everything under them.
REQUEST_SCOPES = {("robovalid.ctgen", "realize_configuration")}
# cli calls falsify.campaign once per configuration; the marker sets the
# request id without recording a span of its own.
REQUEST_MARKERS = {("robovalid.falsify", "campaign")}
# Return values kept for post-run counts (spec size, trace length, ...).
KEEP_RESULTS = {"stl.synthesize", "sim.run_policy", "falsify.falsify",
                "ctgen.build_model", "ctgen.generate_covering_array"}


def span_name(fn) -> str:
    return "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans: list = []
        self.current = NO_PARENT
        self.request = NO_REQUEST
        self.calls: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self.skipped: list[str] = []

    def _call_ordinal(self, name: str) -> int:
        n = self.calls.get(name, 0)
        self.calls[name] = n + 1
        return n

    def _timed(self, name, call, step):
        """Run ``step()`` as one span and return its value.

        A generator step returns ``DONE`` when the generator is exhausted;
        its span's outcome is then "stop".
        """
        spans = self.spans
        sid = len(spans)
        parent = self.current
        spans.append(None)
        self.current = sid
        outcome = "ok"
        start = time.perf_counter_ns()
        try:
            value = step()
            if value is DONE:
                outcome = "stop"
        except BaseException as e:
            outcome = type(e).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self.current = parent
            spans[sid] = (sid, parent, name, start, end, self.request, call,
                          outcome)
        return value

    def wrap(self, fn, name: str, request_scope: bool = False):
        keep = self.results.setdefault(name, []) if name in KEEP_RESULTS else None

        @functools.wraps(fn)
        def call_wrapper(*args, **kwargs):
            call = self._call_ordinal(name)
            saved = self.request
            if request_scope:
                self.request = call
            try:
                value = self._timed(name, call, lambda: fn(*args, **kwargs))
            finally:
                self.request = saved
            if keep is not None:
                keep.append(value)
            return value

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            call = self._call_ordinal(name)
            gen = fn(*args, **kwargs)
            step = functools.partial(next, gen, DONE)
            try:
                while True:
                    item = self._timed(name, call, step)
                    if item is DONE:
                        return
                    yield item
            finally:
                gen.close()

        return gen_wrapper if inspect.isgeneratorfunction(fn) else call_wrapper

    def mark_requests(self, fn):
        counter = "request:" + span_name(fn)

        @functools.wraps(fn)
        def marker(*args, **kwargs):
            saved = self.request
            self.request = self._call_ordinal(counter)
            try:
                return fn(*args, **kwargs)
            finally:
                self.request = saved

        return marker

    def install(self, modules: dict) -> None:
        """Wrap every name of WRAPPED that exists in ``modules``.

        Names a later version of the program no longer has are skipped
        and listed in ``self.skipped``.
        """
        for mod_name, attrs in WRAPPED.items():
            mod = modules[mod_name]
            for attr in attrs:
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.skipped.append("%s.%s" % (mod_name, attr))
                    continue
                scope = (mod_name, attr) in REQUEST_SCOPES
                setattr(mod, attr, self.wrap(fn, span_name(fn), scope))
        for mod_name, attr in REQUEST_MARKERS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if callable(fn):
                setattr(mod, attr, self.mark_requests(fn))
            else:
                self.skipped.append("%s.%s" % (mod_name, attr))

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(SPAN_FIELDS)
            w.writerows(self.spans)


def read_spans(path: str) -> list[tuple]:
    with open(path, newline="") as f:
        rows = csv.reader(f)
        header = next(rows)
        if tuple(header) != SPAN_FIELDS:
            raise ValueError("unexpected span header %r" % header)
        return [(int(s), int(p), n, int(a), int(b), int(r), int(c), o)
                for s, p, n, a, b, r, c, o in rows]


def _covered_ns(lo: int, hi: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[tuple], root: tuple[int, int]) -> tuple[dict, int]:
    """Self time per span (ns) and the root's self time (ns).

    A span's self time is its duration minus the part of its interval its
    child spans cover; the root is the whole ``main()`` call, whose self
    time is what no top-level span covers.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, start, end, *_ in spans:
        children.setdefault(parent, []).append((start, end))
    self_ns = {}
    for sid, _, _, start, end, *_ in spans:
        self_ns[sid] = (end - start) - _covered_ns(start, end,
                                                   children.get(sid, []))
    lo, hi = root
    root_self = (hi - lo) - _covered_ns(lo, hi, children.get(NO_PARENT, []))
    return self_ns, root_self


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[max(1, math.ceil(len(xs) * p / 100)) - 1]


def layer_table(spans: list[tuple], root: tuple[int, int]) -> dict:
    """Per span name: distinct calls, spans, inclusive and self seconds,
    per-span durations, spans that raised, and successful spans per call
    (for a generator: the items each call yielded)."""
    self_ns, root_self = self_times(spans, root)
    table: dict[str, dict] = {}
    for sid, _, name, start, end, _, call, outcome in spans:
        row = table.setdefault(name, {"calls": set(), "spans": 0, "raised": 0,
                                      "self_s": 0.0, "incl_s": 0.0,
                                      "durations": [], "ok_by_call": {}})
        row["calls"].add(call)
        row["spans"] += 1
        row["raised"] += outcome not in ("ok", "stop")
        if outcome == "stop":
            row["ok_by_call"].setdefault(call, 0)
        elif outcome == "ok":
            row["ok_by_call"][call] = row["ok_by_call"].get(call, 0) + 1
        row["self_s"] += self_ns[sid] / 1e9
        row["incl_s"] += (end - start) / 1e9
        row["durations"].append((end - start) / 1e9)
    for row in table.values():
        row["calls"] = len(row["calls"])
    return {"layers": table, "cli_self_s": root_self / 1e9}
