"""Span tracer that wraps opnkit's public functions from the outside.

Nothing in opnkit is edited.  ``install()`` replaces every reference to a
target function that opnkit's modules hold (module globals and module-level
dicts such as ``bounds._EVALUATORS``) with a timing wrapper, and
``uninstall()`` puts the originals back.  Each call becomes a span with its
parent, so a layer's self time is its duration minus the time its child
spans cover.  Spans are aggregated in memory per (family, name, tag); the
first ``RAW_SPAN_LIMIT`` spans are also kept raw for the trace file.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from time import perf_counter

RAW_SPAN_LIMIT = 50_000
_SCAN_SEGMENT = 1 << 21


def _segments(lo: int, hi: int) -> float:
    """Span length in 2^21-element sieve segments (fractional)."""
    return (hi - lo + 1) / _SCAN_SEGMENT


def _sigma_tag(args, kwargs):
    return ("lo" if args[0] < 10**8 else "hi"), _segments(args[0], args[1])


def _scan_perfect_tag(args, kwargs):
    lo, hi = args[0], args[1]
    parity = args[2] if len(args) > 2 else kwargs.get("parity", "all")
    if kwargs.get("checkpoint"):
        return "checkpoint", 0
    return parity, _segments(lo, hi)


def _radical_chain_tag(args, kwargs):
    return "", _segments(args[0], args[1])


def _suite_tag(args, kwargs):
    return args[0], 0


# (module, attribute, span name, tagger): the public entry points of each layer
TARGETS = (
    ("opnkit.primes", "is_prime", "primes.is_prime", None),
    ("opnkit.primes", "primes_up_to", "primes.primes_up_to", None),
    ("opnkit.arith", "parse_factorization", "arith.parse", None),
    ("opnkit.arith", "render", "arith.render", None),
    ("opnkit.arith", "elementary_symmetric", "arith.elementary_symmetric", None),
    ("opnkit.interval", "nth_root_enclosure", "interval.nth_root", None),
    ("opnkit.interval", "to_decimal", "interval.to_decimal", None),
    ("opnkit.bounds", "bounds_report", "bounds.report", None),
    ("opnkit.bounds", "compare_rational_to_bound", "bounds.compare", None),
    ("opnkit.bounds", "radical_lower_bound", "bounds.radical_lb", None),
    ("opnkit.bounds", "prime_sum_lower_bound", "bounds.prime_sum_lb", None),
    ("opnkit.constraints", "audit", "constraints.audit", None),
    ("opnkit.checks", "run_verify_suite", "checks.suite", _suite_tag),
    ("opnkit.checks", "random_prime_set", "checks.random_prime_set", None),
    ("opnkit.scan", "sigma_segment", "scan.sigma_segment", _sigma_tag),
    ("opnkit.scan", "scan_perfect", "scan.scan_perfect", _scan_perfect_tag),
    ("opnkit.scan", "scan_radical_chain", "scan.scan_radical_chain", _radical_chain_tag),
    ("opnkit.scan", "spf_sieve_odd", "scan.spf_sieve", None),
)


class Stat:
    __slots__ = ("calls", "total", "self_total", "units", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.units = 0
        self.durations = []


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str, str], Stat] = {}
        self.raw: list[tuple] = []
        self.family = ""
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def _open(self) -> int:
        self._next_id += 1
        self._stack.append([0.0, self._next_id])
        return self._next_id

    def _close(self, name: str, tag: str, units: int, t0: float, t1: float) -> None:
        child, span_id = self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += dur
        st = self.stats.get((self.family, name, tag))
        if st is None:
            st = self.stats[(self.family, name, tag)] = Stat()
        st.calls += 1
        st.total += dur
        st.self_total += dur - child
        st.units += units
        st.durations.append(dur)
        if len(self.raw) < RAW_SPAN_LIMIT:
            self.raw.append((span_id, parent[1] if parent else 0, name, tag, self.family, t0, t1))

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        """A span around the benchmark's own code (a pass, a JSON render)."""
        self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, tag, 0, t0, perf_counter())

    def _wrap(self, name, fn, tagger):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag, units = tagger(args, kwargs) if tagger else ("", 0)
            tracer._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, tag, units, t0, perf_counter())

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "opnkit" or n.startswith("opnkit.")]
        for modname, attr, name, tagger in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig, tagger)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is orig:
                        self._patches.append((namespace, key, orig))
                        namespace[key] = wrapper
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                self._patches.append((value, dkey, orig))
                                value[dkey] = wrapper

    def uninstall(self) -> None:
        for container, key, orig in reversed(self._patches):
            container[key] = orig
        self._patches.clear()

    @contextlib.contextmanager
    def active(self, family: str):
        self.family = family
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.family = ""

    def dump(self) -> dict:
        return {
            "stats": [
                {"family": f, "name": n, "tag": t, "calls": s.calls, "total_s": s.total,
                 "self_s": s.self_total, "units": s.units, "p50_s": statistics.median(s.durations)}
                for (f, n, t), s in sorted(self.stats.items())
            ],
            "spans": [
                {"id": i, "parent": p, "name": n, "tag": t, "family": f, "t0": a, "t1": b}
                for i, p, n, t, f, a, b in self.raw
            ],
            "spans_dropped": max(0, self._next_id - len(self.raw)),
        }
