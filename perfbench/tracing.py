"""Spans recorded around the package's layer boundaries, from outside the package.

``Tracer.install`` replaces every binding of the traced public functions
in every loaded ``cpdsss`` module (``experiments`` imports ``despread_full``
by name, so wrapping ``cpdsss.rx`` alone would miss its calls) and
``uninstall`` puts the originals back. Spans are kept in memory as
``(id, parent, thread, name, layer, start_ns, end_ns)`` and written out
once, when the run ends. Clocks are ``time.monotonic_ns``, which on Linux
is shared by all processes, so spans of a child process line up with the
parent's spawn and exit times.

``attribute`` turns spans into per-layer self time. A span's self time is
its duration minus what its child spans cover. When several threads have
open spans at the same instant, the instant is split equally between the
innermost spans of those threads, so the per-layer self times of a run
add up to its wall time also when a thread pool is involved.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# layer -> public functions whose calls open a span of that layer.
TRACED = {
    "zc": ("generate_zc", "cyclic_shift"),
    "tx": ("allocate_codes", "build_message", "add_cp", "remove_cp"),
    "channel": ("draw_channel", "apply_channel", "superpose"),
    "rx": (
        "despread_full", "extract_user", "pairwise_stats", "decision_stats",
        "detect", "recover_bits", "estimate_noise_power",
    ),
    "analysis": ("design_detector", "p0_from_pfa", "solve_threshold", "h0_cdf"),
    "experiments": (
        "run_experiment", "run_pfa", "run_pmd", "run_roc", "run_ber", "run_dist", "trial_rng",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)
SPAN_FIELDS = ("id", "parent", "thread", "name", "layer", "start_ns", "end_ns")
clock = time.monotonic_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str):
        """``fn`` with a span of ``layer`` around each call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), name, layer, start, end))

        return traced

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded cpdsss modules.

        A function missing after a refactor is skipped: its layer then
        reports zero calls.
        """
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"cpdsss.{layer}")
            for fname in names:
                fn = getattr(module, fname, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{fname}", layer))
        for modname, module in list(sys.modules.items()):
            if modname != "cpdsss" and not modname.startswith("cpdsss."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path, **extra) -> None:
        payload = {"fields": SPAN_FIELDS, "spans": self.spans, **extra}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def load_spans(path) -> tuple[list[tuple], dict]:
    with open(path) as fh:
        payload = json.load(fh)
    spans = [tuple(s) for s in payload.pop("spans")]
    return spans, payload


def _exclusive_segments(spans: list[tuple]) -> list[tuple[int, int, str]]:
    """(start, end, layer) pieces of one thread's spans not covered by a child span."""
    segments = []
    stack: list[list] = []  # [span, cursor]: cursor is where the span's uncovered part resumes

    def close_until(t):
        while stack and stack[-1][0][6] <= t:
            span, cursor = stack.pop()
            if span[6] > cursor:
                segments.append((cursor, span[6], span[4]))
            if stack:
                stack[-1][1] = span[6]

    for span in sorted(spans, key=lambda s: (s[5], -s[6])):
        close_until(span[5])
        if stack:
            top = stack[-1]
            if span[5] > top[1]:
                segments.append((top[1], span[5], top[0][4]))
            top[1] = span[5]
        stack.append([span, span[5]])
    close_until(float("inf"))
    return segments


def attribute(spans: list[tuple]) -> dict[str, float]:
    """Per-layer self time in seconds; the values sum to the union of all spans."""
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span[2]].append(span)
    events = []
    for thread_spans in by_thread.values():
        for start, end, layer in _exclusive_segments(thread_spans):
            events.append((start, 1, layer))
            events.append((end, -1, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Counter = Counter()
    open_count = 0
    self_ns: dict[str, float] = defaultdict(float)
    last = None
    for t, delta, layer in events:
        if open_count and t > last:
            share = (t - last) / open_count
            for lay, count in active.items():
                if count:
                    self_ns[lay] += share * count
        active[layer] += delta
        open_count += delta
        last = t
    return {layer: ns / 1e9 for layer, ns in self_ns.items()}


def call_counts(spans: list[tuple]) -> tuple[Counter, Counter]:
    """Calls per layer and per traced function name."""
    return Counter(s[4] for s in spans), Counter(s[3] for s in spans)
