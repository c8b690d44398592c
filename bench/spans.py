"""Per-layer tracing of gihflab from outside the library.

A Tracer replaces the public functions of the library's layers with timing
wrappers for the duration of a ``with`` block and puts the originals back on
exit.  Every gihflab module attribute bound to a traced function is
replaced, so calls that go through a ``from .x import f`` name in another
module are seen as well.

Coarse calls become spans: (id, name, start, end, parent span, op id,
leaf time, note), kept in memory and written out by the caller once the run
is over.  ``hashsim.compress`` and ``hashsim.gihf_eval`` run up to about a
million times per op, too often for one span each, so their calls, time and
(for compress) oracle misses are summed per op instead; their time is
charged to the enclosing span as "leaf time", which keeps every self time
exact: self = duration - child span durations - leaf time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute) of every function traced with one span per call.
SPAN_TARGETS = (
    ("regularity", "find_structure"),
    ("regularity", "verify_structure"),
    ("nesting", "find_attack_structure"),
    ("nesting", "verify_attack_structure"),
    ("attacks", "generalized_attack"),
    ("attacks", "joux_attack"),
    ("attacks", "verify_multicollision"),
    ("cli", "main"),
)
GIHF_EVAL = "hashsim.gihf_eval"
COMPRESS = "hashsim.compress"
LEAF_LAYERS = (GIHF_EVAL, COMPRESS)
SPAN_LAYERS = tuple(f"{mod}.{attr}" for mod, attr in SPAN_TARGETS)
LAYERS = SPAN_LAYERS + LEAF_LAYERS
OP = "op"

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "leaf_s", "note")


def _note_find_structure(outcome):
    return 1 if outcome.certificate is None else 0


def _note_verify_multicollision(result):
    return [result.checked, bool(result.complete)]


NOTES = {
    "regularity.find_structure": _note_find_structure,
    "attacks.verify_multicollision": _note_verify_multicollision,
}


def _module(short: str):
    return importlib.import_module(f"gihflab.{short}")


def _library_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "gihflab" or name.startswith("gihflab.")]


class Tracer:
    """Spans and per-op leaf counters of one traced run.

    Use as ``with Tracer() as tracer:`` around the traced ops and call
    ``tracer.run_op(op_id, fn)`` for each op, which records the root span
    named ``op``.  Single-threaded by design: the benchmark is one closed-loop
    caller.
    """

    def __init__(self):
        self.spans: list[list] = []
        # op id -> layer -> [calls, total_s, child_s, misses]
        self.leaves: dict = {}
        self._stack: list[list] = [[None, 0.0]]  # open frames: [span id, leaf_s]
        self._op = None
        self._acc = {name: [0, 0.0, 0.0, 0] for name in LEAF_LAYERS}
        self._patched: list[tuple] = []

    # -- installing and removing the wrappers ------------------------------

    def __enter__(self) -> "Tracer":
        for mod in ("words", "classics", "regularity", "nesting", "hashsim", "attacks", "cli"):
            _module(mod)  # every importer of a traced name must be patched too
        try:
            for mod, attr in SPAN_TARGETS:
                original = getattr(_module(mod), attr)
                self._patch_everywhere(original, self._span_wrapper(f"{mod}.{attr}", original))
            hashsim = _module("hashsim")
            gihf_eval = hashsim.gihf_eval
            self._patch_everywhere(gihf_eval, self._gihf_eval_wrapper(gihf_eval))
            oracle_cls = hashsim.CompressionOracle
            compress = oracle_cls.__dict__["compress"]
            self._patched.append((oracle_cls, "compress", compress))
            setattr(oracle_cls, "compress", self._compress_wrapper(compress))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod in _library_modules():
            names = [name for name, value in vars(mod).items() if value is original]
            for name in names:
                self._patched.append((mod, name, original))
                setattr(mod, name, wrapper)

    def restore(self) -> None:
        """Put back every attribute this tracer replaced, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- wrappers ----------------------------------------------------------

    def _enter_span(self, name):
        stack = self._stack
        span = [len(self.spans), name, 0.0, 0.0, stack[-1][0], self._op, 0.0, None]
        self.spans.append(span)
        stack.append([span[0], 0.0])
        return span

    def _exit_span(self, span, start, end) -> None:
        frame = self._stack.pop()
        span[2] = start
        span[3] = end
        span[6] = frame[1]

    def _span_wrapper(self, name, fn):
        note = NOTES.get(name)
        enter = self._enter_span
        leave = self._exit_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span, start, perf_counter())
            if note is not None:
                span[7] = note(result)
            return result

        return traced

    def _gihf_eval_wrapper(self, fn):
        stack = self._stack
        acc = self._acc[GIHF_EVAL]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][1] += elapsed
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += frame[1]

        return traced

    def _compress_wrapper(self, fn):
        stack = self._stack
        acc = self._acc[COMPRESS]

        @functools.wraps(fn)
        def traced(oracle, h, b):
            before = oracle.query_count
            start = perf_counter()
            value = fn(oracle, h, b)
            elapsed = perf_counter() - start
            stack[-1][1] += elapsed
            acc[0] += 1
            acc[1] += elapsed
            acc[3] += oracle.query_count - before
            return value

        return traced

    # -- ops -----------------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` under a root span and return its result."""
        self._op = op_id
        for acc in self._acc.values():
            acc[:] = [0, 0.0, 0.0, 0]
        span = self._enter_span(OP)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit_span(span, start, perf_counter())
            self.leaves[op_id] = {name: list(acc) for name, acc in self._acc.items()}
            self._op = None

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like self.spans."""
        selfs = [span[3] - span[2] - span[6] for span in self.spans]
        for span in self.spans:
            if span[4] is not None:
                selfs[span[4]] -= span[3] - span[2]
        return selfs

    def layer_totals(self) -> dict:
        """layer -> {calls, total_s, self_s} over every traced op, plus
        ``misses`` for compress, ``refusals`` for find_structure and
        ``messages``/``complete`` for verify_multicollision."""
        totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS + (OP,)}
        totals["regularity.find_structure"]["refusals"] = 0
        totals["attacks.verify_multicollision"].update(messages=0, complete=0)
        totals[COMPRESS]["misses"] = 0
        for span, own in zip(self.spans, self.self_times()):
            entry = totals[span[1]]
            entry["calls"] += 1
            entry["total_s"] += span[3] - span[2]
            entry["self_s"] += own
            if span[1] == "regularity.find_structure":
                entry["refusals"] += span[7] or 0
            elif span[1] == "attacks.verify_multicollision" and span[7] is not None:
                entry["messages"] += span[7][0]
                entry["complete"] += span[7][1]
        for per_op in self.leaves.values():
            for name, (calls, total, child, misses) in per_op.items():
                entry = totals[name]
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += total - child
                if name == COMPRESS:
                    entry["misses"] += misses
        return totals

    def dump(self) -> dict:
        return {"span_fields": list(SPAN_FIELDS), "spans": self.spans,
                "leaf_fields": ["calls", "total_s", "child_s", "misses"],
                "leaves": {str(op): per_op for op, per_op in self.leaves.items()}}
