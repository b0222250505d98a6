"""Instrumentation the benchmark puts around the program's layers.

CountingBackend wraps the completion backend in every run: it counts
calls and prompt tokens (whitespace-separated words of the rendered
prompt) per prompt kind, and the distinct (kind, prompt) pairs of the
current round.

Tracer is used only in traced runs. It replaces public functions of the
program's modules with wrappers that record one span per call: name,
start, end, parent span and thread. Spans stay in memory until the run
ends and are then written out as JSON lines. Nothing in the program is
edited; the originals are put back when the traced run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from storymem.backends import Backend
from storymem.prompts import PromptKind


class CountingBackend(Backend):
    """Counts what the program sends to the wrapped backend.

    complete() only keeps each (kind, prompt) pair; settle() counts them
    after the timed round, so the counting is not part of any op's time.
    The engine keeps every prompt of a round anyway, so holding them
    until the round ends costs no extra memory.
    """

    name = "counting"

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.pending: list[tuple[str, str]] = []
        self.calls: Counter[str] = Counter()
        self.tokens: Counter[str] = Counter()
        self.distinct = 0

    def complete(self, kind: PromptKind, rendered: str) -> str:
        self.pending.append((kind.value, rendered))  # atomic under the GIL
        return self.inner.complete(kind, rendered)

    def settle(self) -> None:
        """Count the round's prompts. Distinct pairs are counted per round:
        prompts repeated across rounds are the benchmark's, not the program's."""
        self.distinct += len(set(self.pending))
        for kind, rendered in self.pending:
            self.calls[kind] += 1
            self.tokens[kind] += len(rendered.split())
        self.pending = []

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def total_tokens(self) -> int:
        return sum(self.tokens.values())

    def describe(self) -> dict:
        return self.inner.describe()


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans of patched calls; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._deferred: list[tuple[Span, object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """A traced stand-in for fn.

        attrs(result) gives the span's extra fields. It is applied in
        finish(), after the run, so that it adds to no traced time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(span_id, name, start, end, parent, threading.get_ident())
            self.spans.append(span)
            if attrs:
                self._deferred.append((span, attrs, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Trace owner.attr until restore()."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def patch_function(self, module, attr: str, name: str, attrs=None) -> None:
        """Trace a module function in every storymem module that imported it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "storymem" and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def finish(self) -> None:
        """Compute the deferred span fields and drop the results they came from."""
        for span, attrs, result in self._deferred:
            span.attrs = attrs(result)
        self._deferred = []

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


REASONER_METHODS = (
    "init_stories", "bind", "consolidate", "semanticize",
    "choose_stories", "translate", "answer", "judge",
)
RUNIO_WRITES = (
    "write_config", "write_snapshot", "write_records", "write_exchanges", "write_final",
)


def _context_tokens(result) -> dict:
    text = result.stories_text() + "\n" + result.facts_as_text()
    return {"tokens": len(text.split())}


def install(tracer: Tracer, backend: CountingBackend) -> None:
    """Trace the public entry points of each layer, from outside the program."""
    from storymem import engine, episodic, reasoner, retrieval, runio, semantic

    tracer.patch(backend.inner, "complete", "backends.complete")
    for method in REASONER_METHODS:
        tracer.patch(reasoner.Reasoner, method, f"reasoner.{method}")
    for method in ("step", "drain", "ask", "retrieve"):
        tracer.patch(engine.MemoryEngine, method, f"engine.{method}")
    tracer.patch_function(retrieval, "retrieve_coherence", "retrieval.coherence",
                          attrs=_context_tokens)
    for method in ("query", "entity_neighborhood"):
        tracer.patch(semantic.TripleStore, method, f"semantic.{method}")
    tracer.patch(episodic.MemoryBank, "to_dict", "episodic.serialize")
    for method in RUNIO_WRITES:
        tracer.patch(runio.RunWriter, method, "runio.write")


def layer_metrics(
    spans: list[Span],
    windows: list[tuple[float, float]],
    setup_windows: list[tuple[float, float]],
    main_thread: int,
    backend: CountingBackend,
    ops: int,
    workload,
) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Per-op figures use the spans inside the timed rounds. Serialization
    and run-directory writes are per turn taken through run_replay,
    set-up included: that is where `eval` writes its run.
    """
    def within(pool):
        return [s for s in spans if any(a <= s.start and s.end <= b for a, b in pool)]

    timed = within(windows)
    own = self_times(spans)

    def picked(prefix: str, pool=timed) -> list[Span]:
        return [s for s in pool if s.name.startswith(prefix)]

    def ms_per_op(pool: list[Span], self_only: bool = False) -> float:
        total = sum(own[s.span_id] if self_only else s.duration for s in pool)
        return 1000.0 * total / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics: dict[str, float] = {}
    for kind in PromptKind:
        metrics[f"backends.calls.{kind.value}"] = backend.calls[kind.value] / ops
    metrics["backends.unique_ratio"] = ratio(backend.distinct, backend.total_calls())
    metrics["backends.busy_ms"] = ms_per_op(picked("backends."))
    for kind in ("memory_binding", "coherence_retrieve", "answer"):
        metrics[f"backends.prompt_tokens.{kind}"] = ratio(
            backend.tokens[kind], backend.calls[kind]
        )
    reasoning = picked("reasoner.")
    metrics["reasoner.self_ms"] = ms_per_op(reasoning, self_only=True)
    metrics["engine.step_ms"] = ms_per_op(picked("engine.step"))
    drains = picked("engine.drain")
    offline_reasoning = [s for s in reasoning if s.thread != main_thread]
    metrics["engine.offline_ms"] = ms_per_op(drains)
    metrics["engine.offline_self_ms"] = ms_per_op(drains) - ms_per_op(offline_reasoning)
    metrics["engine.ask_ms"] = ms_per_op(picked("engine.ask"))
    retrievals = picked("retrieval.")
    metrics["retrieval.calls"] = len(retrievals) / ops
    metrics["retrieval.self_ms"] = ms_per_op(retrievals, self_only=True)
    metrics["retrieval.context_tokens"] = ratio(
        sum(s.attrs["tokens"] for s in retrievals), len(retrievals)
    )
    queries = picked("semantic.")
    metrics["semantic.query_ms"] = ms_per_op(queries)
    metrics["semantic.queries"] = len(queries) / ops
    metrics["semantic.facts"] = workload.gauges["facts"]
    for gauge in ("narratives", "fragments", "subplots"):
        metrics[f"episodic.{gauge}"] = workload.gauges[gauge]

    replayed = within(setup_windows) + timed
    turns = workload.replayed_turns
    metrics["episodic.serialize_ms"] = ratio(
        1000.0 * sum(s.duration for s in picked("episodic.serialize", replayed)), turns
    )
    metrics["runio.write_ms"] = ratio(
        1000.0 * sum(s.duration for s in picked("runio.write", replayed)), turns
    )
    metrics["runio.bytes_written"] = ratio(workload.bytes_written, turns)
    return metrics
