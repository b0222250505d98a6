"""The working-memory conversation loop.

Online path: each incoming turn is answered from the full history while
it still fits the threshold (T, or T+B when a buffer is configured),
and from retrieved memories plus the raw buffer afterwards. The online
path never mutates memory and never waits for offline work.

Offline path: once the history exceeds T, a single background worker
forms memory asynchronously. The first tick initializes narratives from
the first T turns; every tick, the first included, binds the newest
exchange into the bank, then consolidates narratives whose activity just
lapsed and distills their durable facts into the triple store.

run_replay drives a whole transcript through the engine, draining the
worker after every turn so scripted runs are reproducible byte for byte,
and appends that turn's bank changes to the run's bank log. Only the
replay records anything: the iteration records step returns, the bank
changes and the prompts and completions it causes. The engine and its
bank keep none of these, so a query, an evaluation or a live
conversation holds nothing that grows with its turns.
"""

from __future__ import annotations

import logging
import re
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import runio
from .backends import Backend
from .episodic import Fragment, MemoryBank, Narrative
from .errors import (
    BackendError,
    MalformedInput,
    ParseFailure,
    ReplayAborted,
    SchemaMismatch,
)
from .formatting import (
    binding_headlines,
    format_history,
    format_numbered_items,
    format_turn,
    substories_text,
)
from .parsing import BindingDecision, InitStory
from .prompts import PromptKind, prompt_digest
from .reasoner import Reasoner
from .retrieval import (
    HashedBagEmbedding,
    RetrievalResult,
    retrieve_coherence,
    retrieve_embedding,
)
from .semantic import TripleStore, fact_to_triple
from .transcript import Transcript, Turn, count_tokens, parse_datetime, replay

logger = logging.getLogger(__name__)

_TS_PREFIX = re.compile(r"^\[(?P<ts>[^\]]*)\]\s*")
_POLICY = re.compile(r"^(inactive|none|rapid:(\d+))$")


@dataclass(frozen=True)
class EngineConfig:
    T: int = 20
    k: int = 2
    N: int = 10
    B: int = 4
    consolidation_policy: str = "inactive"  # inactive | rapid:<s> | none
    binding_context_turns: int = 4

    def __post_init__(self) -> None:
        if self.T < 1 or self.k < 1 or self.N < 1:
            raise MalformedInput("T, k and N must be positive")
        if self.B < 0:
            raise MalformedInput("B must be non-negative")
        if self.binding_context_turns < 1:
            raise MalformedInput("binding_context_turns must be positive")
        m = _POLICY.match(self.consolidation_policy)
        if not m or (m.group(2) is not None and int(m.group(2)) < 1):
            raise MalformedInput(
                f"bad consolidation policy {self.consolidation_policy!r}"
            )

    @property
    def switch_threshold(self) -> int:
        """History length up to which the full-context path is used."""
        return self.T + self.B

    def policy(self) -> tuple[str, int]:
        m = _POLICY.match(self.consolidation_policy)
        if m.group(2) is not None:
            return ("rapid", int(m.group(2)))
        return (m.group(1), 0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> EngineConfig:
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass
class IterationRecord:
    iteration: int
    path: str  # "full_context" | "memory"
    online_latency: float = 0.0
    offline_latency: float = 0.0
    bound_fragments: int = 0
    consolidations: int = 0
    semanticized: int = 0
    mem_init: bool = False
    consolidated: list[list[str]] = field(default_factory=list)
    reactivated: list[list[str]] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AskOutcome:
    question: str
    answer: str
    path: str
    retrieval: RetrievalResult | None
    buffer_turn_ids: tuple[str, ...]
    context_tokens: int  # stories + facts + buffer, as shown to the model
    memory_tokens: int  # stories + facts only
    full_history_tokens: int

    @property
    def retrieved_turn_ids(self) -> set[str]:
        ids = set(self.buffer_turn_ids)
        if self.retrieval is not None:
            ids |= self.retrieval.retrieved_turn_ids
        return ids


class MemoryEngine:
    def __init__(self, config: EngineConfig, backend: Backend) -> None:
        self.config = config
        self.backend = backend
        self.bank = MemoryBank()
        self.store = TripleStore()
        self._history: list[Turn] = []
        # formatted history line -> first turn with that line (provenance lookup)
        self._line_index: dict[str, Turn] = {}
        # whitespace tokens of format_history(self._history), kept as turns arrive
        self._history_tokens = 0
        self._iteration = 0
        self._mem_init_done = False
        self.reasoner = Reasoner(backend)
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="offline")
        self._pending: list[Future] = []

    # --- plumbing ----------------------------------------------------------------

    def _remember(self, turn: Turn) -> None:
        self._history.append(turn)
        line = format_turn(turn)
        self._line_index.setdefault(line, turn)
        self._history_tokens += count_tokens(line)

    @property
    def history(self) -> list[Turn]:
        return list(self._history)

    @property
    def iteration(self) -> int:
        return self._iteration

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def drain(self) -> list[Exception]:
        """Wait for all scheduled offline work; return its failures."""
        failures = []
        pending, self._pending = self._pending, []
        for fut in pending:
            exc = fut.exception()
            if exc is not None:
                failures.append(exc)
        return failures

    # --- online path -------------------------------------------------------------

    def step(self, turn: Turn, generate: bool = False) -> tuple[str | None, IterationRecord]:
        """Consume one conversation turn per the working-memory loop.

        With generate=False (transcript replay) the path decision is
        recorded but no response is produced. Offline work is scheduled,
        not awaited.
        """
        start = time.perf_counter()
        self._iteration += 1
        iteration = self._iteration
        self._remember(turn)
        h_len = len(self._history)
        # up to binding_context_turns turns before this one, copying only those
        context = self._history[max(0, h_len - 1 - self.config.binding_context_turns) : -1]
        path = "full_context" if h_len <= self.config.switch_threshold else "memory"
        record = IterationRecord(iteration=iteration, path=path)

        response: str | None = None
        response_turn: Turn | None = None
        if generate:
            try:
                if path == "full_context":
                    response = self.reasoner.answer(
                        question=turn.text,
                        full_stories=format_history(self._history),
                        add_trivas="",
                    )
                else:
                    result = self._retrieve(turn.text, "coherence", None, self.config.k)
                    response, _ = self._answer_from_memory(turn.text, result)
            except (BackendError, ParseFailure, SchemaMismatch) as exc:
                record.error = f"online: {exc}"
                logger.warning("online answer failed at iteration %d: %s", iteration, exc)
            if response is not None:
                response_turn = Turn(
                    turn_id=f"r{iteration}",
                    speaker="assistant",
                    timestamp=turn.timestamp,
                    text=response,
                    session_id=turn.session_id,
                )
                self._remember(response_turn)

        record.online_latency = time.perf_counter() - start

        if h_len > self.config.T:
            init_turns = None if self._mem_init_done else self._history[: self.config.T]
            fut = self._executor.submit(
                self._offline_tick, record, turn, response_turn, context, init_turns
            )
            # Ticks that finished cleanly have nothing left for drain();
            # failed ones stay until it returns them.
            self._pending = [
                f for f in self._pending if not f.done() or f.exception() is not None
            ]
            self._pending.append(fut)
        return response, record

    def _retrieve(
        self, question: str, retriever: str, provider, k: int
    ) -> RetrievalResult:
        if retriever == "embedding":
            return retrieve_embedding(self.bank, provider or HashedBagEmbedding(), question, k)
        return retrieve_coherence(self.bank, self.store, self.reasoner, question, k)

    def _buffer(self) -> list[Turn]:
        return self._history[-self.config.B:] if self.config.B > 0 else []

    @property
    def answers_from_memory(self) -> bool:
        """Whether ask answers from retrieved memories, not the full history."""
        return len(self._history) > self.config.switch_threshold and len(self.bank) > 0

    def retrieve(
        self,
        question: str,
        k: int | None = None,
        retriever: str = "coherence",
        provider=None,
    ) -> tuple[RetrievalResult, tuple[str, ...]]:
        """Retrieval probe: the top k memories (the engine's k when not
        given) plus buffer turn ids, no answering."""
        k = self.config.k if k is None else k
        if k < 1:
            raise MalformedInput(f"k must be positive, got {k}")
        result = self._retrieve(question, retriever, provider, k)
        return result, tuple(t.turn_id for t in self._buffer())

    def _answer_from_memory(
        self, question: str, result: RetrievalResult
    ) -> tuple[str, list[Turn]]:
        buffer = self._buffer()
        sections = []
        if result.blocks:
            sections.append(result.stories_text())
        if buffer:
            sections.append("Recent conversation:\n" + format_history(buffer))
        answer = self.reasoner.answer(
            question=question,
            full_stories="\n\n".join(sections),
            add_trivas=result.facts_as_text(),
        )
        return answer, buffer

    def ask(
        self,
        question: str,
        retriever: str = "coherence",
        provider=None,
        retrieval: RetrievalResult | None = None,
    ) -> AskOutcome:
        """Answer an evaluation question without advancing the conversation.

        On the memory path the answer reads the engine's k stories. A
        caller that already retrieved the question, at the engine's k or
        deeper, passes that result as ``retrieval`` and the answer reads
        its top k; otherwise ask retrieves with ``retriever``. A question
        answered from the full history retrieves nothing.
        """
        full_tokens = self._history_tokens
        if not self.answers_from_memory:
            full_stories = format_history(self._history)
            answer = self.reasoner.answer(
                question=question, full_stories=full_stories, add_trivas=""
            )
            return AskOutcome(
                question=question,
                answer=answer,
                path="full_context",
                retrieval=None,
                buffer_turn_ids=tuple(t.turn_id for t in self._history),
                context_tokens=full_tokens,
                memory_tokens=full_tokens,
                full_history_tokens=full_tokens,
            )
        if retrieval is None:
            result = self._retrieve(question, retriever, provider, self.config.k)
        elif retrieval.query != question:
            raise MalformedInput(f"retrieval for {retrieval.query!r} passed to ask {question!r}")
        else:
            result = retrieval.top(self.config.k)
        answer, buffer = self._answer_from_memory(question, result)
        memory_tokens = result.retrieved_token_count
        buffer_tokens = count_tokens(format_history(buffer)) if buffer else 0
        return AskOutcome(
            question=question,
            answer=answer,
            path="memory",
            retrieval=result,
            buffer_turn_ids=tuple(t.turn_id for t in buffer),
            context_tokens=memory_tokens + buffer_tokens,
            memory_tokens=memory_tokens,
            full_history_tokens=full_tokens,
        )

    # --- offline path ------------------------------------------------------------

    def _offline_tick(
        self,
        record: IterationRecord,
        q_turn: Turn,
        r_turn: Turn | None,
        context: list[Turn],
        init_turns: list[Turn] | None,
    ) -> None:
        start = time.perf_counter()
        try:
            if init_turns is not None and not self._mem_init_done:
                self._mem_init(record, init_turns)
                self._mem_init_done = True
            self._bind(record, q_turn, r_turn, context)
            self._consolidation_pass(record)
        except (ParseFailure, SchemaMismatch) as exc:
            record.error = f"offline: {exc}"
            logger.warning("offline tick %d degraded: %s", record.iteration, exc)
        finally:
            record.offline_latency = time.perf_counter() - start

    def _fragment_from_line(self, line: str, fallback: Turn) -> Fragment:
        """Turn a content/excerpt line back into a fragment with provenance.

        Lines matching a formatted history turn keep that turn's id and
        timestamp; otherwise the timestamp prefix is parsed if present
        and provenance falls back to the turn being processed.
        """
        line = line.strip()
        t = self._line_index.get(line)
        if t is not None:
            text = _TS_PREFIX.sub("", line)
            return Fragment.create(text=text, timestamp=t.timestamp, turn_ids=(t.turn_id,))
        m = _TS_PREFIX.match(line)
        stamp = fallback.timestamp
        if m:
            stamp = parse_datetime(m.group("ts"), fallback=fallback.timestamp)
        text = _TS_PREFIX.sub("", line) or f"{fallback.speaker}: {fallback.text}"
        return Fragment.create(text=text, timestamp=stamp, turn_ids=(fallback.turn_id,))

    def _mem_init(self, record: IterationRecord, init_turns: list[Turn]) -> None:
        stories: list[InitStory] = self.reasoner.init_stories(format_history(init_turns))
        record.mem_init = True
        fallback = init_turns[0]
        with self.bank.lock:
            for story in stories:
                if not story.owner.strip() or not story.topic.strip():
                    logger.warning("skipping unnamed story from init")
                    continue
                narrative = self.bank.get_or_create(story.owner, story.topic)
                fragments = [
                    self._fragment_from_line(line, fallback)
                    for line in story.content
                    if line.strip()
                ]
                self.bank.append_fragments(narrative, fragments, record.iteration)
                record.bound_fragments += len(fragments)

    def _bind(
        self,
        record: IterationRecord,
        q_turn: Turn,
        r_turn: Turn | None,
        context: list[Turn],
    ) -> None:
        new_conv = format_turn(q_turn)
        if r_turn is not None:
            new_conv += "\n" + format_turn(r_turn)
        decisions: list[BindingDecision] = self.reasoner.bind(
            headlines=binding_headlines(self.bank),
            recent_context=format_history(context) if context else "(none)",
            new_conv=new_conv,
        )
        with self.bank.lock:
            for d in decisions:
                if not d.owner.strip() or not d.topic.strip():
                    logger.warning("skipping unnamed binding decision")
                    continue
                source = q_turn
                if r_turn is not None and d.message_excerpt.strip() == format_turn(r_turn):
                    source = r_turn
                existing = self.bank.find(d.owner, d.topic)
                if d.action == "extend_story" and existing is None:
                    logger.warning(
                        "extend_story for unknown narrative (%s, %s); creating it",
                        d.owner, d.topic,
                    )
                if existing is not None and existing.is_inactive(record.iteration):
                    record.reactivated.append([existing.owner, existing.topic])
                narrative = self.bank.get_or_create(d.owner, d.topic)
                fragment = self._fragment_from_line(d.message_excerpt, source)
                self.bank.append_fragments(narrative, [fragment], record.iteration)
                record.bound_fragments += 1

    def _due_for_consolidation(self, iteration: int) -> list[Narrative]:
        mode, step = self.config.policy()
        if mode == "none":
            return []
        if mode == "rapid":
            if iteration % step != 0:
                return []
            return [n for n in self.bank.narratives() if n.unconsolidated_count() > 0]
        # inactive: fire exactly on the Active->Inactive edge. A narrative
        # last bound at i-2 was still active at i-1 and lapsed this tick.
        return [
            n
            for n in self.bank.narratives()
            if n.last_bound_iteration == iteration - 2 and n.unconsolidated_count() > 0
        ]

    def _consolidation_pass(self, record: IterationRecord) -> None:
        for narrative in self._due_for_consolidation(record.iteration):
            try:
                self._consolidate_one(record, narrative)
            except (ParseFailure, SchemaMismatch) as exc:
                logger.warning(
                    "consolidation failed for (%s, %s): %s",
                    narrative.owner, narrative.topic, exc,
                )
                record.error = f"consolidation: {exc}"

    def _consolidate_one(self, record: IterationRecord, narrative: Narrative) -> None:
        with self.bank.lock:
            window_start, window = narrative.consolidation_window(self.config.N)
        if not window:
            return
        items_text = format_numbered_items(window)
        verdict = self.reasoner.consolidate(
            main_topic=narrative.topic,
            substories_text=substories_text(narrative),
            new_items_text=items_text,
        )
        with self.bank.lock:
            self.bank.consolidate(
                narrative,
                window_start,
                [(s.sub_topic, s.interval[0], s.interval[1]) for s in verdict.substories],
            )
            if verdict.new_topic:
                self.bank.rename_topic(narrative, verdict.new_topic)
        record.consolidations += 1
        record.consolidated.append([narrative.owner, narrative.topic])

        facts = self.reasoner.semanticize(
            main_topic=narrative.topic,
            substories_text=substories_text(narrative),
            new_items_text=items_text,
        )
        for item in facts:
            if not item.fact:
                continue
            triple = fact_to_triple(
                item.fact,
                owner=narrative.owner,
                timestamp=item.timestamp,
                source=(narrative.owner, narrative.topic),
            )
            if self.store.add(triple):
                record.semanticized += 1

    # --- state restore (query/eval over a finished run) ---------------------------

    def restore(self, transcript: Transcript, bank: MemoryBank, store: TripleStore) -> None:
        self._history, self._line_index, self._history_tokens = [], {}, 0
        for turn in replay(transcript):
            self._remember(turn)
        self._iteration = len(self._history)
        self.bank = bank
        self.store = store
        self._mem_init_done = len(bank) > 0

    def describe(self) -> dict:
        return {"engine": self.config.to_dict(), "backend": self.backend.describe()}


def run_replay(
    engine: MemoryEngine,
    transcript: Transcript,
    out_dir: str | Path,
    transcript_path: str | Path | None = None,
) -> runio.RunPaths:
    """Feed a transcript through the engine and write the full run artifact.

    The offline worker is drained after every turn: artifacts come out
    identical on every run with a scripted backend. Backend failures
    abort after flushing what exists.

    While the turns replay, the record step returns for each turn goes
    to records.jsonl, the bank observer collects each turn's bank
    changes for its bank-log line, and the Reasoner observer collects
    each exchange for exchanges.jsonl. Replay steps without generating
    and drains after each turn, so every call is the offline tick of the
    turn just stepped. Both observers are cleared when the turns end, an
    abort included, so later changes and calls on the engine record
    nothing.
    """
    config = dict(engine.describe())
    config["transcript"] = runio.transcript_stamp(transcript, transcript_path)
    records: list[IterationRecord] = []
    events: list[dict] = []
    exchanges: list[dict] = []

    def observe(kind: PromptKind, rendered: str, raw: str) -> None:
        exchanges.append({
            "iteration": engine.iteration,
            "phase": "offline",
            "kind": kind.value,
            "digest": prompt_digest(rendered),
            "prompt": rendered,
            "response": raw,
        })

    aborted: Exception | None = None
    with runio.RunWriter(out_dir) as writer:
        writer.write_config(config)
        engine.reasoner.observer = observe
        engine.bank.observer = events.append
        try:
            for turn in replay(transcript):
                records.append(engine.step(turn, generate=False)[1])
                failures = engine.drain()
                if failures:
                    aborted = failures[0]
                    break
                writer.write_snapshot(engine.iteration, events)
                events.clear()
        finally:
            engine.reasoner.observer = None
            engine.bank.observer = None

        writer.write_records([r.to_dict() for r in records])
        writer.write_exchanges(exchanges)
        writer.write_final(engine.bank.to_dict(), engine.store.to_jsonl())
    if aborted is not None:
        raise ReplayAborted(
            f"replay aborted at iteration {engine.iteration}: {aborted}"
        ) from aborted
    return writer.paths
