"""The conversation loop: path switching, offline memory formation, replay."""

from __future__ import annotations

import gc
import json
import types
import weakref
from datetime import datetime, timedelta

import pytest

from storymem.backends import Backend, RuleBackend, ScriptedBackend, _section
from storymem.engine import EngineConfig, IterationRecord, MemoryEngine, run_replay
from storymem.episodic import MemoryBank
from storymem.errors import BackendUnavailable, MalformedInput, ReplayAborted
from storymem.parsing import BindingDecision, to_canonical
from storymem.prompts import PromptKind
from storymem.runio import RunReader
from storymem.semantic import TripleStore
from storymem.formatting import format_history, format_turn, story_block
from storymem.transcript import Session, Transcript, Turn, count_tokens

OFFLINE_KINDS = {"story_init", "memory_binding", "consolidation", "semanticization"}


def tiny_transcript(n_turns: int = 10) -> Transcript:
    base = datetime(2023, 5, 1, 9, 0)
    topics = ["the garden plan", "the chess night", "the bread bake"]
    turns = tuple(
        Turn(
            turn_id=f"s1t{i + 1}",
            speaker=("Ana", "Raj")[i % 2],
            timestamp=base + timedelta(minutes=i),
            text=f"Quick update on {topics[i % 3]}: step {i + 1} went fine.",
            session_id="session_1",
        )
        for i in range(n_turns)
    )
    return Transcript(
        scenario_id="tiny",
        sessions=(Session(session_id="session_1", timestamp=base, turns=turns),),
    )


# --- configuration -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(MalformedInput):
        EngineConfig(T=0)
    with pytest.raises(MalformedInput):
        EngineConfig(k=0)
    with pytest.raises(MalformedInput):
        EngineConfig(B=-1)
    with pytest.raises(MalformedInput):
        EngineConfig(consolidation_policy="sometimes")
    with pytest.raises(MalformedInput):
        EngineConfig(consolidation_policy="rapid:0")
    with pytest.raises(MalformedInput):
        EngineConfig(binding_context_turns=0)


def test_config_helpers():
    assert EngineConfig(T=20, B=0).switch_threshold == 20
    assert EngineConfig(T=20, B=4).switch_threshold == 24
    assert EngineConfig().policy() == ("inactive", 0)
    assert EngineConfig(consolidation_policy="rapid:3").policy() == ("rapid", 3)
    assert EngineConfig(consolidation_policy="none").policy() == ("none", 0)
    config = EngineConfig(T=8, k=3, N=5, B=2, consolidation_policy="rapid:2")
    assert EngineConfig.from_dict(config.to_dict()) == config
    assert EngineConfig.from_dict({"T": 5, "stray": 1}).T == 5


# --- scripted replay of the bundled conversation -------------------------------------


def replay_records(paths) -> list[IterationRecord]:
    """The iteration records a replay wrote to records.jsonl."""
    return [IterationRecord(**row) for row in RunReader(paths.root).records()]


def test_replay_paths_without_buffer(b0_run):
    records = replay_records(b0_run[1])
    assert [r.iteration for r in records] == list(range(1, 61))
    assert all(r.path == "full_context" for r in records if r.iteration <= 20)
    assert all(r.path == "memory" for r in records if r.iteration >= 21)
    assert all(r.error is None for r in records)


def test_replay_paths_with_buffer(b4_run):
    records = replay_records(b4_run[1])
    assert all(r.path == "full_context" for r in records if r.iteration <= 24)
    assert all(r.path == "memory" for r in records if r.iteration >= 25)
    # memory formation still starts at T, not at T+B
    assert [r.iteration for r in records if r.mem_init] == [21]


def test_memory_initializes_once_at_crossing(b0_run):
    records = replay_records(b0_run[1])
    assert [r.iteration for r in records if r.mem_init] == [21]
    by_iter = {r.iteration: r for r in records}
    # the first T turns arrive as narrative fragments in one batch, and
    # the crossing turn is bound on the same tick
    assert by_iter[21].bound_fragments == 21
    assert all(by_iter[i].bound_fragments == 0 for i in range(1, 21))
    # afterwards each tick binds exactly the one new turn
    assert all(by_iter[i].bound_fragments == 1 for i in range(22, 61))


def test_crossing_turn_is_bound(b0_run, transcript):
    engine, _ = b0_run
    crossing = transcript.turns[20].turn_id  # the turn that trips the threshold
    bound_ids = {
        tid
        for n in engine.bank.narratives()
        for f in n.fragments
        for tid in f.turn_ids
    }
    assert crossing == "s2t1"
    assert crossing in bound_ids
    # every turn is represented
    assert bound_ids == transcript.turn_ids()


def test_consolidation_fires_on_inactivity_edges(b0_run):
    engine, paths = b0_run
    records = replay_records(paths)
    per_iter = {r.iteration: r.consolidations for r in records if r.consolidations}
    assert per_iter == {
        23: 6,
        25: 1,
        26: 1,
        31: 1,
        32: 1,
        37: 1,
        38: 1,
        43: 1,
        44: 1,
        49: 1,
        50: 1,
        55: 1,
        56: 1,
    }
    assert sum(r.semanticized for r in records) == len(engine.store) == 13
    assert len(engine.bank) == 20


def test_reactivation_is_reported(b0_run):
    records = replay_records(b0_run[1])
    events = [(r.iteration, r.reactivated) for r in records if r.reactivated]
    assert events[0] == (23, [["Ava", "The kitchen renovation"]])
    assert len(events) == 26


def read_exchanges(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_offline_work_is_independent_of_buffer(b0_run, b4_run):
    seq0 = [
        (e["kind"], e["digest"])
        for e in read_exchanges(b0_run[1].exchanges)
        if e["kind"] in OFFLINE_KINDS
    ]
    seq4 = [
        (e["kind"], e["digest"])
        for e in read_exchanges(b4_run[1].exchanges)
        if e["kind"] in OFFLINE_KINDS
    ]
    assert seq0 == seq4
    assert len(seq0) == 77
    assert b0_run[0].bank.to_dict() == b4_run[0].bank.to_dict()
    assert b0_run[0].store.to_jsonl() == b4_run[0].store.to_jsonl()


def test_binding_context_is_the_turns_just_before():
    turns = tiny_transcript(8).turns
    engine = MemoryEngine(EngineConfig(T=1, B=0, binding_context_turns=3), RuleBackend())
    contexts = []

    def observe(kind, rendered, raw):
        if kind is PromptKind.MEMORY_BINDING:
            contexts.append(
                _section(rendered, "Recent dialogue context:", "New conversation turn:")
            )

    engine.reasoner.observer = observe
    try:
        for turn in turns:
            engine.step(turn)
            assert engine.drain() == []
    finally:
        engine.close()
    # every turn after the first T is bound, the one that crosses T included
    assert contexts == [format_history(turns[max(0, i - 3) : i]) for i in range(1, 8)]


def test_run_artifacts_on_disk(b0_run, transcript):
    engine, paths = b0_run
    log = [json.loads(line) for line in paths.bank_log.read_text().splitlines()]
    assert [row["iteration"] for row in log] == list(range(1, 61))
    config = json.loads(paths.config.read_text())
    assert config["engine"]["B"] == 0
    assert config["transcript"]["scenario_id"] == "synthetic-60"
    assert config["transcript"]["turns"] == 60
    records = [json.loads(line) for line in paths.records.read_text().splitlines()]
    assert len(records) == 60
    final = json.loads(paths.episodic.read_text())
    assert final == engine.bank.to_dict()
    assert paths.semantic.read_text() == engine.store.to_jsonl()
    assert len(paths.exchanges.read_text().splitlines()) == 77


# --- consolidation policies ------------------------------------------------------------


def run_tiny(
    policy: str, n_turns: int = 12
) -> tuple[MemoryEngine, list[IterationRecord]]:
    """Step a tiny conversation, draining each turn; keep the records
    step returns."""
    engine = MemoryEngine(
        EngineConfig(T=4, B=0, consolidation_policy=policy), RuleBackend()
    )
    records = []
    try:
        for turn in tiny_transcript(n_turns).turns:
            records.append(engine.step(turn)[1])
            assert engine.drain() == []
    finally:
        engine.close()
    return engine, records


def test_policy_none_never_consolidates():
    engine, records = run_tiny("none")
    assert sum(r.consolidations for r in records) == 0
    assert all(not n.subplots for n in engine.bank.narratives())


def test_policy_rapid_consolidates_on_schedule():
    engine, records = run_tiny("rapid:3")
    iters = [r.iteration for r in records if r.consolidations]
    assert iters
    assert all(i % 3 == 0 for i in iters)
    # the final tick is a multiple of 3, so nothing is left pending
    assert all(n.unconsolidated_count() == 0 for n in engine.bank.narratives())


def test_policy_inactive_fires_exactly_on_the_edge():
    # Topics cycle with period 3 and speakers alternate, so each
    # (speaker, topic) narrative lapses two ticks after its last binding.
    engine, records = run_tiny("inactive")
    per_iter = {r.iteration: r.consolidations for r in records if r.consolidations}
    assert per_iter == {7: 4, 8: 1, 9: 1, 10: 1, 11: 1, 12: 1}
    # nothing consolidated was bound in the same tick
    for record in records:
        consolidated = {tuple(pair) for pair in record.consolidated}
        for narrative in engine.bank.narratives():
            if (narrative.owner, narrative.topic) in consolidated:
                assert narrative.last_bound_iteration != record.iteration


# --- generation mode ---------------------------------------------------------------------


def test_generation_appends_responses():
    engine = MemoryEngine(EngineConfig(T=4, B=0), RuleBackend())
    try:
        for i, turn in enumerate(tiny_transcript(8).turns, start=1):
            response, record = engine.step(turn, generate=True)
            assert response is not None
            assert len(engine.history) == 2 * i
            # history includes responses, so the threshold trips at step 3
            assert record.path == ("full_context" if i <= 2 else "memory")
            assert engine.drain() == []
    finally:
        engine.close()
    # responses are woven into the history as assistant turns
    speakers = [t.speaker for t in engine.history]
    assert speakers[1::2] == ["assistant"] * 8


def test_history_token_total_follows_steps_and_restore(b0_run, transcript, script_table):
    engine = MemoryEngine(EngineConfig(T=4, B=0), RuleBackend())
    try:
        for turn in tiny_transcript(8).turns:
            engine.step(turn, generate=True)  # each step adds a turn and a response
            engine.drain()
            assert engine._history_tokens == count_tokens(format_history(engine.history))
        assert engine.ask("How did the garden plan go?").full_history_tokens == count_tokens(
            format_history(engine.history)
        )
    finally:
        engine.close()

    _, paths = b0_run
    restored = MemoryEngine(EngineConfig(B=0), ScriptedBackend(script_table))
    try:
        for _ in range(2):  # a second restore starts the total afresh
            restored.restore(
                transcript,
                MemoryBank.from_dict(json.loads(paths.episodic.read_text())),
                TripleStore.from_jsonl(paths.semantic.read_text()),
            )
            assert restored._history_tokens == count_tokens(format_history(restored.history))
    finally:
        restored.close()


# --- ask and restore ------------------------------------------------------------------


def test_ask_uses_full_history_before_crossing():
    engine = MemoryEngine(EngineConfig(T=4, B=0), RuleBackend())
    try:
        for turn in tiny_transcript(3).turns:
            engine.step(turn)
            engine.drain()
        outcome = engine.ask("What happened with the garden plan?")
    finally:
        engine.close()
    assert outcome.path == "full_context"
    assert outcome.retrieval is None
    assert set(outcome.buffer_turn_ids) == {"s1t1", "s1t2", "s1t3"}
    assert outcome.context_tokens == outcome.memory_tokens


def test_ask_from_memory_reports_compression_inputs(b0_run, transcript):
    engine, _ = b0_run
    outcome = engine.ask(transcript.questions[0].text)
    assert outcome.path == "memory"
    assert "Cherokee Purple" in outcome.answer
    assert outcome.retrieval is not None
    assert outcome.full_history_tokens > 0
    assert 0 < outcome.context_tokens < outcome.full_history_tokens
    assert outcome.retrieved_turn_ids
    assert outcome.answer.strip()


def test_restore_matches_live_engine(b0_run, transcript, script_table):
    live_engine, paths = b0_run
    restored = MemoryEngine(EngineConfig(B=0), ScriptedBackend(script_table))
    try:
        restored.restore(
            transcript,
            MemoryBank.from_dict(json.loads(paths.episodic.read_text())),
            TripleStore.from_jsonl(paths.semantic.read_text()),
        )
        assert restored.iteration == 60
        assert len(restored.history) == 60
        question = transcript.questions[0].text
        assert restored.ask(question).answer == live_engine.ask(question).answer
    finally:
        restored.close()


def test_closed_engine_is_freed_without_the_cycle_collector(tmp_path, transcript):
    gc.collect()
    gc.disable()
    try:
        engine = MemoryEngine(EngineConfig(B=0), RuleBackend())
        try:
            run_replay(engine, transcript, tmp_path / "run")
            engine.step(transcript.sessions[0].turns[0], generate=True)
            engine.drain()
            engine.ask(transcript.questions[0].text)
        finally:
            engine.close()
        freed = weakref.ref(engine)
        del engine
        assert freed() is None
    finally:
        gc.enable()


def test_live_engine_keeps_no_records_or_events(transcript):
    """A conversation driven by step keeps neither the records step
    returns nor the bank's events: only run_replay collects them."""
    engine = MemoryEngine(EngineConfig(B=0), RuleBackend())
    records = []
    try:
        for turn in list(transcript.turns) * 2:
            _, record = engine.step(turn, generate=True)
            records.append(weakref.ref(record))
            del record
            assert engine.drain() == []
        gc.collect()
        assert len(records) == 120
        assert all(ref() is None for ref in records)

        skipped = (type, types.FunctionType, types.BuiltinFunctionType, types.ModuleType)
        seen, stack = set(), [engine.bank]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, skipped):
                continue
            seen.add(id(obj))
            assert not (isinstance(obj, dict) and "op" in obj), obj
            stack.extend(gc.get_referents(obj))
        assert len(engine.bank) > 0
    finally:
        engine.close()


# --- failure handling ----------------------------------------------------------------


def test_script_miss_aborts_and_flushes(tmp_path, transcript, script_table):
    truncated = {k: v for k, v in script_table.items() if k != "memory_binding"}
    engine = MemoryEngine(EngineConfig(B=0), ScriptedBackend(truncated))
    out = tmp_path / "aborted"
    try:
        with pytest.raises(ReplayAborted):
            run_replay(engine, transcript, out)
    finally:
        engine.close()
    # the init succeeded; binding the crossing turn on the same tick
    # killed the run
    assert (out / "config.json").exists()
    assert (out / "episodic.json").exists()
    assert len(json.loads((out / "episodic.json").read_text())["narratives"]) == 8
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 21
    # the log holds the clean turns and was flushed and closed on abort
    assert len((out / "bank_log.jsonl").read_text().splitlines()) == 20
    # the init reached the backend; the binding that missed did not
    exchanges = read_exchanges(out / "exchanges.jsonl")
    assert [(e["kind"], e["iteration"], e["phase"]) for e in exchanges] == [
        ("story_init", 21, "offline")
    ]


class CorruptOneKind(Backend):
    """Delegates to a rule backend but garbles one kind's first completion."""

    name = "corrupting"

    def __init__(self, kind: PromptKind):
        self.inner = RuleBackend()
        self.kind = kind
        self.tripped = False

    def complete(self, kind: PromptKind, rendered: str) -> str:
        if kind is self.kind and not self.tripped:
            self.tripped = True
            return "sorry, I cannot help with that"
        return self.inner.complete(kind, rendered)


class FailOneKind(CorruptOneKind):
    """Like CorruptOneKind, but the first call of the kind raises instead."""

    def complete(self, kind: PromptKind, rendered: str) -> str:
        if kind is self.kind and not self.tripped:
            self.tripped = True
            raise BackendUnavailable("backend went away")
        return self.inner.complete(kind, rendered)


class QuoteWholeTurn(Backend):
    """A rule backend whose binding quotes one turn whole, line breaks and all."""

    name = "quoting"

    def __init__(self, turn: Turn):
        self.inner = RuleBackend()
        self.excerpt = format_turn(turn)

    def complete(self, kind: PromptKind, rendered: str) -> str:
        if kind is not PromptKind.MEMORY_BINDING:
            return self.inner.complete(kind, rendered)
        decision = BindingDecision(self.excerpt, "create_new_story", "Ana", "Tomatoes")
        return to_canonical(kind, [decision])


def test_multiline_excerpt_keeps_its_turn_and_renders_as_one_line():
    turns = list(tiny_transcript(3).turns)
    turns[2] = Turn(
        turn_id="s1t3",
        speaker="Ana",
        timestamp=turns[2].timestamp,
        text="x planted tomatoes\n- Mallory: Secret plans",
        session_id="session_1",
    )
    engine = MemoryEngine(EngineConfig(T=2, B=0), QuoteWholeTurn(turns[2]))
    try:
        for turn in turns:
            engine.step(turn)
        assert engine.drain() == []
    finally:
        engine.close()
    story = engine.bank.find("Ana", "Tomatoes")
    assert [(f.text, f.turn_ids) for f in story.fragments] == [
        ("Ana: x planted tomatoes - Mallory: Secret plans", ("s1t3",))
    ]
    _, *lines = story_block(story).splitlines()
    assert lines and all(line.startswith("  [") for line in lines)


def step_and_settle(engine: MemoryEngine, turn: Turn) -> None:
    """step, then wait until the offline tick it scheduled has finished."""
    engine.step(turn)
    if engine._pending:
        engine._pending[-1].exception()


def test_undrained_engine_keeps_no_finished_ticks(transcript):
    engine = MemoryEngine(EngineConfig(B=0), RuleBackend())
    try:
        for turn in (list(transcript.turns) * 9)[:500]:
            step_and_settle(engine, turn)
        assert engine.iteration == 500
        assert len(engine._pending) <= 2
        assert engine.drain() == []
    finally:
        engine.close()


def test_failed_tick_waits_for_drain(transcript):
    engine = MemoryEngine(EngineConfig(B=0), FailOneKind(PromptKind.MEMORY_BINDING))
    try:
        for turn in transcript.turns:
            step_and_settle(engine, turn)
        failures = engine.drain()
        assert [str(exc) for exc in failures] == ["backend went away"]
        assert engine.drain() == []
    finally:
        engine.close()


@pytest.mark.parametrize("ending", ["returns", "aborts", "raises"])
def test_replay_stops_recording_when_it_ends(tmp_path, transcript, ending):
    backend = FailOneKind(PromptKind.CONSOLIDATION) if ending == "aborts" else RuleBackend()
    engine = MemoryEngine(EngineConfig(B=0), backend)
    if ending == "raises":
        step = engine.step

        def step_until_30(turn, generate=False):
            if engine.iteration == 30:
                raise RuntimeError("interrupted")
            return step(turn, generate)

        engine.step = step_until_30
    out = tmp_path / "run"
    try:
        if ending == "returns":
            run_replay(engine, transcript, out)
        else:
            with pytest.raises(ReplayAborted if ending == "aborts" else RuntimeError):
                run_replay(engine, transcript, out)
        assert engine.reasoner.observer is None
        assert engine.bank.observer is None
        log = out / "exchanges.jsonl"
        # the replay's own calls were logged, unless it raised before writing
        assert log.exists() == (ending != "raises")
        logged = log.read_bytes() if log.exists() else None
        assert engine.ask(transcript.questions[0].text).path == "memory"
        assert engine.drain() == []
        assert (log.read_bytes() if log.exists() else None) == logged
    finally:
        engine.close()


def test_unparseable_offline_reply_degrades_without_aborting(tmp_path):
    engine = MemoryEngine(
        EngineConfig(T=4, B=0), CorruptOneKind(PromptKind.SEMANTICIZATION)
    )
    transcript = tiny_transcript(12)
    try:
        paths = run_replay(engine, transcript, tmp_path / "degraded")
    finally:
        engine.close()
    records = replay_records(paths)
    assert len(records) == 12
    errors = [r.error for r in records if r.error]
    assert errors and all("consolidation:" in e for e in errors)
    # later consolidation passes still went through
    assert sum(r.consolidations for r in records) > 0
