"""The evaluation pipeline over a finished run."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from storymem import engine as engine_module
from storymem.backends import Backend, RuleBackend, ScriptedBackend
from storymem.engine import EngineConfig, MemoryEngine
from storymem.episodic import MemoryBank
from storymem.errors import BackendError, MalformedInput, ScriptMiss
from storymem.evaluate import ALL_MODES, DEFAULT_K_SWEEP, run_evaluation
from storymem.metrics import constraint_recall, coverage_rate
from storymem.prompts import PromptKind
from storymem.runio import RunReader
from storymem.semantic import TripleStore


def restore_engine(paths, transcript, backend) -> MemoryEngine:
    reader = RunReader(paths.root)
    engine = MemoryEngine(EngineConfig(B=0), backend)
    engine.restore(
        transcript,
        MemoryBank.from_dict(reader.episodic_dict()),
        TripleStore.from_jsonl(reader.semantic_jsonl()),
    )
    return engine


@pytest.fixture(scope="module")
def evaluated(b0_run, transcript, script_table):
    """Full default-mode evaluation over the scripted run."""
    _, paths = b0_run
    reader = RunReader(paths.root)
    engine = restore_engine(paths, transcript, ScriptedBackend(script_table))
    try:
        report, traces = run_evaluation(
            engine, transcript.questions, records=reader.records()
        )
    finally:
        engine.close()
    return report, traces


def test_report_header(evaluated):
    report, _ = evaluated
    assert report["modes"] == list(ALL_MODES)
    assert report["retriever"] == "coherence"
    assert report["k"] == 2


def test_all_questions_answered_and_judged_correct(evaluated):
    report, _ = evaluated
    assert len(report["answers"]) == 13
    j = report["jscore"]
    assert j["overall"] == 100.0
    assert j["unjudgeable"] == 0
    assert j["n"] == 13
    assert j["per_category"] == {
        "commonsense": 100.0,
        "multi_hop": 100.0,
        "single_hop": 100.0,
        "temporal": 100.0,
    }


def test_coverage_sweep_saturates_at_k2(evaluated):
    report, _ = evaluated
    coverage = report["coverage"]
    assert sorted(coverage, key=int) == ["1", "2", "3", "4", "5", "6"]
    assert coverage["1"]["overall"] == pytest.approx(100.0 * 8 / 13)
    assert sorted(coverage["1"]["misses"]) == ["q10", "q11", "q4", "q5", "q8"]
    for k in ("2", "3", "4", "5", "6"):
        assert coverage[k]["overall"] == 100.0
        assert coverage[k]["misses"] == {}
        assert coverage[k]["n"] == 13


def test_compression_distribution(evaluated):
    report, _ = evaluated
    c = report["compression"]
    assert c["n"] == 13
    assert c["median"] == pytest.approx(93.75, abs=0.1)
    assert c["median"] >= 90.0
    assert 0.0 < c["min"] <= c["q1"] <= c["median"] <= c["q3"] <= c["max"] <= 100.0


def test_latency_sections_present(evaluated):
    report, _ = evaluated
    assert sorted(report["latency"]) == ["answer", "offline", "online"]
    for grid in report["latency"].values():
        assert len(grid) == 4
        assert grid == sorted(grid)  # p50 <= p90 <= p95 <= p99


def test_recall_defaults_to_question_evidence(evaluated):
    report, _ = evaluated
    assert report["recall"]["mean"] == 100.0
    assert report["recall"]["n"] == 13


def test_retrieval_traces(evaluated, transcript):
    _, traces = evaluated
    assert len(traces) == 13
    assert [t["question_id"] for t in traces] == [q.question_id for q in transcript.questions]
    for trace in traces:
        assert trace["retriever"] == "coherence"
        assert trace["k"] == 2
        assert trace["retrieved_tokens"] > 0
        assert trace["answer"]
        assert isinstance(trace["retrieved_turn_ids"], (list, set))


def test_modes_subset_skips_other_sections(b0_run, transcript, script_table):
    _, paths = b0_run
    engine = restore_engine(paths, transcript, ScriptedBackend(script_table))
    try:
        report, traces = run_evaluation(engine, transcript.questions, modes=("coverage",))
    finally:
        engine.close()
    assert "coverage" in report
    assert "answers" not in report
    assert "jscore" not in report
    assert "compression" not in report
    assert "latency" not in report
    assert "recall" not in report
    assert traces == []  # no answering pass, no traces


class BombOn(Backend):
    """Scripted backend that detonates on one prompt kind."""

    name = "bomb"

    def __init__(self, script_table: dict, kind: PromptKind):
        self.inner = ScriptedBackend(script_table)
        self.kind = kind

    def complete(self, kind: PromptKind, rendered: str) -> str:
        if kind is self.kind:
            raise BackendError("boom")
        return self.inner.complete(kind, rendered)


def test_failing_judge_is_isolated_to_its_section(b0_run, transcript, script_table):
    _, paths = b0_run
    engine = restore_engine(
        paths, transcript, BombOn(script_table, PromptKind.JUDGE)
    )
    try:
        report, _ = run_evaluation(
            engine, transcript.questions, modes=("jscore", "coverage")
        )
    finally:
        engine.close()
    assert report["jscore"] == {"error": "boom"}
    assert report["coverage"]["2"]["overall"] == 100.0  # unaffected


def test_unanswerable_questions_leave_empty_sections(b0_run, transcript, script_table):
    _, paths = b0_run
    engine = restore_engine(
        paths, transcript, BombOn(script_table, PromptKind.ANSWER)
    )
    try:
        report, traces = run_evaluation(
            engine, transcript.questions, modes=("compression", "latency", "jscore")
        )
    finally:
        engine.close()
    assert report["answers"] == {}
    assert traces == []
    assert report["compression"] == {"error": "no samples"}
    assert report["latency"] == {"error": "no samples"}  # no records passed either
    # every question is unjudgeable, which scores as wrong
    assert report["jscore"]["overall"] == 0.0
    assert report["jscore"]["unjudgeable"] == 13


def test_custom_constraints_override_question_evidence(b0_run, transcript, script_table):
    _, paths = b0_run
    engine = restore_engine(paths, transcript, ScriptedBackend(script_table))
    q = transcript.questions[0]
    constraints = [
        {"id": "c1", "text": q.text, "constraint_turn_ids": sorted(q.evidence_turn_ids)},
        {"id": "c2", "text": q.text, "constraint_turn_ids": ["does-not-exist"]},
    ]
    try:
        report, _ = run_evaluation(
            engine, transcript.questions, modes=("recall",), constraints=constraints
        )
    finally:
        engine.close()
    assert report["recall"]["per_instruction"]["c1"] == 100.0
    assert report["recall"]["per_instruction"]["c2"] == 0.0
    assert report["recall"]["mean"] == 50.0


class MissRecording(Backend):
    """Scripted backend that keeps the kind of each prompt its table lacks."""

    name = "miss-recording"

    def __init__(self, script_table: dict):
        self.inner = ScriptedBackend(script_table)
        self.misses: list[PromptKind] = []

    def complete(self, kind: PromptKind, rendered: str) -> str:
        try:
            return self.inner.complete(kind, rendered)
        except ScriptMiss:
            self.misses.append(kind)
            raise


def test_script_table_covers_the_embedding_evaluation(b0_run, transcript, script_table):
    """The scripted embedding-retriever evaluation finds every prompt in the
    table, so its report is the rule backend's, latency aside."""
    _, paths = b0_run
    records = RunReader(paths.root).records()
    scripted = MissRecording(script_table)
    reports = []
    for backend in (scripted, RuleBackend()):
        engine = restore_engine(paths, transcript, backend)
        try:
            report, _ = run_evaluation(
                engine, transcript.questions, retriever="embedding", records=records
            )
        finally:
            engine.close()
        report.pop("latency")
        reports.append(report)
    assert scripted.misses == []
    assert reports[0] == reports[1]
    assert len(reports[0]["answers"]) == 13


# --- each distinct prompt is sent once per evaluation ----------------------------------


class Capturing(Backend):
    """Passes calls through to a backend and keeps every (kind, prompt) sent."""

    name = "capturing"

    def __init__(self, inner: Backend):
        self.inner = inner
        self.sent: list[tuple[PromptKind, str]] = []

    def complete(self, kind: PromptKind, rendered: str) -> str:
        self.sent.append((kind, rendered))
        return self.inner.complete(kind, rendered)


def test_evaluation_sends_no_prompt_twice(b0_run, transcript, script_table):
    _, paths = b0_run
    backend = Capturing(ScriptedBackend(script_table))
    engine = restore_engine(paths, transcript, backend)
    try:
        _, traces = run_evaluation(engine, transcript.questions)
    finally:
        engine.close()
    repeats = [pair for pair, n in Counter(backend.sent).items() if n > 1]
    assert repeats == []
    # the question alone shapes the translate prompt: one per question
    kinds = Counter(kind for kind, _ in backend.sent)
    assert kinds[PromptKind.GRAPH_QUERY_TRANSLATE] == len(transcript.questions)
    # one ranking per memory-path question serves the answer, every k of
    # the sweep and recall: it asks as deep as the deepest k
    assert len(traces) == len(transcript.questions)
    rankings = [r for kind, r in backend.sent if kind is PromptKind.COHERENCE_RETRIEVE]
    assert len(rankings) == len(traces)
    assert all(f"select the top {max(DEFAULT_K_SWEEP)} stories" in r for r in rankings)


def test_ask_and_retrieve_outside_an_evaluation_ask_for_their_own_k(
    b0_run, transcript, script_table
):
    _, paths = b0_run
    backend = Capturing(ScriptedBackend(script_table))
    engine = restore_engine(paths, transcript, backend)
    question = transcript.questions[0].text
    try:
        engine.ask(question)
        for k in DEFAULT_K_SWEEP:
            engine.retrieve(question, k=k)
    finally:
        engine.close()
    rankings = [r for kind, r in backend.sent if kind is PromptKind.COHERENCE_RETRIEVE]
    asked = [engine.config.k, *DEFAULT_K_SWEEP]
    assert len(rankings) == len(asked)
    for k, rendered in zip(asked, rankings):
        assert f"select the top {k} stories" in rendered


def test_evaluation_matches_unmemoized_retrievals(evaluated, b0_run, transcript, script_table):
    report, traces = evaluated
    _, paths = b0_run
    questions = transcript.questions
    engine = restore_engine(paths, transcript, ScriptedBackend(script_table))
    try:
        answers, oracle_traces = {}, []
        for q in questions:
            outcome = engine.ask(q.text)
            answers[q.question_id] = outcome.answer
            trace = outcome.retrieval.trace()
            trace["question_id"] = q.question_id
            trace["answer"] = outcome.answer
            oracle_traces.append(trace)

        def retrieved(q, k=None):
            result, buffer_ids = engine.retrieve(q.text, k=k)
            return result.retrieved_turn_ids | set(buffer_ids)

        coverage = {
            str(k): coverage_rate(questions, {q.question_id: retrieved(q, k) for q in questions})
            for k in DEFAULT_K_SWEEP
        }
        with_evidence = [q for q in questions if q.evidence_turn_ids]
        recall = constraint_recall(
            [(q.question_id, sorted(q.evidence_turn_ids)) for q in with_evidence],
            {q.question_id: retrieved(q) for q in with_evidence},
        )
    finally:
        engine.close()
    assert report["answers"] == answers
    assert traces == oracle_traces
    assert report["coverage"] == coverage
    assert report["recall"] == recall


def test_one_retrieval_per_distinct_question_text(
    b0_run, transcript, script_table, monkeypatch
):
    """The answer, the whole k sweep and recall read one retrieval, and a
    question asked twice under two ids is retrieved once."""
    _, paths = b0_run
    calls = []
    original = engine_module.retrieve_coherence

    def counting(bank, store, reasoner, question, k, **kwargs):
        calls.append((question, k))
        return original(bank, store, reasoner, question, k, **kwargs)

    monkeypatch.setattr(engine_module, "retrieve_coherence", counting)
    first = transcript.questions[0]
    twin = dataclasses.replace(first, question_id="twin")
    questions = [*transcript.questions, twin]
    engine = restore_engine(paths, transcript, ScriptedBackend(script_table))
    try:
        report, traces = run_evaluation(engine, questions)
    finally:
        engine.close()
    texts = [q.text for q in transcript.questions]
    assert len(set(texts)) == len(texts) == len(traces) - 1  # every one on the memory path
    assert calls == [(text, max(DEFAULT_K_SWEEP)) for text in texts]
    [a, b] = [t for t in traces if t["question_id"] in (first.question_id, "twin")]
    assert {**a, "question_id": "twin"} == b
    for k in DEFAULT_K_SWEEP:
        covered = report["coverage"][str(k)]["covered"]
        assert covered["twin"] == covered[first.question_id]
    per = report["recall"]["per_instruction"]
    assert per["twin"] == per[first.question_id]


def test_full_context_answers_retrieve_nothing(b0_run, transcript):
    """With the whole 60-turn history under the switch threshold, a
    jscore-only evaluation answers from the full history and sends no
    ranking and no translation, although the bank is not empty."""
    _, paths = b0_run
    reader = RunReader(paths.root)
    backend = Capturing(RuleBackend())
    engine = MemoryEngine(EngineConfig(T=100, B=0), backend)
    engine.restore(
        transcript,
        MemoryBank.from_dict(reader.episodic_dict()),
        TripleStore.from_jsonl(reader.semantic_jsonl()),
    )
    try:
        assert len(engine.bank) > 0 and not engine.answers_from_memory
        report, traces = run_evaluation(engine, transcript.questions, modes=("jscore",))
    finally:
        engine.close()
    assert traces == []
    assert len(report["answers"]) == len(transcript.questions)
    kinds = Counter(kind for kind, _ in backend.sent)
    assert set(kinds) == {PromptKind.ANSWER, PromptKind.JUDGE}


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_refused(b0_run, transcript, k):
    """A retrieval at k < 1 used to ask for "the top 0 stories" and return
    every block the ranking named; an evaluation then reported full
    coverage at k = 0."""
    _, paths = b0_run
    backend = Capturing(RuleBackend())
    engine = restore_engine(paths, transcript, backend)
    try:
        with pytest.raises(MalformedInput):
            engine.retrieve(transcript.questions[0].text, k=k)
        with pytest.raises(MalformedInput):
            run_evaluation(engine, transcript.questions, k_sweep=(k, 1))
    finally:
        engine.close()
    assert backend.sent == []


def test_ask_reads_the_top_k_of_a_ready_retrieval(b0_run, transcript, script_table):
    _, paths = b0_run
    first, second = transcript.questions[:2]
    engine = restore_engine(paths, transcript, ScriptedBackend(script_table))
    try:
        deep, _ = engine.retrieve(first.text, k=max(DEFAULT_K_SWEEP))
        outcome = engine.ask(first.text, retrieval=deep)
        assert outcome.retrieval == deep.top(engine.config.k)
        assert outcome.answer == engine.ask(first.text).answer
        with pytest.raises(MalformedInput):
            engine.ask(second.text, retrieval=deep)
    finally:
        engine.close()


def _reaches_backend(engine, backend, question) -> bool:
    before = len(backend.sent)
    engine.retrieve(question)
    return len(backend.sent) > before


def test_memo_ends_with_the_evaluation(b0_run, transcript, script_table):
    _, paths = b0_run
    question = transcript.questions[0].text
    backend = Capturing(ScriptedBackend(script_table))
    engine = restore_engine(paths, transcript, backend)
    try:
        run_evaluation(engine, transcript.questions, modes=("recall",))
        assert _reaches_backend(engine, backend, question)
    finally:
        engine.close()


class RaiseOn(Capturing):
    """Raises an error the evaluation does not isolate, on one prompt kind."""

    def __init__(self, inner: Backend, kind: PromptKind):
        super().__init__(inner)
        self.kind = kind

    def complete(self, kind: PromptKind, rendered: str) -> str:
        if kind is self.kind:
            raise RuntimeError("backend crashed")
        return super().complete(kind, rendered)


def test_memo_ends_when_the_evaluation_raises(b0_run, transcript, script_table):
    _, paths = b0_run
    question = transcript.questions[0].text
    backend = RaiseOn(ScriptedBackend(script_table), PromptKind.ANSWER)
    engine = restore_engine(paths, transcript, backend)
    try:
        with pytest.raises(RuntimeError):
            # the first question retrieves, then its answer crashes the run
            run_evaluation(engine, transcript.questions, modes=("jscore",))
        assert _reaches_backend(engine, backend, question)
    finally:
        engine.close()
