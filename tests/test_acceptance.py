"""Acceptance gate: the core product requirements, one printed verdict each.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines even on success.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from storymem.backends import (
    Backend,
    BackendConfig,
    RecordingBackend,
    RuleBackend,
    ScriptedBackend,
    make_backend,
)
from storymem.engine import EngineConfig, MemoryEngine, run_replay
from storymem.episodic import MemoryBank
from storymem.errors import ParseFailure, SchemaMismatch
from storymem.evaluate import run_evaluation
from storymem.metrics import compression_rate, coverage_rate, percentile
from storymem.parsing import parse_structured
from storymem.prompts import PromptKind
from storymem.reasoner import Reasoner
from storymem.retrieval import (
    HashedBagEmbedding,
    retrieve_coherence,
    retrieve_embedding,
    similarity_report,
)
from storymem.runio import RunReader
from storymem.semantic import TripleFact, TripleStore
from storymem.transcript import EvalQuestion, Session, Transcript, Turn

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT_PATH = ROOT / "fixtures" / "synthetic60.json"


def _report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}", flush=True)


def _strip_latencies(path: Path) -> list[dict]:
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        row.pop("online_latency", None)
        row.pop("offline_latency", None)
        rows.append(row)
    return rows


# --- 1. byte-reproducible scripted replay -------------------------------------------


def test_deterministic_replay(tmp_path, transcript, script_table):
    ok = False
    try:
        started = time.perf_counter()
        runs = []
        live: list[tuple[int, dict]] = []  # the bank after each drained turn, run one
        for name in ("one", "two"):
            engine = MemoryEngine(EngineConfig(B=0), ScriptedBackend(script_table))
            if name == "one":
                drain = engine.drain

                def capturing_drain(engine=engine, drain=drain):
                    failures = drain()
                    live.append((engine.iteration, engine.bank.to_dict()))
                    return failures

                engine.drain = capturing_drain
            try:
                runs.append(
                    run_replay(engine, transcript, tmp_path / name,
                               transcript_path=TRANSCRIPT_PATH)
                )
            finally:
                engine.close()
        elapsed = time.perf_counter() - started
        a, b = runs
        assert a.episodic.read_bytes() == b.episodic.read_bytes()
        assert a.semantic.read_bytes() == b.semantic.read_bytes()
        assert a.exchanges.read_bytes() == b.exchanges.read_bytes()
        assert a.config.read_bytes() == b.config.read_bytes()
        assert _strip_latencies(a.records) == _strip_latencies(b.records)
        assert a.bank_log.read_bytes() == b.bank_log.read_bytes()
        # the log folds to the live bank at every iteration
        bank = MemoryBank()
        folded = []
        for iteration, events in RunReader(a.root).bank_log():
            for event in events:
                bank.apply(event)
            folded.append((iteration, bank.to_dict()))
        assert len(folded) == 60
        assert folded == live
        assert elapsed < 10.0, f"two replays took {elapsed:.1f}s"
        ok = True
    finally:
        _report("deterministic scripted replay", ok)


# --- 2. online path switching ---------------------------------------------------------


def test_path_switching_conformance(b0_run, b4_run):
    ok = False
    try:
        for run, threshold in ((b0_run, 20), (b4_run, 24)):
            records = RunReader(run[1].root).records()
            for r in records:
                expected = "full_context" if r["iteration"] <= threshold else "memory"
                assert r["path"] == expected, (r["iteration"], r["path"])
            assert [r["iteration"] for r in records if r["mem_init"]] == [21]
        ok = True
    finally:
        _report("path switching at T and T+B", ok)


# --- 3. consolidation timing property ----------------------------------------------------


def _random_transcript(rng: random.Random, n_turns: int) -> Transcript:
    base = datetime(2023, 3, 1, 8, 0)
    topics = [f"the {name} project" for name in ("mural", "badge", "canoe")]
    turns = tuple(
        Turn(
            turn_id=f"s1t{i + 1}",
            speaker=("Ana", "Raj")[i % 2],
            timestamp=base + timedelta(minutes=3 * i),
            text=f"Update on {rng.choice(topics)}: step {i + 1} done.",
            session_id="session_1",
        )
        for i in range(n_turns)
    )
    return Transcript(
        scenario_id="prop",
        sessions=(Session(session_id="session_1", timestamp=base, turns=turns),),
    )


def _check_policy_invariants(engine: MemoryEngine) -> None:
    iteration = engine.iteration
    mode, step = engine.config.policy()
    for n in engine.bank.narratives():
        if mode == "none":
            assert not n.subplots, "policy none must never consolidate"
        elif mode == "rapid":
            if iteration % step == 0:
                assert n.unconsolidated_count() == 0, (
                    f"rapid:{step} left ({n.owner}, {n.topic}) pending at {iteration}"
                )
        elif n.last_bound_iteration == iteration - 2:
            assert n.unconsolidated_count() == 0, (
                f"({n.owner}, {n.topic}) lapsed at {iteration} but was not consolidated"
            )


def test_consolidation_timing_property():
    cases = 1000
    ok = False
    try:
        rng = random.Random(20230817)
        for _ in range(cases):
            T = rng.randint(4, 6)
            n_turns = rng.randint(T + 2, 16)
            policy = rng.choice(("inactive", "inactive", "rapid:2", "rapid:3", "none"))
            config = EngineConfig(T=T, B=0, consolidation_policy=policy)
            transcript = _random_transcript(rng, n_turns)

            recorder = RecordingBackend(RuleBackend())
            engine = MemoryEngine(config, recorder)
            try:
                for turn in transcript.turns:
                    engine.step(turn)
                    assert engine.drain() == []
                    _check_policy_invariants(engine)
                recorded_bank = engine.bank.to_dict()
                recorded_store = engine.store.to_jsonl()
            finally:
                engine.close()

            replayed = MemoryEngine(config, ScriptedBackend(recorder.table))
            try:
                for turn in transcript.turns:
                    replayed.step(turn)
                    assert replayed.drain() == []
                assert replayed.bank.to_dict() == recorded_bank
                assert replayed.store.to_jsonl() == recorded_store
            finally:
                replayed.close()
        ok = True
    finally:
        _report(f"consolidation timing invariant ({cases} randomized replays)", ok)


# --- 4. metric oracles -----------------------------------------------------------------


def _oracle_percentile(samples, q):
    need = max(1, math.ceil(q * len(samples) / 100.0))
    for value in sorted(samples):
        need -= 1
        if need == 0:
            return value
    return sorted(samples)[-1]


def test_metric_oracle_equivalence():
    cases = 10_000
    ok = False
    try:
        started = time.perf_counter()
        rng = random.Random(41)
        for case in range(cases):
            flavor = case % 3
            if flavor == 0:
                samples = [rng.uniform(0, 100) for _ in range(rng.randint(1, 40))]
                q = rng.uniform(0, 100)
                assert percentile(samples, q) == _oracle_percentile(samples, q)
            elif flavor == 1:
                full = rng.randint(1, 10_000)
                retrieved = rng.randint(0, 15_000)
                expected = min(100.0, max(0.0, 100.0 * (full - retrieved) / full))
                assert compression_rate(full, retrieved) == pytest.approx(expected)
            else:
                ids = [f"t{i}" for i in range(rng.randint(1, 8))]
                questions = []
                retrieved = {}
                hits = 0
                counted = 0
                for qi in range(rng.randint(1, 6)):
                    evidence = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
                    got = set(rng.sample(ids, rng.randint(0, len(ids))))
                    questions.append(EvalQuestion(
                        question_id=f"q{qi}", text="?", category="single_hop",
                        gold_answer="x", evidence_turn_ids=evidence,
                    ))
                    retrieved[f"q{qi}"] = got
                    if evidence:
                        counted += 1
                        hits += evidence <= got
                cov = coverage_rate(questions, retrieved)
                expected = 100.0 * hits / counted if counted else 0.0
                assert cov["overall"] == pytest.approx(expected)
                assert cov["n"] == counted
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
        ok = True
    finally:
        _report(f"metric oracle equivalence ({cases} cases)", ok)


# --- 5. compression bar ------------------------------------------------------------------


def test_compression_bar(b0_run, transcript, script_table):
    ok = False
    try:
        _, paths = b0_run
        reader = RunReader(paths.root)
        engine = MemoryEngine(EngineConfig(B=0), ScriptedBackend(script_table))
        try:
            engine.restore(
                transcript,
                MemoryBank.from_dict(reader.episodic_dict()),
                TripleStore.from_jsonl(reader.semantic_jsonl()),
            )
            report, _ = run_evaluation(engine, transcript.questions, modes=("compression",))
        finally:
            engine.close()
        median = report["compression"]["median"]
        assert report["compression"]["n"] == 13
        assert median >= 90.0, f"median context compression {median:.1f}% below 90%"
        ok = True
    finally:
        _report("context compression median >= 90%", ok)


# --- 6. triple store parity at scale ----------------------------------------------------


def _naive_query(facts, subject, predicate, obj):
    def norm(t):
        return " ".join(str(t).split()).casefold()

    def wild(t):
        return t is None or str(t).strip() in ("", "?", "*")

    return [
        f for f in facts
        if (wild(subject) or norm(f.subject) == norm(subject))
        and (wild(predicate) or norm(f.predicate) == norm(predicate))
        and (wild(obj) or norm(f.obj) == norm(obj))
    ]


def test_triple_store_parity_at_scale():
    ok = False
    try:
        rng = random.Random(99)
        subjects = [f"Person {i}" for i in range(60)] + ["Ava", "Marta Ionescu"]
        predicates = ["likes", "owns", "visited", "works with", "is"]
        objects = [f"thing {i}" for i in range(300)] + ["the kiln", "seafoam glaze"]
        store = TripleStore()
        mirror = []
        while len(store) < 10_000:
            fact = TripleFact(
                subject=rng.choice(subjects),
                predicate=rng.choice(predicates),
                obj=rng.choice(objects),
                timestamp=f"2023-05-{rng.randint(1, 28):02d} {rng.randint(0, 23):02d}:00",
            )
            if store.add(fact):
                mirror.append(fact)
        assert len(store) == 10_000

        wildcards = (None, "", "?", "*", "  ")
        for _ in range(200):
            subject = rng.choice(subjects + list(wildcards))
            predicate = rng.choice(predicates + list(wildcards))
            obj = rng.choice(objects + list(wildcards))
            got = store.query(subject, predicate, obj)
            want = _naive_query(mirror, subject, predicate, obj)
            assert got == want, (subject, predicate, obj)
        # spot-check case and whitespace insensitivity at scale
        assert store.query("  ava ", None, None) == _naive_query(mirror, "Ava", "*", "?")
        ok = True
    finally:
        _report("triple store query parity (10k facts)", ok)


def _naive_neighborhood(facts, entity):
    def norm(t):
        return " ".join(str(t).split()).casefold()

    needle = norm(entity)
    if not needle:
        return []
    exact = [f for f in facts if needle in (norm(f.subject), norm(f.obj))]
    if exact:
        return exact
    return [
        f for f in facts
        if needle in norm(f.subject).split() or needle in norm(f.obj).split()
    ]


def test_entity_neighborhood_parity_at_scale():
    ok = False
    try:
        rng = random.Random(17)
        # names recur as subjects, as objects and as words of longer names,
        # so a needle can hit on either side, exactly or by token
        subjects = [f"Person {i}" for i in range(60)] + ["Ava", "Marta Ionescu", "the kiln"]
        predicates = ["likes", "owns", "visited", "works with", "is"]
        objects = [f"thing {i}" for i in range(300)] + [
            "the kiln", "seafoam glaze", "Ava", "Ava Ionescu", "a kiln in the garden",
        ]
        store = TripleStore()
        mirror = []
        while len(store) < 10_000:
            fact = TripleFact(
                subject=rng.choice(subjects),
                predicate=rng.choice(predicates),
                obj=rng.choice(objects),
                timestamp=f"2023-05-{rng.randint(1, 28):02d} {rng.randint(0, 23):02d}:00",
            )
            if store.add(fact):
                mirror.append(fact)
        assert len(store) == 10_000

        needles = [
            "Ava",  # exact on both sides
            "Person 7",  # exact subject
            "thing 42",  # exact object
            "the kiln",  # exact subject and object
            "Ionescu",  # token fallback, subject and object
            "kiln",  # token fallback
            "7",  # token fallback on a bare number
            "Marta Mercer",  # multi-word, no exact hit: the fallback finds nothing
            "Ionescu Marta",
            "  AVA ",  # case and whitespace variants
            "person\t 7",
            "THE   Kiln",
            "IONESCU",
            "nobody",
            "",  # empty needles
            "   ",
        ]
        needles += rng.sample(subjects, 10) + rng.sample(objects, 10)
        for needle in needles:
            assert store.entity_neighborhood(needle) == _naive_neighborhood(mirror, needle), needle
        ok = True
    finally:
        _report("triple store neighborhood parity (10k facts)", ok)


# --- 7. parser recovery corpus ----------------------------------------------------------


def _corpus() -> list[tuple[PromptKind, str, object | None]]:
    """(kind, raw completion, expected parse or None when a typed failure is correct)."""
    init_expected = parse_structured(PromptKind.STORY_INIT, json.dumps([
        {"owner": "Ava", "topic": "The garden", "content": ["Ava: planted beans."]}
    ]))
    bind_extend = parse_structured(PromptKind.MEMORY_BINDING, json.dumps([
        {"message_excerpt": "Ava: more beans.", "action": "extend_story",
         "topic": "The garden", "owner": "Ava"}
    ]))
    bind_create = parse_structured(PromptKind.MEMORY_BINDING, json.dumps([
        {"message_excerpt": "Raj: chess night.", "action": "create_new_story",
         "topic": "The chess club", "owner": "Raj"}
    ]))
    consolidation_expected = parse_structured(PromptKind.CONSOLIDATION, json.dumps(
        {"substories": [{"sub_topic": "Bean rows", "indice": [0, 1]}], "new_topic": None}
    ))
    facts_expected = parse_structured(PromptKind.SEMANTICIZATION, json.dumps([
        {"fact": "Ava has a kiln", "timestamp": "2023-05-01"}
    ]))
    choices_expected = parse_structured(PromptKind.COHERENCE_RETRIEVE, json.dumps([
        {"owner": "Ava", "topic": "The garden"}
    ]))
    patterns_expected = parse_structured(PromptKind.GRAPH_QUERY_TRANSLATE, json.dumps([
        {"subject": "Ava", "predicate": "?", "object": "?"}
    ]))
    correct = parse_structured(PromptKind.JUDGE, '{"label": "CORRECT"}')
    wrong = parse_structured(PromptKind.JUDGE, '{"label": "WRONG"}')

    rows: list[tuple[PromptKind, str, object | None]] = []

    def add(kind, raw, expected):
        rows.append((kind, raw, expected))

    init_payload = '[{"owner": "Ava", "topic": "The garden", "content": ["Ava: planted beans."]}]'
    add(PromptKind.STORY_INIT, init_payload, init_expected)
    add(PromptKind.STORY_INIT, f"```json\n{init_payload}\n```", init_expected)
    add(PromptKind.STORY_INIT, f"Sure thing! Here are the stories:\n{init_payload}\nHope that helps.",
        init_expected)
    add(PromptKind.STORY_INIT,
        "[{'owner': 'Ava', 'topic': 'The garden', 'content': ['Ava: planted beans.']}]",
        init_expected)
    add(PromptKind.STORY_INIT,
        '[{"owner": "Ava", "topic": "The garden", "content": ["Ava: planted beans."],}]',
        init_expected)
    add(PromptKind.STORY_INIT,
        '[{"owner": "Ava", "topic": "The garden", "content": "Ava: planted beans."}]',
        init_expected)

    bind_payload = ('[{"message_excerpt": "Ava: more beans.", "action": "extend_story", '
                    '"topic": "The garden", "owner": "Ava"}]')
    add(PromptKind.MEMORY_BINDING, bind_payload, bind_extend)
    add(PromptKind.MEMORY_BINDING, f"```\n{bind_payload}\n```", bind_extend)
    add(PromptKind.MEMORY_BINDING,
        bind_payload.replace("extend_story", "Extend_Story"), bind_extend)
    add(PromptKind.MEMORY_BINDING,
        '{"message_excerpt": "Raj: chess night.", "action": "create_new_story", '
        '"topic": "The chess club", "owner": "Raj"}',
        bind_create)
    add(PromptKind.MEMORY_BINDING,
        "[{'message_excerpt': 'Raj: chess night.', 'action': 'CREATE_NEW_STORY', "
        "'topic': 'The chess club', 'owner': 'Raj'}]",
        bind_create)
    add(PromptKind.MEMORY_BINDING,
        'The new message extends an existing plot.\n' + bind_payload,
        bind_extend)

    cons_payload = '{"substories": [{"sub_topic": "Bean rows", "indice": [0, 1]}], "new_topic": null}'
    add(PromptKind.CONSOLIDATION, cons_payload, consolidation_expected)
    add(PromptKind.CONSOLIDATION,
        "{'substories': [{'sub_topic': 'Bean rows', 'indice': (0, 1)}], 'new_topic': None}",
        consolidation_expected)
    add(PromptKind.CONSOLIDATION,
        '{"substories": [{"topic": "Bean rows", "interval": [0, 1]}], "new_topic": null}',
        consolidation_expected)
    add(PromptKind.CONSOLIDATION,
        '{"substories": [{"sub_topic": "Bean rows", "indices": [0, 1]}]}',
        consolidation_expected)
    add(PromptKind.CONSOLIDATION, f"Here is the grouping you asked for:\n```json\n{cons_payload}\n```",
        consolidation_expected)
    add(PromptKind.CONSOLIDATION,
        '[{"substories": [{"sub_topic": "Bean rows", "indice": [0, 1]}], "new_topic": null}]',
        consolidation_expected)

    facts_payload = '[{"fact": "Ava has a kiln", "timestamp": "2023-05-01"}]'
    add(PromptKind.SEMANTICIZATION, facts_payload, facts_expected)
    add(PromptKind.SEMANTICIZATION, f"Extracted facts below.\n{facts_payload}", facts_expected)
    add(PromptKind.SEMANTICIZATION,
        "[{'fact': 'Ava has a kiln', 'timestamp': '2023-05-01'},]", facts_expected)
    add(PromptKind.SEMANTICIZATION, "[]", parse_structured(PromptKind.SEMANTICIZATION, "[]"))

    choice_payload = '[{"owner": "Ava", "topic": "The garden"}]'
    add(PromptKind.COHERENCE_RETRIEVE, choice_payload, choices_expected)
    add(PromptKind.COHERENCE_RETRIEVE, f"The two most relevant stories:\n{choice_payload}",
        choices_expected)
    add(PromptKind.COHERENCE_RETRIEVE, "[{'owner': 'Ava', 'topic': 'The garden'}]",
        choices_expected)

    pattern_payload = '[{"subject": "Ava", "predicate": "?", "object": "?"}]'
    add(PromptKind.GRAPH_QUERY_TRANSLATE, pattern_payload, patterns_expected)
    add(PromptKind.GRAPH_QUERY_TRANSLATE,
        '[{"subject": "Ava", "predicate": "", "obj": ""}]', patterns_expected)
    add(PromptKind.GRAPH_QUERY_TRANSLATE, f"```json\n{pattern_payload}\n```", patterns_expected)

    add(PromptKind.JUDGE, '{"label": "CORRECT"}', correct)
    add(PromptKind.JUDGE, 'The answer matches.\n{"Label": "wrong"}', wrong)
    add(PromptKind.JUDGE, '```json\n{"label": "correct"}\n```', correct)

    add(PromptKind.ANSWER, "The kiln was moved to the garage.", "The kiln was moved to the garage.")

    # typed failures: garbage must fail loudly, never parse as something else
    add(PromptKind.MEMORY_BINDING, "I would extend the garden story, probably.", None)
    add(PromptKind.CONSOLIDATION, '{"scores": [1, 2, 3]}', None)
    add(PromptKind.CONSOLIDATION,
        '{"substories": [{"sub_topic": "Bean rows", "indice": [4, 1]}]}', None)
    add(PromptKind.JUDGE, '{"label": "maybe"}', None)

    assert len(rows) == 36
    # perturbation matrix: wrap every clean recoverable payload two more ways
    extra: list[tuple[PromptKind, str, object | None]] = []
    for kind, raw, expected in rows[:7]:
        extra.append((kind, f"Okay!\n```json\n{raw}\n```\nDone.", expected))
        extra.append((kind, raw + "\n\nLet me know if you need anything else.", expected))
    return rows + extra


def test_parser_recovery_corpus():
    ok = False
    recovered = 0
    misparsed = 0
    typed_failures = 0
    try:
        corpus = _corpus()
        assert len(corpus) == 50
        for kind, raw, expected in corpus:
            try:
                got = parse_structured(kind, raw)
            except (ParseFailure, SchemaMismatch):
                if expected is None:
                    typed_failures += 1
                continue
            if expected is not None and got == expected:
                recovered += 1
            else:
                misparsed += 1
        assert misparsed == 0, f"{misparsed} payloads parsed to the wrong structure"
        assert typed_failures == 4
        assert recovered == 46
        assert recovered / len(corpus) >= 0.90
        ok = True
    finally:
        _report(
            f"parser recovery ({recovered}/50 recovered, {misparsed} misparses)", ok
        )


# --- 8. online latency isolation ---------------------------------------------------------


class SlowOffline(Backend):
    """Rule backend with a 0.5s stall on every offline prompt kind."""

    name = "slow-offline"
    OFFLINE = {
        PromptKind.STORY_INIT,
        PromptKind.MEMORY_BINDING,
        PromptKind.CONSOLIDATION,
        PromptKind.SEMANTICIZATION,
    }

    def __init__(self):
        self.inner = RuleBackend()

    def complete(self, kind: PromptKind, rendered: str) -> str:
        if kind in self.OFFLINE:
            time.sleep(0.5)
        return self.inner.complete(kind, rendered)


def test_online_path_not_blocked_by_offline_work():
    ok = False
    try:
        engine = MemoryEngine(EngineConfig(T=4, B=0), SlowOffline())
        transcript = _random_transcript(random.Random(5), 10)
        try:
            stepping_started = time.perf_counter()
            records = [engine.step(turn)[1] for turn in transcript.turns]
            stepping = time.perf_counter() - stepping_started
            assert engine.drain() == []
        finally:
            engine.close()
        assert max(r.online_latency for r in records) < 0.05
        offline = [r.offline_latency for r in records if r.iteration >= 5]
        assert len(offline) == 6
        assert all(t >= 0.5 for t in offline)
        # ten turns went through while >=3s of memory formation ran elsewhere
        assert stepping < 1.0, f"stepping blocked for {stepping:.2f}s"
        assert sum(offline) >= 3.0
        ok = True
    finally:
        _report("online path isolated from offline latency", ok)


# --- 9. coherence vs embedding retrieval contrast ------------------------------------------


def test_retrieval_contrast(script_table):
    ok = False
    try:
        bank = MemoryBank.from_dict(
            json.loads((ROOT / "fixtures" / "contrast_bank.json").read_text())
        )
        queries = json.loads((ROOT / "fixtures" / "contrast_queries.json").read_text())
        assert len(queries) == 3
        embedder = HashedBagEmbedding()
        reasoner = Reasoner(ScriptedBackend(script_table))
        for row in queries:
            coherent = retrieve_coherence(bank, TripleStore(), reasoner, row["question"], k=2)
            top = coherent.blocks[0]
            assert top.kind == "plot"
            assert top.owner == row["coherence_top"]["owner"]
            assert top.topic == row["coherence_top"]["topic"]

            embedded = retrieve_embedding(bank, embedder, row["question"], k=2)
            etop = embedded.blocks[0]
            assert etop.kind == "subplot"
            assert etop.topic == row["embedding_top"]["headline"]

            sim_plot, sim_bait = similarity_report(
                row["question"], row["coherence_top"]["topic"],
                row["embedding_top"]["headline"], embedder,
            )
            assert sim_plot < sim_bait
            assert round(sim_plot, 4) == row["headline_similarity"]["plot"]
            assert round(sim_bait, 4) == row["headline_similarity"]["bait"]
        ok = True
    finally:
        _report("coherence beats headline-similarity bait on contrast set", ok)


# --- 10. live backend smoke -----------------------------------------------------------


def test_live_backend_smoke():
    endpoint = os.environ.get("STORYMEM_LIVE_ENDPOINT", "").strip()
    if not endpoint or not os.environ.get("STORYMEM_API_KEY"):
        print(
            "[acceptance] live backend smoke: SKIP "
            "(set STORYMEM_LIVE_ENDPOINT and STORYMEM_API_KEY to enable)",
            flush=True,
        )
        pytest.skip("live endpoint not configured")
    ok = False
    try:
        backend = make_backend(BackendConfig(
            kind="live",
            endpoint=endpoint,
            model=os.environ.get("STORYMEM_LIVE_MODEL", ""),
        ))
        answer = Reasoner(backend).answer(
            question="Reply with a single word: ready.",
            full_stories="(none)",
            add_trivas="",
        )
        assert answer.strip()
        ok = True
    finally:
        _report("live backend smoke", ok)
