"""Deterministic budget of the 60-turn scripted replay and its evaluation.

Backend calls per prompt kind and artifact sizes repeat exactly between
runs, so they are pinned here: a change that moves one of these figures
must update it and say why in CHANGES.md. Wall-clock fields (latencies)
and the checkout-dependent transcript path are left out of the sizes.
"""

from __future__ import annotations

import json
from collections import Counter

from storymem.backends import Backend, ScriptedBackend
from storymem.engine import EngineConfig, MemoryEngine
from storymem.episodic import MemoryBank
from storymem.evaluate import run_evaluation
from storymem.runio import RunReader
from storymem.semantic import TripleStore
from storymem.transcript import count_tokens

REPLAY_CALLS = {
    "story_init": 1,
    "memory_binding": 40,
    "consolidation": 18,
    "semanticization": 18,
}

REPLAY_BYTES = {
    "bank_log.jsonl": 31821,
    "config.json": 387,
    "episodic.json": 32629,
    "exchanges.jsonl": 213318,
    "records.jsonl": 11771,
    "semantic.jsonl": 3244,
}

# one ranking, one translation, one answer and one verdict per question
EVAL_CALLS = {
    "coherence_retrieve": 13,
    "graph_query_translate": 13,
    "answer": 13,
    "judge": 13,
}
EVAL_PROMPT_TOKENS = 17020
# the ranking prompts alone, which carry the narrative outline
EVAL_OUTLINE_PROMPT_TOKENS = 7083


class Counting(Backend):
    name = "counting"

    def __init__(self, inner: Backend):
        self.inner = inner
        self.calls: Counter[str] = Counter()
        self.prompt_tokens: Counter[str] = Counter()

    def complete(self, kind, rendered):
        self.calls[kind.value] += 1
        self.prompt_tokens[kind.value] += count_tokens(rendered)
        return self.inner.complete(kind, rendered)


def artifact_bytes(path) -> int:
    """The file's size, or for config and records its size with the
    checkout path and the latencies taken out, re-serialized as written."""
    if path.name == "config.json":
        config = json.loads(path.read_text())
        del config["transcript"]["path"]
        return len(json.dumps(config, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    if path.name == "records.jsonl":
        size = 0
        for line in path.read_text().splitlines():
            row = json.loads(line)
            del row["online_latency"], row["offline_latency"]
            size += len(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
        return size
    return path.stat().st_size


def test_replay_calls_per_kind(b0_run):
    _, paths = b0_run
    kinds = Counter(
        json.loads(line)["kind"] for line in paths.exchanges.read_text().splitlines()
    )
    assert dict(kinds) == REPLAY_CALLS


def test_replay_artifact_bytes(b0_run):
    _, paths = b0_run
    sizes = {p.name: artifact_bytes(p) for p in sorted(paths.root.iterdir()) if p.is_file()}
    assert sizes == REPLAY_BYTES


def test_evaluation_calls_per_kind(b0_run, transcript, script_table):
    _, paths = b0_run
    reader = RunReader(paths.root)
    backend = Counting(ScriptedBackend(script_table))
    engine = MemoryEngine(EngineConfig(B=0), backend)
    engine.restore(
        transcript,
        MemoryBank.from_dict(reader.episodic_dict()),
        TripleStore.from_jsonl(reader.semantic_jsonl()),
    )
    try:
        run_evaluation(engine, transcript.questions, records=reader.records())
    finally:
        engine.close()
    assert dict(backend.calls) == EVAL_CALLS
    assert backend.prompt_tokens["coherence_retrieve"] == EVAL_OUTLINE_PROMPT_TOKENS
    assert backend.prompt_tokens.total() == EVAL_PROMPT_TOKENS
