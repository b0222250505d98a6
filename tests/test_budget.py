"""Deterministic budget of the 60-turn scripted replay and its evaluation.

Backend calls and prompt tokens per prompt kind, the replay's artifacts
(their sizes and sha256) and the evaluation's whole output repeat
exactly between runs, so they are pinned here: a change that moves one
of these figures must update it and say why in CHANGES.md. Wall-clock
fields (latencies) and the checkout-dependent transcript path are left
out of the artifacts and the output digests.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

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

# whitespace tokens of the prompts each kind sends; the binding prompts
# carry the bank's story list
REPLAY_PROMPT_TOKENS = {
    "story_init": 871,
    "memory_binding": 17346,
    "consolidation": 5039,
    "semanticization": 4139,
}

REPLAY_BYTES = {
    "bank_log.jsonl": 31821,
    "config.json": 387,
    "episodic.json": 32629,
    "exchanges.jsonl": 205008,
    "records.jsonl": 11771,
    "semantic.jsonl": 3244,
}

# sha256 of the same bytes: the scripted replay repeats byte for byte
REPLAY_DIGESTS = {
    "bank_log.jsonl": "df7d6dccac476d319161a3500c8f9f99bdd0655e8458ff61a084aba4b6a3cecd",
    "config.json": "4da19ea8ba9afb4a65499cdf85d8fa2758501cf92fa4b53863db66205fe39dbd",
    "episodic.json": "d633e05ab06d7df6a05d0e020928b92cfd42f136336522b605e70dfcd86d4809",
    "exchanges.jsonl": "087f22c75c0cfd48775ee6925f7f67f6fb2f29d1a821bcc59cdf965aed9fcc94",
    "records.jsonl": "4c510738fe78cbdb8fd2499598f59c72d0da2c60d2a9d436cd751d1efdf00e70",
    "semantic.jsonl": "db4de21c1aff4e29ee321b9f53fb998caf6479015743ba9cc126fd8bfeede27c",
}

# one ranking, one translation, one answer and one verdict per question
EVAL_CALLS = {
    "coherence_retrieve": 13,
    "graph_query_translate": 13,
    "answer": 13,
    "judge": 13,
}
EVAL_PROMPT_TOKENS = 15772
# the ranking prompts alone, which carry the narrative outline
EVAL_OUTLINE_PROMPT_TOKENS = 5835

# sha256 of the whole evaluation output per retriever (see evaluation_digest)
EVAL_DIGESTS = {
    "coherence": "53bbae93ea873b2b7d476a43e70a2406a27b3a2204d63a7c3db679b17722b412",
    "embedding": "77f6f7690b9790d488d75af5e90b8fa037c09f254b42cdb6270905c4e267d61b",
}


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


def artifact_bytes(path) -> bytes:
    """The file's bytes, or for config and records its bytes with the
    checkout path and the latencies taken out, re-serialized as written."""
    if path.name == "config.json":
        config = json.loads(path.read_text())
        del config["transcript"]["path"]
        text = json.dumps(config, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    elif path.name == "records.jsonl":
        rows = []
        for line in path.read_text().splitlines():
            row = json.loads(line)
            del row["online_latency"], row["offline_latency"]
            rows.append(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
        text = "".join(rows)
    else:
        return path.read_bytes()
    return text.encode("utf-8")


def evaluation_digest(report: dict, traces: list[dict]) -> str:
    """sha256 of an evaluation's output: the report without its wall-clock
    latency section, and the retrieval traces."""
    kept = {mode: section for mode, section in report.items() if mode != "latency"}
    blob = json.dumps({"report": kept, "traces": traces}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def evaluate_b0(paths, transcript, backend, **kwargs):
    reader = RunReader(paths.root)
    engine = MemoryEngine(EngineConfig(B=0), backend)
    engine.restore(
        transcript,
        MemoryBank.from_dict(reader.episodic_dict()),
        TripleStore.from_jsonl(reader.semantic_jsonl()),
    )
    try:
        return run_evaluation(engine, transcript.questions, records=reader.records(), **kwargs)
    finally:
        engine.close()


def test_replay_calls_per_kind(b0_run):
    _, paths = b0_run
    kinds = Counter(
        json.loads(line)["kind"] for line in paths.exchanges.read_text().splitlines()
    )
    assert dict(kinds) == REPLAY_CALLS


def test_replay_prompt_tokens_per_kind(b0_run):
    _, paths = b0_run
    tokens: Counter[str] = Counter()
    for line in paths.exchanges.read_text().splitlines():
        exchange = json.loads(line)
        tokens[exchange["kind"]] += count_tokens(exchange["prompt"])
    assert dict(tokens) == REPLAY_PROMPT_TOKENS


def replay_artifacts(paths) -> dict[str, bytes]:
    return {p.name: artifact_bytes(p) for p in sorted(paths.root.iterdir()) if p.is_file()}


def test_replay_artifact_bytes(b0_run):
    _, paths = b0_run
    sizes = {name: len(data) for name, data in replay_artifacts(paths).items()}
    assert sizes == REPLAY_BYTES


def test_replay_artifact_digests(b0_run):
    _, paths = b0_run
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in replay_artifacts(paths).items()
    }
    assert digests == REPLAY_DIGESTS


def test_evaluation_calls_per_kind(b0_run, transcript, script_table):
    _, paths = b0_run
    backend = Counting(ScriptedBackend(script_table))
    evaluate_b0(paths, transcript, backend)
    assert dict(backend.calls) == EVAL_CALLS
    assert backend.prompt_tokens["coherence_retrieve"] == EVAL_OUTLINE_PROMPT_TOKENS
    assert backend.prompt_tokens.total() == EVAL_PROMPT_TOKENS


@pytest.mark.parametrize("retriever", sorted(EVAL_DIGESTS))
def test_evaluation_output_digest(b0_run, transcript, script_table, retriever):
    _, paths = b0_run
    report, traces = evaluate_b0(
        paths, transcript, ScriptedBackend(script_table), retriever=retriever
    )
    assert evaluation_digest(report, traces) == EVAL_DIGESTS[retriever]
