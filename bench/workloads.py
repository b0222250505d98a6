"""The three workloads and the checks on their outputs.

Each workload has a set-up (input generation, and for `eval` building
and restoring a run) and a round: one pass of the same operations over
the whole tiled conversation. A run repeats whole rounds, so every round
attempts the same ops and any failure is the same share of them.

Checks are computed by the benchmark from the generated transcript, not
by the program's own metrics, and never inside the timed region.
"""

from __future__ import annotations

import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from storymem.backends import Backend, RuleBackend
from storymem.engine import EngineConfig, MemoryEngine, run_replay
from storymem.episodic import MemoryBank
from storymem.evaluate import run_evaluation
from storymem.runio import RunReader
from storymem.semantic import TripleStore
from storymem.transcript import ingest_native, load_transcript, replay

from inputs import conversation_json

# The defaults of `storymem run`.
CONFIG = EngineConfig()

# MemoryEngine._offline_tick runs the memory initialization on the first
# tick but does not bind that tick's exchange, so the turn (and response)
# that crosses T never reaches memory. Until that is mended, the crossing
# op is expected to fail with LOST problems only.
LOST = "lost"


@dataclass
class Round:
    wall: float
    latencies: list[float]
    problems: list[list[str]] = field(default_factory=list)  # per op
    bank_problems: list[str] = field(default_factory=list)


def _line(turn) -> str:
    return f"[{turn.timestamp:%Y-%m-%d %H:%M}] {turn.speaker}: {turn.text}"


def _words(text: str) -> list[str]:
    return re.findall(r"[a-z0-9']+", text.casefold())


def citation_problems(
    bank: dict, expected: list[list[tuple[str, str, str]]]
) -> tuple[list[list[str]], list[str]]:
    """Check a serialized bank against the (turn_id, speaker, text) items
    each op should have put into memory.

    Every item must be cited by exactly one fragment whose text is
    "<speaker>: <text>", and every subplot may index only consolidated
    fragments of its own narrative.
    """
    cites: dict[str, list[str]] = {}
    bank_problems: list[str] = []
    for n in bank["narratives"]:
        for f in n["fragments"]:
            for tid in f["turn_ids"]:
                cites.setdefault(tid, []).append(f["text"])
        done = n["consolidated_through"]
        if done > len(n["fragments"]):
            bank_problems.append(f"({n['owner']}, {n['topic']}) consolidated past its end")
        for s in n["subplots"]:
            if any(not 0 <= i < done for i in s["fragment_indices"]):
                bank_problems.append(
                    f"subplot {s['headline']!r} of ({n['owner']}, {n['topic']}) "
                    "indexes unconsolidated or foreign fragments"
                )
    known = {tid for items in expected for tid, _, _ in items}
    stray = sorted(set(cites) - known)
    if stray:
        bank_problems.append(f"fragments cite unknown turns {stray[:5]}")

    per_op: list[list[str]] = []
    for items in expected:
        problems = []
        for tid, speaker, text in items:
            texts = cites.get(tid, [])
            if not texts:
                problems.append(f"{LOST}: {tid} is cited by no fragment")
            elif len(texts) > 1:
                problems.append(f"{tid} is cited by {len(texts)} fragments")
            elif texts[0] != f"{speaker}: {text}":
                problems.append(f"{tid} fragment text {texts[0]!r} is not the turn's")
        per_op.append(problems)
    return per_op, bank_problems


def bank_gauges(bank: dict, facts: int) -> dict[str, int]:
    narratives = bank["narratives"]
    return {
        "narratives": len(narratives),
        "fragments": sum(len(n["fragments"]) for n in narratives),
        "subplots": sum(len(n["subplots"]) for n in narratives),
        "facts": facts,
    }


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Workload:
    """Shared set-up: the seeded conversation, written and read back.

    The conversation text is built once per run, untimed: it is the
    same for every set-up, and building it is the benchmark's work, not
    the program's. A set-up writes it and reads it back with the
    program's own reader.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.text = conversation_json(seed)
        self.crossing_op: int | None = None  # op the known fault loses
        self.gauges: dict[str, int] = {}
        self.replayed_turns = 0  # turns taken through run_replay, set-up included
        self.bytes_written = 0  # run-directory bytes of those replays

    def _conversation(self):
        path = self.workdir / "conversation.json"
        path.write_text(self.text)
        self.transcript_path = path
        self.transcript = ingest_native(path)
        self.turns = list(replay(self.transcript))

    def setup(self) -> None:
        self._conversation()

    def run_round(self, backend: Backend) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> None:
        raise NotImplementedError


class ReplayWorkload(Workload):
    """run_replay into a fresh run directory, as `storymem run` does; op = turn."""

    name = "replay"

    def run_round(self, backend: Backend) -> Round:
        out = self.workdir / "run"
        shutil.rmtree(out, ignore_errors=True)
        engine = MemoryEngine(CONFIG, backend)
        stamps: list[float] = []
        step = engine.step

        def timed_step(turn, generate=False):
            stamps.append(time.perf_counter())
            return step(turn, generate)

        engine.step = timed_step
        try:
            start = time.perf_counter()
            run_replay(engine, self.transcript, out, transcript_path=self.transcript_path)
            end = time.perf_counter()
        finally:
            engine.close()
        latencies = [b - a for a, b in zip(stamps, stamps[1:] + [end])]
        self.replayed_turns += len(self.turns)
        return Round(wall=end - start, latencies=latencies)

    def check(self, rnd: Round) -> None:
        out = self.workdir / "run"
        reader = RunReader(out)
        bank = reader.episodic_dict()
        expected = [[(t.turn_id, t.speaker, t.text)] for t in self.turns]
        rnd.problems, rnd.bank_problems = citation_problems(bank, expected)
        if len(rnd.latencies) != len(self.turns):
            rnd.bank_problems.append(f"replay stepped {len(rnd.latencies)} turns")
        self.crossing_op = CONFIG.T  # history is user turns only
        facts = sum(1 for line in reader.semantic_jsonl().splitlines() if line.strip())
        self.gauges = bank_gauges(bank, facts)
        self.bytes_written += _dir_bytes(out)
        shutil.rmtree(out, ignore_errors=True)


class ConverseWorkload(Workload):
    """A closed loop with one client: step(generate=True), then drain(); op = turn.

    Draining between turns lets the offline tick run in the pause before
    the next turn, so the bank is the same at every turn of every run.
    """

    name = "converse"

    def run_round(self, backend: Backend) -> Round:
        engine = MemoryEngine(CONFIG, backend)
        latencies: list[float] = []
        self._outputs = []
        try:
            start = time.perf_counter()
            for turn in self.turns:
                t0 = time.perf_counter()
                response, record = engine.step(turn, generate=True)
                failures = engine.drain()
                latencies.append(time.perf_counter() - t0)
                self._outputs.append((response, record.iteration, record.path, failures))
            end = time.perf_counter()
            self._bank = engine.bank.to_dict()
            self._facts = len(engine.store)
        finally:
            engine.close()
        return Round(wall=end - start, latencies=latencies)

    def check(self, rnd: Round) -> None:
        expected = []
        path_problems = []
        history = 0
        self.crossing_op = None
        for turn, (response, iteration, path, failures) in zip(self.turns, self._outputs):
            items = [(turn.turn_id, turn.speaker, turn.text)]
            if response is not None:
                items.append((f"r{iteration}", "assistant", response))
            expected.append(items)
            history += 1
            if history > CONFIG.T and self.crossing_op is None:
                self.crossing_op = len(expected) - 1
            want = "full_context" if history <= CONFIG.switch_threshold else "memory"
            problems = []
            if path != want:
                problems.append(f"{turn.turn_id} took the {path} path at history {history}")
            if response is None:
                problems.append(f"{turn.turn_id} got no response")
            problems += [f"offline failure: {exc}" for exc in failures]
            path_problems.append(problems)
            history += response is not None
        rnd.problems, rnd.bank_problems = citation_problems(self._bank, expected)
        for op, extra in zip(rnd.problems, path_problems):
            op.extend(extra)
        self.gauges = bank_gauges(self._bank, self._facts)


class EvalWorkload(Workload):
    """Every eval mode over the run that set-up built; op = one question."""

    name = "eval"

    def setup(self) -> None:
        self._conversation()
        out = self.workdir / "run"
        shutil.rmtree(out, ignore_errors=True)
        engine = MemoryEngine(CONFIG, RuleBackend())
        try:
            run_replay(engine, self.transcript, out, transcript_path=self.transcript_path)
        finally:
            engine.close()
        self.replayed_turns += len(self.turns)
        self.bytes_written += _dir_bytes(out)
        # Read the run back the way `storymem eval` does.
        reader = RunReader(out)
        run_config = reader.config()
        self.transcript = load_transcript(run_config["transcript"]["path"])
        self.config = EngineConfig.from_dict(run_config["engine"])
        self.bank = MemoryBank.from_dict(reader.episodic_dict())
        self.store = TripleStore.from_jsonl(reader.semantic_jsonl())
        self.records = reader.records()
        turns = list(replay(self.transcript))
        self.history_tokens = sum(len(_line(t).split()) for t in turns)
        self.buffer_ids = {t.turn_id for t in turns[-self.config.B:]} if self.config.B else set()

    def run_round(self, backend) -> Round:
        # A fresh engine per round: the program keeps every exchange it
        # makes, and that log must not grow with the number of rounds.
        engine = MemoryEngine(self.config, backend)
        engine.restore(self.transcript, self.bank, self.store)
        latencies: list[float] = []
        self._outputs = []
        marks = []
        try:
            start = time.perf_counter()
            for q in self.transcript.questions:
                marks.append(len(backend.pending))
                t0 = time.perf_counter()
                report, traces = run_evaluation(engine, [q], records=self.records)
                latencies.append(time.perf_counter() - t0)
                self._outputs.append((q, report, traces))
            end = time.perf_counter()
        finally:
            engine.close()
        # Words of each question's answer prompts, counted after the timed loop.
        marks.append(len(backend.pending))
        self._answer_tokens = [
            sum(len(text.split()) for kind, text in backend.pending[a:b] if kind == "answer")
            for a, b in zip(marks, marks[1:])
        ]
        return Round(wall=end - start, latencies=latencies)

    def check(self, rnd: Round) -> None:
        k = str(self.config.k)
        for (q, report, traces), answer_tokens in zip(self._outputs, self._answer_tokens):
            problems = [
                f"{q.question_id} {mode}: {report[mode]['error']}"
                for mode in ("jscore", "coverage", "compression", "latency", "recall")
                if isinstance(report.get(mode), dict) and "error" in report[mode]
            ]
            answer = report.get("answers", {}).get(q.question_id, "")
            gold = set(_words(q.gold_answer))
            if 2 * len(gold & set(_words(answer))) < len(gold):
                problems.append(f"{q.question_id} answer {answer!r} misses gold {q.gold_answer!r}")
            if traces:  # memory path
                if answer_tokens >= self.history_tokens:
                    problems.append(
                        f"{q.question_id} answer read {answer_tokens} tokens, "
                        f"history is {self.history_tokens}"
                    )
                seen = set(traces[0]["retrieved_turn_ids"]) | self.buffer_ids
                evidence = q.evidence_turn_ids
                covered = report.get("coverage", {}).get(k, {}).get("covered", {})
                if covered.get(q.question_id) != (evidence <= seen):
                    problems.append(f"{q.question_id} coverage at k={k} disagrees with ask")
                recall = report.get("recall", {}).get("per_instruction", {})
                if evidence:
                    want = 100.0 * len(evidence & seen) / len(evidence)
                    if abs(recall.get(q.question_id, -1.0) - want) > 1e-9:
                        problems.append(f"{q.question_id} recall disagrees with ask")
            rnd.problems.append(problems)
        self.gauges = bank_gauges(self.bank.to_dict(), len(self.store))


WORKLOADS = {w.name: w for w in (ReplayWorkload, EvalWorkload, ConverseWorkload)}
