"""Evaluation pipeline over a finished run.

Takes an engine restored from a run directory and the question set, and
produces the report sections requested: answers judged for correctness,
evidence coverage swept over k, per-question compression, latency
percentiles, and constraint recall.

Every reader of a question reads the same retrieval: the answer, each k
of the coverage sweep, and recall. So each distinct question or
instruction text is retrieved once, as deep as the largest k in use (the
sweep's and the engine's), and each reader takes RetrievalResult.top of
it at its own k. That is exact, because every retriever cuts a ranking
that does not depend on k; for coherence retrieval it also needs a
backend whose top-k list is a prefix of its deeper lists, as the rule
and scripted backends' are. A question the engine answers from the full
history is not retrieved for its answer. Nothing else is cached: two
questions with one text share their retrieval but send their answer and
judge prompts twice. The evaluation records no exchange.
"""

from __future__ import annotations

import logging
import time
from typing import Iterable, Sequence

from .engine import MemoryEngine
from .errors import BackendError, MalformedInput, ParseFailure, SchemaMismatch, ZeroHistory
from .metrics import (
    compression_rate,
    constraint_recall,
    coverage_rate,
    distribution,
    j_score,
    latency_percentiles,
)
from .retrieval import RetrievalResult
from .transcript import EvalQuestion

logger = logging.getLogger(__name__)

ALL_MODES = ("coverage", "compression", "latency", "jscore", "recall")
DEFAULT_K_SWEEP = (1, 2, 3, 4, 5, 6)


def run_evaluation(
    engine: MemoryEngine,
    questions: Sequence[EvalQuestion],
    modes: Iterable[str] = ALL_MODES,
    k_sweep: Sequence[int] = DEFAULT_K_SWEEP,
    retriever: str = "coherence",
    records: Sequence[dict] = (),
    constraints: Sequence[dict] | None = None,
    exclude_unjudgeable: bool = False,
) -> tuple[dict, list[dict]]:
    """Returns (report dict, per-query retrieval traces).

    Mode failures are isolated: a section that errors is reported as
    {"error": ...} instead of sinking the whole evaluation. Each distinct
    question text is retrieved once per call.
    """
    for k in k_sweep:
        if k < 1:
            raise MalformedInput(f"k_sweep values must be positive, got {k}")
    modes = list(modes)
    # one retrieval per distinct text, as deep as any k below reads
    depth = max([engine.config.k, *k_sweep])
    retrievals: dict[str, tuple[RetrievalResult, tuple[str, ...]]] = {}

    def retrieved(text: str) -> tuple[RetrievalResult, tuple[str, ...]]:
        if text not in retrievals:
            retrievals[text] = engine.retrieve(text, k=depth, retriever=retriever)
        return retrievals[text]

    def turn_ids(text: str, k: int) -> set[str]:
        result, buffer_ids = retrieved(text)
        return result.top(k).retrieved_turn_ids | set(buffer_ids)

    report: dict = {"modes": modes, "retriever": retriever, "k": engine.config.k}
    traces: list[dict] = []

    answers: dict[str, str] = {}
    compressions: list[float] = []
    ask_latencies: list[float] = []
    need_answers = "jscore" in modes or "compression" in modes or "latency" in modes
    if need_answers:
        for q in questions:
            # the answer's latency includes the retrieval it reads
            start = time.perf_counter()
            try:
                ready = retrieved(q.text)[0] if engine.answers_from_memory else None
                outcome = engine.ask(q.text, retrieval=ready, retriever=retriever)
            except (BackendError, ParseFailure, SchemaMismatch) as exc:
                logger.warning("question %s failed: %s", q.question_id, exc)
                continue
            answers[q.question_id] = outcome.answer
            ask_latencies.append(time.perf_counter() - start)
            if outcome.retrieval is not None:
                trace = outcome.retrieval.trace()
                trace["question_id"] = q.question_id
                trace["answer"] = outcome.answer
                traces.append(trace)
            try:
                compressions.append(
                    compression_rate(outcome.full_history_tokens, outcome.context_tokens)
                )
            except ZeroHistory:
                pass
        report["answers"] = answers

    if "jscore" in modes:
        try:
            report["jscore"] = j_score(
                questions, answers, engine.reasoner, exclude_unjudgeable=exclude_unjudgeable
            )
        except Exception as exc:  # noqa: BLE001 - mode isolation
            logger.warning("jscore section failed: %s", exc)
            report["jscore"] = {"error": str(exc)}

    if "coverage" in modes:
        try:
            sweep = {}
            for k in k_sweep:
                covered = {q.question_id: turn_ids(q.text, k) for q in questions}
                sweep[str(k)] = coverage_rate(questions, covered)
            report["coverage"] = sweep
        except Exception as exc:  # noqa: BLE001 - mode isolation
            logger.warning("coverage section failed: %s", exc)
            report["coverage"] = {"error": str(exc)}

    if "compression" in modes:
        report["compression"] = (
            distribution(compressions) if compressions else {"error": "no samples"}
        )

    if "latency" in modes:
        section: dict = {}
        online = [float(r.get("online_latency", 0.0)) for r in records]
        offline = [float(r.get("offline_latency", 0.0)) for r in records]
        if online:
            section["online"] = list(latency_percentiles(online))
        if offline:
            section["offline"] = list(latency_percentiles(offline))
        if ask_latencies:
            section["answer"] = list(latency_percentiles(ask_latencies))
        report["latency"] = section or {"error": "no samples"}

    if "recall" in modes:
        try:
            if constraints is None:
                # Without an instruction file, the eval questions stand in:
                # each question's evidence turns are its constraint set.
                instructions = [
                    {
                        "id": q.question_id,
                        "text": q.text,
                        "constraint_turn_ids": sorted(q.evidence_turn_ids),
                    }
                    for q in questions
                    if q.evidence_turn_ids
                ]
            else:
                instructions = list(constraints)
            report["recall"] = constraint_recall(
                [(inst["id"], inst["constraint_turn_ids"]) for inst in instructions],
                {inst["id"]: turn_ids(inst["text"], engine.config.k) for inst in instructions},
            )
        except Exception as exc:  # noqa: BLE001 - mode isolation
            logger.warning("recall section failed: %s", exc)
            report["recall"] = {"error": str(exc)}

    return report, traces
