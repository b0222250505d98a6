"""Evaluation pipeline over a finished run.

Takes an engine restored from a run directory and the question set, and
produces the report sections requested: answers judged for correctness,
evidence coverage swept over k, per-question compression, latency
percentiles, and constraint recall.

One evaluation retrieves for each question several times: once to
answer, once per k of the coverage sweep, and once for recall. Every
one of them asks for the same ranking, as deep as the largest k in use
(the sweep's and the engine's), and cuts it to its own k. The translate
prompt depends only on the question. So each question renders one
retrieval prompt and one translate prompt, and the whole evaluation runs
inside the Reasoner's memoized() scope, which sends each distinct prompt
once. A backend whose top-k list is a prefix of its deeper lists, as the
rule and scripted backends' are, gives the same report and traces as
asking at each k.
"""

from __future__ import annotations

import logging
from typing import Iterable, Sequence

from .engine import MemoryEngine
from .errors import BackendError, ParseFailure, SchemaMismatch, ZeroHistory
from .metrics import (
    compression_rate,
    constraint_recall,
    coverage_rate,
    distribution,
    j_score,
    latency_percentiles,
)
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
    prompt reaches the backend once per call.
    """
    with engine.reasoner.memoized():
        modes = list(modes)
        # one ranking per question, as deep as any k below asks for
        depth = max([engine.config.k, *k_sweep])
        report: dict = {"modes": modes, "retriever": retriever, "k": engine.config.k}
        traces: list[dict] = []

        answers: dict[str, str] = {}
        compressions: list[float] = []
        ask_latencies: list[float] = []
        need_answers = "jscore" in modes or "compression" in modes or "latency" in modes
        if need_answers:
            for q in questions:
                try:
                    outcome = engine.ask(q.text, retriever=retriever, depth=depth)
                except (BackendError, ParseFailure, SchemaMismatch) as exc:
                    logger.warning("question %s failed: %s", q.question_id, exc)
                    continue
                answers[q.question_id] = outcome.answer
                ask_latencies.append(outcome.latency)
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
                    retrieved = {}
                    for q in questions:
                        result, buffer_ids = engine.retrieve(
                            q.text, k=k, retriever=retriever, depth=depth
                        )
                        retrieved[q.question_id] = result.retrieved_turn_ids | set(buffer_ids)
                    sweep[str(k)] = coverage_rate(questions, retrieved)
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
                retrieved = {}
                for inst in instructions:
                    result, buffer_ids = engine.retrieve(
                        inst["text"], retriever=retriever, depth=depth
                    )
                    retrieved[inst["id"]] = result.retrieved_turn_ids | set(buffer_ids)
                report["recall"] = constraint_recall(
                    [(inst["id"], inst["constraint_turn_ids"]) for inst in instructions],
                    retrieved,
                )
            except Exception as exc:  # noqa: BLE001 - mode isolation
                logger.warning("recall section failed: %s", exc)
                report["recall"] = {"error": str(exc)}

        return report, traces
