"""Evaluation metrics and report assembly.

All metrics are pure functions over run artifacts (records, the bank
log, retrievals, answers). Percentiles use the nearest-rank method; coverage
and recall operate on turn-id provenance sets, not on evidence text.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .episodic import MemoryBank, Narrative
from .errors import EmptySamples, ParseFailure, SchemaMismatch, ZeroHistory
from .parsing import Judgment
from .reasoner import Reasoner
from .transcript import EvalQuestion

logger = logging.getLogger(__name__)

PERCENTILE_GRID = (50, 90, 95, 99)


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The value at 1-based rank ceil(q/100 * n) of samples already sorted."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: value at 1-based index ceil(q/100 * n)."""
    if not samples:
        raise EmptySamples("percentile of empty sample set")
    return _nearest_rank(sorted(samples), q)


def latency_percentiles(samples: Sequence[float]) -> tuple[float, float, float, float]:
    if not samples:
        raise EmptySamples("no latency samples")
    ordered = sorted(samples)
    return tuple(_nearest_rank(ordered, q) for q in PERCENTILE_GRID)  # type: ignore[return-value]


def compression_rate(full_history_tokens: int, retrieved_tokens: int) -> float:
    """Percentage of the history the answer path did not need."""
    if full_history_tokens <= 0:
        raise ZeroHistory("full history has no tokens")
    rate = 100.0 * (1.0 - retrieved_tokens / full_history_tokens)
    return max(0.0, min(100.0, rate))


def distribution(values: Sequence[float]) -> dict:
    if not values:
        raise EmptySamples("empty distribution")
    ordered = sorted(values)
    return {
        "median": _nearest_rank(ordered, 50),
        "q1": _nearest_rank(ordered, 25),
        "q3": _nearest_rank(ordered, 75),
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def coverage_rate(
    questions: Sequence[EvalQuestion], retrieved: Mapping[str, Iterable[str]]
) -> dict:
    """Fraction of questions whose full evidence set was retrieved.

    Questions with no evidence annotation are excluded (warned), never
    counted either way. Per-question misses are kept for diagnostics.
    """
    covered: dict[str, bool] = {}
    misses: dict[str, list[str]] = {}
    excluded: list[str] = []
    by_cat: dict[str, list[bool]] = {}
    for q in questions:
        if not q.evidence_turn_ids:
            logger.warning("question %s has no evidence annotation; excluded", q.question_id)
            excluded.append(q.question_id)
            continue
        got = set(retrieved.get(q.question_id, ()))
        ok = q.evidence_turn_ids <= got
        covered[q.question_id] = ok
        if not ok:
            misses[q.question_id] = sorted(q.evidence_turn_ids - got)
        by_cat.setdefault(q.category, []).append(ok)
    total = list(covered.values())
    return {
        "overall": 100.0 * sum(total) / len(total) if total else 0.0,
        "per_category": {
            cat: 100.0 * sum(flags) / len(flags) for cat, flags in sorted(by_cat.items())
        },
        "covered": covered,
        "misses": misses,
        "excluded": excluded,
        "n": len(total),
    }


def constraint_recall(
    instructions: Sequence[tuple[str, Iterable[str]]],
    retrieved: Mapping[str, Iterable[str]],
) -> dict:
    """Mean per-instruction fraction of constraint turns that were retrieved."""
    per: dict[str, float] = {}
    for inst_id, constraint_turns in instructions:
        constraints = set(constraint_turns)
        if not constraints:
            logger.warning("instruction %s has no constraint turns; excluded", inst_id)
            continue
        got = set(retrieved.get(inst_id, ()))
        per[inst_id] = 100.0 * len(constraints & got) / len(constraints)
    mean = sum(per.values()) / len(per) if per else 0.0
    return {"mean": mean, "per_instruction": per, "n": len(per)}


def j_score(
    questions: Sequence[EvalQuestion],
    answers: Mapping[str, str],
    reasoner: Reasoner,
    exclude_unjudgeable: bool = False,
) -> dict:
    """Judge each answer against gold; unjudgeable counts as wrong by default."""
    verdicts: dict[str, str] = {}
    by_cat: dict[str, list[str]] = {}
    for q in questions:
        answer = answers.get(q.question_id)
        if answer is None:
            verdicts[q.question_id] = "unjudgeable"
        else:
            try:
                j = reasoner.judge(q.text, q.gold_answer, answer)
                verdicts[q.question_id] = (
                    "correct" if j is Judgment.CORRECT else "wrong"
                )
            except (ParseFailure, SchemaMismatch) as exc:
                logger.warning("question %s unjudgeable: %s", q.question_id, exc)
                verdicts[q.question_id] = "unjudgeable"
        by_cat.setdefault(q.category, []).append(verdicts[q.question_id])

    def score(labels: list[str]) -> float | None:
        pool = [v for v in labels if v != "unjudgeable"] if exclude_unjudgeable else labels
        if not pool:
            return None
        return 100.0 * sum(1 for v in pool if v == "correct") / len(pool)

    overall = score(list(verdicts.values()))
    return {
        "overall": overall if overall is not None else 0.0,
        "per_category": {
            cat: score(labels) for cat, labels in sorted(by_cat.items())
        },
        "verdicts": verdicts,
        "unjudgeable": sum(1 for v in verdicts.values() if v == "unjudgeable"),
        "n": len(verdicts),
    }


# --- timeline export -------------------------------------------------------------


@dataclass
class NarrativeTimeline:
    owner: str
    topic: str
    bound: dict[int, int] = field(default_factory=dict)  # iteration -> fragments added
    markers: list[int] = field(default_factory=list)  # iterations creating subplots


@dataclass
class TimelineExport:
    narratives: list[NarrativeTimeline]
    iterations: list[int]

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "narratives": [
                {
                    "owner": n.owner,
                    "topic": n.topic,
                    "bound": {str(i): c for i, c in sorted(n.bound.items())},
                    "markers": sorted(n.markers),
                }
                for n in self.narratives
            ],
        }

    def to_csv(self) -> str:
        lines = ["owner,topic,iteration,bound_fragments,subplots_created"]
        for n in self.narratives:
            points = sorted(set(n.bound) | set(n.markers))
            for i in points:
                lines.append(
                    f"{_csv(n.owner)},{_csv(n.topic)},{i},"
                    f"{n.bound.get(i, 0)},{1 if i in n.markers else 0}"
                )
        return "\n".join(lines) + "\n"


def _csv(value: str) -> str:
    if any(c in value for c in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def export_timeline(bank_log: Iterable[tuple[int, list[dict]]]) -> TimelineExport:
    """Fold a run's bank log into per-narrative growth series.

    A narrative is tracked by its (owner, topic) key; a consolidation
    that renames the topic shows up as one narrative ending and another
    beginning. The series are those of a diff of the whole bank after
    each iteration, but only the narratives an iteration touched are
    compared.
    """
    bank = MemoryBank()
    timelines: dict[tuple[str, str], NarrativeTimeline] = {}
    prev: dict[tuple[str, str], tuple[int, int]] = {}
    iterations = []
    for iteration, events in bank_log:
        iterations.append(iteration)
        touched: dict[int, Narrative] = {}
        for event in events:
            narrative = bank.apply(event)
            if event["op"] in ("create", "rename"):
                # the bank moves it to its end; new keys are listed in bank order
                touched.pop(id(narrative), None)
            touched[id(narrative)] = narrative
        for n in touched.values():
            key = (n.owner, n.topic)
            frag_count = len(n.fragments)
            sub_count = len(n.subplots)
            tl = timelines.get(key)
            if tl is None:
                tl = NarrativeTimeline(owner=key[0], topic=key[1])
                timelines[key] = tl
            old_frags, old_subs = prev.get(key, (0, 0))
            if frag_count > old_frags:
                tl.bound[iteration] = frag_count - old_frags
            if sub_count > old_subs:
                tl.markers.append(iteration)
            prev[key] = (frag_count, sub_count)
    return TimelineExport(narratives=list(timelines.values()), iterations=iterations)


def _section_error(lines: list[str], name: str, section) -> bool:
    """Report a failed section instead of crashing the renderer."""
    if isinstance(section, dict) and "error" in section:
        lines.append(f"{name}: error: {section['error']}")
        return True
    return False


def render_report_table(report: dict) -> str:
    """Human-readable summary of an evaluation report."""
    lines = []
    if "jscore" in report and not _section_error(lines, "J-score", report["jscore"]):
        j = report["jscore"]
        lines.append(f"J-score overall: {j['overall']:.1f}%  (n={j['n']}, unjudgeable={j['unjudgeable']})")
        for cat, val in j["per_category"].items():
            shown = "n/a" if val is None else f"{val:.1f}%"
            lines.append(f"  {cat:<12} {shown}")
    if "coverage" in report and not _section_error(lines, "Coverage", report["coverage"]):
        lines.append("Coverage by k:")
        for k, cov in sorted(report["coverage"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"  k={k}: overall {cov['overall']:.1f}% (n={cov['n']})")
    if "compression" in report and not _section_error(lines, "Compression", report["compression"]):
        c = report["compression"]
        lines.append(
            "Compression: median {median:.1f}%  q1 {q1:.1f}%  q3 {q3:.1f}%  (n={n})".format(**c)
        )
    if "latency" in report and not _section_error(lines, "Latency", report["latency"]):
        lat = report["latency"]
        for name in ("online", "offline", "answer"):
            if name in lat:
                p50, p90, p95, p99 = lat[name]
                lines.append(
                    f"Latency {name}: p50 {p50 * 1000:.1f}ms  p90 {p90 * 1000:.1f}ms  "
                    f"p95 {p95 * 1000:.1f}ms  p99 {p99 * 1000:.1f}ms"
                )
    if "recall" in report and not _section_error(lines, "Constraint recall", report["recall"]):
        lines.append(f"Constraint recall mean: {report['recall']['mean']:.1f}%")
    return "\n".join(lines) if lines else "(empty report)"


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
