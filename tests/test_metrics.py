"""Metric functions, timeline export, and report rendering."""

from __future__ import annotations

import json
from datetime import datetime
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storymem.backends import Backend, RuleBackend
from storymem.episodic import MemoryBank
from storymem.errors import EmptySamples, ZeroHistory
from storymem.metrics import (
    compression_rate,
    constraint_recall,
    coverage_rate,
    distribution,
    export_timeline,
    j_score,
    latency_percentiles,
    percentile,
    render_report_table,
    write_report,
)
from storymem.prompts import PromptKind
from storymem.reasoner import Reasoner
from storymem.runio import RunReader, RunWriter
from storymem.transcript import EvalQuestion


def make_q(qid, text, gold, evidence=(), category="single_hop"):
    return EvalQuestion(
        question_id=qid,
        text=text,
        category=category,
        gold_answer=gold,
        evidence_turn_ids=frozenset(evidence),
    )


# --- percentiles ------------------------------------------------------------------


def test_percentile_nearest_rank():
    data = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(data, 50) == 3.0
    assert percentile(data, 1) == 1.0
    assert percentile(data, 100) == 5.0
    ten = [float(i) for i in range(1, 11)]
    assert percentile(ten, 50) == 5.0
    assert percentile(ten, 90) == 9.0
    assert percentile(ten, 95) == 10.0
    assert percentile(ten, 99) == 10.0
    assert percentile([7.5], 99) == 7.5


def test_percentile_empty():
    with pytest.raises(EmptySamples):
        percentile([], 50)
    with pytest.raises(EmptySamples):
        latency_percentiles([])


def test_latency_percentile_grid():
    ten = [float(i) for i in range(1, 11)]
    assert latency_percentiles(ten) == (5.0, 9.0, 10.0, 10.0)


samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


@settings(max_examples=200, deadline=None)
@given(samples)
def test_sorted_once_summaries_match_percentile(values):
    """latency_percentiles and distribution sort once and index the ranks;
    percentile, which sorts for each call, is the oracle."""
    assert latency_percentiles(values) == tuple(percentile(values, q) for q in (50, 90, 95, 99))
    assert distribution(values) == {
        "median": percentile(values, 50),
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# --- compression ------------------------------------------------------------------


def test_compression_rate():
    assert compression_rate(1000, 37) == pytest.approx(96.3)
    assert compression_rate(100, 0) == 100.0
    assert compression_rate(100, 100) == 0.0
    assert compression_rate(100, 250) == 0.0  # clamped, never negative


def test_compression_rejects_empty_history():
    with pytest.raises(ZeroHistory):
        compression_rate(0, 10)
    with pytest.raises(ZeroHistory):
        compression_rate(-5, 10)


def test_distribution():
    assert distribution([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.0,
        "q1": 1.0,
        "q3": 3.0,
        "min": 1.0,
        "max": 4.0,
        "n": 4,
    }
    with pytest.raises(EmptySamples):
        distribution([])


# --- coverage and recall ------------------------------------------------------------


def test_coverage_rate():
    questions = [
        make_q("qa", "?", "x", evidence={"s1", "s2"}, category="single_hop"),
        make_q("qb", "?", "x", evidence={"s3"}, category="temporal"),
        make_q("qc", "?", "x", evidence=(), category="temporal"),
    ]
    retrieved = {"qa": {"s1", "s2", "extra"}, "qb": {"s1"}}
    cov = coverage_rate(questions, retrieved)
    assert cov["overall"] == 50.0
    assert cov["per_category"] == {"single_hop": 100.0, "temporal": 0.0}
    assert cov["covered"] == {"qa": True, "qb": False}
    assert cov["misses"] == {"qb": ["s3"]}
    assert cov["excluded"] == ["qc"]
    assert cov["n"] == 2


def test_coverage_rate_all_excluded():
    cov = coverage_rate([make_q("q", "?", "x")], {})
    assert cov["overall"] == 0.0
    assert cov["n"] == 0
    assert cov["excluded"] == ["q"]


def test_constraint_recall():
    instructions = [
        ("i1", ["t1", "t2", "t3", "t4"]),
        ("i2", ["t9"]),
        ("i3", []),
    ]
    retrieved = {"i1": {"t1", "t2"}, "i2": set()}
    rec = constraint_recall(instructions, retrieved)
    assert rec["per_instruction"] == {"i1": 50.0, "i2": 0.0}
    assert rec["mean"] == 25.0
    assert rec["n"] == 2


def test_constraint_recall_empty():
    assert constraint_recall([], {}) == {"mean": 0.0, "per_instruction": {}, "n": 0}


# --- answer judging -----------------------------------------------------------------


def test_j_score_counts_unjudgeable_as_wrong():
    questions = [
        make_q("q1", "What did Mela buy at the market?", "a shell necklace"),
        make_q("q2", "What did Tomas fly at the beach?", "a blue kite", category="temporal"),
        make_q("q3", "Unanswered?", "whatever", category="adversarial"),
    ]
    answers = {
        "q1": "She bought a shell necklace at the stall",
        "q2": "Unknown",
    }
    result = j_score(questions, answers, Reasoner(RuleBackend()))
    assert result["verdicts"] == {"q1": "correct", "q2": "wrong", "q3": "unjudgeable"}
    assert result["overall"] == pytest.approx(100.0 / 3.0)
    assert result["unjudgeable"] == 1
    assert result["n"] == 3
    assert result["per_category"]["single_hop"] == 100.0
    assert result["per_category"]["adversarial"] == 0.0


def test_j_score_exclude_unjudgeable():
    questions = [
        make_q("q1", "What did Mela buy at the market?", "a shell necklace"),
        make_q("q2", "What did Tomas fly at the beach?", "a blue kite", category="temporal"),
        make_q("q3", "Unanswered?", "whatever", category="adversarial"),
    ]
    answers = {
        "q1": "She bought a shell necklace at the stall",
        "q2": "Unknown",
    }
    result = j_score(questions, answers, Reasoner(RuleBackend()), exclude_unjudgeable=True)
    assert result["overall"] == 50.0
    assert result["per_category"]["adversarial"] is None


class GarbledJudge(Backend):
    """Rule backend whose judge replies are unparseable prose."""

    name = "garbled"

    def __init__(self):
        self.inner = RuleBackend()

    def complete(self, kind: PromptKind, rendered: str) -> str:
        if kind is PromptKind.JUDGE:
            return "I think it is probably right"
        return self.inner.complete(kind, rendered)


def test_j_score_judge_parse_failures_become_unjudgeable():
    questions = [
        make_q("q1", "?", "alpha"),
        make_q("q2", "?", "beta"),
    ]
    answers = {"q1": "alpha", "q2": "beta"}
    result = j_score(questions, answers, Reasoner(GarbledJudge()))
    assert result["unjudgeable"] == 2
    assert result["overall"] == 0.0
    excluded = j_score(questions, answers, Reasoner(GarbledJudge()), exclude_unjudgeable=True)
    assert excluded["overall"] == 0.0
    assert excluded["per_category"]["single_hop"] is None


# --- timeline export ---------------------------------------------------------------------


def test_export_timeline_from_run_bank_log(b0_run):
    _, paths = b0_run
    timeline = export_timeline(RunReader(paths.root).bank_log())
    assert timeline.iterations == list(range(1, 61))
    assert len(timeline.narratives) == 20
    # the init batch and the crossing turn land 21 fragments at the crossing tick
    assert sum(n.bound.get(21, 0) for n in timeline.narratives) == 21
    # then one fragment per later tick: every turn is bound once
    assert sum(sum(n.bound.values()) for n in timeline.narratives) == 60
    markers = {i for n in timeline.narratives for i in n.markers}
    assert markers == {23, 25, 26, 31, 32, 37, 38, 43, 44, 49, 50, 55, 56}


TS = datetime(2023, 5, 1, 9, 0)


def observe_events(bank: MemoryBank) -> Callable[[], list[dict]]:
    """Observe the bank's changes; each call of the returned function
    hands over the events since the last call, oldest first."""
    events: list[dict] = []
    bank.observer = events.append

    def take() -> list[dict]:
        taken = events[:]
        events.clear()
        return taken

    return take


def synthetic_bank_log():
    bank = MemoryBank()
    take = observe_events(bank)
    mover = bank.extend("A,B", "The move", ["one", "two"], TS, ("s1t1",), iteration=1)
    log = [(1, take())]
    bank.extend("A,B", "The move", ["three"], TS, ("s1t2",), iteration=2)
    bank.consolidate(mover, 0, [("start", 0, 1)])
    bank.extend("C", 'say "hi"', ["hello"], TS, ("s1t3",), iteration=2)
    log.append((2, take()))
    return log


def test_export_timeline_diffs_and_csv_quoting():
    timeline = export_timeline(synthetic_bank_log())
    by_key = {(n.owner, n.topic): n for n in timeline.narratives}
    mover = by_key[("A,B", "The move")]
    assert mover.bound == {1: 2, 2: 1}
    assert mover.markers == [2]
    assert by_key[("C", 'say "hi"')].bound == {2: 1}
    csv_text = timeline.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "owner,topic,iteration,bound_fragments,subplots_created"
    assert '"A,B",The move,1,2,0' in lines
    assert '"A,B",The move,2,1,1' in lines
    assert 'C,"say ""hi""",2,1,0' in lines
    assert csv_text.endswith("\n")


def test_export_timeline_to_dict():
    timeline = export_timeline(synthetic_bank_log())
    data = timeline.to_dict()
    assert data["iterations"] == [1, 2]
    mover = next(n for n in data["narratives"] if n["topic"] == "The move")
    assert mover["bound"] == {"1": 2, "2": 1}
    assert mover["markers"] == [2]


def timeline_from_snapshots(snapshots):
    """Reference: the timeline as a diff of per-iteration bank dicts."""
    timelines = {}
    prev = {}
    iterations = []
    for iteration, bank_dict in snapshots:
        iterations.append(iteration)
        for nd in bank_dict["narratives"]:
            key = (nd["owner"], nd["topic"])
            frag_count = len(nd["fragments"])
            sub_count = len(nd["subplots"])
            tl = timelines.setdefault(key, {"owner": key[0], "topic": key[1],
                                            "bound": {}, "markers": []})
            old_frags, old_subs = prev.get(key, (0, 0))
            if frag_count > old_frags:
                tl["bound"][str(iteration)] = frag_count - old_frags
            if sub_count > old_subs:
                tl["markers"].append(iteration)
            prev[key] = (frag_count, sub_count)
    return {"iterations": iterations, "narratives": list(timelines.values())}


def fold(bank_log):
    """(iteration, bank dict) after each line of a bank log."""
    bank = MemoryBank()
    out = []
    for iteration, events in bank_log:
        for event in events:
            bank.apply(event)
        out.append((iteration, bank.to_dict()))
    return out


def test_topic_rename_through_the_log():
    bank = MemoryBank()
    take = observe_events(bank)
    live, log = [], []

    def end_iteration(i):
        log.append((i, take()))
        live.append((i, bank.to_dict()))

    trip = bank.extend("Ava", "The trip", ["packed", "booked"], TS, ("s1t1",), iteration=1)
    bank.extend("Ben", "Chess", ["won"], TS, ("s1t2",), iteration=1)
    end_iteration(1)
    bank.extend("Ava", "The trip", ["flew"], TS, ("s1t3",), iteration=2)
    end_iteration(2)
    bank.consolidate(trip, 0, [("getting ready", 0, 1)])
    assert bank.rename_topic(trip, "Travel  plans")
    end_iteration(3)
    bank.extend("Ava", "Travel plans", ["landed"], TS, ("s1t4",), iteration=4)
    end_iteration(4)

    assert log[2][1][-1] == {
        "op": "rename", "owner": "Ava", "topic": "The trip", "new_topic": "Travel plans",
    }
    assert fold(log) == live
    timeline = export_timeline(log)
    assert timeline.to_dict() == timeline_from_snapshots(live)
    by_key = {(n.owner, n.topic): n for n in timeline.narratives}
    # the old key ends at the rename; the new key begins with every fragment
    assert by_key[("Ava", "The trip")].bound == {1: 2, 2: 1}
    assert by_key[("Ava", "Travel plans")].bound == {3: 3, 4: 1}
    assert by_key[("Ava", "Travel plans")].markers == [3]


def test_timeline_stays_in_order_past_9999(tmp_path):
    with RunWriter(tmp_path / "run") as writer:
        for i in (9998, 9999, 10000, 10001):
            writer.write_snapshot(i, [])
    timeline = export_timeline(RunReader(tmp_path / "run").bank_log())
    assert timeline.iterations == [9998, 9999, 10000, 10001]


OWNERS = ("Ava", "Ben")
TOPICS = ("trip", "Trip", "chess", "bread", "garden")
bank_ops = st.one_of(
    st.tuples(st.just("extend"), st.sampled_from(OWNERS), st.sampled_from(TOPICS),
              st.integers(0, 2)),
    st.tuples(st.just("consolidate"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("rename"), st.integers(0, 9), st.sampled_from(TOPICS)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(bank_ops, max_size=5), min_size=1, max_size=8))
def test_bank_log_folds_to_the_live_bank_and_its_timeline(iterations):
    """Every change made through the bank, renames back and forth and
    several in one iteration included, folds back to the live bank; and
    the timeline from the log is the diff of the live banks."""
    bank = MemoryBank()
    take = observe_events(bank)
    live, log = [], []
    for i, ops in enumerate(iterations, 1):
        for op in ops:
            narratives = bank.narratives()
            if op[0] == "extend":
                texts = [f"{op[2]} {i}.{j}" for j in range(op[3])]
                bank.extend(op[1], op[2], texts, TS, (f"s1t{i}",), iteration=i)
            elif narratives:
                n = narratives[op[1] % len(narratives)]
                if op[0] == "consolidate":
                    start, _ = n.consolidation_window(4)
                    bank.consolidate(n, start, [("part", 0, op[2])])
                else:
                    bank.rename_topic(n, op[2])
        log.append((i, take()))
        live.append((i, bank.to_dict()))
    assert fold(log) == live
    assert export_timeline(log).to_dict() == timeline_from_snapshots(live)


# --- report rendering ------------------------------------------------------------------


def test_render_report_table():
    report = {
        "jscore": {
            "overall": 66.7,
            "n": 3,
            "unjudgeable": 1,
            "per_category": {"single_hop": 100.0, "adversarial": None},
        },
        "coverage": {
            "2": {"overall": 50.0, "n": 4},
            "10": {"overall": 75.0, "n": 4},
        },
        "compression": {"median": 95.5, "q1": 90.0, "q3": 97.0, "n": 13},
        "latency": {"online": [0.001, 0.002, 0.003, 0.004]},
        "recall": {"mean": 88.2},
    }
    text = render_report_table(report)
    assert "J-score overall: 66.7%  (n=3, unjudgeable=1)" in text
    assert "n/a" in text  # category with no judgeable answers
    assert text.index("k=2:") < text.index("k=10:")  # numeric, not lexical, order
    assert "Compression: median 95.5%  q1 90.0%  q3 97.0%  (n=13)" in text
    assert "Latency online: p50 1.0ms  p90 2.0ms  p95 3.0ms  p99 4.0ms" in text
    assert "Constraint recall mean: 88.2%" in text


def test_render_report_table_isolates_section_errors():
    report = {
        "jscore": {"error": "boom"},
        "coverage": {"error": "boom"},
        "compression": {"error": "boom"},
        "latency": {"error": "boom"},
        "recall": {"error": "boom"},
    }
    text = render_report_table(report)
    for name in ("J-score", "Coverage", "Compression", "Latency", "Constraint recall"):
        assert f"{name}: error: boom" in text


def test_render_report_table_empty():
    assert render_report_table({}) == "(empty report)"


def test_write_report(tmp_path):
    path = tmp_path / "report.json"
    write_report({"b": 1, "a": 2}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 2, "b": 1}
    assert text.index('"a"') < text.index('"b"')
