"""The input generator: deterministic per seed, and every tile its own."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from inputs import DEFAULT_TILES, FIXTURE, NAME_POOL, tiled_conversation  # noqa: E402


def _words(text: str) -> set[str]:
    return set(re.findall(r"[a-z0-9']+", text.casefold()))


def _turns(conv: dict) -> dict[str, dict]:
    """Turn ids as ingest_native assigns them: s<session>t<turn>, 1-based."""
    return {
        f"s{si}t{ti}": turn
        for si, session in enumerate(conv["sessions"], start=1)
        for ti, turn in enumerate(session["turns"], start=1)
    }


@pytest.fixture(scope="module")
def conv() -> dict:
    return tiled_conversation(seed=3)


def test_same_seed_same_inputs():
    assert tiled_conversation(seed=11) == tiled_conversation(seed=11)
    assert tiled_conversation(seed=11) != tiled_conversation(seed=12)


def test_size(conv):
    assert len(_turns(conv)) == 60 * DEFAULT_TILES
    assert len(conv["questions"]) == 13 * DEFAULT_TILES


def test_evidence_exists_and_holds_the_gold_answer(conv):
    turns = _turns(conv)
    for q in conv["questions"]:
        assert q["evidence_turn_ids"], q["question_id"]
        for tid in q["evidence_turn_ids"]:
            assert tid in turns, (q["question_id"], tid)
        evidence = " ".join(turns[tid]["text"] for tid in q["evidence_turn_ids"])
        assert _words(q["gold_answer"]) <= _words(evidence), q["question_id"]


def test_nothing_repeats_across_tiles(conv):
    lines = [
        f"{t['datetime']} {t['speaker']}: {t['text']}" for t in _turns(conv).values()
    ]
    assert len(set(lines)) == len(lines)
    questions = [q["text"] for q in conv["questions"]]
    assert len(set(questions)) == len(questions)
    speakers = [
        {t["speaker"] for s in conv["sessions"][i:i + 3] for t in s["turns"]}
        for i in range(0, len(conv["sessions"]), 3)
    ]
    assert all(len(names) == 2 for names in speakers)
    assert len(set().union(*speakers)) == 2 * DEFAULT_TILES


def test_names_are_single_unused_words():
    fixture = json.loads(FIXTURE.read_text())
    base_words = set()
    for s in fixture["sessions"]:
        for t in s["turns"]:
            base_words |= _words(t["text"])
    for q in fixture["questions"]:
        base_words |= _words(q["text"] + " " + q["gold_answer"])
    for name in NAME_POOL:
        assert re.fullmatch(r"[A-Z][a-z]+", name), name
        assert name.casefold() not in base_words, name
    assert len(set(NAME_POOL)) == len(NAME_POOL)


def test_dates_move_forward(conv):
    stamps = [t["datetime"] for t in _turns(conv).values()]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)
