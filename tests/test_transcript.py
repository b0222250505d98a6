"""Transcript ingestion, identifiers, serialization, and token counting."""

from __future__ import annotations

import json
from datetime import datetime

import pytest

from storymem.errors import EmptyTranscript, MalformedInput
from storymem.transcript import (
    CATEGORIES,
    count_tokens,
    ingest_locomo,
    ingest_native,
    load_transcript,
    normalize_category,
    parse_datetime,
    replay,
    transcript_to_dict,
    transcript_to_json,
    turn_id_for,
)


def locomo_scenario() -> dict:
    return {
        "sample_id": "scn-7",
        "conversation": {
            "session_1_date_time": "1:56 pm on 8 May, 2023",
            "session_1": [
                {"speaker": "Caroline", "dia_id": "D1:1", "text": "Hey Mel! Good to see you."},
                {"speaker": "Melanie", "dia_id": "D1:2", "text": "", "blip_caption": "a dog"},
                {"speaker": "Caroline", "dia_id": "D1:3", "text": "Look", "blip_caption": "a sunset"},
                {"speaker": "Melanie", "dia_id": "D1:4", "text": "   "},
            ],
            "session_2_date_time": "10:00 am on 1 January, 2020",
            "session_2": [
                {"text": "No speaker on this one."},
            ],
        },
        "qa": [
            {
                "question": "What did Caroline share?",
                "answer": "a sunset",
                "evidence": ["D1:3"],
                "category": 4,
            },
            {
                "question": "Unresolvable evidence here",
                "answer": "x",
                "evidence": ["D9:9"],
                "category": 2,
            },
        ],
    }


# --- bundled fixture ---------------------------------------------------------


def test_bundled_fixture_shape(transcript):
    assert transcript.scenario_id == "synthetic-60"
    assert transcript.turn_count() == 60
    assert len(transcript.sessions) == 3
    assert len(transcript.questions) == 13
    assert [len(s.turns) for s in transcript.sessions] == [20, 20, 20]
    assert transcript.turns[0].turn_id == "s1t1"
    assert transcript.turns[-1].turn_id == "s3t20"
    for q in transcript.questions:
        assert q.category in CATEGORIES
        assert q.evidence_turn_ids <= transcript.turn_ids()


def test_native_round_trip(transcript, tmp_path):
    out = tmp_path / "copy.json"
    out.write_text(json.dumps(transcript_to_dict(transcript)))
    again = ingest_native(out)
    assert transcript_to_json(again) == transcript_to_json(transcript)


def test_reingestion_is_stable(fixtures_dir):
    a = ingest_native(fixtures_dir / "synthetic60.json")
    b = ingest_native(fixtures_dir / "synthetic60.json")
    assert transcript_to_json(a) == transcript_to_json(b)
    assert [t.turn_id for t in a.turns] == [t.turn_id for t in b.turns]


def test_replay_yields_independent_cursors(transcript):
    first = replay(transcript)
    second = replay(transcript)
    assert next(first).turn_id == "s1t1"
    assert next(first).turn_id == "s1t2"
    assert next(second).turn_id == "s1t1"
    assert len(list(first)) == 58
    assert len(list(second)) == 59


# --- LOCOMO ingestion --------------------------------------------------------


def test_locomo_mapping(tmp_path):
    path = tmp_path / "locomo.json"
    path.write_text(json.dumps(locomo_scenario()))
    t = ingest_locomo(path)

    assert t.scenario_id == "scn-7"
    ids = [turn.turn_id for turn in t.turns]
    # dia_id drives the identifier; the whitespace-only turn is dropped
    assert ids == ["s1t1", "s1t2", "s1t3", "s2t1"]
    by_id = {turn.turn_id: turn for turn in t.turns}
    assert by_id["s1t2"].text == "[shared a photo: a dog]"
    assert by_id["s1t3"].text == "Look [shared a photo: a sunset]"
    assert by_id["s2t1"].speaker == "unknown"

    assert t.sessions[0].timestamp == datetime(2023, 5, 8, 13, 56)
    # session 2 predates session 1, so its timestamp clamps forward
    assert t.sessions[1].timestamp == t.sessions[0].timestamp

    q1, q2 = t.questions
    assert q1.category == "single_hop"
    assert q1.evidence_turn_ids == frozenset({"s1t3"})
    assert q2.category == "temporal"
    assert q2.evidence_turn_ids == frozenset()


def test_locomo_scenario_list_and_index(tmp_path):
    one = locomo_scenario()
    two = locomo_scenario()
    two["sample_id"] = "scn-8"
    path = tmp_path / "multi.json"
    path.write_text(json.dumps([one, two]))

    assert ingest_locomo(path, scenario_index=0).scenario_id == "scn-7"
    assert ingest_locomo(path, scenario_index=1).scenario_id == "scn-8"
    with pytest.raises(MalformedInput):
        ingest_locomo(path, scenario_index=2)


def test_locomo_errors(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(EmptyTranscript):
        ingest_locomo(empty)

    noconv = tmp_path / "noconv.json"
    noconv.write_text(json.dumps([{"sample_id": "x"}]))
    with pytest.raises(MalformedInput):
        ingest_locomo(noconv)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedInput):
        ingest_locomo(bad)


# --- native ingestion errors ---------------------------------------------------


def test_native_requires_sessions(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario_id": "x"}))
    with pytest.raises(MalformedInput):
        ingest_native(path)


def test_native_rejects_zero_turns(tmp_path):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"sessions": [{"datetime": "2023-05-01", "turns": []}]}))
    with pytest.raises(EmptyTranscript):
        ingest_native(path)


def test_native_rejects_backwards_sessions(tmp_path):
    path = tmp_path / "order.json"
    path.write_text(
        json.dumps(
            {
                "sessions": [
                    {
                        "datetime": "2023-05-08T10:00:00",
                        "turns": [{"speaker": "A", "text": "hi"}],
                    },
                    {
                        "datetime": "2023-05-01T10:00:00",
                        "turns": [{"speaker": "B", "text": "later"}],
                    },
                ]
            }
        )
    )
    with pytest.raises(MalformedInput):
        ingest_native(path)


def test_native_drops_unknown_evidence(tmp_path):
    path = tmp_path / "ev.json"
    path.write_text(
        json.dumps(
            {
                "sessions": [
                    {
                        "datetime": "2023-05-01T09:00:00",
                        "turns": [{"speaker": "A", "text": "hello there"}],
                    }
                ],
                "questions": [
                    {
                        "question_id": "q1",
                        "text": "what?",
                        "gold_answer": "hello",
                        "evidence_turn_ids": ["s1t1", "s9t9"],
                    }
                ],
            }
        )
    )
    t = ingest_native(path)
    assert t.questions[0].evidence_turn_ids == frozenset({"s1t1"})


def test_load_transcript_detects_format(tmp_path, fixtures_dir):
    native = load_transcript(fixtures_dir / "synthetic60.json")
    assert native.scenario_id == "synthetic-60"

    path = tmp_path / "locomo.json"
    path.write_text(json.dumps(locomo_scenario()))
    assert load_transcript(path).scenario_id == "scn-7"


# --- helpers -------------------------------------------------------------------


def test_turn_id_for():
    assert turn_id_for(1, 1) == "s1t1"
    assert turn_id_for(12, 34) == "s12t34"


def test_parse_datetime_formats():
    assert parse_datetime("2023-05-01T09:00:00") == datetime(2023, 5, 1, 9)
    assert parse_datetime("2023-05-01 09:00") == datetime(2023, 5, 1, 9)
    assert parse_datetime("1:56 pm on 8 May, 2023") == datetime(2023, 5, 8, 13, 56)
    assert parse_datetime("8 May 2023") == datetime(2023, 5, 8)
    # fromisoformat picks up fractions the fixed formats do not cover
    assert parse_datetime("2023-05-01T09:00:00.250000") == datetime(2023, 5, 1, 9, 0, 0, 250000)


def test_parse_datetime_fallback():
    marker = datetime(2001, 2, 3)
    assert parse_datetime("no date here", fallback=marker) == marker
    assert parse_datetime("???") == datetime(1970, 1, 1)


def test_normalize_category():
    assert normalize_category(1) == "multi_hop"
    assert normalize_category(2) == "temporal"
    assert normalize_category(3) == "commonsense"
    assert normalize_category(4) == "single_hop"
    assert normalize_category(9) == "other"
    assert normalize_category(True) == "other"
    assert normalize_category(None) == "other"
    assert normalize_category("Single-hop") == "single_hop"
    assert normalize_category("multi hop") == "multi_hop"
    assert normalize_category("open domain") == "commonsense"
    assert normalize_category("2") == "temporal"
    assert normalize_category("mystery") == "other"


def test_count_tokens():
    assert count_tokens("a b  c") == 3
    assert count_tokens("one two three") == 3
    # additivity across a separating junction, used by the compression metric
    a, b = "alpha beta", "gamma delta"
    assert count_tokens(a + "\n" + b) == count_tokens(a) + count_tokens(b)
