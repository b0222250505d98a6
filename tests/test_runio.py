"""Run-directory layout: writer and reader round trips."""

from __future__ import annotations

from pathlib import Path

import pytest

from storymem.errors import CorruptSnapshot, MissingBank, MissingBankLog
from storymem.runio import RunReader, RunWriter, transcript_stamp
from storymem.transcript import ingest_native

TRANSCRIPT_PATH = Path(__file__).resolve().parents[1] / "fixtures" / "synthetic60.json"


def test_writer_reader_round_trip(tmp_path):
    root = tmp_path / "run"
    with RunWriter(root) as writer:
        writer.write_config({"engine": {"T": 5}, "backend": {"kind": "rule"}})
        writer.write_snapshot(1, [])
        writer.write_snapshot(12, [{"op": "create", "owner": "A", "topic": "T"}])
        writer.write_records([{"iteration": 1}, {"iteration": 2}])
        writer.write_exchanges([{"kind": "answer", "digest": "d"}])
        writer.write_final({"narratives": []}, '{"subject": "A"}\n')

    reader = RunReader(root)
    assert reader.config() == {"engine": {"T": 5}, "backend": {"kind": "rule"}}
    assert reader.records() == [{"iteration": 1}, {"iteration": 2}]
    assert reader.paths.exchanges.read_text() == '{"digest": "d", "kind": "answer"}\n'
    assert reader.episodic_dict() == {"narratives": []}
    assert reader.semantic_jsonl() == '{"subject": "A"}\n'
    assert reader.bank_log() == [
        (1, []),
        (12, [{"op": "create", "owner": "A", "topic": "T"}]),
    ]


def test_bank_log_is_one_sorted_line_per_iteration(tmp_path):
    with RunWriter(tmp_path / "run") as writer:
        writer.write_snapshot(7, [{"topic": "T", "owner": "Ä", "op": "create"}])
        writer.write_snapshot(1234, [])
    text = (tmp_path / "run" / "bank_log.jsonl").read_text(encoding="utf-8")
    assert text == (
        '{"events": [{"op": "create", "owner": "Ä", "topic": "T"}], "iteration": 7}\n'
        '{"events": [], "iteration": 1234}\n'
    )


def test_new_writer_starts_the_bank_log_afresh(tmp_path):
    with RunWriter(tmp_path / "run") as writer:
        writer.write_snapshot(1, [])
    RunWriter(tmp_path / "run").close()
    with pytest.raises(MissingBankLog):
        RunReader(tmp_path / "run").bank_log()  # the file exists but holds no line


def test_bank_log_rejects_malformed_lines(tmp_path):
    root = tmp_path / "run"
    root.mkdir()
    for text in ('{"iteration": 1}\n', '{"iteration": "x", "events": []}\n', "[1]\n", "{\n"):
        (root / "bank_log.jsonl").write_text(text)
        with pytest.raises(CorruptSnapshot):
            RunReader(root).bank_log()


def test_reader_requires_directory(tmp_path):
    with pytest.raises(MissingBank):
        RunReader(tmp_path / "nope")


def test_reader_missing_pieces(tmp_path):
    root = tmp_path / "run"
    root.mkdir()
    (root / "config.json").write_text("{}")
    reader = RunReader(root)
    assert reader.records() == []
    with pytest.raises(MissingBank):
        reader.episodic_dict()
    with pytest.raises(MissingBank):
        reader.semantic_jsonl()
    with pytest.raises(MissingBankLog):
        reader.bank_log()


def test_config_is_stable_json(tmp_path):
    with RunWriter(tmp_path / "run") as writer:
        writer.write_config({"b": 1, "a": {"z": 2, "y": 3}})
    text = (tmp_path / "run" / "config.json").read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')


def test_transcript_stamp_identifies_content(transcript):
    stamp = transcript_stamp(transcript, TRANSCRIPT_PATH)
    assert stamp["scenario_id"] == "synthetic-60"
    assert stamp["turns"] == 60
    assert stamp["sessions"] == 3
    assert stamp["path"] == str(TRANSCRIPT_PATH)
    assert len(stamp["sha256"]) == 64
    # the stamp is content-addressed: same conversation, same hash
    again = transcript_stamp(ingest_native(TRANSCRIPT_PATH), None)
    assert again["sha256"] == stamp["sha256"]
    assert again["path"] is None
