"""End-to-end CLI behavior, exercised in-process via main(argv)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from storymem import cli
from storymem.backends import make_backend
from storymem.cli import main
from storymem.prompts import PromptKind
from storymem.transcript import load_transcript

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT_PATH = ROOT / "fixtures" / "synthetic60.json"
SCRIPT_PATH = ROOT / "fixtures" / "script_table.json"

QUESTION = "Which tomato variety did Ava say she planted first in the garden project?"


@pytest.fixture(scope="module")
def cli_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    rc = main([
        "run",
        "--transcript", str(TRANSCRIPT_PATH),
        "--out", str(out),
        "--backend", "scripted",
        "--script", str(SCRIPT_PATH),
        "--B", "0",
    ])
    assert rc == 0
    return out


def test_cli_import_loads_neither_numpy_nor_requests():
    """Every offline path runs on the standard library; requests loads
    only when a live backend is made."""
    code = "import sys, storymem.cli; print(sorted({'numpy', 'requests'} & set(sys.modules)))"
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert done.stdout.strip() == "[]"


# --- ingest ---------------------------------------------------------------------


def locomo_file(tmp_path) -> Path:
    scenario = {
        "sample_id": "cli-1",
        "conversation": {
            "speaker_a": "Mina",
            "speaker_b": "Paul",
            "session_1_date_time": "1:15 pm on 3 June, 2023",
            "session_1": [
                {"speaker": "Mina", "dia_id": "D1:1",
                 "text": "I started a mural about the harbor."},
                {"speaker": "Paul", "dia_id": "D1:2",
                 "text": "Update on the mural: the sketch is done."},
            ],
        },
        "qa": [
            {"question": "What did Mina start?", "answer": "a mural",
             "category": 4, "evidence": ["D1:1"]},
        ],
    }
    path = tmp_path / "locomo.json"
    path.write_text(json.dumps([scenario]))
    return path


def test_ingest_converts_locomo(tmp_path, capsys):
    out = tmp_path / "native.json"
    rc = main(["ingest", "--transcript", str(locomo_file(tmp_path)), "--out", str(out)])
    assert rc == 0
    assert "ingested scenario cli-1: 2 turns, 1 sessions, 1 questions" in capsys.readouterr().out
    transcript = load_transcript(out)
    assert [t.turn_id for t in transcript.turns] == ["s1t1", "s1t2"]
    assert transcript.questions[0].category == "single_hop"
    assert transcript.questions[0].evidence_turn_ids == {"s1t1"}


def test_ingest_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"sample_id": "x"}]))  # no conversation
    rc = main(["ingest", "--transcript", str(bad), "--out", str(tmp_path / "out.json")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


# --- run ------------------------------------------------------------------------


def test_run_writes_artifacts(cli_run_dir):
    for name in ("config.json", "records.jsonl", "episodic.json",
                 "semantic.jsonl", "exchanges.jsonl"):
        assert (cli_run_dir / name).exists()
    log = (cli_run_dir / "bank_log.jsonl").read_text().splitlines()
    assert [json.loads(line)["iteration"] for line in log] == list(range(1, 61))
    config = json.loads((cli_run_dir / "config.json").read_text())
    assert config["engine"]["B"] == 0
    assert config["backend"]["kind"] == "scripted"
    assert config["transcript"]["path"] == str(TRANSCRIPT_PATH)


def test_run_with_rule_backend(tmp_path, capsys):
    out = tmp_path / "rule-run"
    rc = main(["run", "--transcript", str(TRANSCRIPT_PATH), "--out", str(out),
               "--backend", "rule", "--B", "0"])
    assert rc == 0
    assert "replayed 60 iterations" in capsys.readouterr().out
    assert (out / "episodic.json").exists()


def test_run_scripted_requires_script(tmp_path, capsys):
    rc = main(["run", "--transcript", str(TRANSCRIPT_PATH),
               "--out", str(tmp_path / "x"), "--backend", "scripted"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_run_aborts_on_missing_script_entries(tmp_path, capsys):
    table = json.loads(SCRIPT_PATH.read_text())
    del table["memory_binding"]
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(table))
    rc = main(["run", "--transcript", str(TRANSCRIPT_PATH),
               "--out", str(tmp_path / "x"), "--backend", "scripted",
               "--script", str(truncated), "--B", "0"])
    assert rc == 3
    assert "backend error" in capsys.readouterr().err


def test_config_file_overrides_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "engine": {"B": 0},
        "backend": {"kind": "rule"},
    }))
    out = tmp_path / "run"
    # flags say B=4 and scripted-with-no-script; the config file wins on both
    rc = main(["run", "--transcript", str(TRANSCRIPT_PATH), "--out", str(out),
               "--backend", "scripted", "--B", "4", "--config", str(config)])
    assert rc == 0
    written = json.loads((out / "config.json").read_text())
    assert written["engine"]["B"] == 0
    assert written["backend"]["kind"] == "rule"


# --- query ----------------------------------------------------------------------


def test_query_answers_from_run_dir(cli_run_dir, capsys):
    rc = main(["query", str(cli_run_dir), "--question", QUESTION,
               "--backend", "scripted", "--script", str(SCRIPT_PATH)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "answer: " in out
    assert "Cherokee Purple" in out
    assert "path: memory" in out
    assert "  story: " in out
    assert "compression: 9" in out  # 9x.x%


def test_query_asks_for_its_own_k(cli_run_dir, capsys, monkeypatch):
    sent = []

    def capturing(config):
        backend = make_backend(config)
        complete = backend.complete

        def record(kind, rendered):
            sent.append((kind, rendered))
            return complete(kind, rendered)

        backend.complete = record
        return backend

    monkeypatch.setattr(cli, "make_backend", capturing)
    rc = main(["query", str(cli_run_dir), "--question", QUESTION, "--k", "3",
               "--backend", "rule"])
    assert rc == 0
    assert capsys.readouterr().out.count("  story: ") == 3
    (ranking,) = [r for kind, r in sent if kind is PromptKind.COHERENCE_RETRIEVE]
    assert "select the top 3 stories" in ranking


def test_query_embedding_retriever(cli_run_dir, capsys):
    rc = main(["query", str(cli_run_dir), "--question", QUESTION,
               "--backend", "rule", "--retriever", "embedding", "--k", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "answer: " in out
    assert "path: memory" in out


@pytest.mark.parametrize("k", ["0", "-1"])
def test_query_rejects_a_k_below_one(cli_run_dir, capsys, k):
    rc = main(["query", str(cli_run_dir), "--question", QUESTION, "--k", k,
               "--backend", "rule"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_query_missing_run_dir(tmp_path, capsys):
    rc = main(["query", str(tmp_path / "nope"), "--question", "x"])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


# --- eval -----------------------------------------------------------------------


def test_eval_writes_report(cli_run_dir, tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["eval", str(cli_run_dir), "--backend", "scripted",
               "--script", str(SCRIPT_PATH), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "J-score overall: 100.0%" in printed
    assert "Coverage by k:" in printed
    assert "Compression: median 93.7%" in printed
    assert "Constraint recall mean: 100.0%" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["jscore"]["overall"] == 100.0
    assert report["coverage"]["2"]["overall"] == 100.0
    traces = [json.loads(l) for l in (out / "retrievals.jsonl").read_text().splitlines()]
    assert len(traces) == 13


def test_eval_mode_subset(cli_run_dir, tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["eval", str(cli_run_dir), "--backend", "scripted",
               "--script", str(SCRIPT_PATH), "--modes", "coverage", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert "coverage" in report
    assert "jscore" not in report


def test_eval_unknown_mode(cli_run_dir, capsys):
    rc = main(["eval", str(cli_run_dir), "--modes", "coverage,vibes"])
    assert rc == 2
    assert "unknown eval modes" in capsys.readouterr().err


# --- export-timeline and inspect ----------------------------------------------------


def test_export_timeline(cli_run_dir, tmp_path, capsys):
    out = tmp_path / "tl"
    rc = main(["export-timeline", str(cli_run_dir), "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "timeline.json").read_text())
    assert len(data["narratives"]) == 20
    assert data["iterations"] == list(range(1, 61))
    csv_lines = (out / "timeline.csv").read_text().splitlines()
    assert csv_lines[0] == "owner,topic,iteration,bound_fragments,subplots_created"
    assert len(csv_lines) > 20


def test_inspect_renders_tree(cli_run_dir, capsys):
    rc = main(["inspect", str(cli_run_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Ava | " in out
    assert "  sub: " in out
    assert "semantic facts: 13" in out


def test_inspect_owner_filter(cli_run_dir, capsys):
    rc = main(["inspect", str(cli_run_dir), "--owner", "  AVA "])
    assert rc == 0
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if "(fragments=" in line]
    assert headers
    assert all(line.startswith("Ava | ") for line in headers)

    rc = main(["inspect", str(cli_run_dir), "--owner", "nobody"])
    assert rc == 0
    assert "(no narratives matched)" in capsys.readouterr().out
