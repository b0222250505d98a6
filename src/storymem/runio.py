"""Run-directory layout and serialization.

A run directory is the durable artifact of one replay:

    config.json       - everything needed to reproduce the run
    records.jsonl     - one line per iteration (latencies are wall-clock)
    bank_log.jsonl    - one line per clean iteration: the bank changes it made
    episodic.json     - final narrative bank
    semantic.jsonl    - final triple store
    exchanges.jsonl   - every prompt/completion of the replay, for audit

Each bank-log line is {"iteration": i, "events": [...]}, with the events
the bank passed to MemoryBank.observer during iteration i; folding the
lines up to iteration i over an empty bank with MemoryBank.apply gives
the bank after iteration i.

All JSON is written with sorted keys; under a scripted backend every
file except the latency fields inside records.jsonl is reproducible
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import CorruptSnapshot, MissingBank, MissingBankLog
from .transcript import Transcript, transcript_to_json


@dataclass(frozen=True)
class RunPaths:
    root: Path

    @property
    def config(self) -> Path:
        return self.root / "config.json"

    @property
    def records(self) -> Path:
        return self.root / "records.jsonl"

    @property
    def bank_log(self) -> Path:
        return self.root / "bank_log.jsonl"

    @property
    def episodic(self) -> Path:
        return self.root / "episodic.json"

    @property
    def semantic(self) -> Path:
        return self.root / "semantic.jsonl"

    @property
    def exchanges(self) -> Path:
        return self.root / "exchanges.jsonl"


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _dump_line(row) -> str:
    return json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n"


def _write_lines(path: Path, rows: Iterable[dict]) -> None:
    """Write one JSON line per row, a line at a time."""
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(_dump_line(row))


def transcript_stamp(transcript: Transcript, path: str | Path | None) -> dict:
    """Identity block for config.json: which conversation this run saw."""
    canonical = transcript_to_json(transcript)
    return {
        "path": str(path) if path else None,
        "scenario_id": transcript.scenario_id,
        "turns": transcript.turn_count(),
        "sessions": len(transcript.sessions),
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


class RunWriter:
    """Writes one run directory.

    The bank log is started afresh when the writer is made and stays
    open for appending; close() (or leaving a with block) flushes and
    closes it.
    """

    def __init__(self, root: str | Path) -> None:
        self.paths = RunPaths(Path(root))
        self.paths.root.mkdir(parents=True, exist_ok=True)
        self._log = self.paths.bank_log.open("w", encoding="utf-8")

    def __enter__(self) -> RunWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._log.close()

    def write_config(self, config: dict) -> None:
        self.paths.config.write_text(_dump(config))

    def write_snapshot(self, iteration: int, events: list[dict]) -> None:
        """Append the bank log's line for one iteration."""
        self._log.write(_dump_line({"iteration": iteration, "events": events}))

    def write_records(self, records: Iterable[dict]) -> None:
        _write_lines(self.paths.records, records)

    def write_exchanges(self, exchanges: Iterable[dict]) -> None:
        _write_lines(self.paths.exchanges, exchanges)

    def write_final(self, bank_dict: dict, semantic_jsonl: str) -> None:
        self.paths.episodic.write_text(_dump(bank_dict))
        self.paths.semantic.write_text(semantic_jsonl)


class RunReader:
    def __init__(self, root: str | Path) -> None:
        self.paths = RunPaths(Path(root))
        if not self.paths.root.is_dir():
            raise MissingBank(f"run directory {root} does not exist")

    def config(self) -> dict:
        return json.loads(self.paths.config.read_text())

    def records(self) -> list[dict]:
        if not self.paths.records.exists():
            return []
        return [
            json.loads(line)
            for line in self.paths.records.read_text().splitlines()
            if line.strip()
        ]

    def episodic_dict(self) -> dict:
        if not self.paths.episodic.exists():
            raise MissingBank(f"{self.paths.episodic} not found")
        return json.loads(self.paths.episodic.read_text())

    def semantic_jsonl(self) -> str:
        if not self.paths.semantic.exists():
            raise MissingBank(f"{self.paths.semantic} not found")
        return self.paths.semantic.read_text()

    def bank_log(self) -> list[tuple[int, list[dict]]]:
        """(iteration, events) pairs, in the order the run wrote them."""
        if not self.paths.bank_log.exists():
            raise MissingBankLog(f"{self.paths.bank_log} not found")
        out = []
        with self.paths.bank_log.open(encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    out.append((int(row["iteration"]), list(row["events"])))
                except (ValueError, KeyError, TypeError) as exc:
                    raise CorruptSnapshot(
                        f"{self.paths.bank_log}:{number}: malformed line: {exc!r}"
                    ) from exc
        if not out:
            raise MissingBankLog(f"{self.paths.bank_log} is empty")
        return out
