#!/usr/bin/env python3
"""Render narrative lifecycles from a run's bank log.

Folds the bank changes logged after every turn into per-narrative
growth series, prints an ASCII activity chart (one row per narrative,
one column per turn, '#' where fragments were bound, 'C' where a
consolidation created sub-stories), and writes timeline.json/.csv.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from storymem.backends import RuleBackend
from storymem.engine import EngineConfig, MemoryEngine, run_replay
from storymem.metrics import export_timeline
from storymem.runio import RunReader
from storymem.transcript import ingest_native

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", default=str(ROOT / "runs" / "demo"))
    parser.add_argument("--transcript", default=str(ROOT / "fixtures" / "synthetic60.json"))
    parser.add_argument("--width", type=int, default=28, help="label column width")
    args = parser.parse_args()

    if not Path(args.run, "bank_log.jsonl").is_file():
        print(f"(no run at {args.run}; replaying first)")
        transcript = ingest_native(args.transcript)
        engine = MemoryEngine(EngineConfig(B=0), RuleBackend())
        try:
            run_replay(engine, transcript, args.run, transcript_path=args.transcript)
        finally:
            engine.close()

    reader = RunReader(args.run)
    timeline = export_timeline(reader.bank_log())
    last = max(timeline.iterations)

    print(f"{len(timeline.narratives)} narratives over {last} turns\n")
    header = " " * args.width + "".join(
        str(i // 10) if i % 10 == 0 else "." for i in range(1, last + 1)
    )
    print(header)
    ordered = sorted(timeline.narratives, key=lambda n: min(n.bound, default=last))
    for n in ordered:
        label = f"{n.owner}/{n.topic}"[: args.width - 1].ljust(args.width)
        cells = []
        for i in range(1, last + 1):
            if i in n.markers:
                cells.append("C")
            elif n.bound.get(i):
                cells.append("#")
            else:
                cells.append(" ")
        print(label + "".join(cells))

    out_dir = Path(args.run)
    (out_dir / "timeline.json").write_text(
        json.dumps(timeline.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    (out_dir / "timeline.csv").write_text(timeline.to_csv())
    print(f"\nwrote {out_dir / 'timeline.json'} and {out_dir / 'timeline.csv'}")
    print("the CLI equivalent: storymem export-timeline", args.run)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
