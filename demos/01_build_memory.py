#!/usr/bin/env python3
"""Replay the bundled 60-turn conversation and watch memory form.

Uses the deterministic rule backend, so this runs offline and prints the
same thing every time: where the answer path switches from the raw
history to memory, when narratives consolidate into sub-stories, and
what the final memory bank looks like.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from storymem.backends import RuleBackend
from storymem.engine import EngineConfig, MemoryEngine, run_replay
from storymem.runio import RunReader
from storymem.transcript import ingest_native

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transcript", default=str(ROOT / "fixtures" / "synthetic60.json"))
    parser.add_argument("--out", default=str(ROOT / "runs" / "demo"))
    parser.add_argument("--T", type=int, default=20, help="memory init threshold")
    parser.add_argument("--B", type=int, default=0, help="recent-turn buffer size")
    args = parser.parse_args()

    transcript = ingest_native(args.transcript)
    print(f"transcript: {transcript.scenario_id}, {transcript.turn_count()} turns "
          f"across {len(transcript.sessions)} sessions")

    config = EngineConfig(T=args.T, B=args.B)
    engine = MemoryEngine(config, RuleBackend())
    try:
        paths = run_replay(engine, transcript, args.out, transcript_path=args.transcript)
    finally:
        engine.close()

    records = RunReader(paths.root).records()
    switch = next(r["iteration"] for r in records if r["path"] == "memory")
    print(f"\nwhile the history fits {config.switch_threshold} turns the answer path "
          "reads it whole; memory takes over at turn", switch)

    init = next(r for r in records if r["mem_init"])
    print(f"turn {init['iteration']}: the first {config.T} turns are bound into "
          f"narratives in one batch ({init['bound_fragments']} fragments)")

    for r in records:
        if r["consolidations"]:
            who = ", ".join(f"{o}/{t}" for o, t in r["consolidated"])
            print(f"turn {r['iteration']}: {r['consolidations']} narrative(s) went quiet "
                  f"and consolidated: {who}")
        if r["reactivated"]:
            who = ", ".join(f"{o}/{t}" for o, t in r["reactivated"])
            print(f"turn {r['iteration']}: reactivated {who}")

    print(f"\nfinal bank: {len(engine.bank)} narratives, {len(engine.store)} distilled facts")
    for n in sorted(engine.bank.narratives(), key=lambda n: (-len(n.fragments), n.topic))[:5]:
        print(f"  {n.owner} | {n.topic}: {len(n.fragments)} fragments, "
              f"{len(n.subplots)} sub-stories")
        for s in n.subplots[:2]:
            print(f"    sub: {s.headline}")

    print(f"\nrun artifacts written to {paths.root}")
    print("next: python3 demos/02_query_memory.py --run", paths.root)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
