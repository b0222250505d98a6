"""Benchmark of the storymem engine: one workload per process, one client.

    python3 bench/run.py --workload replay|eval|converse --seed N \
        --seconds S --trace 0|1

Builds a seeded conversation from tiles of fixtures/synthetic60.json and
repeats whole rounds of the workload's ops until S seconds of timed work
have passed, with a batch of set-ups before each round (`setup_s` is the
median over batches of the mean set-up time). It checks every round's
outputs. It uses the `rule` backend, so nothing leaves the machine.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
traces the layers instead, reports the per-layer metrics and writes the
spans to .benchout/trace-<workload>-seed<N>.jsonl. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".benchout"
SPEC_PATH = ROOT / "BENCHMARK.json"
# setup_s is the median over batches of each batch's mean set-up time.
# The machine this was tuned on switches speed within a second; a mean
# over a batch of about one second follows the share of slow time
# smoothly, where a median of single set-ups jumps between speeds.
SETUP_MIN_BATCHES = 3
SETUP_BATCH_SECONDS = 1.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest rank: the value at 1-based rank ceil(q * n)."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def round_median(rounds, figure) -> float:
    """The median over rounds of a per-round figure.

    The machine this was tuned on slows down in bursts of ten seconds
    or so; a median over rounds keeps one slow round from moving a run.
    """
    return statistics.median(figure(r) for r in rounds)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["replay", "eval", "converse"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def measure(args, spec: dict, workdir: Path) -> dict:
    from storymem.backends import RuleBackend
    from tracing import CountingBackend, Tracer, install, layer_metrics
    from workloads import LOST, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    backend = CountingBackend(RuleBackend())
    tracer = Tracer() if args.trace else None
    if tracer:
        install(tracer, backend)
    # A batch of set-ups runs before every round, so that setup_s samples
    # the machine over the whole run as the rounds do. A traced run
    # reports no setup_s and sets up once per round.
    batch_seconds = 0.0 if tracer else SETUP_BATCH_SECONDS
    batches: list[list[float]] = []
    rounds, windows, setup_windows = [], [], []
    try:
        while sum(r.wall for r in rounds) < args.seconds or (
            not tracer and len(batches) < SETUP_MIN_BATCHES
        ):
            start = time.perf_counter()
            batches.append([])
            while True:
                t0 = time.perf_counter()
                workload.setup()
                batches[-1].append(time.perf_counter() - t0)
                if t0 + batches[-1][-1] - start >= batch_seconds:
                    break
            setup_windows.append((start, time.perf_counter()))
            # The engine holds reference cycles; collect around each round,
            # so memory and collector work do not depend on the rounds run.
            gc.collect()
            if sum(r.wall for r in rounds) >= args.seconds:
                continue  # only more set-up batches were needed
            t0 = time.perf_counter()
            rnd = workload.run_round(backend)
            windows.append((t0, time.perf_counter()))
            backend.settle()
            workload.check(rnd)
            rounds.append(rnd)
            gc.collect()
    finally:
        if tracer:
            tracer.restore()
            tracer.finish()

    print("round seconds: " + " ".join(f"{r.wall:.3f}" for r in rounds), file=sys.stderr)
    ops = sum(len(r.latencies) for r in rounds)
    failed = 0
    correct = True
    for rnd in rounds:
        for problem in rnd.bank_problems:
            correct = False
            print(f"check: {problem}", file=sys.stderr)
        for i, problems in enumerate(rnd.problems):
            if not problems:
                continue
            failed += 1
            known = i == workload.crossing_op and all(p.startswith(LOST) for p in problems)
            correct = correct and known
            if rnd is rounds[0]:
                label = "known fault" if known else "check"
                print(f"{label}: op {i}: {'; '.join(problems)}", file=sys.stderr)

    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = layer_metrics(
            tracer.spans, windows, setup_windows, threading.get_ident(), backend, ops, workload
        )
        print(f"traced ops_per_s: {round_median(rounds, lambda r: len(r.latencies) / r.wall):.3f} op/s")
    else:
        values = {
            "setup_s": statistics.median(statistics.mean(b) for b in batches),
            "ops_per_s": round_median(rounds, lambda r: len(r.latencies) / r.wall),
            "op_p50_ms": 1000.0 * round_median(rounds, lambda r: percentile(r.latencies, 0.50)),
            "op_p90_ms": 1000.0 * round_median(rounds, lambda r: percentile(r.latencies, 0.90)),
            "backend_calls_per_op": backend.total_calls() / ops,
            "prompt_tokens_per_op": backend.total_tokens() / ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if tracer else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{sum(map(len, batches))} set-ups, {ops} ops")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": ops, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "storymem" / "__init__.py").is_file():
        print(f"storymem sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_PATH.read_text())
    OUT.mkdir(exist_ok=True)
    # A fixed name: the run config records the transcript path, and its
    # length must not change the bytes written from one run to the next.
    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        result = measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
