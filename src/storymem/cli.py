"""Command-line driver.

Subcommands: ingest, run, query, eval, export-timeline, inspect.
Exit codes: 0 success, 2 input/data error, 3 backend error, 4 internal.

Flag precedence: defaults, then command-line flags, then --config file
entries (the file wins; it is applied last so a saved config reproduces
a run exactly).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .backends import BackendConfig, make_backend
from .engine import EngineConfig, MemoryEngine, run_replay
from .episodic import MemoryBank, normalize_label
from .errors import (
    BackendError,
    CorruptSnapshot,
    EmptySamples,
    EmptyTranscript,
    MalformedInput,
    MissingBank,
    MissingBankLog,
    ReplayAborted,
    StorymemError,
    ZeroHistory,
)
from .evaluate import ALL_MODES, run_evaluation
from .metrics import (
    compression_rate,
    export_timeline,
    render_report_table,
    write_report,
)
from .runio import RunReader
from .semantic import TripleStore
from .transcript import (
    Transcript,
    ingest_locomo,
    ingest_native,
    load_transcript,
    transcript_to_dict,
)

logger = logging.getLogger(__name__)

_INPUT_ERRORS = (
    MalformedInput,
    EmptyTranscript,
    CorruptSnapshot,
    MissingBank,
    MissingBankLog,
    ZeroHistory,
    EmptySamples,
    FileNotFoundError,
    OSError,
    KeyError,
    ValueError,
)


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--T", type=int, default=20, help="memory init threshold (default 20)")
    p.add_argument("--k", type=int, default=2, help="memories to retrieve (default 2)")
    p.add_argument("--N", type=int, default=10, help="consolidation window (default 10)")
    p.add_argument("--B", type=int, default=4,
                   help="buffer context turns; 0 disables buffer mode (default 4)")
    p.add_argument("--policy", default="inactive",
                   help="consolidation policy: inactive, rapid:<s>, none (default inactive)")
    p.add_argument("--binding-context", type=int, default=4, dest="binding_context",
                   help="dialogue turns shown to the binding prompt (default 4)")
    p.add_argument("--config", default=None,
                   help="JSON config file; its entries override flags")


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=["scripted", "live", "rule"], default="rule",
                   help="completion backend (default rule: deterministic heuristic)")
    p.add_argument("--script", default=None, help="script table for --backend scripted")
    p.add_argument("--endpoint", default="", help="chat-completion URL for --backend live")
    p.add_argument("--model", default="", help="model name for --backend live")
    p.add_argument("--api-key-env", default="STORYMEM_API_KEY", dest="api_key_env",
                   help="env var holding the API token (default STORYMEM_API_KEY)")
    p.add_argument("--timeout", type=float, default=30.0, help="live request timeout seconds")
    p.add_argument("--retries", type=int, default=2, help="live transport retries")


def _engine_config(args) -> EngineConfig:
    values = {
        "T": args.T,
        "k": args.k,
        "N": args.N,
        "B": args.B,
        "consolidation_policy": args.policy,
        "binding_context_turns": args.binding_context,
    }
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
        section = overrides.get("engine", overrides)
        for key in values:
            if key in section:
                values[key] = section[key]
    return EngineConfig(**values)


def _backend_config(args) -> BackendConfig:
    values = {
        "kind": args.backend,
        "script_path": args.script,
        "endpoint": args.endpoint,
        "model": args.model,
        "api_key_env": args.api_key_env,
        "timeout": args.timeout,
        "max_retries": args.retries,
    }
    if getattr(args, "config", None):
        overrides = json.loads(Path(args.config).read_text())
        section = overrides.get("backend", {})
        for key in values:
            if key in section:
                values[key] = section[key]
    return BackendConfig(**values)


def _load_questions(args, transcript: Transcript):
    if getattr(args, "questions", None):
        qfile = ingest_native(args.questions)
        return qfile.questions
    return transcript.questions


def _restore_engine(args, run_dir: str) -> tuple[MemoryEngine, RunReader, Transcript]:
    reader = RunReader(run_dir)
    run_config = reader.config()
    transcript_path = getattr(args, "transcript", None) or run_config.get(
        "transcript", {}
    ).get("path")
    if not transcript_path:
        raise MalformedInput(
            "run config has no transcript path; pass --transcript explicitly"
        )
    transcript = load_transcript(transcript_path)
    config = EngineConfig.from_dict(run_config.get("engine", {}))
    engine = MemoryEngine(config, make_backend(_backend_config(args)))
    bank = MemoryBank.from_dict(reader.episodic_dict())
    store = TripleStore.from_jsonl(reader.semantic_jsonl())
    engine.restore(transcript, bank, store)
    return engine, reader, transcript


# --- subcommands -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    transcript = ingest_locomo(args.transcript, scenario_index=args.scenario)
    out = Path(args.out)
    out.write_text(json.dumps(transcript_to_dict(transcript), indent=2, ensure_ascii=False) + "\n")
    print(
        f"ingested scenario {transcript.scenario_id}: "
        f"{transcript.turn_count()} turns, {len(transcript.sessions)} sessions, "
        f"{len(transcript.questions)} questions -> {out}"
    )
    return 0


def cmd_run(args) -> int:
    transcript = load_transcript(args.transcript)
    engine = MemoryEngine(_engine_config(args), make_backend(_backend_config(args)))
    out = args.out or f"runs/{transcript.scenario_id}"
    try:
        paths = run_replay(engine, transcript, out, transcript_path=args.transcript)
    finally:
        engine.close()
    print(
        f"replayed {engine.iteration} iterations -> {paths.root} "
        f"(narratives={len(engine.bank)}, facts={len(engine.store)})"
    )
    return 0


def cmd_query(args) -> int:
    engine, _, _ = _restore_engine(args, args.run_dir)
    if args.k is not None:
        engine.config = EngineConfig.from_dict({**engine.config.to_dict(), "k": args.k})
    outcome = engine.ask(args.question, retriever=args.retriever)
    print(f"answer: {outcome.answer}")
    print(f"path: {outcome.path}")
    if outcome.retrieval is not None:
        for b in outcome.retrieval.blocks:
            suffix = f" (sub-story of: {b.parent_topic})" if b.kind == "subplot" else ""
            print(f"  story: {b.owner} | {b.topic}{suffix} [{b.fragment_count} fragments]")
        for f in outcome.retrieval.facts:
            print(f"  fact: {f.render()}")
    if outcome.full_history_tokens:
        rate = compression_rate(outcome.full_history_tokens, outcome.context_tokens)
        print(f"compression: {rate:.1f}%")
    return 0


def cmd_eval(args) -> int:
    engine, reader, transcript = _restore_engine(args, args.run_dir)
    questions = _load_questions(args, transcript)
    if not questions:
        raise MalformedInput("no evaluation questions available")
    constraints = None
    if args.constraints:
        constraints = json.loads(Path(args.constraints).read_text())
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    unknown = set(modes) - set(ALL_MODES)
    if unknown:
        raise MalformedInput(f"unknown eval modes: {sorted(unknown)}")
    report, traces = run_evaluation(
        engine,
        questions,
        modes=modes,
        retriever=args.retriever,
        records=reader.records(),
        constraints=constraints,
        exclude_unjudgeable=args.exclude_unjudgeable,
    )
    out_dir = Path(args.out or args.run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, out_dir / "report.json")
    with (out_dir / "retrievals.jsonl").open("w") as fh:
        for trace in traces:
            fh.write(json.dumps(trace, sort_keys=True, ensure_ascii=False) + "\n")
    print(render_report_table(report))
    print(f"report: {out_dir / 'report.json'}")
    return 0


def cmd_export_timeline(args) -> int:
    reader = RunReader(args.run_dir)
    timeline = export_timeline(reader.bank_log())
    out_dir = Path(args.out or args.run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "timeline.json").write_text(
        json.dumps(timeline.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    )
    (out_dir / "timeline.csv").write_text(timeline.to_csv())
    print(f"timeline: {out_dir / 'timeline.json'}, {out_dir / 'timeline.csv'}")
    return 0


def cmd_inspect(args) -> int:
    reader = RunReader(args.run_dir)
    bank = MemoryBank.from_dict(reader.episodic_dict())
    shown = 0
    for n in bank.narratives():
        if args.owner and normalize_label(args.owner) != normalize_label(n.owner):
            continue
        print(
            f"{n.owner} | {n.topic}  "
            f"(fragments={len(n.fragments)}, subplots={len(n.subplots)}, "
            f"last_bound={n.last_bound_iteration})"
        )
        consolidated = set()
        for s in n.subplots:
            consolidated.update(s.fragment_indices)
            print(f"  sub: {s.headline}")
            for f in n.subplot_fragments(s):
                print(f"    - [{f.timestamp:%Y-%m-%d %H:%M}] {f.text}")
        loose = [f for i, f in enumerate(n.fragments) if i not in consolidated]
        for f in loose:
            print(f"  - [{f.timestamp:%Y-%m-%d %H:%M}] {f.text}")
        shown += 1
    if shown == 0:
        print("(no narratives matched)")
    try:
        store = TripleStore.from_jsonl(reader.semantic_jsonl())
        if len(store):
            print(f"semantic facts: {len(store)}")
            for fact in store.facts():
                print(f"  {fact.render()}")
    except StorymemError:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storymem",
        description="Working-memory engine for long conversations: "
        "narrative episodic memory, a fact store, and coherence retrieval.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a LOCOMO-format file to the native format")
    p.add_argument("--transcript", required=True)
    p.add_argument("--scenario", type=int, default=0, help="scenario index (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("run", help="replay a transcript into a run directory")
    p.add_argument("--transcript", required=True)
    p.add_argument("--out", default=None, help="run directory (default runs/<scenario>)")
    _add_engine_flags(p)
    _add_backend_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("query", help="ask one question against a finished run")
    p.add_argument("run_dir")
    p.add_argument("--question", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--retriever", choices=["coherence", "embedding"], default="coherence")
    p.add_argument("--transcript", default=None, help="override transcript path")
    p.add_argument("--config", default=None)
    _add_backend_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="run the evaluation report over a finished run")
    p.add_argument("run_dir")
    p.add_argument("--questions", default=None,
                   help="native-format file with a questions section (default: transcript's)")
    p.add_argument("--modes", default=",".join(ALL_MODES),
                   help=f"comma list of {ALL_MODES}")
    p.add_argument("--retriever", choices=["coherence", "embedding"], default="coherence")
    p.add_argument("--constraints", default=None,
                   help="JSON list of {id, text, constraint_turn_ids}")
    p.add_argument("--exclude-unjudgeable", action="store_true", dest="exclude_unjudgeable")
    p.add_argument("--out", default=None, help="report directory (default: run dir)")
    p.add_argument("--transcript", default=None)
    p.add_argument("--config", default=None)
    _add_backend_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-timeline", help="export narrative growth series from the bank log")
    p.add_argument("run_dir")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_timeline)

    p = sub.add_parser("inspect", help="pretty-print the narrative tree of a run")
    p.add_argument("run_dir")
    p.add_argument("--owner", default=None, help="only narratives of this owner")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ReplayAborted, BackendError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StorymemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
