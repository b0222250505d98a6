#!/usr/bin/env python3
"""Generate the bundled fixtures under fixtures/.

Produces:

  synthetic60.json      - a 60-turn, 3-session native transcript with QA
                          annotations, shaped so the rule backend forms
                          clean narratives and answers every question
  script_table.json     - completion table covering every prompt issued
                          by the bundled replays (B=0, B=4, rapid:3 and
                          none policies) and their evaluations with the
                          coherence and the embedding retriever
  contrast_bank.json    - handcrafted narrative bank where coherence
                          choices and headline-embedding similarity
                          disagree on the best story
  contrast_queries.json - the probe questions for that bank, with the
                          expected pick per retriever

Tables are recorded by driving the real pipeline with the rule backend
wrapped in a recorder, so every digest matches what a scripted run
renders. The script re-runs the replay against its own table and fails
loudly if any artifact drifts.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

from storymem.backends import _FACT_HINTS, Backend, RecordingBackend, RuleBackend, ScriptedBackend
from storymem.engine import EngineConfig, MemoryEngine, run_replay
from storymem.episodic import MemoryBank
from storymem.evaluate import DEFAULT_K_SWEEP, run_evaluation
from storymem.parsing import RetrievalChoice, to_canonical
from storymem.prompts import PromptKind
from storymem.reasoner import Reasoner
from storymem.retrieval import (
    HashedBagEmbedding,
    retrieve_coherence,
    retrieve_embedding,
    similarity_report,
)
from storymem.runio import RunReader
from storymem.semantic import TripleStore
from storymem.transcript import ingest_native

logger = logging.getLogger("generate_fixtures")

OPENERS = (
    "Quick update on",
    "More about",
    "Another update on",
    "Thinking more about",
    "One more update on",
    "Final thought regarding",
)

SPEAKERS = ("Ava", "Ben")

SESSION_TIMES = ("2023-05-01T09:00:00", "2023-05-08T18:30:00", "2023-05-16T11:15:00")

# Ten topics of six turns each. Compact topics carry the facts the
# questions target; verbose topics are long filler with a disjoint
# vocabulary and deliberately no fact-hint phrasing, so retrieval stays
# small relative to the full history.
TOPICS = (
    ("the garden project", "compact", (
        "I compared a few heirloom seed packets this morning and the first "
        "variety I planted was Cherokee Purple tomatoes.",
        "I cleared the raised beds behind the shed and mixed in two bags of "
        "compost before the rain arrived.",
        "the tomato seedlings sprouted in neat rows and I labeled every tray "
        "with waterproof marker tape.",
        "the soil test came back and the nitrogen level is lower than the "
        "guide recommends, so I ordered feather meal.",
        "so the vines can climb when summer arrives, I used bamboo poles to "
        "build a sturdy trellis.",
        "because she planted the very first seeds, the first ripe fruit is "
        "promised to Ava.",
    )),
    ("the coastal road trip", "verbose", (
        "we finally settled the loop for late June, heading north along the "
        "cliff highway with overnight stops in three harbor towns, and I "
        "spent the whole evening comparing motel reviews, tide charts, and "
        "the mileage between every fuel stop on the map.",
        "I want at least one slow morning in a fishing village where we do "
        "nothing but drink coffee on a pier, watch the boats unload, and "
        "argue gently over whether the fog will burn off before noon, "
        "because that, honestly, remains the entire point.",
        "the rental quote came in under budget if we return the car to the "
        "same depot, so I shifted our reservation, printed the confirmation "
        "twice, and taped one copy inside the glove compartment folder with "
        "the emergency contacts and the insurance card.",
        "my cousin swears the southern detour adds an hour of switchbacks "
        "but rewards you with an empty beach where seals haul out at low "
        "tide, and after staring at the satellite view for twenty minutes I "
        "am fully persuaded we should take it.",
        "I packed a canvas tote with the thermos, two paper maps, the tire "
        "gauge, and the little notebook we use for logging roadside diners, "
        "because half the fun of these drives comes from rating every slice "
        "of pie against the reigning champion.",
        "whatever else we plan, I refuse to lock in the sunset hours, since "
        "our most remembered moments happened when we pulled over without a "
        "reason and stayed until the headlights of the town below came on "
        "one by one.",
    )),
    ("the marathon training", "compact", (
        "my longest run so far covered eighteen kilometers along the river "
        "path without any knee pain.",
        "I finally replaced my worn sneakers and the new pair has a wider "
        "toe box for downhill stretches.",
        "during interval sessions my average pace dropped to five minutes "
        "forty seconds per kilometer.",
        "the entry confirmation arrived and my bib number is 2741 for the "
        "autumn race.",
        "I practiced drinking from paper cups at speed so the aid stations "
        "will not slow me down.",
        "the taper week plan says easy jogs only, and honestly the rest "
        "feels stranger than the miles.",
    )),
    ("the kitchen renovation", "verbose", (
        "the contractor walked the space with us this morning and sketched "
        "a layout that steals thirty centimeters from the hallway closet to "
        "square off the pantry corner, which sounds small until you see how "
        "much counter landing space it unlocks beside the stove.",
        "we compared quartz and butcher block for the island and I keep "
        "flip-flopping, because the quartz shrugs off stains while the wood "
        "invites people to set down a cutting board and actually cook, "
        "which feels closer to the kitchen we keep describing to each "
        "other.",
        "demolition day got penciled in for the second week of July, and "
        "the dust plan involves zipper walls, a rented air scrubber, and "
        "relocating the coffee machine to the bookshelf upstairs so "
        "mornings survive the chaos mostly intact.",
        "the electrician flagged that the old panel cannot take an "
        "induction range without a subfeed upgrade, so we either budget for "
        "the panel work now or keep the gas line and revisit the whole "
        "question in five years when the roof comes due.",
        "tile samples arrived and the zellige squares in the sample box "
        "vary wildly in tone, which apparently you embrace rather than "
        "fight, judging by every install photo the showroom sent over this "
        "afternoon.",
        "after all the spreadsheets, what settled the cabinet debate "
        "happened to be the drawer test, pulling every display drawer in "
        "the showroom until only one brand survived our toddler-strength "
        "yanking without wobbling.",
    )),
    ("the pottery class", "compact", (
        "my first bowl collapsed on the wheel but the instructor showed me "
        "how to center the clay properly.",
        "I trimmed the foot of my mug today and learned that leather-hard "
        "timing makes all the difference.",
        "the studio restocked the corner shelf and my favorite glaze is the "
        "speckled seafoam.",
        "to fit the studio calendar, pieces now come out the morning after "
        "firing because the kiln schedule moved to Thursdays.",
        "I carved a leaf pattern into the serving dish before it dried, and "
        "the lines stayed crisp.",
        "eight weeks in, my shelf now holds a lopsided vase, one bowl, and "
        "two mugs.",
    )),
    ("the mystery novel", "verbose", (
        "chapter nine finally clicked once I let the detective miss the "
        "obvious clue on purpose, and now the midpoint reversal lands "
        "exactly where the outline wanted it, though getting there cost me "
        "three discarded drafts and an entire pot of tea.",
        "I read the new pages on the train and the forged letter twist "
        "caught me completely off guard, which almost never happens, so "
        "either I am getting slower or the misdirection around the alibi "
        "works better than you think.",
        "my critique group split evenly over the coroner scene, half "
        "wanting the autopsy details trimmed and half insisting the "
        "specificity sells the period setting, so I am keeping the bone saw "
        "and cutting the weather paragraph instead.",
        "if the sister mailed the letter before the storm closed the pass, "
        "the timeline only holds when the postmark comes from the valley "
        "office, and I genuinely cannot tell whether that counts as a plot "
        "hole or a clue you are saving for the reveal.",
        "I rewrote the interrogation so the inspector never raises his "
        "voice, and the menace that crept into those quiet exchanges "
        "surprised even me, the pages almost directing themselves once the "
        "shouting disappeared.",
        "sleep on the ending you already drafted, because the version where "
        "the culprit confesses by leaving the stolen watch on the mantel "
        "says more than any courtroom scene could, and it trusts your "
        "reader the way the whole book keeps trusting them.",
    )),
    ("the chess club", "compact", (
        "twelve people showed up for the Tuesday meetup and we finally had "
        "enough boards for everyone.",
        "our new coach is Marta Ionescu and her favorite opening is the "
        "Caro-Kann Defence.",
        "I drew my rapid game on Saturday after holding a rook endgame for "
        "forty moves.",
        "the pairing sheet went up and my next tournament opponent is rated "
        "1850.",
        "I won the casual blitz bracket and the prize was a wooden "
        "scorebook.",
        "two points behind the library team, the league table now puts us "
        "third overall.",
    )),
    ("the birdwatching expedition", "verbose", (
        "the wetland hides reopened after the spring closure, and the "
        "volunteer at the gate whispered that a pair of marsh harriers "
        "nests within scope distance of the second platform, so we are "
        "aiming for the dawn slot before the school groups arrive.",
        "my checklist app synced the county records overnight and "
        "apparently a glossy ibis turned up at the northern lagoon twice "
        "this month, which would make it a lifer for me, assuming the mud "
        "lets us anywhere near the viewing mound.",
        "I cleaned both pairs of binoculars, replaced the eyecup that "
        "cracked last year, and packed the folding stools, the thermos "
        "sleeve, and the laminated wader chart that saved us so much "
        "squinting on the estuary walk.",
        "the tide tables put the strongest shorebird push at half past "
        "seven, which collides with the harrier dawn slot, so the "
        "compromise might be splitting up for an hour and comparing notes "
        "over breakfast at the visitor centre.",
        "the forecast drifted toward a still, overcast morning, which the "
        "warden claims makes the waders linger on the near scrape, and I am "
        "choosing to believe him because I want the curlew photographs more "
        "than I want sunshine.",
        "whatever we tick or miss, bring the sketchbook this time, since "
        "the fieldnotes you drew at the estuary say more about that morning "
        "than the hundred photographs I took and never opened again.",
    )),
    ("the sourdough experiment", "compact", (
        "after the morning feed it doubled in five hours, so I officially "
        "named the starter Bubbles.",
        "my first loaf came out dense, so I am switching to a ratio with "
        "more whole rye flour.",
        "the crumb opened up beautifully once I stretched the dough every "
        "half hour.",
        "the bakery book says oven spring improves when the dutch oven is "
        "preheated for a full hour.",
        "I milled rye fresh at the co-op and the loaf finally sang as it "
        "cooled.",
        "with steam for the opening twenty, we agreed the crust was best at "
        "forty minutes.",
    )),
    ("the lighthouse documentary", "verbose", (
        "episode three follows the last keeper families through the "
        "automation years, and the archival footage of supply boats in "
        "heavy swell makes our ferry crossings look like pond sailing, I "
        "gasped twice before the title card.",
        "the interview with the lens restorer stayed with me, the way she "
        "described rebalancing the original clockwork so the beam sweeps at "
        "the exact period the charts promise, a rhythm ships trusted for a "
        "century without ever seeing the mechanism.",
        "I paused the storm sequence to read the log entries they "
        "photographed, and the handwriting stays perfectly steady through "
        "the entry describing waves over the gallery rail, which says "
        "everything about the people who kept those lamps lit.",
        "the sound design deserves an award, the foghorn answering itself "
        "off the cliffs while the narrator lists the stations that went "
        "dark, and I rewound because I missed a whole minute just "
        "listening.",
        "the producers posted a map of every station featured this season, "
        "and our coastal loop passes within a short walk of two of them, "
        "including the tower with the red daymark from the credits.",
        "the finale ends on the keeper's daughter flipping the modern "
        "breaker at dusk, the lamp lighting anyway, automated and "
        "indifferent, and somehow that quiet click carries more weight than "
        "any of the storms.",
    )),
)

# (question_id, category, text, gold answer, evidence turn ids)
QUESTIONS = (
    ("q1", "single_hop",
     "Which tomato variety did Ava say she planted first in the garden project?",
     "Cherokee Purple tomatoes", ["s1t1"]),
    ("q2", "single_hop",
     "What bib number did Ben get for the autumn race in the marathon training?",
     "2741", ["s1t16"]),
    ("q3", "single_hop",
     "Which glaze did Ava pick as her favorite in the pottery class?",
     "the speckled seafoam", ["s2t7"]),
    ("q4", "multi_hop",
     "What opening does coach Ionescu favor in the chess club?",
     "the Caro-Kann Defence", ["s2t18"]),
    ("q5", "temporal",
     "Which weekday did the pottery class kiln schedule move to?",
     "Thursdays", ["s2t8"]),
    ("q6", "single_hop",
     "What did Ava say she named the sourdough starter?",
     "Bubbles", ["s3t9"]),
    ("q7", "commonsense",
     "What final thought did Ben share regarding the garden project?",
     "the first ripe fruit is promised to Ava", ["s1t6"]),
    ("q8", "multi_hop",
     "Which pieces does Ben keep on his pottery class shelf after eight weeks?",
     "a lopsided vase, one bowl, and two mugs", ["s2t10"]),
    ("q9", "temporal",
     "What average pace did Ava reach during marathon training intervals?",
     "five minutes forty seconds per kilometer", ["s1t15"]),
    ("q10", "commonsense",
     "How long did Ben think the sourdough crust was best baked for?",
     "forty minutes", ["s3t14"]),
    ("q11", "multi_hop",
     "Where does the chess club stand in the league table according to Ben?",
     "third overall", ["s3t2"]),
    ("q12", "single_hop",
     "What did Ben order after the garden project soil test came back low on nitrogen?",
     "feather meal", ["s1t4"]),
    ("q13", "multi_hop",
     "What running gear and race details has Ben shared about the marathon training?",
     "bib number 2741 for the autumn race", ["s1t14", "s1t16"]),
)

# Narrative bank where the reasoned choice and the headline-similarity
# choice disagree: each plot headline names the long arc in abstract
# terms, while one subplot headline shares surface words with the probe
# question without answering it.
CONTRAST_ROWS = (
    {
        "question": "What is Caroline's identity?",
        "owner": "Caroline",
        "plot": "LGBTQ Journey, Community Support, Personal Growth, and Mentorship",
        "bait": "Caroline's Paintings Exploring Identity, Unity and Self-Acceptance",
        "fragments": (
            "Caroline: I came out to my parents back in high school and finding the right words took me years.",
            "Caroline: The support group I help run matched four newcomers with mentors this month.",
            "Caroline: My latest canvas series plays with mirrored figures, all about identity and unity.",
            "Caroline: Hanging the self-acceptance piece in the gallery window felt like closing a circle.",
        ),
        "bait_interval": (2, 3),
    },
    {
        "question": "What does John like about LeBron James?",
        "owner": "John",
        "plot": "Professional Basketball Journey and Team Development with Minnesota Wolves",
        "bait": "Meeting LeBron James and Live Game Experience",
        "fragments": (
            "John: Training camp with the Wolves starts Monday and the rookie class looks hungry.",
            "John: Film sessions run long but the coaching staff keeps every drill purposeful.",
            "John: I finally met LeBron James courtside and the live game energy was unreal.",
            "John: What stays with me is how he reads the floor two passes ahead of everyone.",
        ),
        "bait_interval": (2, 3),
    },
    {
        "question": "What movies have both Joanna and Nate seen?",
        "owner": "Joanna",
        "plot": "Movie Preferences, Recommendations and Viewing Experiences",
        "bait": "Joanna completes third screenplay while receiving encouragement from Nate",
        "fragments": (
            "Joanna: Nate and I rewatched the whole noir box set over the rainy weekend.",
            "Joanna: We both finally saw the restored cut everyone recommends and argued about the ending for hours.",
            "Joanna: I typed the last page of my third screenplay tonight.",
            "Joanna: Nate read the draft in one sitting and his encouragement kept me from shelving it.",
        ),
        "bait_interval": (2, 3),
    },
)


def synthetic_transcript_dict() -> dict:
    turn_no = 0
    sessions = []
    for si, session_start in enumerate(SESSION_TIMES, start=1):
        start = datetime.fromisoformat(session_start)
        turns = []
        for ti in range(1, 21):
            topic_idx, j = divmod(turn_no, 6)
            phrase, _, bodies = TOPICS[topic_idx]
            turns.append({
                "speaker": SPEAKERS[j % 2],
                "datetime": (start + timedelta(minutes=3 * (ti - 1))).isoformat(),
                "text": f"{OPENERS[j]} {phrase}: {bodies[j]}",
            })
            turn_no += 1
        sessions.append({
            "session_id": f"session_{si}",
            "datetime": session_start,
            "turns": turns,
        })
    questions = [
        {
            "question_id": qid,
            "text": text,
            "category": category,
            "gold_answer": gold,
            "evidence_turn_ids": evidence,
        }
        for qid, category, text, gold, evidence in QUESTIONS
    ]
    return {"scenario_id": "synthetic-60", "sessions": sessions, "questions": questions}


def check_content_rules() -> None:
    """Verbose filler must never look like a fact to the rule backend."""
    for phrase, kind, bodies in TOPICS:
        if kind != "verbose":
            continue
        for j, body in enumerate(bodies):
            lowered = f" {body.casefold()} "
            hits = [h for h in _FACT_HINTS if h in lowered]
            if hits:
                raise SystemExit(f"verbose turn {phrase!r}[{j}] contains fact hints {hits}")


def merge_table(dst: dict, src: dict) -> None:
    for kind, entries in src.items():
        bucket = dst.setdefault(kind, {})
        for digest, raw in entries.items():
            if digest in bucket and bucket[digest] != raw:
                raise SystemExit(f"conflicting completions for {kind}/{digest}")
            bucket[digest] = raw


def record_replay(config: EngineConfig, transcript, transcript_path: Path, out_dir: Path):
    backend = RecordingBackend(RuleBackend())
    engine = MemoryEngine(config, backend)
    paths = run_replay(engine, transcript, out_dir, transcript_path=transcript_path)
    return engine, backend, paths


def record_eval(engine: MemoryEngine, transcript, records: list[dict]) -> dict:
    """Run the evaluation with each retriever, then ask and retrieve each
    question at every k of the sweep outside it: an evaluation asks for
    one ranking as deep as its sweep, while `storymem query` and direct
    ask/retrieve calls ask for their own k. Returns the coherence report."""
    report, _ = run_evaluation(engine, transcript.questions, records=records)
    run_evaluation(engine, transcript.questions, retriever="embedding", records=records)
    for q in transcript.questions:
        engine.ask(q.text)
        for k in DEFAULT_K_SWEEP:
            engine.retrieve(q.text, k=k)
    return report


def build_contrast_bank() -> MemoryBank:
    bank = MemoryBank()
    base = datetime(2023, 4, 3, 10, 0)
    for row_idx, row in enumerate(CONTRAST_ROWS):
        narrative = bank.get_or_create(row["owner"], row["plot"])
        for frag_idx, text in enumerate(row["fragments"]):
            bank.extend(
                row["owner"],
                row["plot"],
                [text],
                timestamp=base + timedelta(days=row_idx, minutes=5 * frag_idx),
                turn_ids=[f"c{row_idx + 1}t{frag_idx + 1}"],
                iteration=4,
            )
        lo, hi = row["bait_interval"]
        bank.consolidate(narrative, 0, [(row["bait"], lo, hi)])
    return bank


class _CannedBackend(Backend):
    """Returns one fixed completion; used to seed handcrafted choices."""

    name = "canned"

    def __init__(self, raw: str) -> None:
        self._raw = raw

    def complete(self, kind: PromptKind, rendered: str) -> str:
        return self._raw


def record_contrast(bank: MemoryBank) -> tuple[dict, list[dict]]:
    table: dict = {}
    queries = []
    plots = [(row["owner"], row["plot"]) for row in CONTRAST_ROWS]
    embedder = HashedBagEmbedding()
    for idx, row in enumerate(CONTRAST_ROWS):
        other = plots[(idx + 1) % len(plots)]
        raw = to_canonical(PromptKind.COHERENCE_RETRIEVE, [
            RetrievalChoice(owner=row["owner"], topic=row["plot"]),
            RetrievalChoice(owner=other[0], topic=other[1]),
        ])
        backend = RecordingBackend(_CannedBackend(raw))
        result = retrieve_coherence(bank, TripleStore(), Reasoner(backend), row["question"], k=2)
        merge_table(table, backend.table)
        top = result.blocks[0]
        assert (top.kind, top.topic) == ("plot", row["plot"]), row["question"]

        emb = retrieve_embedding(bank, embedder, row["question"], k=2)
        emb_top = emb.blocks[0]
        assert (emb_top.kind, emb_top.topic) == ("subplot", row["bait"]), row["question"]

        sim_plot, sim_bait = similarity_report(
            row["question"], row["plot"], row["bait"], embedder
        )
        assert sim_plot < sim_bait, (row["question"], sim_plot, sim_bait)
        queries.append({
            "question": row["question"],
            "coherence_top": {"owner": row["owner"], "topic": row["plot"], "kind": "plot"},
            "embedding_top": {"owner": row["owner"], "headline": row["bait"], "kind": "subplot"},
            "headline_similarity": {"plot": round(sim_plot, 4), "bait": round(sim_bait, 4)},
        })
    return table, queries


def strip_latencies(records_path: Path) -> list[dict]:
    rows = []
    for line in records_path.read_text().splitlines():
        row = json.loads(line)
        row.pop("online_latency", None)
        row.pop("offline_latency", None)
        rows.append(row)
    return rows


def verify_scripted_reproduction(script_path: Path, transcript, transcript_path: Path,
                                 recorded_paths, config: EngineConfig, work: Path) -> None:
    engine = MemoryEngine(config, ScriptedBackend.from_path(script_path))
    replay_dir = work / "verify-scripted"
    try:
        paths = run_replay(engine, transcript, replay_dir, transcript_path=transcript_path)
    finally:
        engine.close()
    for name in ("episodic", "semantic", "exchanges", "config"):
        a = getattr(recorded_paths, name).read_bytes()
        b = getattr(paths, name).read_bytes()
        if name == "config":
            # backend description legitimately differs between runs
            da, db = json.loads(a), json.loads(b)
            da.pop("backend"), db.pop("backend")
            if da != db:
                raise SystemExit("config drift between recorded and scripted run")
            continue
        if a != b:
            raise SystemExit(f"{name} differs between recorded and scripted run")
    if strip_latencies(recorded_paths.records) != strip_latencies(paths.records):
        raise SystemExit("records differ between recorded and scripted run")
    if recorded_paths.bank_log.read_bytes() != paths.bank_log.read_bytes():
        raise SystemExit("bank log differs between recorded and scripted run")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="fixtures", help="output directory")
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    check_content_rules()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    transcript_path = out_dir / "synthetic60.json"
    transcript_path.write_text(
        json.dumps(synthetic_transcript_dict(), indent=2, ensure_ascii=False) + "\n"
    )
    transcript = ingest_native(transcript_path)
    assert transcript.turn_count() == 60, transcript.turn_count()

    table: dict = {}
    configs = {
        "b0": EngineConfig(B=0),
        "b4": EngineConfig(B=4),
        "rapid3": EngineConfig(B=0, consolidation_policy="rapid:3"),
        "none": EngineConfig(B=0, consolidation_policy="none"),
    }
    with tempfile.TemporaryDirectory(prefix="storymem-fixtures-") as tmp:
        work = Path(tmp)
        recorded_b0_paths = None
        for label, config in configs.items():
            engine, backend, paths = record_replay(
                config, transcript, transcript_path, work / f"run-{label}"
            )
            records = RunReader(paths.root).records()
            try:
                if label in ("b0", "b4"):
                    report = record_eval(engine, transcript, records)
                    cov2 = report["coverage"]["2"]["overall"]
                    jsc = report["jscore"]["overall"]
                    comp = report["compression"]["median"]
                    print(f"[{label}] coverage@2={cov2:.1f}% jscore={jsc:.1f}% "
                          f"compression median={comp:.1f}%")
                    if label == "b0":
                        recorded_b0_paths = paths
                        if cov2 < 100.0 or jsc < 100.0:
                            raise SystemExit(f"{label}: fixture questions not clean")
                        if comp < 90.0:
                            raise SystemExit(f"{label}: compression median below bar")
                else:
                    cons = sum(r["consolidations"] for r in records)
                    print(f"[{label}] consolidations={cons}")
            finally:
                engine.close()
            merge_table(table, backend.table)

        contrast_table, queries = record_contrast(build_contrast_bank())
        merge_table(table, contrast_table)

        script_path = out_dir / "script_table.json"
        script_path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

        verify_scripted_reproduction(
            script_path, transcript, transcript_path, recorded_b0_paths,
            configs["b0"], work,
        )

    (out_dir / "contrast_bank.json").write_text(
        json.dumps(build_contrast_bank().to_dict(), indent=2, ensure_ascii=False) + "\n"
    )
    (out_dir / "contrast_queries.json").write_text(
        json.dumps(queries, indent=2, ensure_ascii=False) + "\n"
    )

    sizes = {k: len(v) for k, v in sorted(table.items())}
    print(f"script table entries by kind: {sizes}")
    print(f"wrote {transcript_path}, {script_path}, contrast fixtures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
