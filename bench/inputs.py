"""Seeded benchmark inputs: tiles of the bundled synthetic60 conversation.

A tiled conversation repeats the 60-turn fixture several times, but no
turn repeats word for word:

* each tile moves its session and turn dates forward by TILE_DAYS days,
  from a start date drawn from the seed;
* each tile renames the two speakers to names drawn from the seed, in
  turns, questions and gold answers alike;
* each tile's question evidence ids point at that tile's sessions;
* a question that names neither speaker gets the speaker of its first
  evidence turn appended ("..., according to <name>?"), so it too is
  the tile's own.

So every tile adds narratives, facts and questions of its own, and a
cache can only hit on repeats the program itself makes. The same seed
always gives the same transcript.
"""

from __future__ import annotations

import json
import random
import re
from datetime import datetime, timedelta
from pathlib import Path

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "synthetic60.json"
DEFAULT_TILES = 10
TILE_DAYS = 28
_FIXTURE_SPEAKERS = ("Ava", "Ben")
_EVIDENCE_ID = re.compile(r"^s(\d+)t(\d+)$")

# Single capitalized words that occur nowhere in the fixture, so renaming
# never collides with other text and every name is one whitespace token.
NAME_POOL = (
    "Aiden", "Bella", "Caleb", "Daria", "Elias", "Fiona", "Gavin", "Hazel",
    "Isaac", "Jonah", "Keira", "Liam", "Maeve", "Nolan", "Olive", "Pablo",
    "Quinn", "Rhea", "Silas", "Tessa", "Umar", "Vera", "Wyatt", "Ximena",
    "Yusuf", "Zara", "Arlo", "Beatrix", "Cyrus", "Delia", "Emeric", "Freya",
    "Gideon", "Hattie", "Ivo", "Juno", "Kaspar", "Linnea", "Milo", "Nadia",
)


def _rename(text: str, names: dict[str, str]) -> str:
    for old, new in names.items():
        text = re.sub(rf"\b{old}\b", new, text)
    return text


def _shift(stamp: str, days: int) -> str:
    return (datetime.fromisoformat(stamp) + timedelta(days=days)).isoformat()


def tiled_conversation(seed: int) -> dict:
    """The native-format transcript dict of DEFAULT_TILES renamed, shifted tiles."""
    base = json.loads(FIXTURE.read_text())
    rng = random.Random(seed)
    drawn = rng.sample(NAME_POOL, 2 * DEFAULT_TILES)
    start_days = rng.randrange(365)
    per_tile = len(base["sessions"])

    sessions: list[dict] = []
    questions: list[dict] = []
    for tile in range(DEFAULT_TILES):
        names = dict(zip(_FIXTURE_SPEAKERS, drawn[2 * tile: 2 * tile + 2]))
        days = start_days + tile * TILE_DAYS
        for session in base["sessions"]:
            sessions.append({
                "session_id": f"session_{len(sessions) + 1}",
                "datetime": _shift(session["datetime"], days),
                "turns": [
                    {
                        "speaker": names.get(t["speaker"], t["speaker"]),
                        "datetime": _shift(t["datetime"], days),
                        "text": _rename(t["text"], names),
                    }
                    for t in session["turns"]
                ],
            })
        offset = tile * per_tile
        for q in base["questions"]:
            evidence = []
            for ev in q["evidence_turn_ids"]:
                m = _EVIDENCE_ID.match(ev)
                evidence.append(f"s{int(m.group(1)) + offset}t{m.group(2)}")
            text = _rename(q["text"], names)
            if not any(re.search(rf"\b{n}\b", text) for n in names.values()):
                m = _EVIDENCE_ID.match(q["evidence_turn_ids"][0])
                turn = base["sessions"][int(m.group(1)) - 1]["turns"][int(m.group(2)) - 1]
                text = f"{text.rstrip('?')}, according to {names[turn['speaker']]}?"
            questions.append({
                "question_id": f"t{tile + 1}{q['question_id']}",
                "text": text,
                "category": q["category"],
                "gold_answer": _rename(q["gold_answer"], names),
                "evidence_turn_ids": evidence,
            })
    return {
        "scenario_id": f"synthetic60-x{DEFAULT_TILES}-seed{seed}",
        "sessions": sessions,
        "questions": questions,
    }


def conversation_json(seed: int) -> str:
    """tiled_conversation(seed) as the text of a native transcript file."""
    return json.dumps(tiled_conversation(seed), indent=1) + "\n"
