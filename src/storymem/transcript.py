"""Conversation transcript ingestion and replay.

Two on-disk formats are supported:

* LOCOMO-style JSON: per-scenario objects with a ``conversation`` block
  holding ``session_N`` turn lists and ``session_N_date_time`` strings,
  plus ``qa`` annotations.
* The native format documented in the README: ``{scenario_id, sessions[],
  questions[]}`` where each session is ``{session_id, datetime, turns[]}``.

Turn identifiers are deterministic ``s{session}t{turn}`` strings derived
from 1-based positions, so evidence annotations stay valid across
re-ingestion of the same file.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterator

from .errors import EmptyTranscript, MalformedInput

logger = logging.getLogger(__name__)

CATEGORIES = ("single_hop", "multi_hop", "temporal", "commonsense", "other")

# LOCOMO annotates categories as integers; this follows the common
# evaluation convention for that dataset.
_LOCOMO_CATEGORY = {
    1: "multi_hop",
    2: "temporal",
    3: "commonsense",
    4: "single_hop",
}

_SESSION_KEY = re.compile(r"^session_(\d+)$")
_DIA_ID = re.compile(r"^D(\d+):(\d+)$")

_DATETIME_FORMATS = (
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
    "%I:%M %p on %d %B, %Y",
    "%I:%M %p on %d %B %Y",
    "%d %B, %Y",
    "%d %B %Y",
)


@dataclass(frozen=True)
class Turn:
    """One utterance with a stable identifier for evidence tracking."""

    turn_id: str
    speaker: str
    timestamp: datetime
    text: str
    session_id: str


@dataclass(frozen=True)
class EvalQuestion:
    question_id: str
    text: str
    category: str
    gold_answer: str
    evidence_turn_ids: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class Session:
    session_id: str
    timestamp: datetime
    turns: tuple[Turn, ...]


@dataclass(frozen=True)
class Transcript:
    """An immutable multi-session conversation plus its QA annotations."""

    scenario_id: str
    sessions: tuple[Session, ...]
    questions: tuple[EvalQuestion, ...] = ()

    @property
    def turns(self) -> tuple[Turn, ...]:
        return tuple(t for s in self.sessions for t in s.turns)

    def turn_ids(self) -> set[str]:
        return {t.turn_id for t in self.turns}

    def turn_count(self) -> int:
        return sum(len(s.turns) for s in self.sessions)


def parse_datetime(raw: str, fallback: datetime | None = None) -> datetime:
    """Parse a session datetime string, trying the known formats.

    Falls back to the supplied value (or epoch) so that malformed dates
    degrade to a deterministic ordering rather than an ingest failure.
    """
    text = raw.strip()
    for fmt in _DATETIME_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        pass
    if fallback is None:
        fallback = datetime(1970, 1, 1)
    logger.warning("unparsable datetime %r, using fallback %s", raw, fallback)
    return fallback


def normalize_category(raw) -> str:
    """Map a raw category annotation onto the fixed category set."""
    if isinstance(raw, bool):
        return "other"
    if isinstance(raw, int):
        return _LOCOMO_CATEGORY.get(raw, "other")
    if isinstance(raw, str):
        key = raw.strip().lower().replace("-", "_").replace(" ", "_")
        if key in CATEGORIES:
            return key
        if key in ("open_domain", "open_domain_knowledge", "world_knowledge"):
            return "commonsense"
        if key.isdigit():
            return _LOCOMO_CATEGORY.get(int(key), "other")
    return "other"


def turn_id_for(session_index: int, turn_index: int) -> str:
    """Deterministic id from 1-based session and turn positions."""
    return f"s{session_index}t{turn_index}"


# --- LOCOMO ingestion ---------------------------------------------------------


def _locomo_turn_text(entry: dict) -> str:
    text = (entry.get("text") or "").strip()
    caption = (entry.get("blip_caption") or "").strip()
    if text and caption:
        return f"{text} [shared a photo: {caption}]"
    if text:
        return text
    if caption:
        return f"[shared a photo: {caption}]"
    return ""


def _locomo_sessions(conv: dict) -> list[Session]:
    indices = sorted(
        int(m.group(1))
        for key in conv
        if (m := _SESSION_KEY.match(key)) and isinstance(conv[key], list)
    )
    sessions: list[Session] = []
    prev_ts = datetime(1970, 1, 1)
    for si in indices:
        raw_dt = conv.get(f"session_{si}_date_time", "")
        ts = parse_datetime(str(raw_dt), fallback=prev_ts + timedelta(days=1))
        if ts < prev_ts:
            # LOCOMO occasionally carries unordered/bad dates; clamp so the
            # session ordering invariant holds.
            logger.warning("session %d date %r precedes prior session; clamping", si, raw_dt)
            ts = prev_ts
        prev_ts = ts
        turns: list[Turn] = []
        for ti, entry in enumerate(conv[f"session_{si}"], start=1):
            if not isinstance(entry, dict):
                raise MalformedInput(f"session_{si} entry {ti} is not an object")
            text = _locomo_turn_text(entry)
            if not text:
                logger.warning("skipping empty turn %s", turn_id_for(si, ti))
                continue
            tid = turn_id_for(si, ti)
            dia = entry.get("dia_id")
            if isinstance(dia, str) and (m := _DIA_ID.match(dia.strip())):
                tid = turn_id_for(int(m.group(1)), int(m.group(2)))
            turns.append(
                Turn(
                    turn_id=tid,
                    speaker=str(entry.get("speaker", "")).strip() or "unknown",
                    timestamp=ts,
                    text=text,
                    session_id=f"session_{si}",
                )
            )
        sessions.append(Session(session_id=f"session_{si}", timestamp=ts, turns=tuple(turns)))
    return sessions


def _locomo_questions(qa_items: list, known_ids: set[str]) -> list[EvalQuestion]:
    questions = []
    for qi, item in enumerate(qa_items, start=1):
        if not isinstance(item, dict):
            continue
        evidence: set[str] = set()
        for ev in item.get("evidence", []) or []:
            ev = str(ev).strip()
            m = _DIA_ID.match(ev)
            tid = turn_id_for(int(m.group(1)), int(m.group(2))) if m else ev
            if tid in known_ids:
                evidence.add(tid)
            else:
                logger.warning("question %d: dropping unresolvable evidence %r", qi, ev)
        questions.append(
            EvalQuestion(
                question_id=f"q{qi}",
                text=str(item.get("question", "")).strip(),
                category=normalize_category(item.get("category")),
                gold_answer=str(item.get("answer", item.get("adversarial_answer", ""))).strip(),
                evidence_turn_ids=frozenset(evidence),
            )
        )
    return questions


def ingest_locomo(path: str | Path, scenario_index: int = 0) -> Transcript:
    """Load one scenario from a LOCOMO-format JSON file.

    The file may hold a list of scenarios or a single scenario object;
    ``scenario_index`` selects one when a list is given.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read LOCOMO file {path}: {exc}") from exc

    if isinstance(raw, dict) and "conversation" in raw:
        scenarios = [raw]
    elif isinstance(raw, list):
        scenarios = raw
    elif isinstance(raw, dict):
        scenarios = list(raw.values())
    else:
        raise MalformedInput(f"{path}: unrecognized LOCOMO structure")
    if not scenarios:
        raise EmptyTranscript(f"{path}: no scenarios")
    if not 0 <= scenario_index < len(scenarios):
        raise MalformedInput(f"{path}: scenario index {scenario_index} out of range")

    scen = scenarios[scenario_index]
    conv = scen.get("conversation")
    if not isinstance(conv, dict):
        raise MalformedInput(f"{path}: scenario missing 'conversation' block")
    sessions = _locomo_sessions(conv)
    if sum(len(s.turns) for s in sessions) == 0:
        raise EmptyTranscript(f"{path}: scenario has zero turns")

    scenario_id = str(scen.get("sample_id", scen.get("id", f"locomo-{scenario_index}")))
    transcript = Transcript(scenario_id=scenario_id, sessions=tuple(sessions))
    questions = _locomo_questions(scen.get("qa", []) or [], transcript.turn_ids())
    return Transcript(
        scenario_id=scenario_id, sessions=tuple(sessions), questions=tuple(questions)
    )


# --- native format --------------------------------------------------------------


def ingest_native(path: str | Path) -> Transcript:
    """Load the native transcript format (schema documented in README)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read transcript {path}: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("sessions"), list):
        raise MalformedInput(f"{path}: expected an object with a 'sessions' list")

    sessions: list[Session] = []
    prev_ts = datetime(1970, 1, 1)
    for si, sess in enumerate(raw["sessions"], start=1):
        if not isinstance(sess, dict) or not isinstance(sess.get("turns"), list):
            raise MalformedInput(f"{path}: session {si} malformed")
        ts = parse_datetime(str(sess.get("datetime", "")), fallback=prev_ts + timedelta(days=1))
        if ts < prev_ts:
            raise MalformedInput(f"{path}: session {si} datetime precedes earlier session")
        prev_ts = ts
        session_id = str(sess.get("session_id", f"session_{si}"))
        turns = []
        for ti, t in enumerate(sess["turns"], start=1):
            if not isinstance(t, dict):
                raise MalformedInput(f"{path}: session {si} turn {ti} malformed")
            text = str(t.get("text", "")).strip()
            if not text:
                logger.warning("skipping empty turn %s", turn_id_for(si, ti))
                continue
            turn_ts = ts
            if t.get("datetime"):
                turn_ts = parse_datetime(str(t["datetime"]), fallback=ts)
            turns.append(
                Turn(
                    turn_id=turn_id_for(si, ti),
                    speaker=str(t.get("speaker", "")).strip() or "unknown",
                    timestamp=turn_ts,
                    text=text,
                    session_id=session_id,
                )
            )
        sessions.append(Session(session_id=session_id, timestamp=ts, turns=tuple(turns)))

    transcript = Transcript(
        scenario_id=str(raw.get("scenario_id", path.stem)), sessions=tuple(sessions)
    )
    if transcript.turn_count() == 0:
        raise EmptyTranscript(f"{path}: zero turns")

    known = transcript.turn_ids()
    questions = []
    for qi, q in enumerate(raw.get("questions", []) or [], start=1):
        evidence = set()
        for ev in q.get("evidence_turn_ids", []) or []:
            if ev in known:
                evidence.add(ev)
            else:
                logger.warning("question %d: dropping unresolvable evidence %r", qi, ev)
        questions.append(
            EvalQuestion(
                question_id=str(q.get("question_id", f"q{qi}")),
                text=str(q.get("text", "")).strip(),
                category=normalize_category(q.get("category")),
                gold_answer=str(q.get("gold_answer", "")).strip(),
                evidence_turn_ids=frozenset(evidence),
            )
        )
    return Transcript(
        scenario_id=transcript.scenario_id,
        sessions=transcript.sessions,
        questions=tuple(questions),
    )


def load_transcript(path: str | Path) -> Transcript:
    """Auto-detect the file format and ingest it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"cannot read transcript {path}: {exc}") from exc
    if isinstance(raw, dict) and isinstance(raw.get("sessions"), list):
        return ingest_native(path)
    return ingest_locomo(path)


# --- replay & serialization ----------------------------------------------------


def replay(transcript: Transcript) -> Iterator[Turn]:
    """Yield turns in (session, turn) order. Each call is an independent cursor."""
    for session in transcript.sessions:
        yield from session.turns


def transcript_to_dict(transcript: Transcript) -> dict:
    return {
        "scenario_id": transcript.scenario_id,
        "sessions": [
            {
                "session_id": s.session_id,
                "datetime": s.timestamp.isoformat(),
                "turns": [
                    {
                        "turn_id": t.turn_id,
                        "speaker": t.speaker,
                        "datetime": t.timestamp.isoformat(),
                        "text": t.text,
                    }
                    for t in s.turns
                ],
            }
            for s in transcript.sessions
        ],
        "questions": [
            {
                "question_id": q.question_id,
                "text": q.text,
                "category": q.category,
                "gold_answer": q.gold_answer,
                "evidence_turn_ids": sorted(q.evidence_turn_ids),
            }
            for q in transcript.questions
        ],
    }


def transcript_to_json(transcript: Transcript) -> str:
    """Canonical serialization; byte-stable across re-ingestion of one file."""
    return json.dumps(transcript_to_dict(transcript), sort_keys=True, ensure_ascii=False)


# --- token counting --------------------------------------------------------------

def count_tokens(text: str) -> int:
    """Whitespace-separated tokens.

    Additive over concatenation whenever the junction point already
    separates tokens (``a`` ends or ``b`` starts with whitespace, or a
    separator is inserted).
    """
    return len(text.split())
