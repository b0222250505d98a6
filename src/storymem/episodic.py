"""Episodic memory: narratives organized as plot and subplot fragment trees.

A narrative tracks one owner/topic pair as an append-only list of
timestamped plot fragments. Consolidation groups a recent window of plot
fragments into headlined subplots; the fragments themselves never move
or mutate, subplots reference them by position.

The bank is the single mutable store, and it has one write path: every
change is an event, and MemoryBank._apply is the only code that carries
one out. The bank's methods check their input, then apply their event
and hand it to the bank's observer when one is set (run_replay sets one
to write the run's bank log); the bank keeps no event itself. apply()
replays an event without observing it, and from_dict() folds a
snapshot through the same path. So folding a run's bank log over an
empty bank rebuilds the bank as it stood after any iteration. All of it
happens under one lock, so an offline worker thread and serialization
can safely interleave.

Reads go by key: a narrative by its normalized (owner, topic), a subplot
by its normalized (owner, headline) through an index that _apply keeps,
so answering never walks the whole bank.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, Iterable, TypeVar

from .errors import CorruptSnapshot

logger = logging.getLogger(__name__)

SNAPSHOT_VERSION = 1

T = TypeVar("T")


def _display_label(text: str) -> str:
    """Whitespace-collapse only: how a narrative shows its owner and topic."""
    return " ".join(str(text).split())


def normalize_label(text: str) -> str:
    """Whitespace-collapse and casefold, for owner/topic matching."""
    return _display_label(text).casefold()


def _one_line(text: str) -> str:
    """A text with a line break in it whitespace-collapsed; any other as is.

    A fragment renders as one indented line of a story block, so a break
    inside it would start an unindented line that reads like a story line.
    """
    return text if text.splitlines() == [text] else _display_label(text)


def fragment_id_for(text: str, timestamp: datetime) -> str:
    digest = hashlib.sha256(f"{timestamp.isoformat()}|{text}".encode()).hexdigest()
    return digest[:12]


@dataclass(frozen=True)
class Fragment:
    """One timestamped piece of narrative text, traceable to source turns."""

    fragment_id: str
    text: str
    timestamp: datetime
    turn_ids: tuple[str, ...] = ()

    @classmethod
    def create(cls, text: str, timestamp: datetime, turn_ids: Iterable[str] = ()) -> Fragment:
        return cls(
            fragment_id=fragment_id_for(text, timestamp),
            text=text,
            timestamp=timestamp,
            turn_ids=tuple(turn_ids),
        )


@dataclass
class Subplot:
    headline: str
    # absolute indices into Narrative.fragments, in order
    fragment_indices: tuple[int, ...]


@dataclass
class Narrative:
    owner: str
    topic: str
    fragments: list[Fragment] = field(default_factory=list)
    subplots: list[Subplot] = field(default_factory=list)
    last_bound_iteration: int = 0
    consolidated_through: int = 0

    def is_inactive(self, current_iteration: int) -> bool:
        """A narrative is inactive once a full tick has passed without binding."""
        return self.last_bound_iteration < current_iteration - 1

    def unconsolidated_count(self) -> int:
        return len(self.fragments) - self.consolidated_through

    def consolidation_window(self, max_fragments: int) -> tuple[int, list[Fragment]]:
        """Return (window_start, fragments) for the next consolidation pass.

        The window covers unconsolidated fragments, capped to the most
        recent ``max_fragments``.
        """
        start = max(self.consolidated_through, len(self.fragments) - max_fragments)
        return start, self.fragments[start:]

    def subplot_fragments(self, subplot: Subplot) -> list[Fragment]:
        return [self.fragments[i] for i in subplot.fragment_indices if i < len(self.fragments)]


def _clip_subplots(
    narrative: Narrative, window_start: int, items: list[tuple[str, int, int]]
) -> list[dict]:
    """Subplot dicts from (headline, start, end) window-relative intervals.

    The window runs from window_start to the narrative's last fragment.
    Intervals are inclusive and 0-based within it. Out-of-range ends are
    clipped; empty or fully invalid intervals are dropped with a warning.
    Headlines are whitespace-collapsed like owners and topics, so each
    stays one line wherever it is shown.
    """
    window_end = len(narrative.fragments)
    subplots: list[dict] = []
    for headline, lo, hi in items:
        headline = _display_label(headline)
        a = max(window_start + lo, window_start)
        b = min(window_start + hi, window_end - 1)
        if (a, b) != (window_start + lo, window_start + hi):
            logger.warning(
                "narrative (%s, %s): clipping subplot interval [%d, %d]",
                narrative.owner, narrative.topic, lo, hi,
            )
        if a > b or not headline:
            logger.warning(
                "narrative (%s, %s): dropping invalid subplot interval [%d, %d]",
                narrative.owner, narrative.topic, lo, hi,
            )
            continue
        subplots.append(
            {"headline": headline, "fragment_indices": list(range(a, b + 1))}
        )
    return subplots


# --- serialization, shared by bank dicts and bank-log events ----------------------


def _fragment_to_dict(f: Fragment) -> dict:
    return {
        "fragment_id": f.fragment_id,
        "text": f.text,
        "timestamp": f.timestamp.isoformat(),
        "turn_ids": list(f.turn_ids),
    }


def _fragment_from_dict(fd: dict) -> Fragment:
    return Fragment(
        fragment_id=fd["fragment_id"],
        text=fd["text"],
        timestamp=datetime.fromisoformat(fd["timestamp"]),
        turn_ids=tuple(fd.get("turn_ids", [])),
    )


def _subplot_to_dict(s: Subplot) -> dict:
    return {"headline": s.headline, "fragment_indices": list(s.fragment_indices)}


def _subplot_from_dict(sd: dict) -> Subplot:
    return Subplot(
        headline=sd["headline"],
        fragment_indices=tuple(int(i) for i in sd["fragment_indices"]),
    )


class MemoryBank:
    """All narratives for one conversation, keyed by normalized (owner, topic).

    Every change is one of four events (plain dicts, ready for JSON):

        {"op": "create", "owner", "topic"}
        {"op": "append", "owner", "topic", "fragments", "last_bound_iteration"}
        {"op": "consolidate", "owner", "topic", "subplots", "consolidated_through"}
        {"op": "rename", "owner", "topic", "new_topic"}

    owner and topic name the narrative as it stood just before the event.

    _apply() carries out an event, and nothing else changes the bank.
    get_or_create, append_fragments, consolidate and rename_topic check
    their input, then apply their event and pass it to observer, if
    set. apply() replays an event without observing it, and from_dict()
    folds a snapshot as create, append and consolidate events.

    Since every change passes through _apply, what the bank keeps beside
    its narratives stays in step with them: the index of subplots by
    normalized (owner, headline), for find_subplot, and the values of
    derived(), such as the coherence outline, which each change drops.
    """

    def __init__(self) -> None:
        self._narratives: dict[tuple[str, str], Narrative] = {}
        self._lock = threading.RLock()
        # called with each event after it is applied
        self.observer: Callable[[dict], None] | None = None
        # (owner, headline), normalized -> its (narrative, subplot) pairs, oldest first
        self._subplots: dict[tuple[str, str], list[tuple[Narrative, Subplot]]] = {}
        # id(narrative) -> a rank that grows with each (re-)insertion, so that
        # ranks sort like the bank's order; a rename moves a narrative last
        self._rank: dict[int, int] = {}
        self._next_rank = 0
        # name -> value built from the bank as it stands
        self._derived: dict[str, object] = {}

    @property
    def lock(self) -> threading.RLock:
        return self._lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._narratives)

    def derived(self, name: str, build: Callable[[MemoryBank], T]) -> T:
        """build(bank), reused under this name until the bank changes.

        Built under the bank lock, so it never sees a change half made.
        A change drops the value at once rather than at the next build:
        kept stale, a conversation's outline raised peak RSS measurably.
        """
        with self._lock:
            if name not in self._derived:
                self._derived[name] = build(self)
            return self._derived[name]

    def narratives(self) -> list[Narrative]:
        with self._lock:
            return list(self._narratives.values())

    def find(self, owner: str, topic: str) -> Narrative | None:
        with self._lock:
            return self._narratives.get((normalize_label(owner), normalize_label(topic)))

    def find_subplot(self, owner: str, headline: str) -> tuple[Narrative, Subplot] | None:
        """The owner's subplot under this headline, after normalization.

        When several narratives hold one, the earliest in bank order wins,
        and within a narrative its first such subplot.
        """
        with self._lock:
            pairs = self._subplots.get((normalize_label(owner), normalize_label(headline)))
            if not pairs:
                return None
            return min(pairs, key=lambda pair: self._rank[id(pair[0])])

    # --- changes ---------------------------------------------------------------

    def _record(self, event: dict) -> Narrative:
        narrative = self._apply(event)
        if self.observer is not None:
            self.observer(event)
        return narrative

    def get_or_create(self, owner: str, topic: str) -> Narrative:
        with self._lock:
            narrative = self.find(owner, topic)
            if narrative is None:
                narrative = self._record({
                    "op": "create",
                    "owner": _display_label(owner),
                    "topic": _display_label(topic),
                })
            return narrative

    def append_fragments(
        self, narrative: Narrative, fragments: list[Fragment], iteration: int
    ) -> None:
        """Append in order; an older iteration never rolls the binding clock back.

        A fragment whose text spans lines is stored on one line, under the
        id of its one-line text.
        """
        stored = []
        for f in fragments:
            text = _one_line(f.text)
            stored.append(f if text == f.text else Fragment.create(text, f.timestamp, f.turn_ids))
        with self._lock:
            self._record({
                "op": "append",
                "owner": narrative.owner,
                "topic": narrative.topic,
                "fragments": [_fragment_to_dict(f) for f in stored],
                "last_bound_iteration": max(narrative.last_bound_iteration, iteration),
            })

    def extend(
        self,
        owner: str,
        topic: str,
        texts: Iterable[str],
        timestamp: datetime,
        turn_ids: Iterable[str],
        iteration: int,
    ) -> Narrative:
        """Create-or-get the narrative and append one fragment per text.

        Appending the same texts twice appends twice; deduplication is
        deliberately not the bank's job.
        """
        turn_ids = tuple(turn_ids)
        with self._lock:
            narrative = self.get_or_create(owner, topic)
            fragments = [
                Fragment.create(text=str(t).strip(), timestamp=timestamp, turn_ids=turn_ids)
                for t in texts
                if str(t).strip()
            ]
            self.append_fragments(narrative, fragments, iteration)
            return narrative

    def consolidate(
        self, narrative: Narrative, window_start: int, items: list[tuple[str, int, int]]
    ) -> list[Subplot]:
        """Add subplots from (headline, start, end) intervals, relative to the
        window that starts at window_start; return the subplots added.

        The window counts as consolidated whatever the items cover.
        """
        with self._lock:
            subplots = _clip_subplots(narrative, window_start, items)
            self._record({
                "op": "consolidate",
                "owner": narrative.owner,
                "topic": narrative.topic,
                "subplots": subplots,
                "consolidated_through": len(narrative.fragments),
            })
            return narrative.subplots[len(narrative.subplots) - len(subplots):]

    def rename_topic(self, narrative: Narrative, new_topic: str) -> bool:
        """Re-key a narrative under a broader topic (consolidation may widen it).

        Refuses a rename that changes nothing or that would collide with
        another narrative.
        """
        with self._lock:
            owner = normalize_label(narrative.owner)
            new_key = (owner, normalize_label(new_topic))
            if new_key == (owner, normalize_label(narrative.topic)):
                return False
            if new_key in self._narratives:
                logger.warning(
                    "topic rename (%s -> %s) collides with an existing narrative; keeping old",
                    narrative.topic, new_topic,
                )
                return False
            self._record({
                "op": "rename",
                "owner": narrative.owner,
                "topic": narrative.topic,
                "new_topic": _display_label(new_topic),
            })
            return True

    def _apply(self, event: dict) -> Narrative:
        """Carry out one event; return the narrative it touched."""
        try:
            with self._lock:
                self._derived.clear()
                op = event["op"]
                key = (normalize_label(event["owner"]), normalize_label(event["topic"]))
                if op == "create":
                    if key in self._narratives:
                        raise CorruptSnapshot(f"bank creates {key} twice")
                    narrative = Narrative(owner=event["owner"], topic=event["topic"])
                    insert_at = key
                else:
                    narrative = self._narratives[key]
                    insert_at = None
                    if op == "append":
                        fragments = [_fragment_from_dict(fd) for fd in event["fragments"]]
                        narrative.fragments.extend(fragments)
                        narrative.last_bound_iteration = int(event["last_bound_iteration"])
                    elif op == "consolidate":
                        created = [_subplot_from_dict(sd) for sd in event["subplots"]]
                        narrative.subplots.extend(created)
                        for s in created:
                            self._subplots.setdefault(
                                (key[0], normalize_label(s.headline)), []
                            ).append((narrative, s))
                        narrative.consolidated_through = int(event["consolidated_through"])
                    elif op == "rename":
                        insert_at = (key[0], normalize_label(event["new_topic"]))
                        if insert_at in self._narratives:
                            raise CorruptSnapshot(f"bank renames {key} onto {insert_at}")
                        del self._narratives[key]
                        narrative.topic = event["new_topic"]
                    else:
                        raise CorruptSnapshot(f"unknown bank-log event {op!r}")
                if insert_at is not None:
                    self._narratives[insert_at] = narrative
                    self._rank[id(narrative)] = self._next_rank
                    self._next_rank += 1
                return narrative
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshot(f"malformed bank-log event: {exc!r}") from exc

    # --- bank log --------------------------------------------------------------

    def apply(self, event: dict) -> Narrative:
        """Replay one recorded change, without observing it again; return
        the narrative it touched."""
        return self._apply(event)

    # --- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "version": SNAPSHOT_VERSION,
                "narratives": [
                    {
                        "owner": n.owner,
                        "topic": n.topic,
                        "last_bound_iteration": n.last_bound_iteration,
                        "consolidated_through": n.consolidated_through,
                        "fragments": [_fragment_to_dict(f) for f in n.fragments],
                        "subplots": [_subplot_to_dict(s) for s in n.subplots],
                    }
                    for n in self._narratives.values()
                ],
            }

    @classmethod
    def from_dict(cls, data: dict) -> MemoryBank:
        """The bank of a to_dict() snapshot, folded narrative by narrative as
        create, append and consolidate events."""
        if not isinstance(data, dict) or "narratives" not in data:
            raise CorruptSnapshot("snapshot missing 'narratives'")
        bank = cls()
        try:
            for nd in data["narratives"]:
                names = {"owner": nd["owner"], "topic": nd["topic"]}
                bank._apply({"op": "create", **names})
                bank._apply({
                    "op": "append",
                    **names,
                    "fragments": nd["fragments"],
                    "last_bound_iteration": nd.get("last_bound_iteration", 0),
                })
                bank._apply({
                    "op": "consolidate",
                    **names,
                    "subplots": nd.get("subplots", []),
                    "consolidated_through": nd.get("consolidated_through", 0),
                })
        except (KeyError, TypeError) as exc:
            raise CorruptSnapshot(f"malformed snapshot: {exc!r}") from exc
        return bank
