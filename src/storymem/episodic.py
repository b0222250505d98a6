"""Episodic memory: narratives organized as plot and subplot fragment trees.

A narrative tracks one owner/topic pair as an append-only list of
timestamped plot fragments. Consolidation groups a recent window of plot
fragments into headlined subplots; the fragments themselves never move
or mutate, subplots reference them by position.

The bank is the single mutable store. All mutation happens under one
lock so an offline worker thread and serialization can safely
interleave. Every change made through the bank is also recorded as a
bank-log event: drain_events() hands over the changes since the last
drain, and apply() replays them, so folding a run's bank log over an
empty bank rebuilds the bank as it stood after any iteration.

Reads go by key: a narrative by its normalized (owner, topic), a subplot
by its normalized (owner, headline) through an index the bank keeps as it
changes, so answering never walks the whole bank.
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


def normalize_label(text: str) -> str:
    """Whitespace-collapse and casefold, for owner/topic matching."""
    return " ".join(str(text).split()).casefold()


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

    @property
    def key(self) -> tuple[str, str]:
        return (normalize_label(self.owner), normalize_label(self.topic))

    def is_inactive(self, current_iteration: int) -> bool:
        """A narrative is inactive once a full tick has passed without binding."""
        return self.last_bound_iteration < current_iteration - 1

    def append_fragments(self, fragments: Iterable[Fragment], iteration: int) -> None:
        self.fragments.extend(fragments)
        self.last_bound_iteration = max(self.last_bound_iteration, iteration)

    def unconsolidated_count(self) -> int:
        return len(self.fragments) - self.consolidated_through

    def consolidation_window(self, max_fragments: int) -> tuple[int, list[Fragment]]:
        """Return (window_start, fragments) for the next consolidation pass.

        The window covers unconsolidated fragments, capped to the most
        recent ``max_fragments``.
        """
        start = max(self.consolidated_through, len(self.fragments) - max_fragments)
        return start, self.fragments[start:]

    def apply_consolidation(
        self, window_start: int, items: list[tuple[str, int, int]]
    ) -> list[Subplot]:
        """Create subplots from (headline, start, end) window-relative intervals.

        Intervals are inclusive and 0-based within the window. Out-of-range
        ends are clipped; empty or fully invalid intervals are dropped with
        a warning. The window counts as consolidated regardless of coverage.
        """
        window_end = len(self.fragments)
        created: list[Subplot] = []
        for headline, lo, hi in items:
            a = window_start + lo
            b = window_start + hi
            if b >= window_end:
                logger.warning(
                    "narrative (%s, %s): clipping subplot interval [%d, %d]",
                    self.owner, self.topic, lo, hi,
                )
                b = window_end - 1
            if a < window_start:
                logger.warning(
                    "narrative (%s, %s): clipping subplot interval [%d, %d]",
                    self.owner, self.topic, lo, hi,
                )
                a = window_start
            if a > b or not str(headline).strip():
                logger.warning(
                    "narrative (%s, %s): dropping invalid subplot interval [%d, %d]",
                    self.owner, self.topic, lo, hi,
                )
                continue
            sub = Subplot(headline=str(headline).strip(), fragment_indices=tuple(range(a, b + 1)))
            self.subplots.append(sub)
            created.append(sub)
        self.consolidated_through = window_end
        return created

    def subplot_fragments(self, subplot: Subplot) -> list[Fragment]:
        return [self.fragments[i] for i in subplot.fragment_indices if i < len(self.fragments)]


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

    Changes made through the bank's own methods are recorded as events
    (plain dicts, ready for JSON) until drain_events() takes them:

        {"op": "create", "owner", "topic"}
        {"op": "append", "owner", "topic", "fragments", "last_bound_iteration"}
        {"op": "consolidate", "owner", "topic", "subplots", "consolidated_through"}
        {"op": "rename", "owner", "topic", "new_topic"}

    owner and topic name the narrative as it stood just before the event.

    Subplots are also indexed by normalized (owner, headline), for
    find_subplot. Like the event log, the index sees only changes made
    through the bank (consolidate, apply, from_dict): a narrative mutated
    directly through its own methods is neither recorded nor indexed.

    derived() keeps a value computed from the bank, such as the coherence
    outline, until the bank next changes: every recorded change and every
    applied event drops it. Like the index, it misses changes made
    directly to a narrative.
    """

    def __init__(self) -> None:
        self._narratives: dict[tuple[str, str], Narrative] = {}
        self._lock = threading.RLock()
        self._events: list[dict] = []
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

    def _record(self, event: dict) -> None:
        self._events.append(event)
        self._derived.clear()

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

    def _insert(self, key: tuple[str, str], narrative: Narrative) -> None:
        self._narratives[key] = narrative
        self._rank[id(narrative)] = self._next_rank
        self._next_rank += 1

    def _index_subplots(self, narrative: Narrative, subplots: Iterable[Subplot]) -> None:
        owner = normalize_label(narrative.owner)
        for s in subplots:
            self._subplots.setdefault((owner, normalize_label(s.headline)), []).append(
                (narrative, s)
            )

    def get_or_create(self, owner: str, topic: str) -> Narrative:
        with self._lock:
            key = (normalize_label(owner), normalize_label(topic))
            narrative = self._narratives.get(key)
            if narrative is None:
                narrative = Narrative(owner=" ".join(str(owner).split()),
                                      topic=" ".join(str(topic).split()))
                self._insert(key, narrative)
                self._record({"op": "create", "owner": narrative.owner, "topic": narrative.topic})
            return narrative

    def append_fragments(
        self, narrative: Narrative, fragments: list[Fragment], iteration: int
    ) -> None:
        with self._lock:
            narrative.append_fragments(fragments, iteration)
            self._record({
                "op": "append",
                "owner": narrative.owner,
                "topic": narrative.topic,
                "fragments": [_fragment_to_dict(f) for f in fragments],
                "last_bound_iteration": narrative.last_bound_iteration,
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
        """Narrative.apply_consolidation, recorded as one event and indexed."""
        with self._lock:
            created = narrative.apply_consolidation(window_start, items)
            self._index_subplots(narrative, created)
            self._record({
                "op": "consolidate",
                "owner": narrative.owner,
                "topic": narrative.topic,
                "subplots": [_subplot_to_dict(s) for s in created],
                "consolidated_through": narrative.consolidated_through,
            })
            return created

    def rename_topic(self, narrative: Narrative, new_topic: str) -> bool:
        """Re-key a narrative under a broader topic (consolidation may widen it).

        Refuses a rename that would collide with another narrative.
        """
        with self._lock:
            new_key = (normalize_label(narrative.owner), normalize_label(new_topic))
            old_key = narrative.key
            if new_key == old_key:
                return False
            if new_key in self._narratives:
                logger.warning(
                    "topic rename (%s -> %s) collides with an existing narrative; keeping old",
                    narrative.topic, new_topic,
                )
                return False
            old_topic = narrative.topic
            del self._narratives[old_key]
            narrative.topic = " ".join(str(new_topic).split())
            self._insert(new_key, narrative)
            self._record({
                "op": "rename",
                "owner": narrative.owner,
                "topic": old_topic,
                "new_topic": narrative.topic,
            })
            return True

    # --- bank log --------------------------------------------------------------

    def drain_events(self) -> list[dict]:
        """The changes recorded since the last drain, oldest first."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def apply(self, event: dict) -> Narrative:
        """Replay one recorded change; return the narrative it touched.

        Replayed changes are not recorded again.
        """
        try:
            with self._lock:
                self._derived.clear()
                op = event["op"]
                key = (normalize_label(event["owner"]), normalize_label(event["topic"]))
                if op == "create":
                    if key in self._narratives:
                        raise CorruptSnapshot(f"bank log creates {key} twice")
                    narrative = Narrative(owner=event["owner"], topic=event["topic"])
                    self._insert(key, narrative)
                    return narrative
                narrative = self._narratives[key]
                if op == "append":
                    narrative.fragments.extend(
                        _fragment_from_dict(fd) for fd in event["fragments"]
                    )
                    narrative.last_bound_iteration = int(event["last_bound_iteration"])
                elif op == "consolidate":
                    created = [_subplot_from_dict(sd) for sd in event["subplots"]]
                    narrative.subplots.extend(created)
                    self._index_subplots(narrative, created)
                    narrative.consolidated_through = int(event["consolidated_through"])
                elif op == "rename":
                    new_key = (key[0], normalize_label(event["new_topic"]))
                    if new_key in self._narratives:
                        raise CorruptSnapshot(f"bank log renames {key} onto {new_key}")
                    del self._narratives[key]
                    narrative.topic = event["new_topic"]
                    self._insert(new_key, narrative)
                else:
                    raise CorruptSnapshot(f"unknown bank-log event {op!r}")
                return narrative
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshot(f"malformed bank-log event: {exc!r}") from exc

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
        if not isinstance(data, dict) or "narratives" not in data:
            raise CorruptSnapshot("snapshot missing 'narratives'")
        bank = cls()
        try:
            for nd in data["narratives"]:
                narrative = Narrative(
                    owner=nd["owner"],
                    topic=nd["topic"],
                    last_bound_iteration=int(nd.get("last_bound_iteration", 0)),
                    consolidated_through=int(nd.get("consolidated_through", 0)),
                )
                narrative.fragments.extend(_fragment_from_dict(fd) for fd in nd["fragments"])
                narrative.subplots.extend(
                    _subplot_from_dict(sd) for sd in nd.get("subplots", [])
                )
                bank._narratives[narrative.key] = narrative
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshot(f"malformed snapshot: {exc}") from exc
        # indexed once loading is done: a repeated key keeps its first slot but
        # its last narrative, and only that narrative is in the bank
        for key, narrative in list(bank._narratives.items()):
            bank._insert(key, narrative)
            bank._index_subplots(narrative, narrative.subplots)
        return bank
