"""Semantic memory: a small in-process triple store.

Facts are (subject, predicate, object) with an optional timestamp label
and the narrative they were distilled from. Matching is exact on
whitespace-collapsed, casefolded fields; ``None`` (or ``"?"``) acts as a
wildcard. Insertion order is preserved and duplicate triples collapse,
so query results are deterministic.

The store indexes each fact as it is added: by normalized subject,
predicate and object, and by each whitespace token of the subject and
the object. Queries look their terms up there instead of scanning and
re-normalizing every fact.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .errors import MalformedInput

logger = logging.getLogger(__name__)


def normalize_term(text: str) -> str:
    return " ".join(str(text).split()).casefold()


@dataclass(frozen=True)
class TripleFact:
    subject: str
    predicate: str
    obj: str
    timestamp: str | None = None
    source: tuple[str, str] | None = None  # (owner, topic) it was distilled from

    def identity(self) -> tuple[str, str, str, str]:
        return (
            normalize_term(self.subject),
            normalize_term(self.predicate),
            normalize_term(self.obj),
            self.timestamp or "",
        )

    def render(self) -> str:
        stamp = f" ({self.timestamp})" if self.timestamp else ""
        return f"{self.subject} | {self.predicate} | {self.obj}{stamp}"


def _is_wildcard(term: str | None) -> bool:
    return term is None or str(term).strip() in ("", "?", "*")


class TripleStore:
    def __init__(self) -> None:
        self._facts: list[TripleFact] = []
        self._seen: set[tuple[str, str, str, str]] = set()
        # per position in _facts: its identity(), whose first three fields
        # are the normalized subject, predicate and object
        self._keys: list[tuple[str, str, str, str]] = []
        # normalized subject, predicate, object -> positions, ascending
        self._by_field: tuple[dict[str, list[int]], ...] = ({}, {}, {})
        # whitespace token of the normalized subject or object -> positions, ascending
        self._by_token: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._facts)

    def facts(self) -> list[TripleFact]:
        return list(self._facts)

    def add(self, fact: TripleFact) -> bool:
        """Insert a fact; returns False when an identical one is present."""
        key = fact.identity()
        if key in self._seen:
            return False
        self._seen.add(key)
        pos = len(self._facts)
        self._facts.append(fact)
        self._keys.append(key)
        for index, term in zip(self._by_field, key):
            index.setdefault(term, []).append(pos)
        for token in set(key[0].split()) | set(key[2].split()):
            self._by_token.setdefault(token, []).append(pos)
        return True

    def query(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: str | None = None,
    ) -> list[TripleFact]:
        """Exact-match query; wildcard fields may be None, '', '?' or '*'.

        Walks the shortest index among the bound fields and checks the
        others on each fact's stored key, so results keep insertion order.
        """
        wants = [
            None if _is_wildcard(term) else normalize_term(term)
            for term in (subject, predicate, obj)
        ]
        bound = [(i, want) for i, want in enumerate(wants) if want is not None]
        if not bound:
            return list(self._facts)
        postings = min(
            (self._by_field[i].get(want, ()) for i, want in bound), key=len
        )
        return [
            self._facts[pos]
            for pos in postings
            if all(self._keys[pos][i] == want for i, want in bound)
        ]

    def entity_neighborhood(self, entity: str) -> list[TripleFact]:
        """Facts whose subject or object mentions the entity.

        Exact normalized match first; when that comes up empty, fall back
        to whole-token containment so 'Caroline' still reaches facts about
        'Caroline Mercer'. A needle with a space in it is no token, so the
        fallback finds nothing for it. Results keep insertion order.
        """
        needle = normalize_term(entity)
        if not needle:
            return []
        subject, _, obj = self._by_field
        positions = sorted(set(subject.get(needle, ())).union(obj.get(needle, ())))
        if not positions:
            positions = self._by_token.get(needle, [])
        return [self._facts[pos] for pos in positions]

    # --- serialization ---------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = []
        for f in self._facts:
            lines.append(
                json.dumps(
                    {
                        "subject": f.subject,
                        "predicate": f.predicate,
                        "object": f.obj,
                        "timestamp": f.timestamp,
                        "source": list(f.source) if f.source else None,
                    },
                    sort_keys=True,
                    ensure_ascii=False,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> TripleStore:
        store = cls()
        for ln, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                fact = TripleFact(
                    subject=d["subject"],
                    predicate=d["predicate"],
                    obj=d["object"],
                    timestamp=d.get("timestamp"),
                    source=tuple(d["source"]) if d.get("source") else None,
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MalformedInput(f"bad triple on line {ln}: {exc}") from exc
            store.add(fact)
        return store


_LINKING_VERBS = (
    " is ", " are ", " was ", " were ", " has ", " have ", " had ",
    " likes ", " loves ", " wants ", " lives in ", " works at ", " became ",
)


def fact_to_triple(
    fact_text: str,
    owner: str,
    timestamp: str | None = None,
    source: tuple[str, str] | None = None,
) -> TripleFact:
    """Split a one-sentence fact into a triple on its first linking verb.

    Falls back to (owner, 'mentioned', fact) when no split point exists,
    so nothing distilled is ever dropped.
    """
    text = " ".join(str(fact_text).split()).rstrip(".")
    lowered = text.casefold()
    best: tuple[int, str] | None = None
    for verb in _LINKING_VERBS:
        pos = lowered.find(verb)
        if pos > 0 and (best is None or pos < best[0]):
            best = (pos, verb)
    if best is not None:
        pos, verb = best
        subject = text[:pos].strip()
        obj = text[pos + len(verb):].strip()
        if subject and obj:
            return TripleFact(
                subject=subject,
                predicate=verb.strip(),
                obj=obj,
                timestamp=timestamp,
                source=source,
            )
    return TripleFact(
        subject=owner, predicate="mentioned", obj=text, timestamp=timestamp, source=source
    )
