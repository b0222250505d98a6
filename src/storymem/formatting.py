"""Text assembly for prompt sections, plus small token utilities.

Everything the engine writes into a prompt slot is formatted here so the
scripted backend, the heuristic backend, and the tests all agree on the
exact byte layout (digests depend on it).
"""

from __future__ import annotations

import re
from datetime import datetime
from typing import Iterable, Sequence

from .episodic import Fragment, MemoryBank, Narrative, Subplot
from .semantic import TripleFact
from .transcript import Turn

STOPWORDS = frozenset(
    """a an and are about as at be but by did do does for from had has have he her his
    how i in is it its me my of on or our she so that the their them they this to was
    we were what when where which who why will with you your say said tell""".split()
)


def tokenize(text: str) -> list[str]:
    return re.findall(r"[a-z0-9']+", text.casefold())


def content_tokens(text: str) -> set[str]:
    return {t for t in tokenize(text) if t not in STOPWORDS}


def format_stamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%d %H:%M")


def format_turn(turn: Turn) -> str:
    return f"[{format_stamp(turn.timestamp)}] {turn.speaker}: {turn.text}"


def format_history(turns: Iterable[Turn]) -> str:
    return "\n".join(format_turn(t) for t in turns)


def format_fragment(fragment: Fragment) -> str:
    return f"[{format_stamp(fragment.timestamp)}] {fragment.text}"


def format_numbered_items(fragments: Sequence[Fragment]) -> str:
    """Window-relative, 0-based numbering; consolidation intervals index these."""
    return "\n".join(f"{i}. {format_fragment(f)}" for i, f in enumerate(fragments))


def _plot_line(narrative: Narrative) -> str:
    """One story as one line: ``- <owner>: <topic>``."""
    return f"- {narrative.owner}: {narrative.topic}"


def binding_headlines(bank: MemoryBank) -> str:
    """The bank's stories, one plot line each, for the binding prompt."""
    lines = [_plot_line(n) for n in bank.narratives()]
    return "\n".join(lines) if lines else "(none)"


def coherence_headlines(bank: MemoryBank) -> str:
    """The outline of plot headlines, each followed by its subplots.

    A plot line reads ``- <owner>: <topic>``; each of its subplots
    follows, in bank order, as an indented ``  - <headline>`` line whose
    owner and parent are the plot line above it:

        - Ava: The kitchen renovation
          - Ava picked the tiles

    A choice names a sub-story by the plot's owner and the sub-story's
    headline. A reader takes the owner up to the first ``": "``, so an
    owner that holds ``": "`` is ambiguous, as it already is in every
    turn line. The outline is built once for each state of the bank
    (MemoryBank.derived).
    """
    return bank.derived("coherence_headlines", _build_coherence_headlines)


def _build_coherence_headlines(bank: MemoryBank) -> str:
    lines: list[str] = []
    for n in bank.narratives():
        lines.append(_plot_line(n))
        lines += [f"  - {s.headline}" for s in n.subplots]
    return "\n".join(lines) if lines else "(none)"


def substories_text(narrative: Narrative) -> str | None:
    """Existing substory listing, or None when the caller should use the
    template's fixed empty-state phrase."""
    if not narrative.subplots:
        return None
    return "\n".join(f"- {s.headline}" for s in narrative.subplots)


def story_block(narrative: Narrative) -> str:
    lines = [f"Story (owner: {narrative.owner}): {narrative.topic}"]
    lines += [f"  {format_fragment(f)}" for f in narrative.fragments]
    return "\n".join(lines)


def subplot_block(narrative: Narrative, subplot: Subplot) -> str:
    lines = [
        f"Story (owner: {narrative.owner}): {subplot.headline}"
        f" [part of: {narrative.topic}]"
    ]
    lines += [f"  {format_fragment(f)}" for f in narrative.subplot_fragments(subplot)]
    return "\n".join(lines)


def facts_text(facts: Sequence[TripleFact]) -> str:
    return "\n".join(f"- {f.render()}" for f in facts)
