"""Prompt rendering: placeholder substitution, digests, and reasoner glue."""

from __future__ import annotations

import pytest

from storymem.backends import Backend
from storymem.errors import MissingBinding
from storymem.prompts import (
    NO_SUBSTORIES_CONSOLIDATION,
    NO_SUBSTORIES_SEMANTICIZATION,
    PLACEHOLDERS,
    PromptKind,
    prompt_digest,
    render_prompt,
)
from storymem.reasoner import Reasoner


class CapturingBackend(Backend):
    """Returns canned text per kind and keeps every rendered prompt."""

    name = "capturing"

    def __init__(self, replies: dict[PromptKind, str]):
        self.replies = replies
        self.calls: list[tuple[PromptKind, str]] = []

    def complete(self, kind: PromptKind, rendered: str) -> str:
        self.calls.append((kind, rendered))
        return self.replies[kind]


def test_every_placeholder_is_substituted():
    for kind, names in PLACEHOLDERS.items():
        inputs = {n: f"<<{n}-value>>" for n in names}
        rendered = render_prompt(kind, inputs)
        for n in names:
            assert f"<<{n}-value>>" in rendered
            assert "{" + n + "}" not in rendered


def test_retrieval_prompt_states_k():
    rendered = render_prompt(
        PromptKind.COHERENCE_RETRIEVE, {"k": 2, "question": "Q?", "headlines": "- h"}
    )
    assert "select the top 2 stories" in rendered


def test_missing_binding_is_an_error():
    with pytest.raises(MissingBinding) as err:
        render_prompt(PromptKind.STORY_INIT, {})
    assert "conv" in str(err.value)
    with pytest.raises(MissingBinding):
        render_prompt(
            PromptKind.MEMORY_BINDING, {"headlines": "h", "recent_context": "c"}
        )


def test_substitution_is_single_pass():
    # braces inside values survive; they are never re-expanded
    rendered = render_prompt(PromptKind.STORY_INIT, {"conv": "keep {conv} and {weird}"})
    assert "keep {conv} and {weird}" in rendered


def test_consolidation_example_braces_survive():
    rendered = render_prompt(
        PromptKind.CONSOLIDATION,
        {"main_topic": "T", "substories_text": "None yet.", "new_items_text": "0. [t] x"},
    )
    # the template's literal return-format example must come through intact
    assert '"substories": [' in rendered
    assert '{ "sub_topic": "...", "indice": (start, end) }' in rendered


def test_prompt_digest_is_stable_and_short():
    a = prompt_digest("hello world")
    assert a == prompt_digest("hello world")
    assert len(a) == 16
    assert int(a, 16) >= 0
    assert a != prompt_digest("hello world!")


def test_reasoner_fills_empty_substory_slots():
    backend = CapturingBackend(
        {
            PromptKind.CONSOLIDATION: '{"substories": [], "new_topic": None}',
            PromptKind.SEMANTICIZATION: "[]",
        }
    )
    reasoner = Reasoner(backend)
    reasoner.consolidate(main_topic="T", substories_text=None, new_items_text="0. [t] x")
    reasoner.semanticize(main_topic="T", substories_text=None, new_items_text="0. [t] x")
    consolidation_prompt = backend.calls[0][1]
    semantic_prompt = backend.calls[1][1]
    assert NO_SUBSTORIES_CONSOLIDATION in consolidation_prompt
    assert NO_SUBSTORIES_SEMANTICIZATION in semantic_prompt
    # an actual listing takes the slot instead
    backend.calls.clear()
    reasoner.consolidate(main_topic="T", substories_text="- existing", new_items_text="0. [t] x")
    assert "- existing" in backend.calls[0][1]
    assert NO_SUBSTORIES_CONSOLIDATION not in backend.calls[0][1]


def test_reasoner_reports_exchanges_to_observer():
    backend = CapturingBackend({PromptKind.ANSWER: "A fine answer."})
    seen = []
    reasoner = Reasoner(backend)
    reasoner.observer = lambda kind, rendered, raw: seen.append((kind, rendered, raw))
    answer = reasoner.answer(question="Q?", full_stories="S", add_trivas="")
    assert answer == "A fine answer."
    assert len(seen) == 1
    kind, rendered, raw = seen[0]
    assert kind is PromptKind.ANSWER
    assert "Q?" in rendered
    assert raw == "A fine answer."


def test_reasoner_answer_passes_text_through():
    backend = CapturingBackend({PromptKind.ANSWER: "  verbatim, not parsed [1] {2}  "})
    assert Reasoner(backend).answer(
        question="Q", full_stories="", add_trivas=""
    ) == "  verbatim, not parsed [1] {2}  "
