"""Typed operations over a completion backend.

One Reasoner wraps one backend. Each operation renders its template,
sends it to the backend, reports the exchange to the observer when one
is set (run_replay sets one to write the run's exchange log), and
parses the completion into a typed verdict. Parse failures surface as
typed errors; nothing is fabricated on the model's behalf. Every
operation reaches the backend: nothing is cached between calls.
"""

from __future__ import annotations

import logging
from typing import Callable

from .backends import Backend
from .parsing import (
    BindingDecision,
    ConsolidationVerdict,
    FactItem,
    InitStory,
    Judgment,
    RetrievalChoice,
    TriplePattern,
    parse_structured,
)
from .prompts import (
    NO_SUBSTORIES_CONSOLIDATION,
    NO_SUBSTORIES_SEMANTICIZATION,
    PromptKind,
    render_prompt,
)

logger = logging.getLogger(__name__)

ExchangeObserver = Callable[[PromptKind, str, str], None]


class Reasoner:
    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        # called with each (kind, rendered prompt, completion) sent
        self.observer: ExchangeObserver | None = None

    def _run(self, kind: PromptKind, inputs: dict):
        rendered = render_prompt(kind, inputs)
        raw = self.backend.complete(kind, rendered)
        if self.observer is not None:
            self.observer(kind, rendered, raw)
        return parse_structured(kind, raw)

    def init_stories(self, conv: str) -> list[InitStory]:
        return self._run(PromptKind.STORY_INIT, {"conv": conv})

    def bind(
        self, headlines: str, recent_context: str, new_conv: str
    ) -> list[BindingDecision]:
        return self._run(
            PromptKind.MEMORY_BINDING,
            {"headlines": headlines, "recent_context": recent_context, "new_conv": new_conv},
        )

    def consolidate(
        self, main_topic: str, substories_text: str | None, new_items_text: str
    ) -> ConsolidationVerdict:
        return self._run(
            PromptKind.CONSOLIDATION,
            {
                "main_topic": main_topic,
                "substories_text": substories_text or NO_SUBSTORIES_CONSOLIDATION,
                "new_items_text": new_items_text,
            },
        )

    def semanticize(
        self, main_topic: str, substories_text: str | None, new_items_text: str
    ) -> list[FactItem]:
        return self._run(
            PromptKind.SEMANTICIZATION,
            {
                "main_topic": main_topic,
                "substories_text": substories_text or NO_SUBSTORIES_SEMANTICIZATION,
                "new_items_text": new_items_text,
            },
        )

    def choose_stories(self, k: int, question: str, headlines: str) -> list[RetrievalChoice]:
        return self._run(
            PromptKind.COHERENCE_RETRIEVE,
            {"k": k, "question": question, "headlines": headlines},
        )

    def translate(self, question: str) -> list[TriplePattern]:
        return self._run(PromptKind.GRAPH_QUERY_TRANSLATE, {"question": question})

    def answer(self, question: str, full_stories: str, add_trivas: str) -> str:
        return self._run(
            PromptKind.ANSWER,
            {"full_stories": full_stories, "add_trivas": add_trivas, "question": question},
        )

    def judge(self, question: str, gold_answer: str, generated_answer: str) -> Judgment:
        return self._run(
            PromptKind.JUDGE,
            {
                "question": question,
                "gold_answer": gold_answer,
                "generated_answer": generated_answer,
            },
        )
