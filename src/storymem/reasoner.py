"""Typed operations over a completion backend.

One Reasoner wraps one backend. Each operation renders its template,
invokes the backend, reports the exchange to an optional observer (the
engine uses this to write the audit log), and parses the completion
into a typed verdict. Parse failures surface as typed errors; nothing
is fabricated on the model's behalf.

Inside a memoized() scope, a (kind, rendered prompt) pair already sent
from the same thread is answered from the scope's table instead of the
backend. A hit sends nothing, so the observer does not see it. The
table belongs to the thread that opened the scope and is dropped when
the scope exits.
"""

from __future__ import annotations

import logging
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

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
    def __init__(self, backend: Backend, observer: ExchangeObserver | None = None) -> None:
        self.backend = backend
        self._observer = observer
        self._local = threading.local()

    @contextmanager
    def memoized(self) -> Iterator[None]:
        """Send each distinct prompt at most once from this thread until exit.

        The key is the whole rendered prompt, so a changed input is a new
        key. A scope opened inside another shares the outer table.
        """
        outer = getattr(self._local, "memo", None)
        self._local.memo = {} if outer is None else outer
        try:
            yield
        finally:
            self._local.memo = outer

    def _run(self, kind: PromptKind, inputs: dict):
        rendered = render_prompt(kind, inputs)
        memo = getattr(self._local, "memo", None)
        raw = None if memo is None else memo.get((kind, rendered))
        if raw is None:
            raw = self.backend.complete(kind, rendered)
            if memo is not None:
                memo[(kind, rendered)] = raw
            if self._observer is not None:
                self._observer(kind, rendered, raw)
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
