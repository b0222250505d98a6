"""Answer-time memory selection.

Two retrievers over the same narrative bank:

* coherence: the reasoning backend picks headlines it judges relevant
  (plot or subplot), and graph patterns translated from the question run
  against the semantic store.
* embedding: cosine similarity between the query and leaf headlines,
  episodic only. This is the comparison baseline, deliberately blind to
  narrative structure beyond the headline text.

A leaf is a subplot where subplots exist, else the whole narrative.
Choices resolve to fragment blocks by key lookup in the bank: exact
(owner, topic) after whitespace normalization, where a subplot's
headline is its topic. Fact patterns are looked up in the triple
store's indexes. Unresolved choices are dropped with a warning, never
substituted.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .episodic import Fragment, MemoryBank, Narrative, Subplot, normalize_label
from .errors import MalformedInput
from .formatting import facts_text as _facts_text
from .formatting import coherence_headlines, story_block, subplot_block, tokenize
from .parsing import RetrievalChoice, TriplePattern
from .reasoner import Reasoner
from .semantic import TripleFact, TripleStore
from .transcript import count_tokens

logger = logging.getLogger(__name__)

DEFAULT_EMBEDDING_DIM = 256


@dataclass(frozen=True)
class RetrievedBlock:
    owner: str
    topic: str  # the chosen headline (subplot headline for subplot blocks)
    kind: str  # "plot" | "subplot"
    parent_topic: str | None
    text: str
    turn_ids: tuple[str, ...]
    fragment_count: int
    score: float | None = None  # embedding path only


@dataclass
class RetrievalResult:
    query: str
    retriever: str  # "coherence" | "embedding"
    k: int
    blocks: list[RetrievedBlock] = field(default_factory=list)
    facts: list[TripleFact] = field(default_factory=list)

    @property
    def retrieved_turn_ids(self) -> set[str]:
        ids = {t for b in self.blocks for t in b.turn_ids}
        return ids

    def top(self, k: int) -> RetrievalResult:
        """The first k blocks and the first k facts, as a retrieval at k.

        Every retriever here cuts a ranking that does not depend on k, so
        this is what retrieving the same query at k gives (for coherence,
        given the same ranking from the reasoner). k may not exceed the
        result's own k: a shallower retrieval cannot show what lies below.
        """
        if not 1 <= k <= self.k:
            raise MalformedInput(f"top {k} of a retrieval at k={self.k}")
        return RetrievalResult(
            query=self.query,
            retriever=self.retriever,
            k=k,
            blocks=self.blocks[:k],
            facts=self.facts[:k],
        )

    def stories_text(self) -> str:
        return "\n\n".join(b.text for b in self.blocks)

    def facts_as_text(self) -> str:
        return _facts_text(self.facts)

    @property
    def retrieved_token_count(self) -> int:
        return count_tokens(self.stories_text()) + count_tokens(self.facts_as_text())

    def trace(self) -> dict:
        return {
            "query": self.query,
            "retriever": self.retriever,
            "k": self.k,
            "choices": [
                {
                    "owner": b.owner,
                    "topic": b.topic,
                    "kind": b.kind,
                    "parent_topic": b.parent_topic,
                    "fragments": b.fragment_count,
                    "score": b.score,
                }
                for b in self.blocks
            ],
            "facts": [f.render() for f in self.facts],
            "retrieved_turn_ids": sorted(self.retrieved_turn_ids),
            "retrieved_tokens": self.retrieved_token_count,
        }


def _turn_ids(fragments: Iterable[Fragment]) -> tuple[str, ...]:
    """The fragments' turn ids, first occurrence first, without repeats."""
    return tuple(dict.fromkeys(t for f in fragments for t in f.turn_ids))


def _plot_block(n: Narrative, score: float | None = None) -> RetrievedBlock:
    return RetrievedBlock(
        owner=n.owner,
        topic=n.topic,
        kind="plot",
        parent_topic=None,
        text=story_block(n),
        turn_ids=_turn_ids(n.fragments),
        fragment_count=len(n.fragments),
        score=score,
    )


def _sub_block(n: Narrative, s: Subplot, score: float | None = None) -> RetrievedBlock:
    frags = n.subplot_fragments(s)
    return RetrievedBlock(
        owner=n.owner,
        topic=s.headline,
        kind="subplot",
        parent_topic=n.topic,
        text=subplot_block(n, s),
        turn_ids=_turn_ids(frags),
        fragment_count=len(frags),
        score=score,
    )


def resolve_choices(
    bank: MemoryBank, choices: list[RetrievalChoice], k: int
) -> list[RetrievedBlock]:
    """Exact-match choice resolution, deduplicated, truncated to k.

    A plot whose (owner, topic) matches wins over a same-named subplot;
    among subplots, MemoryBank.find_subplot picks.
    """
    blocks: list[RetrievedBlock] = []
    seen: set[tuple[str, str, str]] = set()
    for choice in choices:
        narrative = bank.find(choice.owner, choice.topic)
        subplot = None
        if narrative is None:
            found = bank.find_subplot(choice.owner, choice.topic)
            if found is None:
                logger.warning(
                    "dropping unresolved retrieval choice (%s, %s)", choice.owner, choice.topic
                )
                continue
            narrative, subplot = found
        key = (
            normalize_label(choice.owner),
            normalize_label(choice.topic),
            "plot" if subplot is None else "subplot",
        )
        if key in seen:
            continue
        seen.add(key)
        blocks.append(_plot_block(narrative) if subplot is None else _sub_block(narrative, subplot))
        if len(blocks) == k:
            break
    return blocks


def _pattern_terms(patterns: list[TriplePattern]) -> list[str]:
    terms: list[str] = []
    for p in patterns:
        for term in (p.subject, p.obj):
            if term != "?" and term not in terms:
                terms.append(term)
    return terms


def retrieve_semantic(
    store: TripleStore, reasoner: Reasoner, question: str, k: int
) -> list[TripleFact]:
    """Graph-pattern retrieval with an entity-neighborhood fallback.

    Each pattern is looked up in the store's field indexes. Empty stores
    skip the translation call entirely. When every pattern comes back
    empty, the non-wildcard terms get one pass over the store's exact and
    token indexes.
    """
    if len(store) == 0:
        return []
    patterns = reasoner.translate(question)
    if not patterns:
        return []
    facts: list[TripleFact] = []
    seen = set()

    def take(found: list[TripleFact]) -> None:
        for f in found:
            key = f.identity()
            if key not in seen:
                seen.add(key)
                facts.append(f)

    for p in patterns:
        take(store.query(subject=p.subject, predicate=p.predicate, obj=p.obj))
    if not facts:
        for term in _pattern_terms(patterns):
            take(store.entity_neighborhood(term))
    return facts[:k]


def retrieve_coherence(
    bank: MemoryBank, store: TripleStore, reasoner: Reasoner, question: str, k: int
) -> RetrievalResult:
    """The top k stories the reasoner ranks for the question, plus facts.

    The prompt asks for the top k stories and the ranking is cut to its
    first k resolved blocks; the facts are cut to k as well. A caller
    that reads one question at several k retrieves once at the largest
    and takes RetrievalResult.top of it for each.
    """
    result = RetrievalResult(query=question, retriever="coherence", k=k)
    if len(bank) > 0:
        choices = reasoner.choose_stories(k, question, coherence_headlines(bank))
        result.blocks = resolve_choices(bank, choices, k)
    result.facts = retrieve_semantic(store, reasoner, question, k)
    return result


# --- embedding baseline ---------------------------------------------------------


class HashedBagEmbedding:
    """Deterministic bag-of-words embedding for offline tests and baselines.

    Tokens hash into a fixed number of buckets (blake2b), counts are
    L2-normalized. A vector is sparse: {bucket: weight}, nonzero buckets
    only. Pure: the same text always embeds identically.
    """

    kind = "deterministic-test"

    def __init__(self, dimension: int = DEFAULT_EMBEDDING_DIM) -> None:
        self.dimension = dimension
        self._cache: dict[str, dict[int, float]] = {}

    def _bucket(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.dimension

    def embed_one(self, text: str) -> dict[int, float]:
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        counts = Counter(self._bucket(token) for token in tokenize(text))
        norm = math.sqrt(sum(c * c for c in counts.values()))
        vec = {bucket: c / norm for bucket, c in counts.items()}
        self._cache[text] = vec
        return vec


def _dot(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    """a[i] * b[i] summed over shared indices in 32 lanes (index mod 32),
    folded as OpenBLAS's AVX-512 dot product folds its lanes.

    Float sums depend on their order. In this order a cosine of 256-bucket
    vectors equals, digit for digit, the dense float64 cosine numpy
    computes through that kernel. So embedding scores, and their ties, are
    those already recorded in run directories and test pins, on any machine.
    """
    lanes = [0.0] * 32
    for i in sorted(a.keys() & b.keys()):
        lanes[i % 32] += a[i] * b[i]
    quads = [[lanes[g + m] + lanes[g + m + 4] for m in range(4)] for g in range(0, 32, 8)]
    w = [((q0 + q1) + q2) + q3 for q0, q1, q2, q3 in zip(*quads)]
    return (w[0] + w[2]) + (w[1] + w[3])


def cosine(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    """Cosine of two sparse vectors ({index: weight}); 0.0 if either is zero."""
    na, nb = math.sqrt(_dot(a, a)), math.sqrt(_dot(b, b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return _dot(a, b) / (na * nb)


def _leaves(bank: MemoryBank) -> list[tuple[Narrative, Subplot | None]]:
    leaves: list[tuple[Narrative, Subplot | None]] = []
    for n in bank.narratives():
        if n.subplots:
            leaves.extend((n, s) for s in n.subplots)
        else:
            leaves.append((n, None))
    return leaves


def retrieve_embedding(
    bank: MemoryBank, provider, question: str, k: int
) -> RetrievalResult:
    """Top-k leaves by cosine(query, leaf headline); ties keep bank order."""
    result = RetrievalResult(query=question, retriever="embedding", k=k)
    leaves = _leaves(bank)
    if not leaves:
        return result
    qvec = provider.embed_one(question)
    scores: dict[str, float] = {}  # many leaves share a headline
    scored = []
    for idx, (n, s) in enumerate(leaves):
        headline = s.headline if s is not None else n.topic
        if headline not in scores:
            scores[headline] = cosine(qvec, provider.embed_one(headline))
        scored.append((-scores[headline], idx, n, s))
    scored.sort(key=lambda row: (row[0], row[1]))
    for neg_score, _, n, s in scored[:k]:
        if s is None:
            result.blocks.append(_plot_block(n, score=-neg_score))
        else:
            result.blocks.append(_sub_block(n, s, score=-neg_score))
    return result


def similarity_report(question: str, choice_a: str, choice_b: str, provider) -> tuple[float, float]:
    qvec = provider.embed_one(question)
    return (
        cosine(qvec, provider.embed_one(choice_a)),
        cosine(qvec, provider.embed_one(choice_b)),
    )
