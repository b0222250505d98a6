"""Retrieval: choice resolution, semantic lookup, and the embedding baseline."""

from __future__ import annotations

import math
import re
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storymem.backends import Backend, RuleBackend, _section
from storymem.engine import EngineConfig, MemoryEngine
from storymem.episodic import Fragment, MemoryBank, normalize_label
from storymem.errors import MalformedInput
from storymem.formatting import _build_coherence_headlines, coherence_headlines, content_tokens
from storymem.parsing import RetrievalChoice, to_canonical
from storymem.prompts import PromptKind
from storymem.reasoner import Reasoner
from storymem.retrieval import (
    HashedBagEmbedding,
    _plot_block,
    _sub_block,
    cosine,
    resolve_choices,
    retrieve_coherence,
    retrieve_embedding,
    retrieve_semantic,
    similarity_report,
)
from storymem.semantic import TripleFact, TripleStore

TS = datetime(2023, 5, 1, 9, 0)


class CannedBackend(Backend):
    """Fixed completion per kind; any unexpected call fails the test."""

    name = "canned"

    def __init__(self, replies: dict[PromptKind, str]):
        self.replies = dict(replies)
        self.calls: list[PromptKind] = []

    def complete(self, kind: PromptKind, rendered: str) -> str:
        self.calls.append(kind)
        if kind not in self.replies:
            raise AssertionError(f"unexpected backend call: {kind}")
        return self.replies[kind]


class FakeProvider:
    """Embedding provider with hand-picked dense vectors, served sparse."""

    def __init__(self, table: dict[str, list[float]]):
        self.table = table

    def embed_one(self, text: str) -> dict[int, float]:
        return {i: float(x) for i, x in enumerate(self.table[text]) if x}


def demo_bank() -> MemoryBank:
    bank = MemoryBank()
    n1 = bank.extend(
        "Ava",
        "The garden project",
        ["beds are ready", "seedlings went in", "first fruit spotted", "weeded the rows"],
        TS,
        ("s1t1",),
        iteration=1,
    )
    n1.fragments[1] = Fragment.create("seedlings went in", TS, ("s1t2",))
    bank.consolidate(n1, 0, [("Planting the beds", 0, 1), ("Tending the rows", 2, 3)])
    bank.extend("Ben", "The chess club", ["won the opener"], TS, ("s1t3",), iteration=1)
    return bank


# --- choice resolution ---------------------------------------------------------


def test_resolve_plot_and_subplot_choices():
    bank = demo_bank()
    blocks = resolve_choices(
        bank,
        [
            RetrievalChoice(owner="ava", topic="the garden project"),
            RetrievalChoice(owner="Ava", topic="Planting the beds"),
        ],
        k=3,
    )
    assert [(b.kind, b.topic) for b in blocks] == [
        ("plot", "The garden project"),
        ("subplot", "Planting the beds"),
    ]
    assert blocks[0].turn_ids == ("s1t1", "s1t2")
    assert blocks[1].parent_topic == "The garden project"
    assert blocks[1].turn_ids == ("s1t1", "s1t2")
    assert blocks[1].fragment_count == 2
    assert "Story (owner: Ava): Planting the beds [part of: The garden project]" in blocks[1].text


def test_resolve_prefers_plot_over_same_named_subplot():
    bank = MemoryBank()
    shadowed = bank.extend("Ava", "Shared name", ["plot fragment"], TS, ("s1t1",), iteration=1)
    other = bank.extend("Ava", "Other story", ["a", "b"], TS, ("s1t2",), iteration=1)
    bank.consolidate(other, 0, [("Shared name", 0, 1)])
    blocks = resolve_choices(bank, [RetrievalChoice(owner="Ava", topic="Shared name")], k=2)
    assert len(blocks) == 1
    assert blocks[0].kind == "plot"
    assert blocks[0].text.startswith(f"Story (owner: {shadowed.owner}): Shared name")


def test_resolve_subplot_goes_to_the_earliest_narrative_in_bank_order():
    bank = MemoryBank()
    first = bank.extend("Ava", "First story", ["a", "b"], TS, ("s1t1",), iteration=1)
    second = bank.extend("Ava", "Second story", ["c", "d"], TS, ("s1t2",), iteration=1)
    bank.consolidate(second, 0, [("Shared beat", 0, 1)])
    bank.consolidate(first, 0, [("Shared beat", 0, 0), ("shared  BEAT", 1, 1)])
    choice = [RetrievalChoice(owner="ava", topic="Shared beat")]

    (block,) = resolve_choices(bank, choice, k=1)
    assert block.parent_topic == "First story"
    assert (block.turn_ids, block.fragment_count) == (("s1t1",), 1)

    # a rename moves the first story to the end of the bank
    assert bank.rename_topic(first, "First story, widened")
    (block,) = resolve_choices(bank, choice, k=1)
    assert block.parent_topic == "Second story"


def test_resolve_drops_unknown_dedupes_and_truncates():
    bank = demo_bank()
    blocks = resolve_choices(
        bank,
        [
            RetrievalChoice(owner="Nobody", topic="Nothing"),
            RetrievalChoice(owner="Ava", topic="The garden project"),
            RetrievalChoice(owner="AVA", topic="the garden  project"),
            RetrievalChoice(owner="Ben", topic="The chess club"),
            RetrievalChoice(owner="Ava", topic="Tending the rows"),
        ],
        k=2,
    )
    assert [(b.owner, b.topic) for b in blocks] == [
        ("Ava", "The garden project"),
        ("Ben", "The chess club"),
    ]


# --- semantic retrieval -----------------------------------------------------------


def seeded_store() -> TripleStore:
    store = TripleStore()
    store.add(TripleFact("Marta Ionescu", "is", "a chess coach"))
    store.add(TripleFact("Ava", "has", "a kiln"))
    store.add(TripleFact("Ava", "likes", "seafoam glaze"))
    return store


def test_semantic_skips_translation_for_empty_store():
    backend = CannedBackend({})  # any call would fail the test
    facts = retrieve_semantic(TripleStore(), Reasoner(backend), "anything?", k=2)
    assert facts == []
    assert backend.calls == []


def test_semantic_exact_patterns():
    backend = CannedBackend(
        {
            PromptKind.GRAPH_QUERY_TRANSLATE: '[{"subject": "Ava", "predicate": "?", "object": "?"}]'
        }
    )
    facts = retrieve_semantic(seeded_store(), Reasoner(backend), "What about Ava?", k=5)
    assert [(f.predicate, f.obj) for f in facts] == [("has", "a kiln"), ("likes", "seafoam glaze")]


def test_semantic_caps_at_k():
    backend = CannedBackend(
        {
            PromptKind.GRAPH_QUERY_TRANSLATE: '[{"subject": "Ava", "predicate": "?", "object": "?"}]'
        }
    )
    facts = retrieve_semantic(seeded_store(), Reasoner(backend), "What about Ava?", k=1)
    assert [(f.predicate, f.obj) for f in facts] == [("has", "a kiln")]


def test_semantic_neighborhood_fallback_only_when_all_empty():
    # no exact subject "Ionescu": every pattern is empty, so the token
    # neighborhood gets one pass
    backend = CannedBackend(
        {
            PromptKind.GRAPH_QUERY_TRANSLATE: '[{"subject": "Ionescu", "predicate": "?", "object": "?"}]'
        }
    )
    facts = retrieve_semantic(seeded_store(), Reasoner(backend), "Who is Ionescu?", k=3)
    assert [f.subject for f in facts] == ["Marta Ionescu"]

    # one pattern hits: the empty one gets no fallback
    backend = CannedBackend(
        {
            PromptKind.GRAPH_QUERY_TRANSLATE: (
                '[{"subject": "Ava", "predicate": "?", "object": "?"},'
                ' {"subject": "Ionescu", "predicate": "?", "object": "?"}]'
            )
        }
    )
    facts = retrieve_semantic(seeded_store(), Reasoner(backend), "Ava and Ionescu?", k=5)
    assert all(f.subject == "Ava" for f in facts)


def test_semantic_empty_translation_means_no_facts():
    backend = CannedBackend({PromptKind.GRAPH_QUERY_TRANSLATE: "[]"})
    assert retrieve_semantic(seeded_store(), Reasoner(backend), "?", k=3) == []


def test_coherence_empty_bank_skips_choice_prompt():
    backend = CannedBackend({PromptKind.GRAPH_QUERY_TRANSLATE: "[]"})
    result = retrieve_coherence(MemoryBank(), seeded_store(), Reasoner(backend), "q?", k=2)
    assert result.blocks == []
    assert result.facts == []
    assert backend.calls == [PromptKind.GRAPH_QUERY_TRANSLATE]


def test_top_of_a_deeper_coherence_retrieval_keeps_its_own_k():
    prompts = []

    class Recording(CannedBackend):
        def complete(self, kind, rendered):
            prompts.append(rendered)
            return super().complete(kind, rendered)

    backend = Recording(
        {
            PromptKind.COHERENCE_RETRIEVE: (
                "[{'owner': 'Ava', 'topic': 'The garden project'},"
                " {'owner': 'Ben', 'topic': 'The chess club'}]"
            ),
            PromptKind.GRAPH_QUERY_TRANSLATE: '[{"subject": "Ava", "predicate": "?", "object": "?"}]',
        }
    )
    deep = retrieve_coherence(demo_bank(), seeded_store(), Reasoner(backend), "garden?", k=6)
    assert "select the top 6 stories" in prompts[0]
    assert len(deep.blocks) == 2 and len(deep.facts) == 2
    result = deep.top(1)
    assert [b.topic for b in result.blocks] == ["The garden project"]
    assert [f.obj for f in result.facts] == ["a kiln"]
    assert result.k == 1 and result.trace()["k"] == 1
    assert (result.query, result.retriever) == (deep.query, deep.retriever)
    assert deep.top(6) == deep
    # the top of a retrieval never reaches below its own k, nor to nothing
    for k in (0, 7):
        with pytest.raises(MalformedInput):
            deep.top(k)


def test_coherence_resolves_choices_and_facts():
    backend = CannedBackend(
        {
            PromptKind.COHERENCE_RETRIEVE: (
                "[{'owner': 'Ava', 'topic': 'The garden project'},"
                " {'owner': 'Ben', 'topic': 'The chess club'}]"
            ),
            PromptKind.GRAPH_QUERY_TRANSLATE: '[{"subject": "Ava", "predicate": "?", "object": "?"}]',
        }
    )
    result = retrieve_coherence(demo_bank(), seeded_store(), Reasoner(backend), "garden?", k=2)
    assert result.retriever == "coherence"
    assert [(b.owner, b.kind) for b in result.blocks] == [("Ava", "plot"), ("Ben", "plot")]
    assert len(result.facts) == 2
    trace = result.trace()
    assert trace["retrieved_turn_ids"] == ["s1t1", "s1t2", "s1t3"]
    assert trace["retrieved_tokens"] == result.retrieved_token_count
    assert result.facts_as_text().startswith("- Ava | has | a kiln")


# --- embedding baseline --------------------------------------------------------------


def test_hashed_embedding_is_unit_norm_and_pure():
    provider = HashedBagEmbedding(dimension=64)
    vec = provider.embed_one("the kiln schedule changed to Thursdays")
    assert vec and all(0 <= i < 64 and w > 0 for i, w in vec.items())
    assert math.isclose(math.sqrt(sum(w * w for w in vec.values())), 1.0)
    again = HashedBagEmbedding(dimension=64).embed_one("the kiln schedule changed to Thursdays")
    assert vec == again
    assert provider.embed_one("") == {}


def test_cosine_properties():
    a = {0: 1.0}
    b = {1: 1.0}
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, b) == pytest.approx(0.0)
    assert cosine(a, {}) == 0.0
    mixed = {0: 3.0, 1: 4.0}
    assert cosine({0: 5.0}, {0: 6.0, 1: 8.0}) == pytest.approx(cosine(a, mixed))
    assert cosine(a, mixed) == pytest.approx(0.6)


sparse_vectors = st.dictionaries(
    st.integers(0, 255), st.floats(0.01, 100.0, allow_nan=False), max_size=24
)


@settings(max_examples=200, deadline=None)
@given(sparse_vectors, sparse_vectors)
def test_cosine_matches_a_plain_sum(a, b):
    """cosine adds in lanes; the result is the textbook formula's, to rounding."""
    def norm(v):
        return math.sqrt(math.fsum(w * w for w in v.values()))

    if not a or not b:
        assert cosine(a, b) == 0.0
        return
    want = math.fsum(a[i] * b[i] for i in a.keys() & b.keys()) / (norm(a) * norm(b))
    assert cosine(a, b) == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert cosine(a, b) == cosine(dict(reversed(a.items())), b)


def test_embedding_retrieval_uses_subplots_as_leaves():
    bank = demo_bank()
    provider = FakeProvider(
        {
            "kiln day?": [1.0, 0.0],
            "Planting the beds": [0.8, 0.2],
            "Tending the rows": [0.0, 1.0],
            "The chess club": [0.6, 0.8],
        }
    )
    result = retrieve_embedding(bank, provider, "kiln day?", k=2)
    assert result.retriever == "embedding"
    # the consolidated narrative competes through its subplots, never its plot
    assert [(b.kind, b.topic) for b in result.blocks] == [
        ("subplot", "Planting the beds"),
        ("plot", "The chess club"),
    ]
    scores = [b.score for b in result.blocks]
    assert scores == sorted(scores, reverse=True)
    assert result.facts == []


def test_embedding_ties_keep_bank_order():
    bank = MemoryBank()
    bank.extend("Ava", "First topic", ["x"], TS, (), iteration=1)
    bank.extend("Ben", "Second topic", ["y"], TS, (), iteration=1)
    bank.extend("Cleo", "Third topic", ["z"], TS, (), iteration=1)
    provider = FakeProvider(
        {
            "q": [1.0, 0.0],
            "First topic": [0.5, 0.5],
            "Second topic": [0.5, 0.5],
            "Third topic": [0.0, 1.0],
        }
    )
    result = retrieve_embedding(bank, provider, "q", k=2)
    assert [b.topic for b in result.blocks] == ["First topic", "Second topic"]


def test_embedding_empty_bank():
    result = retrieve_embedding(MemoryBank(), HashedBagEmbedding(), "q", k=2)
    assert result.blocks == []


def test_similarity_report_is_directional():
    provider = HashedBagEmbedding()
    sim_same, sim_other = similarity_report(
        "marathon bib number", "marathon bib number pickup", "pottery glaze colors", provider
    )
    assert sim_same > sim_other


# --- choice resolution parity with a whole-bank scan ------------------------------


def scan_resolve(bank: MemoryBank, choices: list[RetrievalChoice], k: int):
    """Choice resolution by walking every narrative and subplot: the oracle."""
    narratives = bank.narratives()
    blocks = []
    seen = set()
    for choice in choices:
        owner = normalize_label(choice.owner)
        topic = normalize_label(choice.topic)
        resolved = None
        for n in narratives:
            if (normalize_label(n.owner), normalize_label(n.topic)) == (owner, topic):
                resolved = _plot_block(n)
                break
        if resolved is None:
            for n in narratives:
                if normalize_label(n.owner) != owner:
                    continue
                for s in n.subplots:
                    if normalize_label(s.headline) == topic:
                        resolved = _sub_block(n, s)
                        break
                if resolved is not None:
                    break
        if resolved is None:
            continue
        key = (owner, topic, resolved.kind)
        if key in seen:
            continue
        seen.add(key)
        blocks.append(resolved)
        if len(blocks) == k:
            break
    return blocks


# labels overlap on purpose: case and spacing variants of one owner and one
# headline, a topic that doubles as a headline, names no narrative takes
OWNERS = ["Ava", "ava ", "Ben", "Nobody"]
TOPICS = ["Garden", "garden", "Kiln  day", "Shared"]
HEADLINES = ["Shared", "shared ", "Planting"]


def bank_ops_over(topics: list[str], headlines: list[str]):
    return st.lists(
        st.one_of(
            # two new fragments, then subplots over them (out-of-range ends
            # clip, empty intervals drop)
            st.tuples(
                st.just("grow"), st.sampled_from(OWNERS[:3]), st.sampled_from(topics),
                st.lists(
                    st.tuples(st.sampled_from(headlines), st.integers(0, 1), st.integers(0, 2)),
                    max_size=2,
                ),
            ),
            st.tuples(st.just("rename"), st.integers(0, 20), st.sampled_from(topics + ["Later"])),
        ),
        min_size=4,
        max_size=16,
    )


bank_ops = bank_ops_over(TOPICS, HEADLINES)
choice_lists = st.lists(
    st.builds(
        RetrievalChoice,
        owner=st.sampled_from(OWNERS),
        # headlines twice as likely, so that subplots get chosen often
        topic=st.sampled_from(TOPICS + HEADLINES + HEADLINES + ["Nothing"]),
    ),
    min_size=1,
    max_size=8,
)


def build_bank(ops, observer=None) -> MemoryBank:
    bank = MemoryBank()
    bank.observer = observer
    for step, op in enumerate(ops):
        if op[0] == "grow":
            _, owner, topic, items = op
            texts = [f"fragment {step}.{j}" for j in range(2)]
            narrative = bank.extend(owner, topic, texts, TS, (f"t{step}",), iteration=step)
            if items:
                start, _ = narrative.consolidation_window(2)
                bank.consolidate(narrative, start, items)
        else:
            narratives = bank.narratives()
            if narratives:
                bank.rename_topic(narratives[op[1] % len(narratives)], op[2])
    return bank


@settings(max_examples=250, deadline=None)
@given(bank_ops, choice_lists, st.integers(1, 6))
def test_resolve_choices_matches_bank_scan(ops, choices, k):
    events: list[dict] = []
    bank = build_bank(ops, observer=events.append)
    want = scan_resolve(bank, choices, k)
    assert resolve_choices(bank, choices, k) == want

    # the same bank, read back from its dict and folded from its event log
    assert resolve_choices(MemoryBank.from_dict(bank.to_dict()), choices, k) == want
    folded = MemoryBank()
    for event in events:
        folded.apply(event)
    assert resolve_choices(folded, choices, k) == want


@settings(max_examples=150, deadline=None)
@given(bank_ops, choice_lists, st.integers(1, 6), st.integers(0, 6))
def test_resolving_at_a_depth_then_cutting_equals_resolving_at_k(ops, choices, k, extra):
    """Why one ranking serves every k: the first k blocks resolved from a
    deeper list are the blocks the list resolves to at k, unresolved and
    duplicate choices included."""
    bank = build_bank(ops)
    assert resolve_choices(bank, choices, k) == resolve_choices(bank, choices, k + extra)[:k]


fact_lists = st.lists(
    st.builds(
        TripleFact,
        subject=st.sampled_from(["Ava", "Ben", "Ava Stone"]),
        predicate=st.sampled_from(["has", "likes"]),
        obj=st.sampled_from(["a kiln", "the garden", "Ben", "tea"]),
    ),
    max_size=10,
)
TOP_QUESTION_WORDS = ["Ava", "Ben", "Stone", "garden", "kiln", "shared", "planting", "day"]


@settings(max_examples=120, deadline=None)
@given(
    bank_ops,
    fact_lists,
    st.lists(st.sampled_from(TOP_QUESTION_WORDS), min_size=1, max_size=4),
    st.integers(1, 6),
    st.integers(0, 6),
)
def test_top_of_a_deeper_retrieval_is_the_retrieval_at_k(ops, facts, words, k, extra):
    """Why an evaluation retrieves each question once: for both retrievers,
    the top k of a retrieval at depth d >= k is the retrieval at k, blocks,
    facts and trace alike (the rule backend's top-k ranking is a prefix of
    its deeper ones). The top of a retrieval never reaches below its k."""
    engine = MemoryEngine(EngineConfig(B=0), RuleBackend())
    engine.bank = build_bank(ops)
    for fact in facts:
        engine.store.add(fact)
    question = "so " + " ".join(words) + "?"
    depth = k + extra
    try:
        for retriever in ("coherence", "embedding"):
            deep, _ = engine.retrieve(question, k=depth, retriever=retriever)
            shallow, _ = engine.retrieve(question, k=k, retriever=retriever)
            assert deep.top(k) == shallow
            assert deep.top(k).trace() == shallow.trace()
            with pytest.raises(MalformedInput):
                deep.top(depth + 1)
    finally:
        engine.close()


@settings(max_examples=60, deadline=None)
@given(bank_ops)
def test_cached_outline_follows_every_bank_change(ops):
    def check(bank: MemoryBank) -> None:
        assert coherence_headlines(bank) == _build_coherence_headlines(bank)

    live = MemoryBank()
    events: list[dict] = []
    live.observer = events.append
    folded = MemoryBank()
    check(live)
    for step, op in enumerate(ops):
        if op[0] == "grow":
            _, owner, topic, items = op
            narrative = live.get_or_create(owner, topic)
            check(live)
            live.append_fragments(narrative, [Fragment.create(f"f{step}", TS, (f"t{step}",))], step)
            check(live)
            if items:
                live.consolidate(narrative, 0, items)
        else:
            narratives = live.narratives()
            if narratives:
                live.rename_topic(narratives[op[1] % len(narratives)], op[2])
        check(live)
        for event in events:
            folded.apply(event)
            check(folded)
        events.clear()
    restored = MemoryBank.from_dict(live.to_dict())
    check(restored)
    assert coherence_headlines(restored) == coherence_headlines(live) == coherence_headlines(folded)


# --- the nested outline against the flat one it replaced ---------------------------

_FLAT_LINE = re.compile(
    r"^- owner: (?P<owner>.*?) \| topic: (?P<topic>.*?)(?P<sub> \[sub-story of: .*\])?$"
)


def flat_outline(bank: MemoryBank) -> str:
    """The outline before nesting: each sub-story line restated its owner
    and its parent topic."""
    lines: list[str] = []
    for n in bank.narratives():
        lines.append(f"- owner: {n.owner} | topic: {n.topic}")
        for s in n.subplots:
            lines.append(f"- owner: {n.owner} | topic: {s.headline} [sub-story of: {n.topic}]")
    return "\n".join(lines) if lines else "(none)"


class FlatRuleBackend(RuleBackend):
    """RuleBackend with the ranking it used on the flat outline."""

    def _coherence(self, rendered: str) -> str:
        k = int(re.search(r"select the top (\d+) stories", rendered).group(1))
        qtokens = content_tokens(_section(rendered, "Question:", "Stories:"))
        scored = []
        stories_text = _section(rendered, "Stories:", "Output format:")
        for idx, line in enumerate(stories_text.splitlines()):
            hm = _FLAT_LINE.match(line.strip())
            if not hm:
                continue
            tokens = content_tokens(f"{hm.group('owner')} {hm.group('topic')}")
            score = len(tokens & qtokens) + (0.25 if hm.group("sub") else 0.0)
            scored.append((-score, idx, hm.group("owner"), hm.group("topic")))
        scored.sort()
        choices: list[RetrievalChoice] = []
        seen = set()
        for _, _, owner, topic in scored:
            if (owner.casefold(), topic.casefold()) not in seen:
                seen.add((owner.casefold(), topic.casefold()))
                choices.append(RetrievalChoice(owner=owner, topic=topic))
        return to_canonical(PromptKind.COHERENCE_RETRIEVE, choices[:k])


def read_outline(outline: str) -> list[tuple[str, str, str]]:
    """(kind, owner, headline) per line: a plot line ``- <owner>: <topic>``
    with the owner up to the first ``": "``, or an indented sub-story line
    ``  - <headline>`` whose owner is that of the plot line above it."""
    rows, owner = [], None
    for line in outline.splitlines():
        if m := re.fullmatch(r"- (.*?): (.*)", line):
            owner = m.group(1)
            rows.append(("plot", owner, m.group(2)))
        else:
            m = re.fullmatch(r"  - (.*)", line)
            assert m and owner is not None, line
            rows.append(("subplot", owner, m.group(1)))
    return rows


def scan_block(bank: MemoryBank, owner: str, headline: str):
    """What a choice of (owner, headline) names, by a walk over the bank: a
    plot under that key, or else the first such subplot in bank order."""
    key = (normalize_label(owner), normalize_label(headline))
    narratives = bank.narratives()
    for n in narratives:
        if (normalize_label(n.owner), normalize_label(n.topic)) == key:
            return _plot_block(n)
    for n in narratives:
        for s in n.subplots:
            if (normalize_label(n.owner), normalize_label(s.headline)) == key:
                return _sub_block(n, s)
    raise AssertionError(f"nothing in the bank is named {key}")


QUESTION_WORDS = ["ava", "ben", "garden", "kiln", "day", "shared", "planting", "later", "why"]


# labels shaped like the outline's own lines: a topic that holds ": " and a
# sub-story headline that reads as a plot line
line_shaped_bank_ops = bank_ops_over(TOPICS + ["Kiln: day two"], HEADLINES + ["Ava: Shared"])


@settings(max_examples=200, deadline=None)
@given(line_shaped_bank_ops, st.lists(st.sampled_from(QUESTION_WORDS), min_size=1, max_size=4))
def test_nested_outline_keeps_every_headline_and_every_choice(ops, words):
    bank = build_bank(ops)
    outline = coherence_headlines(bank)
    narratives = bank.narratives()

    # one line per plot and per subplot, in bank order
    want = []
    for n in narratives:
        want.append(("plot", n.owner, n.topic))
        want += [("subplot", n.owner, s.headline) for s in n.subplots]
    rows = read_outline(outline) if narratives else []
    assert rows == want if narratives else outline == "(none)"

    # each line's (owner, headline) names its own plot or subplot; a name
    # that several lines share resolves as a walk over the bank does (the
    # flat outline's lines carried the same names)
    own = []
    for n in narratives:
        own.append(_plot_block(n))
        own += [_sub_block(n, s) for s in n.subplots]
    keys = [(normalize_label(owner), normalize_label(headline)) for _, owner, headline in rows]
    for (_, owner, headline), key, block in zip(rows, keys, own):
        [resolved] = resolve_choices(bank, [RetrievalChoice(owner=owner, topic=headline)], 1)
        assert resolved == (block if keys.count(key) == 1 else scan_block(bank, owner, headline))

    # the rule backend ranks the nested outline as it ranked the flat one
    question = " ".join(words) + "?"
    nested, flat = Reasoner(RuleBackend()), Reasoner(FlatRuleBackend())
    for k in range(1, 7):
        assert nested.choose_stories(k, question, outline) == flat.choose_stories(
            k, question, flat_outline(bank)
        )
        # an indented line with no plot above it is skipped, even when it
        # matches the question best or reads as a plot line
        for orphan in (f"  - {question}", f"  - Ava: {question}"):
            assert nested.choose_stories(
                k, question, f"{orphan}\n{outline}"
            ) == nested.choose_stories(k, question, outline)
