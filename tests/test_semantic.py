"""Triple store: matching semantics, neighborhood lookup, serialization, distillation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storymem.errors import MalformedInput
from storymem.semantic import TripleFact, TripleStore, fact_to_triple, normalize_term


def store_with(*rows: tuple[str, str, str]) -> TripleStore:
    store = TripleStore()
    for s, p, o in rows:
        store.add(TripleFact(subject=s, predicate=p, obj=o))
    return store


def test_render_and_identity():
    f = TripleFact("Marta", "is", "a coach", timestamp="2023-05-16")
    assert f.render() == "Marta | is | a coach (2023-05-16)"
    assert TripleFact("A", "b", "C").render() == "A | b | C"
    assert f.identity() == ("marta", "is", "a coach", "2023-05-16")


def test_add_deduplicates_on_normalized_identity():
    store = TripleStore()
    assert store.add(TripleFact("Marta  Ionescu", "is", "a Coach")) is True
    assert store.add(TripleFact("marta ionescu", "IS", "a coach")) is False
    assert len(store) == 1
    # a different timestamp is a different fact
    assert store.add(TripleFact("marta ionescu", "is", "a coach", timestamp="t1")) is True
    assert len(store) == 2


def test_query_exact_and_wildcards():
    store = store_with(
        ("Ava", "likes", "tomatoes"),
        ("Ben", "likes", "chess"),
        ("Ava", "has", "a kiln"),
    )
    assert [f.obj for f in store.query(subject="ava")] == ["tomatoes", "a kiln"]
    assert [f.subject for f in store.query(predicate="likes")] == ["Ava", "Ben"]
    assert [f.subject for f in store.query(obj="CHESS")] == ["Ben"]
    assert len(store.query()) == 3
    for wildcard in (None, "", "?", "*", "  "):
        assert len(store.query(subject=wildcard)) == 3
    assert store.query(subject="ava", predicate="likes", obj="chess") == []


def test_entity_neighborhood_prefers_exact():
    store = store_with(
        ("Caroline", "is", "a nurse"),
        ("Caroline Mercer", "has", "a boat"),
        ("Ben", "met", "Caroline Mercer"),
    )
    # exact normalized hit wins and suppresses token matches
    exact = store.entity_neighborhood("caroline")
    assert [f.subject for f in exact] == ["Caroline"]
    # no exact hit: fall back to whole-token containment on either side
    tokens = store.entity_neighborhood("Mercer")
    assert [(f.subject, f.obj) for f in tokens] == [
        ("Caroline Mercer", "a boat"),
        ("Ben", "Caroline Mercer"),
    ]
    # multi-word needles only ever match exactly
    assert store.entity_neighborhood("Caroline Mercer") != []
    assert store.entity_neighborhood("the Caroline Mercer") == []
    assert store.entity_neighborhood("   ") == []


def test_jsonl_round_trip(tmp_path):
    store = TripleStore()
    store.add(TripleFact("Ava", "has", "a kiln", timestamp="2023-05-08", source=("Ava", "Pottery")))
    store.add(TripleFact("Ben", "likes", "chess"))
    text = store.to_jsonl()
    assert text.endswith("\n")
    again = TripleStore.from_jsonl(text)
    assert [f.identity() for f in again.facts()] == [f.identity() for f in store.facts()]
    assert again.facts()[0].source == ("Ava", "Pottery")

    path = tmp_path / "facts.jsonl"
    path.write_text(text)
    assert len(TripleStore.from_jsonl(path.read_text())) == 2

    assert TripleStore.from_jsonl("").to_jsonl() == ""
    with pytest.raises(MalformedInput):
        TripleStore.from_jsonl('{"subject": "only"}\n')
    with pytest.raises(MalformedInput):
        TripleStore.from_jsonl("not json\n")


def test_fact_to_triple_splits_on_earliest_verb():
    t = fact_to_triple("Her coach is Marta Ionescu.", owner="Ben")
    assert (t.subject, t.predicate, t.obj) == ("Her coach", "is", "Marta Ionescu")
    # earliest linking verb wins even when a later one also matches
    t = fact_to_triple("The kiln was moved and is hot", owner="Ava")
    assert (t.subject, t.predicate, t.obj) == ("The kiln", "was", "moved and is hot")
    # multi-word verbs split as a unit
    t = fact_to_triple("Marta lives in Cluj", owner="Ben")
    assert (t.subject, t.predicate, t.obj) == ("Marta", "lives in", "Cluj")


def test_fact_to_triple_fallback_keeps_everything():
    t = fact_to_triple("Ran twelve kilometers twice.", owner="Ava", timestamp="t0")
    assert (t.subject, t.predicate, t.obj) == ("Ava", "mentioned", "Ran twelve kilometers twice")
    assert t.timestamp == "t0"
    # a verb with nothing in front of it cannot split
    t = fact_to_triple("is everything fine", owner="Ben")
    assert t.predicate == "mentioned"
    t = fact_to_triple("  spaced   out   note ", owner="Ben", source=("Ben", "Notes"))
    assert t.obj == "spaced out note"
    assert t.source == ("Ben", "Notes")


# --- property: query equals the naive filter -----------------------------------

term = st.sampled_from(["Ava", "ava ", "Ben", "kiln", "Chess", "glaze", "x y"])
maybe = st.one_of(st.none(), st.just("?"), term)


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(st.tuples(term, term, term), max_size=25),
    pattern=st.tuples(maybe, maybe, maybe),
)
def test_query_matches_naive_filter(rows, pattern):
    store = TripleStore()
    kept = []
    seen = set()
    for s, p, o in rows:
        fact = TripleFact(s, p, o)
        if store.add(fact):
            kept.append(fact)
            assert fact.identity() not in seen
            seen.add(fact.identity())

    want_s, want_p, want_o = pattern
    expected = [
        f
        for f in kept
        if (want_s in (None, "?") or normalize_term(f.subject) == normalize_term(want_s))
        and (want_p in (None, "?") or normalize_term(f.predicate) == normalize_term(want_p))
        and (want_o in (None, "?") or normalize_term(f.obj) == normalize_term(want_o))
    ]
    assert store.query(subject=want_s, predicate=want_p, obj=want_o) == expected
