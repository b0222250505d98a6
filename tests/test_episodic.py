"""Narrative bank behavior: fragments, subplots, consolidation windows, snapshots."""

from __future__ import annotations

from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storymem.episodic import (
    Fragment,
    MemoryBank,
    Narrative,
    Subplot,
    fragment_id_for,
    normalize_label,
)
from storymem.errors import CorruptSnapshot

TS = datetime(2023, 5, 1, 9, 0)


def make_narrative(n_fragments: int, owner: str = "Ava", topic: str = "The plan") -> Narrative:
    narrative = Narrative(owner=owner, topic=topic)
    frags = [Fragment.create(f"item {i}", TS, (f"s1t{i + 1}",)) for i in range(n_fragments)]
    narrative.append_fragments(frags, iteration=1)
    return narrative


def test_normalize_label():
    assert normalize_label("  The   Garden  ") == "the garden"
    assert normalize_label("MARATHON") == "marathon"


def test_fragment_identity_is_content_addressed():
    a = Fragment.create("same text", TS)
    b = Fragment.create("same text", TS)
    c = Fragment.create("same text", datetime(2023, 5, 2))
    assert a.fragment_id == b.fragment_id == fragment_id_for("same text", TS)
    assert a.fragment_id != c.fragment_id
    assert len(a.fragment_id) == 12


def test_get_or_create_normalizes_keys():
    bank = MemoryBank()
    n1 = bank.get_or_create("Ava ", " the  Garden")
    n2 = bank.get_or_create("ava", "THE GARDEN")
    assert n1 is n2
    assert len(bank) == 1
    # display form keeps the first-seen casing, whitespace collapsed
    assert n1.owner == "Ava"
    assert n1.topic == "the Garden"
    assert bank.find("AVA", "the garden") is n1
    assert bank.find("Ben", "the garden") is None


def test_extend_appends_and_tracks_binding():
    bank = MemoryBank()
    n = bank.extend("Ava", "Topic", ["one", " ", "two"], TS, ("s1t1",), iteration=5)
    assert [f.text for f in n.fragments] == ["one", "two"]
    assert n.last_bound_iteration == 5
    # duplicates are appended, not collapsed
    bank.extend("Ava", "Topic", ["one"], TS, ("s1t2",), iteration=7)
    assert [f.text for f in n.fragments] == ["one", "two", "one"]
    assert n.last_bound_iteration == 7
    # an older iteration never rolls the binding clock back
    bank.extend("Ava", "Topic", ["three"], TS, ("s1t3",), iteration=3)
    assert n.last_bound_iteration == 7


def test_is_inactive_boundary():
    n = make_narrative(1)
    n.last_bound_iteration = 10
    assert not n.is_inactive(10)
    assert not n.is_inactive(11)  # bound on the previous tick: still active
    assert n.is_inactive(12)  # one full tick without binding
    assert n.is_inactive(13)


def test_consolidation_window_caps_to_recent():
    n = make_narrative(12)
    start, window = n.consolidation_window(10)
    assert start == 2
    assert [f.text for f in window] == [f"item {i}" for i in range(2, 12)]
    n.consolidated_through = 11
    start, window = n.consolidation_window(10)
    assert start == 11
    assert [f.text for f in window] == ["item 11"]


def test_apply_consolidation_creates_subplots():
    n = make_narrative(6)
    created = n.apply_consolidation(0, [("first pair", 0, 1), ("rest", 2, 5)])
    assert [s.headline for s in created] == ["first pair", "rest"]
    assert created[0].fragment_indices == (0, 1)
    assert created[1].fragment_indices == (2, 3, 4, 5)
    assert n.consolidated_through == 6
    assert [f.text for f in n.subplot_fragments(created[0])] == ["item 0", "item 1"]


def test_apply_consolidation_clips_and_drops():
    n = make_narrative(4)
    created = n.apply_consolidation(
        0,
        [
            ("overlong", 2, 9),  # end clipped to the window
            ("", 0, 1),  # blank headline dropped
            ("inverted", 3, 9),  # clips to (3, 3): survives
        ],
    )
    assert [s.headline for s in created] == ["overlong", "inverted"]
    assert created[0].fragment_indices == (2, 3)
    assert created[1].fragment_indices == (3,)
    # the window counts as consolidated even when items were dropped
    assert n.consolidated_through == 4
    assert n.unconsolidated_count() == 0


def test_apply_consolidation_window_offset():
    n = make_narrative(8)
    n.consolidated_through = 5
    start, window = n.consolidation_window(10)
    assert start == 5
    created = n.apply_consolidation(start, [("tail", 0, len(window) - 1)])
    assert created[0].fragment_indices == (5, 6, 7)


def test_rename_topic():
    bank = MemoryBank()
    n = bank.extend("Ava", "Old topic", ["x"], TS, (), iteration=1)
    assert bank.rename_topic(n, "Broader topic") is True
    assert bank.find("Ava", "Broader topic") is n
    assert bank.find("Ava", "Old topic") is None
    # renaming onto itself is a no-op
    assert bank.rename_topic(n, "broader  TOPIC") is False
    # renaming onto another narrative is refused
    other = bank.extend("Ava", "Other", ["y"], TS, (), iteration=1)
    assert bank.rename_topic(other, "Broader topic") is False
    assert bank.find("Ava", "Other") is other


def test_snapshot_round_trip_explicit():
    bank = MemoryBank()
    n = bank.extend("Ava", "Topic", ["one", "two", "three"], TS, ("s1t1", "s1t2"), iteration=4)
    n.apply_consolidation(0, [("pair", 0, 1)])
    restored = MemoryBank.from_dict(bank.to_dict())
    assert restored.to_dict() == bank.to_dict()
    rn = restored.find("Ava", "Topic")
    assert rn is not None
    assert rn.last_bound_iteration == 4
    assert rn.consolidated_through == 3
    assert rn.subplots[0].fragment_indices == (0, 1)
    assert [f.fragment_id for f in rn.fragments] == [f.fragment_id for f in n.fragments]


def test_snapshot_rejects_garbage():
    with pytest.raises(CorruptSnapshot):
        MemoryBank.from_dict({"version": 1})
    with pytest.raises(CorruptSnapshot):
        MemoryBank.from_dict(
            {
                "narratives": [
                    {
                        "owner": "Ava",
                        "topic": "T",
                        "fragments": [{"fragment_id": "x", "text": "y", "timestamp": "not-a-date"}],
                        "subplots": [],
                    }
                ]
            }
        )
    with pytest.raises(CorruptSnapshot):
        MemoryBank.from_dict({"narratives": [{"owner": "Ava"}]})


# --- property: snapshots are lossless ------------------------------------------

label_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" "),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip())


@st.composite
def banks(draw) -> MemoryBank:
    bank = MemoryBank()
    for _ in range(draw(st.integers(0, 4))):
        owner = draw(label_text)
        topic = draw(label_text)
        n = bank.get_or_create(owner, topic)
        frag_count = draw(st.integers(0, 6))
        frags = [
            Fragment.create(
                draw(st.text(min_size=1, max_size=20).filter(lambda s: s.strip())),
                datetime(2023, 5, 1 + draw(st.integers(0, 20))),
                tuple(draw(st.lists(st.from_regex(r"s[1-9]t[1-9]", fullmatch=True), max_size=2))),
            )
            for _ in range(frag_count)
        ]
        n.append_fragments(frags, iteration=draw(st.integers(0, 30)))
        if frag_count and draw(st.booleans()):
            hi = draw(st.integers(0, frag_count - 1))
            lo = draw(st.integers(0, hi))
            n.subplots.append(
                Subplot(headline=draw(label_text), fragment_indices=tuple(range(lo, hi + 1)))
            )
        n.consolidated_through = draw(st.integers(0, frag_count))
    return bank


@settings(max_examples=60, deadline=None)
@given(banks())
def test_snapshot_round_trip_property(bank):
    data = bank.to_dict()
    assert MemoryBank.from_dict(data).to_dict() == data
