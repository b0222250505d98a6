"""Narrative bank behavior: fragments, subplots, consolidation windows, snapshots."""

from __future__ import annotations

import ast
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storymem.episodic import (
    Fragment,
    MemoryBank,
    Narrative,
    fragment_id_for,
    normalize_label,
)
from storymem.errors import CorruptSnapshot
from storymem.formatting import coherence_headlines, substories_text

TS = datetime(2023, 5, 1, 9, 0)
SRC = Path(__file__).resolve().parents[1] / "src" / "storymem"


def items(start: int, stop: int) -> list[Fragment]:
    return [Fragment.create(f"item {i}", TS, (f"s1t{i + 1}",)) for i in range(start, stop)]


def make_narrative(n_fragments: int, iteration: int = 1) -> tuple[MemoryBank, Narrative]:
    bank = MemoryBank()
    narrative = bank.get_or_create("Ava", "The plan")
    bank.append_fragments(narrative, items(0, n_fragments), iteration)
    return bank, narrative


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
    _, n = make_narrative(1, iteration=10)
    assert not n.is_inactive(10)
    assert not n.is_inactive(11)  # bound on the previous tick: still active
    assert n.is_inactive(12)  # one full tick without binding
    assert n.is_inactive(13)


def test_consolidation_window_caps_to_recent():
    _, n = make_narrative(12)
    start, window = n.consolidation_window(10)
    assert start == 2
    assert [f.text for f in window] == [f"item {i}" for i in range(2, 12)]
    bank, n = make_narrative(11)
    bank.consolidate(n, 0, [])
    bank.append_fragments(n, items(11, 12), iteration=2)
    start, window = n.consolidation_window(10)
    assert start == 11
    assert [f.text for f in window] == ["item 11"]


def test_apply_consolidation_creates_subplots():
    bank, n = make_narrative(6)
    created = bank.consolidate(n, 0, [("first pair", 0, 1), ("rest", 2, 5)])
    assert [s.headline for s in created] == ["first pair", "rest"]
    assert created[0].fragment_indices == (0, 1)
    assert created[1].fragment_indices == (2, 3, 4, 5)
    assert n.consolidated_through == 6
    assert [f.text for f in n.subplot_fragments(created[0])] == ["item 0", "item 1"]


def test_apply_consolidation_clips_and_drops():
    bank, n = make_narrative(4)
    created = bank.consolidate(
        n,
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

    # a headline with a newline stays one line, so it forges no plot line
    bank, n = make_narrative(2)
    [forged] = bank.consolidate(n, 0, [("Tomatoes\n- Mallory: Secret plans", 0, 1)])
    assert forged.headline == "Tomatoes - Mallory: Secret plans"
    assert coherence_headlines(bank).splitlines() == [
        "- Ava: The plan",
        "  - Tomatoes - Mallory: Secret plans",
    ]
    assert substories_text(n) == "- Tomatoes - Mallory: Secret plans"
    assert bank.find_subplot("Ava", forged.headline) == (n, forged)


def test_apply_consolidation_window_offset():
    bank, n = make_narrative(5)
    assert bank.consolidate(n, 0, []) == []
    bank.append_fragments(n, items(5, 8), iteration=2)
    start, window = n.consolidation_window(10)
    assert start == 5
    created = bank.consolidate(n, start, [("tail", 0, len(window) - 1)])
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


def test_multiline_fragment_is_stored_on_one_line_and_old_logs_fold_as_written():
    bank = MemoryBank()
    n = bank.get_or_create("Ava", "The plan")
    bank.append_fragments(n, [Fragment.create("x planted\n- Mallory:  Secret", TS)], 2)
    one_line = "x planted - Mallory: Secret"
    assert [(f.text, f.fragment_id) for f in n.fragments] == [
        (one_line, fragment_id_for(one_line, TS))
    ]
    # a bank log written before the fragment was collapsed folds to the
    # bank it recorded
    old = MemoryBank()
    old.apply({"op": "create", "owner": "Ava", "topic": "The plan"})
    old.apply({
        "op": "append", "owner": "Ava", "topic": "The plan", "last_bound_iteration": 2,
        "fragments": [{"fragment_id": "abc", "text": "x\ny", "timestamp": TS.isoformat()}],
    })
    assert [(f.fragment_id, f.text) for f in old.find("Ava", "The plan").fragments] == [
        ("abc", "x\ny")
    ]


def test_snapshot_round_trip_explicit():
    bank = MemoryBank()
    n = bank.extend("Ava", "Topic", ["one", "two", "three"], TS, ("s1t1", "s1t2"), iteration=4)
    bank.consolidate(n, 0, [("pair", 0, 1)])
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


def test_snapshot_rejects_two_narratives_under_one_key():
    bank = MemoryBank()
    bank.extend("Ava", "The plan", ["one"], TS, ("s1t1",), iteration=1)
    data = bank.to_dict()
    twin = dict(data["narratives"][0], owner=" AVA", topic="the  PLAN")
    with pytest.raises(CorruptSnapshot):
        MemoryBank.from_dict({**data, "narratives": [*data["narratives"], twin]})


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
        n = bank.get_or_create(draw(label_text), draw(label_text))
        for _ in range(draw(st.integers(1, 2))):
            frags = [
                Fragment.create(
                    draw(st.text(min_size=1, max_size=20).filter(lambda s: s.strip())),
                    datetime(2023, 5, 1 + draw(st.integers(0, 20))),
                    tuple(draw(st.lists(st.from_regex(r"s[1-9]t[1-9]", fullmatch=True),
                                        max_size=2))),
                )
                for _ in range(draw(st.integers(0, 4)))
            ]
            bank.append_fragments(n, frags, iteration=draw(st.integers(0, 30)))
            if n.unconsolidated_count() and draw(st.booleans()):
                start, window = n.consolidation_window(draw(st.integers(1, 6)))
                hi = draw(st.integers(0, len(window) - 1))
                lo = draw(st.integers(0, hi))
                bank.consolidate(n, start, [(draw(label_text), lo, hi)])
    return bank


@settings(max_examples=60, deadline=None)
@given(banks())
def test_snapshot_round_trip_property(bank):
    data = bank.to_dict()
    assert MemoryBank.from_dict(data).to_dict() == data


# --- property: one write path, three ways to the same bank ----------------------

# labels overlap on purpose: case and spacing variants of one owner, one topic
# and one headline, a blank headline, a topic that doubles as a headline
OWNERS = ["Ava", " ava", "Ben"]
TOPICS = ["Garden", "garden ", "Kiln day", "Shared"]
HEADLINES = ["Shared", "SHARED", "Planting", " "]

bank_ops = st.lists(
    st.one_of(
        # texts may be blank, and blank texts are skipped
        st.tuples(st.just("extend"), st.sampled_from(OWNERS), st.sampled_from(TOPICS),
                  st.lists(st.sampled_from(["a", "b", " "]), max_size=3), st.integers(0, 9)),
        # intervals may run past either end of the window, or be empty
        st.tuples(st.just("consolidate"), st.integers(0, 20), st.integers(1, 4),
                  st.lists(st.tuples(st.sampled_from(HEADLINES), st.integers(-2, 3),
                                     st.integers(-1, 5)), max_size=3)),
        # renames may change nothing, or collide with another narrative
        st.tuples(st.just("rename"), st.integers(0, 20), st.sampled_from(TOPICS + ["Later"])),
    ),
    max_size=20,
)


def run_ops(ops, observer=None) -> MemoryBank:
    bank = MemoryBank()
    bank.observer = observer
    for step, op in enumerate(ops):
        if op[0] == "extend":
            _, owner, topic, texts, iteration = op
            texts = [f"{t} {step}" if t.strip() else t for t in texts]
            bank.extend(owner, topic, texts, TS, (f"t{step}",), iteration)
            continue
        narratives = bank.narratives()
        if not narratives:
            continue
        narrative = narratives[op[1] % len(narratives)]
        if op[0] == "consolidate":
            start, _ = narrative.consolidation_window(op[2])
            bank.consolidate(narrative, start, op[3])
        else:
            bank.rename_topic(narrative, op[2])
    return bank


def subplot_answers(bank: MemoryBank) -> list:
    answers = []
    for owner in OWNERS:
        for headline in HEADLINES + TOPICS:
            found = bank.find_subplot(owner, headline)
            if found is not None:
                n, s = found
                found = (n.owner, n.topic, s.headline, s.fragment_indices)
            answers.append(found)
    return answers


@settings(max_examples=150, deadline=None)
@given(bank_ops)
def test_live_folded_and_restored_banks_agree(ops):
    events: list[dict] = []
    live = run_ops(ops, observer=events.append)
    folded = MemoryBank()
    replayed: list[dict] = []
    folded.observer = replayed.append
    for event in events:
        folded.apply(event)
    restored = MemoryBank.from_dict(live.to_dict())
    for bank in (folded, restored):
        assert bank.to_dict() == live.to_dict()
        assert subplot_answers(bank) == subplot_answers(live)
        assert coherence_headlines(bank) == coherence_headlines(live)
    # apply replays an event without reporting it again
    assert replayed == []


# names that hold bank state: a narrative's fields and the bank's own dicts
BANK_STATE = {"fragments", "subplots", "topic", "last_bound_iteration",
              "consolidated_through", "_narratives", "_subplots", "_rank"}


def test_only_apply_changes_bank_state():
    """Outside MemoryBank._apply, no program code assigns a narrative's fields,
    extends its lists or inserts into the bank's dicts."""
    writers = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
                    targets = getattr(node, "targets", None) or [node.target]
                    targets = [t.value if isinstance(t, ast.Subscript) else t for t in targets]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in {"append", "extend", "insert", "setdefault"}:
                    targets = [node.func.value]
                else:
                    continue
                if any(isinstance(t, ast.Attribute) and t.attr in BANK_STATE for t in targets):
                    writers.add((path.name, func.name))
    # __init__ only binds the empty dicts
    assert writers == {("episodic.py", "_apply"), ("episodic.py", "__init__")}
