"""Backends: scripted replay, recording, the live HTTP client, and the rule mock."""

from __future__ import annotations

import json
import sys

import pytest

from storymem.backends import (
    BackendConfig,
    LiveBackend,
    RecordingBackend,
    RuleBackend,
    ScriptedBackend,
    make_backend,
)
from storymem.errors import (
    BackendError,
    BackendTimeout,
    BackendUnavailable,
    MalformedInput,
    ScriptMiss,
)
from storymem.parsing import Judgment, parse_structured
from storymem.prompts import PromptKind, prompt_digest, render_prompt

CONV = "\n".join(
    [
        "[2023-05-01 09:00] Ava: Quick update on the garden project: the beds are ready.",
        "[2023-05-01 09:01] Ben: More about the chess club: we met on Tuesday.",
        "[2023-05-01 09:02] Ava: More about the garden project: seedlings went in.",
        "[2023-05-01 09:03] Ben: No marker in this line at all.",
    ]
)


def init_prompt(conv: str = CONV) -> str:
    return render_prompt(PromptKind.STORY_INIT, {"conv": conv})


# --- scripted ---------------------------------------------------------------------


def test_scripted_hit_and_miss():
    rendered = init_prompt()
    digest = prompt_digest(rendered)
    backend = ScriptedBackend({"story_init": {digest: "[canned]"}})
    assert backend.complete(PromptKind.STORY_INIT, rendered) == "[canned]"

    with pytest.raises(ScriptMiss) as err:
        backend.complete(PromptKind.STORY_INIT, "something unscripted")
    miss = err.value
    assert miss.kind == "story_init"
    assert miss.digest == prompt_digest("something unscripted")
    assert "prompt starts" in str(miss)

    with pytest.raises(ScriptMiss):
        backend.complete(PromptKind.MEMORY_BINDING, rendered)


def test_scripted_from_path(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"answer": {"abc": "yes"}}))
    backend = ScriptedBackend.from_path(path)
    assert backend.describe() == {"kind": "scripted", "source": str(path)}

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(MalformedInput):
        ScriptedBackend.from_path(bad)
    with pytest.raises(MalformedInput):
        ScriptedBackend.from_path(tmp_path / "missing.json")


def test_recording_then_scripted_replay(tmp_path):
    recorder = RecordingBackend(RuleBackend())
    rendered = init_prompt()
    first = recorder.complete(PromptKind.STORY_INIT, rendered)
    assert recorder.table["story_init"][prompt_digest(rendered)] == first

    path = tmp_path / "recorded.json"
    path.write_text(json.dumps(recorder.table))
    replayed = ScriptedBackend.from_path(path)
    assert replayed.complete(PromptKind.STORY_INIT, rendered) == first
    assert recorder.describe()["inner"] == {"kind": "rule", "block_size": 2}


# --- rule mock ----------------------------------------------------------------------


def test_rule_backend_is_deterministic():
    a = RuleBackend().complete(PromptKind.STORY_INIT, init_prompt())
    b = RuleBackend().complete(PromptKind.STORY_INIT, init_prompt())
    assert a == b


def test_rule_init_groups_by_speaker_and_topic():
    stories = parse_structured(
        PromptKind.STORY_INIT, RuleBackend().complete(PromptKind.STORY_INIT, init_prompt())
    )
    by_key = {(s.owner, s.topic): s for s in stories}
    assert ("Ava", "The garden project") in by_key
    assert ("Ben", "The chess club") in by_key
    assert ("Ben", "Ben updates") in by_key  # no marker falls back to a per-speaker topic
    assert len(by_key[("Ava", "The garden project")].content) == 2
    # every conversation line lands in exactly one story
    assert sum(len(s.content) for s in stories) == 4


def test_rule_binding_extends_known_topics():
    rendered = render_prompt(
        PromptKind.MEMORY_BINDING,
        {
            "headlines": "- Ava: The garden project",
            "recent_context": "(none)",
            "new_conv": (
                "[2023-05-01 09:09] Ava: More about the garden project: weeded today.\n"
                "[2023-05-01 09:10] Ben: Quick update on the chess club: lost a game."
            ),
        },
    )
    decisions = parse_structured(
        PromptKind.MEMORY_BINDING, RuleBackend().complete(PromptKind.MEMORY_BINDING, rendered)
    )
    assert [(d.owner, d.topic, d.action) for d in decisions] == [
        ("Ava", "The garden project", "extend_story"),
        ("Ben", "The chess club", "create_new_story"),
    ]


def test_rule_consolidation_blocks_and_headlines():
    items = "\n".join(
        f"{i}. [2023-05-01 09:0{i}] Ava: note number {i} about the garden work today."
        for i in range(5)
    )
    rendered = render_prompt(
        PromptKind.CONSOLIDATION,
        {"main_topic": "The garden project", "substories_text": "None yet.", "new_items_text": items},
    )
    verdict = parse_structured(
        PromptKind.CONSOLIDATION, RuleBackend().complete(PromptKind.CONSOLIDATION, rendered)
    )
    assert [s.interval for s in verdict.substories] == [(0, 1), (2, 3), (4, 4)]
    # headline: first item of the block, speaker stripped, first six words
    assert verdict.substories[0].sub_topic == "note number 0 about the garden"
    assert verdict.new_topic is None


def test_rule_semanticization_picks_factual_lines():
    items = "\n".join(
        [
            "0. [2023-05-01 09:00] Ava: The glaze is a speckled seafoam.",
            "1. [2023-05-01 09:01] Ava: Nothing factual here, just chatter.",
            "2. [2023-05-01 09:02] Ben: Ben bought a wooden scorebook.",
        ]
    )
    rendered = render_prompt(
        PromptKind.SEMANTICIZATION,
        {"main_topic": "T", "substories_text": "None.", "new_items_text": items},
    )
    facts = parse_structured(
        PromptKind.SEMANTICIZATION, RuleBackend().complete(PromptKind.SEMANTICIZATION, rendered)
    )
    assert [f.fact for f in facts] == [
        "The glaze is a speckled seafoam.",
        "Ben bought a wooden scorebook.",
    ]
    assert facts[0].timestamp == "2023-05-01 09:00"


def test_rule_answer_picks_best_overlap():
    rendered = render_prompt(
        PromptKind.ANSWER,
        {
            "full_stories": (
                "Story (owner: Ava): The garden project\n"
                "  [2023-05-01 09:00] Ava: She planted Cherokee Purple tomatoes first.\n"
                "  [2023-05-01 09:01] Ava: Watering happens at dawn."
            ),
            "add_trivas": "- Ava | likes | feather meal",
            "question": "Which tomato variety was planted first?",
        },
    )
    answer = RuleBackend().complete(PromptKind.ANSWER, rendered)
    assert "Cherokee Purple tomatoes" in answer

    no_overlap = render_prompt(
        PromptKind.ANSWER,
        {"full_stories": "", "add_trivas": "", "question": "zebras?"},
    )
    assert RuleBackend().complete(PromptKind.ANSWER, no_overlap) == "Unknown"


def test_rule_judge_token_overlap():
    def judge(gold: str, generated: str) -> Judgment:
        rendered = render_prompt(
            PromptKind.JUDGE,
            {"question": "What did I get?", "gold_answer": gold, "generated_answer": generated},
        )
        return parse_structured(
            PromptKind.JUDGE, RuleBackend().complete(PromptKind.JUDGE, rendered)
        )

    assert judge("a shell necklace", "it was a shell necklace") is Judgment.CORRECT
    assert judge("a shell necklace", "a blue kite") is Judgment.WRONG
    assert judge("Cherokee Purple tomatoes", "Cherokee Purple") is Judgment.CORRECT


# --- live HTTP client ----------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code=200, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text or (json.dumps(body) if body is not None else "")

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture()
def api_key(monkeypatch):
    monkeypatch.setenv("STORYMEM_API_KEY", "sekret")


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr("storymem.backends.time.sleep", lambda s: None)


def live(session, **kwargs) -> LiveBackend:
    pytest.importorskip("requests")
    return LiveBackend(endpoint="https://api.test/v1/chat", model="m1", session=session, **kwargs)


def test_live_requires_endpoint_and_credentials(monkeypatch):
    with pytest.raises(BackendUnavailable):
        LiveBackend(endpoint="", model="m1")
    monkeypatch.delenv("STORYMEM_API_KEY", raising=False)
    backend = live(FakeSession([]))
    with pytest.raises(BackendUnavailable) as err:
        backend.complete(PromptKind.ANSWER, "question")
    assert "STORYMEM_API_KEY" in str(err.value)


def test_live_without_requests_names_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)
    with pytest.raises(BackendUnavailable) as err:
        LiveBackend(endpoint="https://api.test/v1/chat", model="m1")
    assert "pip install -e '.[live]'" in str(err.value)


def test_live_happy_path_shapes(api_key):
    session = FakeSession(
        [
            FakeResponse(body={"choices": [{"message": {"content": "chat style"}}]}),
            FakeResponse(body={"choices": [{"text": "completion style"}]}),
            FakeResponse(body={"content": "bare content"}),
        ]
    )
    backend = live(session)
    assert backend.complete(PromptKind.ANSWER, "p1") == "chat style"
    assert backend.complete(PromptKind.ANSWER, "p2") == "completion style"
    assert backend.complete(PromptKind.ANSWER, "p3") == "bare content"
    call = session.calls[0]
    assert call["headers"] == {"Authorization": "Bearer sekret"}
    assert call["json"]["model"] == "m1"
    assert call["json"]["messages"] == [{"role": "user", "content": "p1"}]


def test_live_retries_retryable_status(api_key):
    session = FakeSession(
        [
            FakeResponse(status_code=503, body={}),
            FakeResponse(body={"choices": [{"message": {"content": "finally"}}]}),
        ]
    )
    assert live(session).complete(PromptKind.ANSWER, "p") == "finally"
    assert len(session.calls) == 2


def test_live_client_errors_do_not_retry(api_key):
    session = FakeSession([FakeResponse(status_code=404, body={}, text="nope")])
    with pytest.raises(BackendError):
        live(session).complete(PromptKind.ANSWER, "p")
    assert len(session.calls) == 1


def test_live_timeout_and_transport_failures(api_key):
    requests = pytest.importorskip("requests")
    session = FakeSession([requests.Timeout("slow"), requests.Timeout("slow")])
    with pytest.raises(BackendTimeout):
        live(session, max_retries=1).complete(PromptKind.ANSWER, "p")
    assert len(session.calls) == 2

    session = FakeSession([requests.ConnectionError("down")])
    with pytest.raises(BackendUnavailable):
        live(session, max_retries=0).complete(PromptKind.ANSWER, "p")


def test_live_rejects_unusable_bodies(api_key):
    session = FakeSession([FakeResponse(body={"unexpected": True})])
    with pytest.raises(BackendError):
        live(session).complete(PromptKind.ANSWER, "p")
    session = FakeSession([FakeResponse(body=None, text="<html>")])
    with pytest.raises(BackendError):
        live(session).complete(PromptKind.ANSWER, "p")


# --- factory ---------------------------------------------------------------------------


def test_make_backend(tmp_path):
    assert isinstance(make_backend(BackendConfig(kind="rule")), RuleBackend)

    path = tmp_path / "t.json"
    path.write_text("{}")
    scripted = make_backend(BackendConfig(kind="scripted", script_path=str(path)))
    assert isinstance(scripted, ScriptedBackend)
    with pytest.raises(MalformedInput):
        make_backend(BackendConfig(kind="scripted"))
    with pytest.raises(MalformedInput):
        make_backend(BackendConfig(kind="mystery"))


def test_make_live_backend():
    pytest.importorskip("requests")
    live_backend = make_backend(BackendConfig(kind="live", endpoint="https://x", model="m"))
    assert isinstance(live_backend, LiveBackend)
