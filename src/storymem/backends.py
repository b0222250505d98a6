"""Completion backends: scripted replay, live HTTP, recording, and a rule mock.

The scripted backend is the deterministic core of the replay harness: a
table of (prompt kind, prompt digest) -> raw completion. A missing entry
raises ScriptMiss; completions are never invented.

The rule backend is a self-contained heuristic stand-in for a model. It
reads the rendered prompt back out of its known sections and produces a
plausible, deterministic verdict in canonical form. It exists to build
fixtures and drive tests and demos without network access; it is not a
quality baseline.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    BackendError,
    BackendTimeout,
    BackendUnavailable,
    MalformedInput,
    ScriptMiss,
)
from .formatting import content_tokens
from .parsing import (
    BindingDecision,
    ConsolidationVerdict,
    FactItem,
    InitStory,
    Judgment,
    RetrievalChoice,
    SubstorySpec,
    TriplePattern,
    to_canonical,
)
from .prompts import PromptKind, prompt_digest

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

DEFAULT_API_KEY_ENV = "STORYMEM_API_KEY"


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "rule"  # rule | scripted | live
    script_path: str | None = None
    endpoint: str = ""
    model: str = ""
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout: float = 30.0
    max_retries: int = 2


class Backend:
    """Shared handle; complete() must be safe to call from multiple threads."""

    name = "backend"

    def complete(self, kind: PromptKind, rendered: str) -> str:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.name}


class ScriptedBackend(Backend):
    name = "scripted"

    def __init__(self, table: dict[str, dict[str, str]], source: str = "<memory>") -> None:
        self._table = table
        self._source = source

    @classmethod
    def from_path(cls, path: str | Path) -> ScriptedBackend:
        path = Path(path)
        try:
            table = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedInput(f"cannot read script table {path}: {exc}") from exc
        if not isinstance(table, dict):
            raise MalformedInput(f"script table {path} must be an object")
        return cls(table, source=str(path))

    def complete(self, kind: PromptKind, rendered: str) -> str:
        digest = prompt_digest(rendered)
        try:
            return self._table[kind.value][digest]
        except KeyError:
            head = " ".join(rendered.split())[:90]
            raise ScriptMiss(kind.value, digest, f"prompt starts: {head!r}") from None

    def describe(self) -> dict:
        return {"kind": self.name, "source": self._source}


class RecordingBackend(Backend):
    """Wraps another backend and captures its completions as a script table."""

    name = "recording"

    def __init__(self, inner: Backend) -> None:
        self._inner = inner
        self.table: dict[str, dict[str, str]] = {}
        self._lock = threading.Lock()

    def complete(self, kind: PromptKind, rendered: str) -> str:
        raw = self._inner.complete(kind, rendered)
        with self._lock:
            self.table.setdefault(kind.value, {})[prompt_digest(rendered)] = raw
        return raw

    def describe(self) -> dict:
        return {"kind": self.name, "inner": self._inner.describe()}


class LiveBackend(Backend):
    """Generic chat-completion HTTP client.

    Speaks the common {model, messages[]} request shape and pulls the
    first choice's text out of the response. Retries transport errors
    and retryable status codes with exponential backoff; anything the
    server actually answered with is not retried. Needs the requests
    package (the ``live`` extra), imported only when one is made.
    """

    name = "live"
    _RETRYABLE_STATUS = (429, 500, 502, 503, 504)

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 30.0,
        max_retries: int = 2,
        session: requests.Session | None = None,
    ) -> None:
        if not endpoint:
            raise BackendUnavailable("live backend needs an endpoint URL")
        try:
            import requests
        except ImportError as exc:
            raise BackendUnavailable(
                "live backend needs the requests package: pip install -e '.[live]'"
            ) from exc
        self._endpoint = endpoint
        self._model = model
        self._api_key_env = api_key_env
        self._timeout = timeout
        self._max_retries = max_retries
        self._session = session or requests.Session()

    def complete(self, kind: PromptKind, rendered: str) -> str:
        import requests

        token = os.environ.get(self._api_key_env)
        if not token:
            raise BackendUnavailable(
                f"credential env var {self._api_key_env} is not set"
            )
        payload = {
            "model": self._model,
            "messages": [{"role": "user", "content": rendered}],
        }
        headers = {"Authorization": f"Bearer {token}"}
        last_exc: Exception | None = None
        timed_out = False
        for attempt in range(self._max_retries + 1):
            if attempt:
                time.sleep(min(0.5 * 2 ** (attempt - 1), 4.0))
            try:
                resp = self._session.post(
                    self._endpoint, json=payload, headers=headers, timeout=self._timeout
                )
            except requests.Timeout as exc:
                last_exc, timed_out = exc, True
                continue
            except requests.RequestException as exc:
                last_exc = exc
                continue
            if resp.status_code in self._RETRYABLE_STATUS:
                last_exc = BackendError(f"HTTP {resp.status_code}")
                continue
            if resp.status_code >= 400:
                raise BackendError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            return self._extract_text(resp)
        if timed_out:
            raise BackendTimeout(
                f"no completion after {self._max_retries + 1} attempts"
            ) from last_exc
        raise BackendUnavailable(f"transport failure: {last_exc}") from last_exc

    @staticmethod
    def _extract_text(resp: requests.Response) -> str:
        try:
            body = resp.json()
        except ValueError as exc:
            raise BackendError(f"non-JSON completion body: {exc}") from exc
        try:
            choice = body["choices"][0]
            if "message" in choice:
                return str(choice["message"]["content"])
            return str(choice["text"])
        except (KeyError, IndexError, TypeError):
            pass
        for key in ("content", "completion", "output"):
            if isinstance(body, dict) and isinstance(body.get(key), str):
                return body[key]
        raise BackendError("completion body has no recognizable text field")

    def describe(self) -> dict:
        return {
            "kind": self.name,
            "endpoint": self._endpoint,
            "model": self._model,
            "api_key_env": self._api_key_env,
        }


# --- deterministic heuristic backend ---------------------------------------------

_TURN_LINE = re.compile(r"^\[(?P<ts>[^\]]*)\] (?P<speaker>[^:]+): (?P<text>.*)$")
# a story line of the binding list and the retrieval outline: the owner
# ends at the first ": ", as a speaker's name does in a turn line
_PLOT_LINE = re.compile(r"^- (?P<owner>.*?): (?P<topic>.*)$")
_SUBSTORY_LINE = re.compile(r"^  - (?P<headline>.*)$")
_ITEM_LINE = re.compile(r"^\d+\. \[(?P<ts>[^\]]*)\] (?P<text>.*)$")
_TOPIC_MARKER = re.compile(r"(?:update on|about|regarding)\s+([^:.,!?]+)", re.IGNORECASE)
_SPEAKER_PREFIX = re.compile(r"^[^:]{1,40}: ")
_FACT_HINTS = (
    " is ", " has ", " was ", " bought ", " won ", " moved ", " named ",
    " favorite ", " born ", " allergic ", " starts ", " finished ",
)


def _section(rendered: str, start: str, end: str) -> str:
    m = re.search(re.escape(start) + r"\n(.*?)\n\n" + re.escape(end), rendered, re.DOTALL)
    return m.group(1) if m else ""


def _topic_of(text: str, speaker: str) -> str:
    m = _TOPIC_MARKER.search(text)
    if m:
        phrase = " ".join(m.group(1).split())
        return phrase[:1].upper() + phrase[1:]
    return f"{speaker} updates"


def _strip_item_prefix(text: str) -> str:
    return _SPEAKER_PREFIX.sub("", text, count=1).strip()


@dataclass
class RuleBackend(Backend):
    """Deterministic heuristic completions derived from the prompt text.

    block_size controls how many memory items one substory groups.
    """

    block_size: int = 2
    name: str = field(default="rule", init=False)

    def complete(self, kind: PromptKind, rendered: str) -> str:
        handler = {
            PromptKind.STORY_INIT: self._init,
            PromptKind.MEMORY_BINDING: self._binding,
            PromptKind.CONSOLIDATION: self._consolidation,
            PromptKind.SEMANTICIZATION: self._semanticization,
            PromptKind.COHERENCE_RETRIEVE: self._coherence,
            PromptKind.GRAPH_QUERY_TRANSLATE: self._translate,
            PromptKind.ANSWER: self._answer,
            PromptKind.JUDGE: self._judge,
        }[kind]
        return handler(rendered)

    def describe(self) -> dict:
        return {"kind": self.name, "block_size": self.block_size}

    def _init(self, rendered: str) -> str:
        conv = _section(rendered, "The conversation:", "Output format:")
        stories: dict[tuple[str, str], InitStory] = {}
        order: list[tuple[str, str]] = []
        for line in conv.splitlines():
            m = _TURN_LINE.match(line.strip())
            if not m:
                continue
            speaker = m.group("speaker").strip()
            topic = _topic_of(m.group("text"), speaker)
            key = (speaker.casefold(), topic.casefold())
            if key not in stories:
                stories[key] = InitStory(owner=speaker, topic=topic, content=())
                order.append(key)
            prev = stories[key]
            stories[key] = InitStory(
                owner=prev.owner, topic=prev.topic, content=prev.content + (line.strip(),)
            )
        return to_canonical(PromptKind.STORY_INIT, [stories[k] for k in order])

    def _binding(self, rendered: str) -> str:
        existing_text = _section(rendered, "Existing stories:", "Recent dialogue context:")
        existing = set()
        for line in existing_text.splitlines():
            m = _PLOT_LINE.match(line)
            if m:
                existing.add((m.group("owner").casefold(), m.group("topic").casefold()))
        new_conv = _section(rendered, "New conversation turn:", "Output format:")
        decisions = []
        for line in new_conv.splitlines():
            m = _TURN_LINE.match(line.strip())
            if not m:
                continue
            speaker = m.group("speaker").strip()
            topic = _topic_of(m.group("text"), speaker)
            action = (
                "extend_story"
                if (speaker.casefold(), topic.casefold()) in existing
                else "create_new_story"
            )
            decisions.append(
                BindingDecision(
                    message_excerpt=line.strip(), action=action, owner=speaker, topic=topic
                )
            )
        return to_canonical(PromptKind.MEMORY_BINDING, decisions)

    def _consolidation(self, rendered: str) -> str:
        items_text = _section(
            rendered, "Here are the **new memory items** to analyze:", "Your tasks:"
        )
        items = [m for line in items_text.splitlines() if (m := _ITEM_LINE.match(line.strip()))]
        subs = []
        for start in range(0, len(items), self.block_size):
            end = min(start + self.block_size, len(items)) - 1
            head = _strip_item_prefix(items[start].group("text"))
            words = head.split()[:6]
            sub_topic = " ".join(words).rstrip(".,!?:;")
            subs.append(SubstorySpec(sub_topic=sub_topic or "Details", interval=(start, end)))
        verdict = ConsolidationVerdict(substories=tuple(subs), new_topic=None)
        return to_canonical(PromptKind.CONSOLIDATION, verdict)

    def _semanticization(self, rendered: str) -> str:
        items_text = _section(rendered, "New memory items:", "Your task:")
        facts = []
        for line in items_text.splitlines():
            m = _ITEM_LINE.match(line.strip())
            if not m:
                continue
            text = _strip_item_prefix(m.group("text"))
            lowered = f" {text.casefold()} "
            if any(h in lowered for h in _FACT_HINTS):
                facts.append(FactItem(fact=text, timestamp=m.group("ts")))
            if len(facts) == 3:
                break
        return to_canonical(PromptKind.SEMANTICIZATION, facts)

    def _coherence(self, rendered: str) -> str:
        m = re.search(r"select the top (\d+) stories", rendered)
        k = int(m.group(1)) if m else 1
        question = _section(rendered, "Question:", "Stories:")
        stories_text = _section(rendered, "Stories:", "Output format:")
        qtokens = content_tokens(question)
        scored = []
        owner = None  # of the plot line above; indented sub-story lines inherit it
        for idx, line in enumerate(stories_text.splitlines()):
            if hm := _PLOT_LINE.match(line):
                owner, topic, bonus = hm.group("owner"), hm.group("topic"), 0.0
            elif (sm := _SUBSTORY_LINE.match(line)) and owner is not None:
                topic, bonus = sm.group("headline"), 0.25
            else:
                continue
            score = len(content_tokens(f"{owner} {topic}") & qtokens) + bonus
            scored.append((-score, idx, owner, topic))
        scored.sort()
        choices = []
        seen = set()
        for _, _, owner, topic in scored:
            key = (owner.casefold(), topic.casefold())
            if key in seen:
                continue
            seen.add(key)
            choices.append(RetrievalChoice(owner=owner, topic=topic))
            if len(choices) == k:
                break
        return to_canonical(PromptKind.COHERENCE_RETRIEVE, choices)

    def _translate(self, rendered: str) -> str:
        question = _section(rendered, "Question:", "Output format:")
        names = re.findall(r"\b[A-Z][a-z]+(?: [A-Z][a-z]+)*\b", question)
        seen: list[str] = []
        for name in names[1:] if names and question.strip().startswith(names[0]) else names:
            if name not in seen:
                seen.append(name)
        patterns = [
            TriplePattern(subject=n, predicate="?", obj="?") for n in seen[:2]
        ]
        return to_canonical(PromptKind.GRAPH_QUERY_TRANSLATE, patterns)

    def _answer(self, rendered: str) -> str:
        stories = _section(rendered, "Relevant Stories:", "Additional Stories:")
        qm = re.search(r"\n\nQuestion: (.*?)\n\nAnswer:$", rendered, re.DOTALL)
        question = qm.group(1) if qm else ""
        qtokens = content_tokens(question)
        candidates: list[str] = []
        for line in stories.splitlines():
            fm = re.match(r"^\s+\[[^\]]*\]\s*(.*)$", line)
            if fm:
                candidates.append(_strip_item_prefix(fm.group(1)))
        am = re.search(r"Additional Stories:\n(.*?)\n\nQuestion: ", rendered, re.DOTALL)
        for line in (am.group(1) if am else "").splitlines():
            if line.startswith("- "):
                candidates.append(line[2:])
        best, best_score = None, 0
        for cand in candidates:
            score = len(content_tokens(cand) & qtokens)
            if score > best_score:
                best, best_score = cand, score
        if best is None:
            return "Unknown"
        words = best.split()[-6:]
        return " ".join(words).rstrip(".,!?:;")

    def _judge(self, rendered: str) -> str:
        m = re.search(
            r"Now its time for the real question:\nQuestion: (.*?)\n"
            r"Gold answer: (.*?)\nGenerated answer: (.*?)\n\nFirst, provide",
            rendered,
            re.DOTALL,
        )
        verdict = Judgment.WRONG
        if m:
            gold = content_tokens(m.group(2)) or set(m.group(2).casefold().split())
            gen = content_tokens(m.group(3)) or set(m.group(3).casefold().split())
            if gold and len(gold & gen) >= max(1, (len(gold) + 1) // 2):
                verdict = Judgment.CORRECT
        return to_canonical(PromptKind.JUDGE, verdict)


def make_backend(config: BackendConfig) -> Backend:
    if config.kind == "rule":
        return RuleBackend()
    if config.kind == "scripted":
        if not config.script_path:
            raise MalformedInput("scripted backend needs script_path")
        return ScriptedBackend.from_path(config.script_path)
    if config.kind == "live":
        return LiveBackend(
            endpoint=config.endpoint,
            model=config.model,
            api_key_env=config.api_key_env,
            timeout=config.timeout,
            max_retries=config.max_retries,
        )
    raise MalformedInput(f"unknown backend kind {config.kind!r}")
