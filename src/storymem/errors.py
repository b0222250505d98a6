"""Typed errors raised across the package.

Every failure mode callers are expected to handle has its own class so that
the CLI can map error families to exit codes and tests can assert on the
exact failure, not on message text.
"""

from __future__ import annotations


class StorymemError(Exception):
    """Base class for all package errors."""


# --- input / data errors -----------------------------------------------------

class MalformedInput(StorymemError):
    """A transcript or data file could not be parsed into the expected shape."""


class EmptyTranscript(StorymemError):
    """A transcript contained zero usable turns."""


class CorruptSnapshot(StorymemError):
    """A persisted bank or bank-log line is unreadable or structurally invalid."""


class MissingBankLog(StorymemError):
    """A run directory has no bank log (bank_log.jsonl) to work from."""


class MissingBank(StorymemError):
    """A run directory does not contain final memory banks."""


class ZeroHistory(StorymemError):
    """Compression rate requested against an empty history."""


class EmptySamples(StorymemError):
    """Percentiles requested over an empty sample list."""


# --- backend / parsing errors ------------------------------------------------

class BackendError(StorymemError):
    """Base class for reasoning/embedding backend failures."""


class BackendUnavailable(BackendError):
    """The backend could not be reached after the configured retries."""


class BackendTimeout(BackendError):
    """The backend did not answer within the configured timeout."""


class ScriptMiss(BackendError):
    """A scripted backend has no entry for the requested prompt.

    Carries the prompt kind and digest so the operator can see exactly
    which exchange is missing from the script table.
    """

    def __init__(self, kind: str, digest: str, detail: str = ""):
        message = f"no script entry for kind={kind} digest={digest}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.kind = kind
        self.digest = digest


class MissingBinding(StorymemError):
    """A prompt template placeholder was left without a value."""


class ParseFailure(StorymemError):
    """No recoverable structured literal was found in a backend reply."""


class SchemaMismatch(StorymemError):
    """A literal was recovered but does not fit the expected verdict shape."""


class ReplayAborted(StorymemError):
    """A replay hit an unrecoverable error; partial artifacts were flushed."""
