"""storymem: working memory for long-running agent conversations.

Conversations past a threshold stop fitting a context window. This
package keeps them answerable by organizing history into narrative
story threads (plots with consolidated subplots), distilling durable
facts into a triple store, and retrieving a handful of relevant
memories per question instead of the whole transcript.
"""

from .backends import (
    BackendConfig,
    LiveBackend,
    RecordingBackend,
    RuleBackend,
    ScriptedBackend,
    make_backend,
)
from .engine import (
    AskOutcome,
    EngineConfig,
    IterationRecord,
    MemoryEngine,
    run_replay,
)
from .episodic import Fragment, MemoryBank, Narrative, Subplot
from .errors import StorymemError
from .evaluate import run_evaluation
from .metrics import (
    compression_rate,
    constraint_recall,
    coverage_rate,
    export_timeline,
    j_score,
    latency_percentiles,
)
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
from .prompts import PromptKind, prompt_digest, render_prompt
from .reasoner import Reasoner
from .retrieval import (
    HashedBagEmbedding,
    RetrievalResult,
    retrieve_coherence,
    retrieve_embedding,
    similarity_report,
)
from .runio import RunReader, RunWriter
from .semantic import TripleFact, TripleStore, fact_to_triple
from .transcript import (
    EvalQuestion,
    Transcript,
    Turn,
    count_tokens,
    ingest_locomo,
    ingest_native,
    load_transcript,
)

__version__ = "0.1.0"

__all__ = [
    "AskOutcome",
    "BackendConfig",
    "BindingDecision",
    "ConsolidationVerdict",
    "EngineConfig",
    "EvalQuestion",
    "FactItem",
    "Fragment",
    "HashedBagEmbedding",
    "InitStory",
    "IterationRecord",
    "Judgment",
    "LiveBackend",
    "MemoryBank",
    "MemoryEngine",
    "Narrative",
    "PromptKind",
    "Reasoner",
    "RecordingBackend",
    "RetrievalChoice",
    "RetrievalResult",
    "RuleBackend",
    "RunReader",
    "RunWriter",
    "ScriptedBackend",
    "StorymemError",
    "Subplot",
    "Transcript",
    "TripleFact",
    "TriplePattern",
    "TripleStore",
    "Turn",
    "compression_rate",
    "constraint_recall",
    "count_tokens",
    "coverage_rate",
    "export_timeline",
    "fact_to_triple",
    "ingest_locomo",
    "ingest_native",
    "j_score",
    "latency_percentiles",
    "load_transcript",
    "make_backend",
    "parse_structured",
    "prompt_digest",
    "render_prompt",
    "retrieve_coherence",
    "retrieve_embedding",
    "run_evaluation",
    "run_replay",
    "similarity_report",
]
