"""regretstream: deleted-tweet stream analytics.

Ingest a tweet/deletion event stream, clean it with the four-filter
cascade, extract text/user features, compare deleted against non-deleted
content with exact nonparametric tests, and train a two-stage deletion
classifier. A seeded synthetic generator with a ground-truth ledger stands
in for live collection.
"""

from . import analytics, classify, cleanup, events, features, stats, synth, textkit
from .cleanup import CleanupConfig, detect_superficial, run_cleanup
from .events import (
    CollectionWindow,
    Corpus,
    DeletePayload,
    TweetRecord,
    UserProfile,
    build_corpus,
    parse_event,
)
from .features import FeatureResources, build_vocab, open_text_vector
from .stats import Contingency2x2, TestResult, fisher_exact, mann_whitney_u
from .synth import SynthConfig, generate_synthetic, write_synthetic

__version__ = "0.1.0"

__all__ = [
    "CleanupConfig",
    "CollectionWindow",
    "Contingency2x2",
    "Corpus",
    "DeletePayload",
    "FeatureResources",
    "SynthConfig",
    "TestResult",
    "TweetRecord",
    "UserProfile",
    "__version__",
    "analytics",
    "build_corpus",
    "build_vocab",
    "classify",
    "cleanup",
    "detect_superficial",
    "events",
    "features",
    "fisher_exact",
    "generate_synthetic",
    "mann_whitney_u",
    "open_text_vector",
    "parse_event",
    "run_cleanup",
    "stats",
    "synth",
    "textkit",
    "write_synthetic",
]
