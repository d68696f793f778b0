"""Four-filter corpus cleanup: language, client whitelist, retweets, and
superficial deletions, with per-stage dataset accounting.

The first three filters are pointwise predicates. Superficial-deletion
detection runs on each user's post-filter timeline and is iterated to a
fixpoint so that cleaning an already-clean corpus changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import codec, textkit
from .errors import ConfigError
from .events import Corpus, TweetRecord, link_records

# Two texts closer than this many character edits are near-duplicates.
_EDIT_DISTANCE_MAX = 5


@dataclass(frozen=True)
class CleanupConfig(codec.Ranged):
    language_tag: str = "en"
    client_whitelist: frozenset[str] = frozenset()
    superficial_lookahead: int = codec.ranged(3, 1)
    cosine_min: float = codec.ranged(0.6, 0, 1)


def load_whitelist(path: str | Path) -> frozenset[str]:
    """Load a client whitelist file: one client name per line, exact match."""
    names = set()
    for _, line in codec.text_lines(path):
        name = line.strip()
        if name and not name.startswith("#"):
            names.add(name)
    return frozenset(names)


def accounting(tweets, retained, removed_by_stage: dict) -> dict:
    """The dataset table: tweets posted and deleted, and users who posted
    and who deleted, for ``tweets``, for each stage's removed list (by
    name, in order) and for ``retained``. A tweet is anything with
    ``deleted`` and ``user_id`` attributes."""

    def block(tweets):
        return {
            "tweets": len(tweets),
            "deleted": sum(1 for t in tweets if t.deleted),
            "users": len({t.user_id for t in tweets}),
            "deleting_users": len({t.user_id for t in tweets if t.deleted}),
        }

    return {
        "input": block(tweets),
        "stages": {
            name: {
                "removed": len(removed),
                "removed_deleted": sum(1 for t in removed if t.deleted),
                "users": len({t.user_id for t in removed}),
            }
            for name, removed in removed_by_stage.items()
        },
        "retained": block(retained),
    }


@dataclass(frozen=True)
class CleanupReport:
    """The three blocks of ``accounting``; ``asdict`` gives the JSON."""

    input: dict
    stages: dict
    retained: dict

    def to_text(self) -> str:
        """Render the report as a dataset-accounting table."""

        def pct(part, whole):
            return f"{100.0 * part / whole:.2f}%" if whole else "-"

        lines = []

        def block(title, tweets, deleted, users, deleting_users=None):
            lines.append(title)
            lines.append(f"  # Tweets posted                      {tweets:>12,}")
            if deleted is not None:
                lines.append(
                    f"  # Tweets deleted                     {deleted:>12,} ({pct(deleted, tweets)})"
                )
            lines.append(f"  # Users who posted at-least 1 tweet  {users:>12,}")
            if deleting_users is not None:
                lines.append(
                    f"  # Users who deleted at-least 1 tweet {deleting_users:>12,} ({pct(deleting_users, users)})"
                )
            lines.append("")

        block("Dataset before cleanup", **self.input)
        titles = {
            "non_language": "Non-language-matching tweets",
            "non_whitelisted": "Automated (non-whitelisted client) tweets",
            "retweets": "Retweets",
            "superficial": "Superficial deletions",
        }
        for name, sc in self.stages.items():
            deleted = None if name == "superficial" else sc["removed_deleted"]
            block(titles[name], sc["removed"], deleted, sc["users"])
        block("Dataset after cleanup", **self.retained)
        return "\n".join(lines)


class NearDuplicates:
    """The near-duplicate predicate of one cleanup config, over the texts
    of one call. Each distinct text's term counts are made once, and each
    ordered pair of texts is judged once: make one per call, since it keeps
    every text and pair it was given."""

    def __init__(self, cfg: CleanupConfig):
        self._cosine_min = cfg.cosine_min
        self._counts: dict[str, textkit.TermCounts] = {}
        self._verdicts: dict[tuple[str, str], bool] = {}

    def near_duplicate(self, a: str, b: str) -> bool:
        """True iff the edit distance of ``a`` and ``b`` is strictly below
        ``_EDIT_DISTANCE_MAX`` OR their term cosine is strictly above
        ``cosine_min``."""
        verdict = self._verdicts.get((a, b))
        if verdict is None:
            # |len(a)-len(b)| lower-bounds the edit distance, so the
            # distance is skipped for texts of very different lengths.
            verdict = self._verdicts[a, b] = (
                (abs(len(a) - len(b)) < _EDIT_DISTANCE_MAX
                 and textkit.edit_distance(a, b) < _EDIT_DISTANCE_MAX)
                or textkit.counts_cosine(self._term_counts(a), self._term_counts(b))
                > self._cosine_min)
        return verdict

    def _term_counts(self, text: str) -> textkit.TermCounts:
        counts = self._counts.get(text)
        if counts is None:
            counts = self._counts[text] = textkit.term_counts(text)
        return counts


def detect_superficial(deleted: TweetRecord, followups, cfg: CleanupConfig,
                       judge: NearDuplicates | None = None) -> bool:
    """True iff some followup is a near-duplicate of the deleted tweet.

    ``followups`` are the chronologically next tweets by the same user (at
    most the configured lookahead); an empty list is never superficial.
    ``judge`` holds the verdicts of earlier calls in one run; by default
    the call has its own.
    """
    if judge is None:
        judge = NearDuplicates(cfg)
    return any(
        judge.near_duplicate(deleted.text, f.text) for f in followups[: cfg.superficial_lookahead]
    )


def superficial_pass(timeline, cfg: CleanupConfig, judge: NearDuplicates) -> list:
    """The deleted tweets of one user's chronological ``timeline`` that the
    superficial pass removes, in removal order. The pass is iterated to a
    fixpoint: removing a near-duplicate source shifts later followup
    windows, which can expose new matches. A tweet is anything with
    ``deleted`` and ``text`` attributes."""
    tl = list(timeline)
    removed = []
    while True:
        flagged = [
            i for i, t in enumerate(tl) if t.deleted and detect_superficial(
                t, tl[i + 1 : i + 1 + cfg.superficial_lookahead], cfg, judge=judge)
        ]
        if not flagged:
            return removed
        for i in reversed(flagged):
            removed.append(tl.pop(i))


def run_cleanup(corpus: Corpus, cfg: CleanupConfig) -> tuple[Corpus, CleanupReport]:
    """Apply the four filters in order and report per-stage accounting.

    Superficially deleted tweets are removed from the corpus entirely, and
    the survivors relinked among themselves by ``link_records``. Within the
    call each distinct text is tokenized at most once and each (deleted
    text, followup text) pair judged at most once, however often the
    fixpoint rescans its window; only the survivors whose links change are
    rebuilt.
    """
    if not cfg.client_whitelist:
        raise ConfigError("client whitelist is empty; cleanup would remove every tweet")

    kept = list(corpus.tweets)
    removed: dict[str, list[TweetRecord]] = {}

    def split(pred):
        nonlocal kept
        out, rest = [], []
        for t in kept:
            (out if pred(t) else rest).append(t)
        kept = rest
        return out

    removed["non_language"] = split(lambda t: t.lang != cfg.language_tag)
    removed["non_whitelisted"] = split(lambda t: t.source not in cfg.client_whitelist)
    removed["retweets"] = split(lambda t: t.retweet_of_id is not None)

    judge = NearDuplicates(cfg)
    # ``kept`` is a subsequence of the corpus, so each timeline is already
    # in (created_at, id) order.
    timelines: dict[int, list[TweetRecord]] = {}
    for t in kept:
        timelines.setdefault(t.user_id, []).append(t)
    removed["superficial"] = [t for user_id in sorted(timelines)
                              for t in superficial_pass(timelines[user_id], cfg, judge)]

    # Dropping the superficial ids keeps the survivors in corpus order.
    superficial_ids = {t.id for t in removed["superficial"]}
    survivors = {t.id: t for t in kept if t.id not in superficial_ids}
    cleaned = corpus.replace_tweets(link_records(
        survivors, {i: t.deletion_lag_sec for i, t in survivors.items() if t.deleted}))

    return cleaned, CleanupReport(**accounting(corpus.tweets, cleaned.tweets, removed))
