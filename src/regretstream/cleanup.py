"""Four-filter corpus cleanup: language, client whitelist, retweets, and
superficial deletions, with per-stage dataset accounting.

The first three filters are pointwise predicates. Superficial-deletion
detection runs on each user's post-filter timeline and is iterated to a
fixpoint so that cleaning an already-clean corpus changes nothing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import codec, textkit
from .errors import ConfigError
from .events import Corpus, TweetRecord

FILTER_STAGES = ("non_language", "non_whitelisted", "retweets", "superficial")

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


@dataclass(frozen=True)
class StageCounts:
    removed: int = 0
    removed_deleted: int = 0
    users: int = 0


@dataclass(frozen=True)
class CleanupReport:
    input_tweets: int
    input_deleted: int
    input_users: int
    input_deleting_users: int
    stages: dict
    retained: int = 0
    retained_deleted: int = 0
    retained_users: int = 0
    retained_deleting_users: int = 0

    def to_dict(self) -> dict:
        return {
            "input": {
                "tweets": self.input_tweets,
                "deleted": self.input_deleted,
                "users": self.input_users,
                "deleting_users": self.input_deleting_users,
            },
            "stages": {name: asdict(sc) for name, sc in self.stages.items()},
            "retained": {
                "tweets": self.retained,
                "deleted": self.retained_deleted,
                "users": self.retained_users,
                "deleting_users": self.retained_deleting_users,
            },
        }

    def to_text(self) -> str:
        """Render the report as a dataset-accounting table."""

        def pct(part, whole):
            return f"{100.0 * part / whole:.2f}%" if whole else "-"

        lines = []

        def block(title, tweets, deleted, users, deleting=None):
            lines.append(title)
            lines.append(f"  # Tweets posted                      {tweets:>12,}")
            if deleted is not None:
                lines.append(
                    f"  # Tweets deleted                     {deleted:>12,} ({pct(deleted, tweets)})"
                )
            lines.append(f"  # Users who posted at-least 1 tweet  {users:>12,}")
            if deleting is not None:
                lines.append(
                    f"  # Users who deleted at-least 1 tweet {deleting:>12,} ({pct(deleting, users)})"
                )
            lines.append("")

        block(
            "Dataset before cleanup",
            self.input_tweets, self.input_deleted,
            self.input_users, self.input_deleting_users,
        )
        titles = {
            "non_language": "Non-language-matching tweets",
            "non_whitelisted": "Automated (non-whitelisted client) tweets",
            "retweets": "Retweets",
            "superficial": "Superficial deletions",
        }
        for name in FILTER_STAGES:
            sc = self.stages[name]
            if name == "superficial":
                block(titles[name], sc.removed, None, sc.users)
            else:
                block(titles[name], sc.removed, sc.removed_deleted, sc.users)
        block(
            "Dataset after cleanup",
            self.retained, self.retained_deleted,
            self.retained_users, self.retained_deleting_users,
        )
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


def _count_stage(removed: list[TweetRecord]) -> StageCounts:
    return StageCounts(
        removed=len(removed),
        removed_deleted=sum(1 for t in removed if t.deleted),
        users=len({t.user_id for t in removed}),
    )


def run_cleanup(corpus: Corpus, cfg: CleanupConfig) -> tuple[Corpus, CleanupReport]:
    """Apply the four filters in order and report per-stage accounting.

    Superficially deleted tweets are removed from the corpus entirely.
    Response link lists on surviving tweets are pruned to surviving ids.
    Within the call each distinct text is tokenized at most once and each
    (deleted text, followup text) pair judged at most once, however often
    the fixpoint rescans its window; a survivor whose links all survive is
    kept as it is, and only the others are rebuilt.
    """
    if not cfg.client_whitelist:
        raise ConfigError("client whitelist is empty; cleanup would remove every tweet")

    kept = list(corpus.tweets)
    stages: dict[str, StageCounts] = {}

    def split(pred):
        nonlocal kept
        removed, rest = [], []
        for t in kept:
            (removed if pred(t) else rest).append(t)
        kept = rest
        return removed

    stages["non_language"] = _count_stage(split(lambda t: t.lang != cfg.language_tag))
    stages["non_whitelisted"] = _count_stage(split(lambda t: t.source not in cfg.client_whitelist))
    stages["retweets"] = _count_stage(split(lambda t: t.retweet_of_id is not None))

    # Superficial pass, iterated to a fixpoint: removing a near-duplicate
    # source shifts later followup windows, which can expose new matches.
    superficial_removed: list[TweetRecord] = []
    judge = NearDuplicates(cfg)
    # ``kept`` is a subsequence of the corpus, so each timeline is already
    # in (created_at, id) order.
    timelines: dict[int, list[TweetRecord]] = {}
    for t in kept:
        timelines.setdefault(t.user_id, []).append(t)

    for user_id in sorted(timelines):
        tl = timelines[user_id]
        while True:
            flagged = []
            for i, t in enumerate(tl):
                if not t.deleted:
                    continue
                if detect_superficial(t, tl[i + 1 : i + 1 + cfg.superficial_lookahead], cfg,
                                      judge=judge):
                    flagged.append(i)
            if not flagged:
                break
            for i in reversed(flagged):
                superficial_removed.append(tl.pop(i))

    kept = [t for tl in timelines.values() for t in tl]
    stages["superficial"] = _count_stage(superficial_removed)

    surviving_ids = {t.id for t in kept}
    pruned = [
        t if surviving_ids.issuperset(t.reply_ids + t.retweet_ids + t.quote_ids) else replace(
            t,
            reply_ids=tuple(i for i in t.reply_ids if i in surviving_ids),
            retweet_ids=tuple(i for i in t.retweet_ids if i in surviving_ids),
            quote_ids=tuple(i for i in t.quote_ids if i in surviving_ids),
        )
        for t in kept
    ]
    cleaned = corpus.replace_tweets(pruned)

    report = CleanupReport(
        input_tweets=len(corpus),
        input_deleted=sum(1 for t in corpus if t.deleted),
        input_users=len({t.user_id for t in corpus}),
        input_deleting_users=len({t.user_id for t in corpus if t.deleted}),
        stages=stages,
        retained=len(cleaned),
        retained_deleted=sum(1 for t in cleaned if t.deleted),
        retained_users=len({t.user_id for t in cleaned}),
        retained_deleting_users=len({t.user_id for t in cleaned if t.deleted}),
    )
    return cleaned, report
