import json
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import pytest

from regretstream.cleanup import CleanupConfig, run_cleanup
from regretstream.events import (
    CollectionWindow,
    Corpus,
    TweetRecord,
    UserProfile,
    build_corpus,
    parse_event,
)
from regretstream.resources import load_default_resources, load_default_whitelist
from regretstream.synth import POST_START, SynthConfig, generate_synthetic

T0 = datetime(2015, 8, 3, tzinfo=timezone.utc)


def ts(**kwargs) -> datetime:
    return T0 + timedelta(**kwargs)


def make_profile(user_id=1, **overrides) -> UserProfile:
    defaults = dict(
        user_id=user_id,
        account_created_at=T0 - timedelta(days=400),
        bio_length=12,
        followers_count=10,
        followees_count=20,
        statuses_count=30,
    )
    defaults.update(overrides)
    return UserProfile(**defaults)


def make_tweet(
    id=1,
    user_id=1,
    created_at=None,
    text="hello world",
    lang="en",
    source="Twitter Web Client",
    deleted=False,
    deletion_lag_sec=None,
    profile=None,
    **overrides,
) -> TweetRecord:
    if deleted and deletion_lag_sec is None:
        deletion_lag_sec = 60
    fields = dict(
        id=id,
        user_id=user_id,
        created_at=created_at or ts(hours=id % 24),
        text=text,
        lang=lang,
        source=source,
        in_reply_to_id=None,
        quoted_id=None,
        retweet_of_id=None,
        hashtags=(),
        urls=(),
        mentions=(),
        has_geo=False,
        user=profile or make_profile(user_id),
        deleted=deleted,
        deletion_lag_sec=deletion_lag_sec,
    )
    fields.update(overrides)
    return TweetRecord(**fields)


def record_builds(monkeypatch) -> list:
    """The records constructed from now on, each appended as it is built
    (``dataclasses.replace`` builds through ``__init__`` too)."""
    built = []
    init = TweetRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(TweetRecord, "__init__", counting_init)
    return built


def call_counts(monkeypatch, module, name) -> Counter:
    """How often ``module.name`` is called from now on, by its arguments."""
    calls = Counter()
    real = getattr(module, name)

    def counting(*args):
        calls[args if len(args) > 1 else args[0]] += 1
        return real(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


def make_window(days=14, extra=7) -> CollectionWindow:
    return CollectionWindow(
        post_start=T0,
        post_end=T0 + timedelta(days=days),
        delete_end=T0 + timedelta(days=days + extra),
    )


def make_corpus(tweets, days=14, extra=7) -> Corpus:
    return Corpus(tweets, make_window(days, extra))


@pytest.fixture(scope="session")
def resources():
    return load_default_resources()


@pytest.fixture(scope="session")
def whitelist():
    return load_default_whitelist()


@dataclass
class SynthPipeline:
    config: SynthConfig
    events: list
    ledger: list
    summary: dict
    corpus: Corpus
    cleaned: Corpus
    report: object


def run_synth_pipeline(cfg: SynthConfig, whitelist) -> SynthPipeline:
    events, ledger = generate_synthetic(cfg)
    parsed = [parse_event(json.dumps(e)) for e in events]
    window = CollectionWindow(
        post_start=POST_START,
        post_end=POST_START + timedelta(days=cfg.window_days),
        delete_end=POST_START + timedelta(days=cfg.window_days + cfg.delete_extra_days),
    )
    corpus = build_corpus(parsed, window)
    cleaned, report = run_cleanup(corpus, CleanupConfig(client_whitelist=whitelist))
    return SynthPipeline(cfg, events, ledger, ledger[-1], corpus, cleaned, report)


@pytest.fixture(scope="session")
def synth_default(whitelist):
    """The shipped default synthetic corpus (seed 42), run through the
    ingest and cleanup stages once per session."""
    return run_synth_pipeline(SynthConfig(), whitelist)


@pytest.fixture(scope="session")
def synth_small(whitelist):
    """A small, fast synthetic corpus for cheaper integration tests."""
    cfg = SynthConfig(n_users=80, tweet_rate_min=1.2, tweet_rate_max=1.8, orphan_deletes=2)
    return run_synth_pipeline(cfg, whitelist)
