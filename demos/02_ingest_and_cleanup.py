"""Join an event stream into a labeled corpus, then run the four-filter
cleanup cascade and print the accounting table.

A tweet is labeled deleted when a deletion notice for its id was observed
before the (longer) deletion window closed; notices beyond that point are
censored, notices without a matching tweet are orphans. Cleanup then
removes non-English tweets, non-whitelisted (automated) clients, retweets,
and superficial deletions (near-duplicate reposts within the next three
tweets of the same user).
"""

import tempfile
from dataclasses import asdict
from datetime import timedelta
from pathlib import Path

from regretstream.cleanup import CleanupConfig, run_cleanup
from regretstream.events import CollectionWindow, build_corpus, read_events
from regretstream.resources import load_default_whitelist
from regretstream.synth import POST_START, SynthConfig, write_synthetic

outdir = Path(tempfile.mkdtemp(prefix="regretstream-demo-"))
cfg = SynthConfig(seed=7, n_users=120, tweet_rate_min=1.5, tweet_rate_max=2.2)
write_synthetic(cfg, outdir / "events.jsonl", outdir / "ledger.jsonl")

window = CollectionWindow(
    post_start=POST_START,
    post_end=POST_START + timedelta(days=cfg.window_days),
    delete_end=POST_START + timedelta(days=cfg.window_days + cfg.delete_extra_days),
)
corpus = build_corpus(read_events(outdir / "events.jsonl"), window)
print("ingest:", asdict(corpus.stats))

cleaned, report = run_cleanup(corpus, CleanupConfig(client_whitelist=load_default_whitelist()))
print()
print(report.to_text())

lags = sorted(t.deletion_lag_sec for t in cleaned if t.deleted)
if lags:
    median_lag = lags[len(lags) // 2]
    print(f"median deletion lag in the cleaned corpus: {median_lag / 3600:.1f} h")
