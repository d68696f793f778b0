"""Compare deleted against non-deleted content: normalized tweet/user
differences, user-attribute distributions, posting hours, responses, and
the personality-trait tally.

NTD is the relative difference of an attribute's prevalence between the
deleted and non-deleted tweets of deleter-set users; NUD is the relative
difference between the fractions of users for whom the attribute is
individually significantly higher on either side (Fisher or Mann-Whitney
per user). The trait tally turns median attribute differences into signed
personality-trait counts through a shipped attribute-to-trait map.
"""

import json

from regretstream import analytics
from regretstream.cleanup import CleanupConfig, run_cleanup
from regretstream.resources import (
    load_default_resources,
    load_default_trait_map,
    load_default_whitelist,
    trait_reference_medians_path,
)
from regretstream.synth import SynthConfig
from regretstream.events import build_corpus, parse_event, CollectionWindow
from regretstream.synth import POST_START, generate_synthetic
from datetime import timedelta

# Higher per-user volume so that users clear the >=10 deleted and >=10
# non-deleted bar that the per-user (NUD) tests require.
cfg = SynthConfig(
    seed=7, n_users=120, tweet_rate_min=4.5, tweet_rate_max=5.5, deletion_rate=0.25
)
events, _ = generate_synthetic(cfg)
window = CollectionWindow(
    post_start=POST_START,
    post_end=POST_START + timedelta(days=cfg.window_days),
    delete_end=POST_START + timedelta(days=cfg.window_days + cfg.delete_extra_days),
)
corpus = build_corpus([parse_event(json.dumps(e)) for e in events], window)
cleaned, _ = run_cleanup(corpus, CleanupConfig(client_whitelist=load_default_whitelist()))
deleters, non_deleters = analytics.partition_users(cleaned)
print(f"deleters: {len(deleters)}  non-deleters: {len(non_deleters)}")

# One measurement table serves the NTD/NUD rows (structural: hashtags,
# urls, mentions, replies) and the first-reply tone below.
attrs = analytics.structural_extractors()
firsts = analytics.first_replies(cleaned)
table = analytics.analysis_table(cleaned, load_default_resources(), attrs, firsts=firsts)
rows = analytics.group_compare_report(table, attrs)
for row in rows:
    ntd = f"{row['ntd']:+7.2f}%" if row["ntd"] is not None else "   n/a "
    nud = f"{row['nud']:+7.2f}%" if row.get("nud") is not None else "   n/a "
    print(f"  {row['attribute']:20s} NTD {ntd}   NUD {nud}")

# Follower-count distributions of the two user groups.
dist = analytics.user_group_compare(cleaned, "followers", deleters, non_deleters)
print(f"median followers: deleters {dist.median_deleters:.0f} "
      f"vs non-deleters {dist.median_non_deleters:.0f} "
      f"(p={dist.test.p_two_sided:.2g})")

# Hour-of-day histograms per group.
late_night = lambda histo: sum(histo[20:]) + sum(histo[:6])
deleted_hist = analytics.temporal_histogram([t for t in cleaned if t.deleted])
kept_hist = analytics.temporal_histogram([t for t in cleaned if not t.deleted])
print(f"tweets posted 20:00-06:00 UTC: deleted {late_night(deleted_hist):.1f}% "
      f"vs kept {late_night(kept_hist):.1f}%")

# Response behavior and first-reply tone, from one first-reply lookup.
report = analytics.response_report(cleaned, firsts)
print(f"replied-to: deleted {report.deleted.pct_with_replies:.1f}% "
      f"vs kept {report.non_deleted.pct_with_replies:.1f}%")
split = analytics.reply_sentiment_split(cleaned, table, firsts)
print(f"negative first replies: deleted {split['deleted']['pct_negative']:.1f}% "
      f"vs kept {split['non_deleted']['pct_negative']:.1f}%")

# Trait tally over the shipped reference medians.
with open(trait_reference_medians_path()) as fh:
    medians = {k: tuple(v) for k, v in json.load(fh).items()}
tally, _ = analytics.trait_tally(medians, load_default_trait_map())
print("trait tally on the reference medians:",
      {k: v for k, v in tally.items() if v})
