"""Command-line surface tying the pipeline stages together.

One subcommand per stage, composable through files:
ingest, clean, featurize, analyze, annotate-agg, train, predict, ablate,
synth. Exit code 0 on success, 1 on validation errors, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import analytics, classify, codec, features, synth, textkit
from .cleanup import CleanupConfig, load_whitelist, run_cleanup
from .errors import DuplicateTweetError, RegretstreamError, ValidationError
from .events import (CollectionWindow, Corpus, TweetRecord, build_corpus, keep_first,
                     link_records, parse_rfc3339, read_events)
from .features import FeatureResources
from .resources import (
    load_default_resources,
    load_default_trait_map,
    load_default_whitelist,
)


class UsageError(Exception):
    def __init__(self, code, message):
        self.code = code
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2
    # for I/O problems and 1 for validation.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(1, f"{self.prog}: error: {message}")


def _alpha(text: str) -> float:
    """A significance level: a number strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:  # not a number: outside (0, 1) like NaN
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in (0, 1)")
    return value


def _seed(text: str) -> int:
    """A random seed: a non-negative integer, as numpy takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _check_output_dirs(args) -> None:
    """Raise FileNotFoundError naming the first of the command's output
    files whose directory does not exist, before it reads anything."""
    for path in filter(None, (getattr(args, dest) for dest in args.outputs)):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, "No such directory", path)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_resources(args) -> FeatureResources:
    res = load_default_resources()
    if args.lexicon:
        res.lexicon = textkit.Lexicon.from_file(args.lexicon)
    if args.valence:
        res.valence = textkit.load_valence(args.valence)
    if args.wordlist:
        res.wordlist = textkit.load_wordlist(args.wordlist)
    if args.tags:
        res.pretagged = textkit.PretaggedStore.from_file(args.tags)
    return res


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    window = CollectionWindow(
        post_start=parse_rfc3339(args.window[0], "post_start"),
        post_end=parse_rfc3339(args.window[1], "post_end"),
        delete_end=parse_rfc3339(args.window[2], "delete_end"),
    )
    try:
        corpus = build_corpus(read_events(args.events), window, strict=args.strict)
    except DuplicateTweetError as exc:
        # Named like read_events' errors; the id stands in for the line.
        exc.args = (f"{args.events}: {exc}",)
        raise
    corpus.save(args.out)
    print(json.dumps(asdict(corpus.stats), sort_keys=True))
    return 0


def _cmd_clean(args) -> int:
    corpus = Corpus.load(args.corpus)
    whitelist = load_whitelist(args.whitelist) if args.whitelist else load_default_whitelist()
    if args.config:
        cfg = codec.decode_json(
            args.config,
            lambda raw: codec.decode_config(
                CleanupConfig, {"client_whitelist": sorted(whitelist), **raw}
            ),
        )
    else:
        cfg = CleanupConfig(client_whitelist=whitelist)
    cleaned, report = run_cleanup(corpus, cfg)
    cleaned.save(args.out)
    if args.report:
        _write_json(args.report, asdict(report))
    print(report.to_text())
    return 0


def _cmd_featurize(args) -> int:
    corpus = Corpus.load(args.corpus)
    res = _load_resources(args)
    records = [features.TweetMeasurements(t, res) for t in corpus]  # tokenized once
    vocab = features.build_vocab(records)
    matrix = features.featurize_corpus(
        corpus, vocab, res, tweets=records, with_responses=args.with_responses
    )
    features.save_feature_matrix(matrix, args.out)
    print(
        json.dumps(
            {"rows": len(matrix), "vocab": len(vocab), "out": str(args.out)},
            sort_keys=True,
        )
    )
    return 0


def _cmd_analyze(args) -> int:
    corpus = Corpus.load(args.corpus)
    res = _load_resources(args)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    valid = {"ntd", "nud", "users", "temporal", "response", "traits"}
    unknown = set(metrics) - valid
    if unknown:
        raise RegretstreamError(f"unknown metrics: {sorted(unknown)}; valid: {sorted(valid)}")
    trait_map = (analytics.load_trait_map(args.traits_map) if args.traits_map
                 else load_default_trait_map())
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    deleters, non_deleters = analytics.partition_users(corpus)
    families = [m for m in ("ntd", "nud") if m in metrics]
    attrs = analytics.structural_extractors() if families else []
    if families and not args.structural_only:
        attrs += analytics.linguistic_extractors(res)
    firsts = analytics.first_replies(corpus) if "response" in metrics else None
    table = analytics.analysis_table(corpus, res, attrs, "traits" in metrics, firsts)

    if families:
        rows = analytics.group_compare_report(table, attrs, args.alpha, families)
        _write_json(outdir / "group_comparison.json", rows)
        with open(outdir / "group_comparison.csv", "w", newline="", encoding="utf-8") as fh:
            keys = ["attribute", "kind", "ntd", "nud", "eligible_users"]
            writer = csv.DictWriter(fh, fieldnames=keys, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)

    if "users" in metrics:
        out = {}
        for metric in analytics.USER_METRICS:
            dist = analytics.user_group_compare(
                corpus, metric, deleters, non_deleters, alpha=args.alpha
            )
            out[metric] = {
                "median_deleters": dist.median_deleters,
                "median_non_deleters": dist.median_non_deleters,
                "test": asdict(dist.test),
            }
            with open(outdir / f"ccdf_{metric}.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["value", "ccdf_deleters", "ccdf_non_deleters"])
                dd = dict(dist.ccdf_deleters)
                nn = dict(dist.ccdf_non_deleters)
                for v in sorted(set(dd) | set(nn)):
                    writer.writerow([v, dd.get(v, ""), nn.get(v, "")])
        _write_json(outdir / "user_groups.json", out)

    if "temporal" in metrics:
        histo = {
            "deleted": analytics.temporal_histogram([t for t in corpus if t.deleted]),
            "non_deleted": analytics.temporal_histogram([t for t in corpus if not t.deleted]),
        }
        _write_json(outdir / "temporal.json", histo)
        with open(outdir / "temporal.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["hour", "deleted_pct", "non_deleted_pct"])
            for h in range(24):
                writer.writerow([h, histo["deleted"][h], histo["non_deleted"][h]])

    if "response" in metrics:
        report = asdict(analytics.response_report(corpus, firsts))
        report["reply_sentiment"] = analytics.reply_sentiment_split(corpus, table, firsts)
        _write_json(outdir / "response.json", report)

    if "traits" in metrics:
        medians = analytics.user_category_medians(table, res.lexicon, deleters, non_deleters)
        # Keep only attributes the map knows plus the non-lexicon rows.
        tally, unmapped = analytics.trait_tally(medians, trait_map)
        _write_json(
            outdir / "traits.json",
            {"tally": tally, "unmapped": unmapped, "medians": medians},
        )
    print(json.dumps({"out": str(outdir), "metrics": metrics}, sort_keys=True))
    return 0


def _cmd_annotate_agg(args) -> int:
    items = codec.decode_jsonl(args.annotations, analytics.annotation_item)
    try:
        result = analytics.aggregate_annotations(items, alpha=args.alpha)
    except ValidationError as exc:  # a group without items
        exc.args = (f"{args.annotations}: {exc}",)
        raise
    _write_json(args.out, result)
    print(json.dumps(result["regret"], sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    corpus = Corpus.load(args.corpus)
    res = _load_resources(args)
    config = _load_train_config(args)
    bundle, metrics = classify.two_stage_train(corpus, config, args.seed, res)
    classify.save_bundle(bundle, args.out)
    if args.metrics_out:
        _write_json(args.metrics_out, {
            "metrics": asdict(metrics),
            "seed": args.seed,
            "stage2": bundle.stage2.diagnostics(),
        })
    if args.metrics_csv:
        _write_metrics_csv(args.metrics_csv, [("heldout", metrics)])
    print(json.dumps(
        {"metrics": asdict(metrics), "bundle": str(args.out), "seed": args.seed},
        sort_keys=True,
    ))
    return 0


def _write_metrics_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "precision", "recall", "f1", "tp", "fp", "tn", "fn"])
        for name, m in rows:
            writer.writerow([name, m.precision, m.recall, m.f1, m.tp, m.fp, m.tn, m.fn])


def _cmd_predict(args) -> int:
    bundle = classify.load_bundle(args.bundle)
    tweets: dict[int, TweetRecord] = {}  # events from any time range count
    for ev in read_events(args.events):
        if isinstance(ev, TweetRecord):
            keep_first(tweets, ev)
    if not tweets:
        raise RegretstreamError("no tweet events in input")
    # Only response features read the links.
    linked = link_records(tweets, {}) if bundle.config.with_responses else tweets.values()
    records = sorted(linked, key=lambda t: (t.created_at, t.id))
    ids, labels, scores = bundle.predict_records(records, {t.id: t for t in records})
    with open(args.out, "w", encoding="utf-8") as fh:
        for i in range(len(ids)):
            fh.write(
                json.dumps(
                    {
                        "id": int(ids[i]),
                        "predicted_deleted": bool(labels[i]),
                        "score": float(scores[i]),
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")
    print(json.dumps({"predicted": len(ids), "out": str(args.out)}, sort_keys=True))
    return 0


def _cmd_ablate(args) -> int:
    corpus = Corpus.load(args.corpus)
    res = _load_resources(args)
    config = _load_train_config(args)
    groups = [g.strip() for g in args.groups.split(",") if g.strip()]
    report = classify.ablate(corpus, config, groups, args.seed, res)
    _write_json(args.out, report)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "precision", "recall", "f1", "relative_f1", "delta_f1"])
            b = report["baseline"]
            writer.writerow(["baseline", b["precision"], b["recall"], b["f1"], 1.0, 0.0])
            for g in groups:
                cell = report["dropped"][g]
                m = cell["metrics"]
                writer.writerow([
                    g, m["precision"], m["recall"], m["f1"],
                    cell["relative"]["f1"], cell["delta_f1"],
                ])
    print(json.dumps({g: report["dropped"][g]["delta_f1"] for g in groups}, sort_keys=True))
    return 0


def _cmd_synth(args) -> int:
    cfg = synth.SynthConfig.from_file(args.config) if args.config else synth.SynthConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    summary = synth.write_synthetic(cfg, args.out_events, args.out_ledger)
    print(
        json.dumps(
            {
                "tweets": summary["total_tweet_events"],
                "deletes": summary["total_delete_events"],
                "retained": summary["retained"]["tweets"],
            },
            sort_keys=True,
        )
    )
    return 0


def _load_train_config(args) -> "classify.TrainConfig":
    if args.config:
        return codec.decode_json(
            args.config, functools.partial(codec.decode_config, classify.TrainConfig)
        )
    return classify.TrainConfig()


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_resource_flags(p) -> None:
    p.add_argument("--lexicon", help="lexicon JSON (default: shipped toy lexicon)")
    p.add_argument("--valence", help="valence table JSON (default: shipped toy table)")
    p.add_argument("--wordlist", help="dictionary wordlist (default: shipped toy list)")
    p.add_argument("--tags", help="pre-tagged JSONL ({'id':..,'tags':[..]})")


def build_parser() -> _Parser:
    parser = _Parser(prog="regretstream", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="join an event stream into a labeled corpus")
    p.add_argument("--events", required=True)
    p.add_argument(
        "--window", nargs=3, required=True, metavar=("START", "END", "DELETE_END")
    )
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true", help="fail on duplicate tweet ids")
    p.set_defaults(fn=_cmd_ingest, outputs=("out",))

    p = sub.add_parser("clean", help="apply the four-filter cleanup cascade")
    p.add_argument("--corpus", required=True)
    p.add_argument("--whitelist", help="client whitelist file (default: shipped)")
    p.add_argument("--config", help="cleanup config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the JSON accounting report here")
    p.set_defaults(fn=_cmd_clean, outputs=("out", "report"))

    p = sub.add_parser("featurize", help="write the RSF1 feature matrix for a corpus")
    p.add_argument("--corpus", required=True)
    _add_resource_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--with-responses", action="store_true")
    p.set_defaults(fn=_cmd_featurize, outputs=("out",))

    p = sub.add_parser("analyze", help="group-difference analytics reports")
    p.add_argument("--corpus", required=True)
    p.add_argument("--metrics", default="ntd,nud,users,temporal,response,traits")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", required=True)
    _add_resource_flags(p)
    p.add_argument("--traits-map", help="trait map JSON (default: shipped)")
    p.add_argument(
        "--structural-only", action="store_true",
        help="skip lexicon/POS attributes in ntd/nud",
    )
    p.set_defaults(fn=_cmd_analyze, outputs=())  # its --out is a directory it makes

    p = sub.add_parser("annotate-agg", help="aggregate three-annotator judgments")
    p.add_argument("--annotations", required=True)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_annotate_agg, outputs=("out",))

    p = sub.add_parser("train", help="train the two-stage deletion classifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", help="training config JSON")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="model bundle output (RSB1)")
    p.add_argument("--metrics-out", help="also write metrics JSON here")
    p.add_argument("--metrics-csv", help="also write metrics CSV here")
    _add_resource_flags(p)
    p.set_defaults(fn=_cmd_train, outputs=("out", "metrics_out", "metrics_csv"))

    p = sub.add_parser("predict", help="score new events with a trained bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_predict, outputs=("out",))

    p = sub.add_parser("ablate", help="feature-group ablation against the baseline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", help="training config JSON")
    p.add_argument(
        "--groups",
        default="user,derived_open_text,tweet,sentiment,pos,lexicon",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write a per-group CSV here")
    _add_resource_flags(p)
    p.set_defaults(fn=_cmd_ablate, outputs=("out", "csv"))

    p = sub.add_parser("synth", help="generate a synthetic stream plus ledger")
    p.add_argument("--config", help="synth config JSON (default: shipped defaults)")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out-events", required=True)
    p.add_argument("--out-ledger", required=True)
    p.set_defaults(fn=_cmd_synth, outputs=("out_events", "out_ledger"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_output_dirs(args)
        return args.fn(args)
    except UsageError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except RegretstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
