"""Pipeline benchmark for regretstream: seeded workloads through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest-analyze --seed 42 --seconds 35 --trace 0

Each run builds its inputs with ``regretstream synth`` from ``--seed``
(set-up), then runs the workload's subcommands back to back in one fresh
process per iteration, a closed loop with one client, for about
``--seconds`` and at least two iterations. After each iteration the outputs
are checked. The last line of standard output is the JSON result; a fuller
record with machine facts goes to ``.perfbench/results/``.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
one more iteration runs with the per-layer probes of ``probes.py``
installed, and the per-layer metrics are reported instead.

See README.md in this directory for the workloads, the metrics and which
layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

# A run must end within 180 s; no iteration starts that could cross this.
DEADLINE_S = 165.0
# Every run runs at least two iterations (a traced run: one untraced and the
# traced one): single iterations on a shared 2-vCPU host vary by 20% and
# more, and the stability checks compare iterations.
MIN_ITERATIONS = 2

SIZES = {
    # The default 20k-tweet stream and training config (criterion 8).
    "full": {"n_users": 500, "train_config": None, "f1_floor": 0.75},
    # A few seconds per workload; used by selftest.py.
    "tiny": {
        "n_users": 80,
        "train_config": {
            "n_per_class": 100,
            "stage1_hyper": {"svm_epochs": 3},
            "stage2_hyper": {"ada_rounds": 10},
        },
        "f1_floor": 0.5,
    },
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "tweets_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_per_text", "_f1")):
        return "ratio"
    return "count"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """Paths and set-up facts shared by one run's iterations."""

    work: Path
    seed: int
    fresh_seed: int
    size: dict
    window: list
    tweets: int = 0  # input tweets per iteration, the base of tweets_per_s
    facts: dict = field(default_factory=dict)  # set-up facts the checks use
    first_sha: dict = field(default_factory=dict)  # output path -> first digest

    def p(self, name: str) -> str:
        return str(self.work / name)


def _synth(ctx: Context, seed: int, events: str, ledger: str) -> list:
    cfg = ctx.work / f"synth-{seed}.json"
    cfg.write_text(json.dumps({"seed": seed, "n_users": ctx.size["n_users"]}))
    return ["synth", "--config", str(cfg), "--out-events", ctx.p(events), "--out-ledger", ctx.p(ledger)]


def _train_flags(ctx: Context) -> list:
    if ctx.size["train_config"] is None:
        return []
    cfg = ctx.work / "train-config.json"
    cfg.write_text(json.dumps(ctx.size["train_config"]))
    return ["--config", str(cfg)]


def _prepare_corpus(ctx: Context) -> list:
    return [
        _synth(ctx, ctx.seed, "events.jsonl", "ledger.jsonl"),
        ["ingest", "--events", ctx.p("events.jsonl"), "--window", *ctx.window,
         "--out", ctx.p("corpus.json")],
        ["clean", "--corpus", ctx.p("corpus.json"), "--out", ctx.p("cleaned.json"),
         "--report", ctx.p("cleanup.json")],
    ]


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _ledger_summary(path: str) -> dict:
    from regretstream.synth import load_ledger_summary

    return load_ledger_summary(path)


def _stable_output(ctx: Context, path: str) -> tuple[bool, str]:
    digest = sha256(Path(path))
    first = ctx.first_sha.setdefault(path, digest)
    return digest == first, digest[:16]


# -- ingest-analyze ----------------------------------------------------------

def ia_setup(ctx: Context) -> list:
    return [_synth(ctx, ctx.seed, "events.jsonl", "ledger.jsonl")]


def ia_after_setup(ctx: Context) -> None:
    summary = _ledger_summary(ctx.p("ledger.jsonl"))
    ctx.facts["summary"] = summary
    ctx.tweets = summary["total_tweet_events"]


def ia_commands(ctx: Context) -> list:
    return [
        ["ingest", "--events", ctx.p("events.jsonl"), "--window", *ctx.window,
         "--out", ctx.p("out-corpus.json")],
        ["clean", "--corpus", ctx.p("out-corpus.json"), "--out", ctx.p("out-cleaned.json"),
         "--report", ctx.p("out-cleanup.json")],
        ["analyze", "--corpus", ctx.p("out-cleaned.json"), "--out", ctx.p("out-reports")],
    ]


IA_REPORTS = ("group_comparison.json", "user_groups.json", "temporal.json",
              "response.json", "traits.json")


def ia_checks(ctx: Context) -> list:
    summary = ctx.facts["summary"]
    report = _read_json(ctx.p("out-cleanup.json"))
    closure = (report["stages"] == summary["stages"]
               and report["retained"] == summary["retained"])
    reports = [_read_json(str(ctx.work / "out-reports" / name)) for name in IA_REPORTS]
    return [
        ("cleanup report equals ledger summary", closure,
         f"retained {report['retained']['tweets']} vs {summary['retained']['tweets']}"),
        ("analyze wrote every report", all(reports), ", ".join(IA_REPORTS)),
    ]


# -- train-predict ------------------------------------------------------------

def tp_setup(ctx: Context) -> list:
    return _prepare_corpus(ctx) + [
        _synth(ctx, ctx.fresh_seed, "fresh.jsonl", "fresh-ledger.jsonl"),
    ]


def tp_after_setup(ctx: Context) -> None:
    ids = []
    with open(ctx.p("fresh.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if event["kind"] == "tweet":
                ids.append(event["id"])
    ctx.facts["ids"] = set(ids)
    # Tweets read per iteration: the cleaned corpus train loads and the
    # fresh stream predict scores.
    corpus_tweets = _read_json(ctx.p("cleanup.json"))["retained"]["tweets"]
    ctx.tweets = corpus_tweets + len(ids)


def tp_commands(ctx: Context) -> list:
    return [
        ["train", "--corpus", ctx.p("cleaned.json"), "--seed", str(ctx.seed),
         "--out", ctx.p("out-model.rsb1"), "--metrics-out", ctx.p("out-metrics.json"),
         *_train_flags(ctx)],
        ["predict", "--bundle", ctx.p("out-model.rsb1"), "--events", ctx.p("fresh.jsonl"),
         "--out", ctx.p("out-scores.jsonl")],
    ]


def tp_checks(ctx: Context) -> list:
    f1 = _read_json(ctx.p("out-metrics.json"))["metrics"]["f1"]
    ctx.facts["heldout_f1"] = f1
    floor = ctx.size["f1_floor"]
    same_bundle, bundle_digest = _stable_output(ctx, ctx.p("out-model.rsb1"))
    ids, finite = [], True
    with open(ctx.p("out-scores.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            ids.append(row["id"])
            finite = finite and math.isfinite(row["score"])
    one_each = len(ids) == len(ctx.facts["ids"]) and set(ids) == ctx.facts["ids"]
    same_scores, scores_digest = _stable_output(ctx, ctx.p("out-scores.jsonl"))
    return [
        (f"held-out F1 >= {floor}", f1 >= floor, f"{f1:.4f}"),
        ("bundle bytes identical across iterations", same_bundle, bundle_digest),
        ("one finite score per tweet event", one_each and finite,
         f"{len(ids)} scores for {len(ctx.facts['ids'])} tweets"),
        ("scores identical across iterations", same_scores, scores_digest),
    ]


@dataclass(frozen=True)
class Workload:
    setup: Callable
    after_setup: Callable
    commands: Callable
    checks: Callable
    # Untraced runs set up this many times; setup_s is the median. The counts
    # keep 48 runs (22 per workload and 4 more) within 3,420 s on 2 vCPUs.
    setup_repeats: int


WORKLOADS = {
    "ingest-analyze": Workload(ia_setup, ia_after_setup, ia_commands, ia_checks, 2),
    "train-predict": Workload(tp_setup, tp_after_setup, tp_commands, tp_checks, 1),
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, ctx: Context, started: float):
        self.ctx = ctx
        self.started = started
        self.ops = []  # (operation, ok, detail)
        self.n_workers = 0

    def worker(self, commands: list, layers=(), strict=False) -> dict:
        """Run ``commands`` in a fresh worker process; with ``strict``, any
        nonzero exit code is an error."""
        self.n_workers += 1
        tag = f"w{self.n_workers:03d}"
        spec = self.ctx.work / f"{tag}.spec.json"
        result = self.ctx.work / f"{tag}.result.json"
        log = self.ctx.work / f"{tag}.log"
        spec.write_text(json.dumps({"src": str(SRC), "commands": commands,
                                    "layers": list(layers)}))
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before a worker could start")
        with open(log, "w", encoding="utf-8") as fh:
            try:
                proc = subprocess.run(
                    [sys.executable, str(WORKER), str(spec), str(result)],
                    stdout=fh, stderr=subprocess.STDOUT, cwd=self.ctx.work, timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {tag} did not finish in time") from None
        out = json.loads(result.read_text(encoding="utf-8")) if result.exists() else None
        if proc.returncode != 0 or out is None or (strict and any(out["codes"])):
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            codes = out["codes"] if out else None
            raise BenchError(f"worker {tag} exited {proc.returncode}, command codes {codes}:\n{tail}")
        return out

    def iteration(self, wl: Workload, layers=()) -> dict:
        commands = wl.commands(self.ctx)
        out = self.worker(commands, layers)
        for argv, code in zip(commands, out["codes"]):
            self.ops.append((f"regretstream {argv[0]}", code == 0, f"exit {code}"))
        try:
            self.ops.extend(wl.checks(self.ctx))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.ops.append(("read outputs", False, f"{type(exc).__name__}: {exc}"))
        return out


def measure(runner: Runner, wl: Workload, seconds: float, min_iterations: int,
            reserve: float) -> list:
    """Untraced iterations for about ``seconds``; returns their worker results.

    After ``min_iterations``, another iteration starts only if it would end
    nearer to ``seconds`` than stopping now, judged by the last one's wall
    time, and only if ``reserve`` times that still fits before the deadline.
    """
    runs = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if runs:
            last = sum(runs[-1]["walls"])
            if len(runs) >= min_iterations and elapsed + last / 2 >= seconds:
                break
            if time.perf_counter() - runner.started + reserve * last > DEADLINE_S:
                if len(runs) < min_iterations:
                    raise BenchError("out of time before the minimum iteration count")
                break
        runs.append(runner.iteration(wl))
    return runs


def run(args) -> tuple[dict, dict]:
    import probes
    from regretstream.events import format_rfc3339
    from regretstream.synth import POST_START, SynthConfig
    from datetime import timedelta

    started = time.perf_counter()
    defaults = SynthConfig()
    post_end = POST_START + timedelta(days=defaults.window_days)
    delete_end = post_end + timedelta(days=defaults.delete_extra_days)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    fresh_seed = args.seed ^ 45  # never equal to seed; 42 pairs with 7
    ctx = Context(
        work=work, seed=args.seed, fresh_seed=fresh_seed, size=SIZES[args.size],
        window=[format_rfc3339(POST_START), format_rfc3339(post_end),
                format_rfc3339(delete_end)],
    )
    wl = WORKLOADS[args.workload]
    runner = Runner(ctx, started)
    try:
        setup_walls, setup_trace = [], None
        if args.trace:
            out = runner.worker(wl.setup(ctx), probes.SETUP_LAYERS, strict=True)
            setup_walls.append(sum(out["walls"]))
            setup_trace = out["trace"]
        else:
            for _ in range(wl.setup_repeats):
                setup_walls.append(sum(runner.worker(wl.setup(ctx), strict=True)["walls"]))
        wl.after_setup(ctx)

        if args.trace:  # the traced iteration follows and needs room
            runs = measure(runner, wl, args.seconds, MIN_ITERATIONS - 1, reserve=3.0)
        else:
            runs = measure(runner, wl, args.seconds, MIN_ITERATIONS, reserve=1.5)
        walls = [sum(r["walls"]) for r in runs]
        wall = statistics.median(walls)
        if args.trace:
            traced = runner.iteration(wl, sorted({p.layer for p in probes.PROBES}))
            traced_wall = sum(traced["walls"])
            trace = traced["trace"]
            metrics = probes.layer_metrics(trace, setup_trace)
            metrics["classify.heldout_f1"] = ctx.facts.get("heldout_f1", 0.0)
            metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
            metrics["trace.coverage_frac"] = trace["top_s"] / traced_wall
            metrics["trace.failed_calls"] = trace["failed_calls"] + setup_trace["failed_calls"]
        else:
            traced = None
            metrics = {
                "setup_s": statistics.median(setup_walls),
                "wall_s": wall,
                "tweets_per_s": ctx.tweets / wall,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for _, ok, _ in runner.ops if not ok)
    line = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "fresh_seed": fresh_seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_tweets": ctx.tweets,
        "setup_walls_s": setup_walls,
        "iteration_walls_s": walls,
        "iteration_command_walls_s": [r["walls"] for r in runs],
        "iteration_peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "traced": traced,
        "operations": [{"op": op, "ok": ok, "detail": d} for op, ok, d in runner.ops],
        "machine": machine_facts(),
        "result": line,
    }
    return line, record


def machine_facts() -> dict:
    import numpy

    commit = "unknown"  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42,
                   help="seed of the workload's stream; train-predict also scores a fresh "
                        "one, seed ^ 45")
    p.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind like on Ctrl-C: subprocess.run kills and waits for
    # the running worker, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "regretstream" / "cli.py").is_file():
        print(f"perfbench: no regretstream sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import regretstream

    if SRC.resolve() not in Path(regretstream.__file__).resolve().parents:
        print(f"perfbench: imported regretstream from {regretstream.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    try:
        line, record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = (ROOT / ".perfbench" / "results"
           / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for op in record["operations"]:
        if not op["ok"]:
            print(f"perfbench: FAILED {op['op']}: {op['detail']}", file=sys.stderr)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
