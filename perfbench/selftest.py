"""Self-test of the benchmark on a tiny synthetic stream.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload at ``--size tiny`` with tracing off (seed 42) and on
(seed 43), and checks that:

- every run is correct and emits exactly the metric names and units that
  BENCHMARK.json lists for its trace mode;
- every per-layer metric is nonzero on exactly the workloads listed for it
  in EXERCISED, so a renamed function cannot leave a layer silently at zero
  and a control workload really bypasses the layers it should;
- the benchmark exits nonzero without a result when the sources are missing.

Takes about a minute on 2 vCPUs. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

IA, TP = "ingest-analyze", "train-predict"
ALL = (IA, TP)

# Per-layer metric -> workloads on which it must be nonzero; it must be
# zero on the others. trace.overhead_frac may take any value.
EXERCISED = {
    "events.parse_s": ALL,
    "events.parse_calls": ALL,
    "events.build_corpus_s": (IA,),
    "events.records_s": ALL,
    "events.records_built": ALL,
    "events.corpus_io_s": ALL,
    "events.corpus_io_calls": ALL,
    "cleanup.run_s": (IA,),
    "cleanup.superficial_calls": (IA,),
    "cleanup.superficial_hit_ratio": (IA,),
    "textkit.edit_distance_s": (IA,),
    "textkit.edit_distance_calls": (IA,),
    "textkit.edit_distance_cells": (IA,),
    "textkit.tokenize_s": ALL,
    "textkit.tokenize_calls": ALL,
    "textkit.tokenize_per_text": ALL,
    "textkit.categories_for_s": ALL,
    "textkit.categories_for_calls": ALL,
    "textkit.categories_for_distinct_ratio": ALL,
    "textkit.pos_tag_s": ALL,
    "features.build_vocab_s": (TP,),
    "features.featurize_s": (TP,),
    "features.featurize_rows": (TP,),
    "stats.mwu_s": (IA,),
    "stats.mwu_calls": (IA,),
    "stats.mwu_pairs": (IA,),
    "stats.fisher_s": (IA,),
    "stats.fisher_calls": (IA,),
    "stats.fisher_terms": (IA,),
    "analytics.group_compare_s": (IA,),
    "analytics.user_compare_s": (IA,),
    "analytics.trait_medians_s": (IA,),
    "analytics.response_s": (IA,),
    "classify.sample_s": (TP,),
    "classify.stage1_fit_s": (TP,),
    "classify.stage1_fits": (TP,),
    "classify.pegasos_steps": (TP,),
    "classify.stage2_fit_s": (TP,),
    "classify.tree_fits": (TP,),
    "classify.ada_rounds": (TP,),
    "classify.derived_feature_s": (TP,),
    "classify.predict_s": (TP,),
    "classify.bundle_io_s": (TP,),
    "classify.heldout_f1": (TP,),
    "synth.generate_s": ALL,
    "trace.coverage_frac": ALL,
    "trace.failed_calls": (),
}
UNCONSTRAINED = {"trace.overhead_frac"}


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    check(set(EXERCISED) | UNCONSTRAINED == set(expected[1]),
          "EXERCISED covers every per-layer metric of BENCHMARK.json")
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, seed in ((0, 42), (1, 43)):
            proc = run_bench(ROOT, name, seed, trace)
            if proc.returncode != 0:
                check(False, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                  f"{name} trace {trace}: correct, {line['attempted']} operations, "
                  f"{line['failed']} failed")
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            check(units == expected[trace],
                  f"{name} trace {trace}: metric names and units match BENCHMARK.json")
            if trace == 1:
                wrong = [
                    f"{metric} = {value}"
                    for metric, workloads in EXERCISED.items()
                    for value in [line["metrics"].get(metric, {}).get("value")]
                    if value is None or (value != 0) != (name in workloads)
                ]
                check(not wrong, f"{name}: per-layer metrics nonzero exactly where "
                                 f"EXERCISED says {wrong or ''}")

    bare = ROOT / ".perfbench" / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, spec["workloads"][0]["name"], 42, 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without sources: exit {proc.returncode} and no result")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
