"""Every subcommand writes the same bytes under two hash seeds.

String hashing is salted per process by ``PYTHONHASHSEED``, so the
iteration order of a set of strings (and anything built from one) can
change between runs. Two processes with different hash seeds each run the
whole command chain, one ``cli.main`` call per subcommand, on a small
synthetic stream; every file they write must have the same digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WINDOW = ["2015-08-03T00:00:00Z", "2015-08-17T00:00:00Z", "2015-08-24T00:00:00Z"]

# Run from each output directory, so no output can differ by its path.
COMMANDS = [
    ["synth", "--config", "../in/synth.json",
     "--out-events", "events.jsonl", "--out-ledger", "ledger.jsonl"],
    ["ingest", "--events", "events.jsonl", "--window", *WINDOW, "--out", "corpus.json"],
    ["clean", "--corpus", "corpus.json", "--out", "cleaned.json", "--report", "cleanup.json"],
    ["featurize", "--corpus", "cleaned.json", "--out", "features.rsf1", "--with-responses"],
    ["analyze", "--corpus", "cleaned.json", "--out", "analyze"],
    ["annotate-agg", "--annotations", "../in/annotations.jsonl", "--out", "annotations.json"],
    ["train", "--corpus", "cleaned.json", "--config", "../in/train.json", "--seed", "7",
     "--out", "model.rsb1", "--metrics-out", "metrics.json", "--metrics-csv", "metrics.csv"],
    ["predict", "--bundle", "model.rsb1", "--events", "events.jsonl", "--out", "scores.jsonl"],
    ["ablate", "--corpus", "cleaned.json", "--config", "../in/train.json", "--seed", "7",
     "--out", "ablate.json", "--csv", "ablate.csv"],
]
# Exits 1 at the first command that does not return 0.
CHAIN = ("import json, sys\nfrom regretstream.cli import main\n"
         "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))")


def _write_inputs(path: Path) -> None:
    path.mkdir()
    # The ``synth_small`` fixture's stream.
    (path / "synth.json").write_text(json.dumps(
        {"n_users": 80, "tweet_rate_min": 1.2, "tweet_rate_max": 1.8, "orphan_deletes": 2}))
    (path / "train.json").write_text(json.dumps(
        {"n_per_class": 40, "derived_feature_folds": 3,
         "stage2_hyper": {"ada_depth": 2, "ada_rounds": 8}}))
    with open(path / "annotations.jsonl", "w") as fh:
        for i in range(40):
            votes = [["yes", "yes", "no"], ["no", "yes", "no"], ["yes", "yes", "yes"]][i % 3]
            fh.write(json.dumps({
                "item_id": i, "group": ("deleted", "non_deleted")[i % 2],
                "answers": {"personal": votes, "expressive": votes[::-1]},
                "regret": ["yes"] * 3 if i % 5 == 0 else ["no"] * 3,
            }) + "\n")


def _digests(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_every_output_is_byte_identical_across_hash_seeds(tmp_path):
    _write_inputs(tmp_path / "in")
    runs = {}
    for seed in ("1", "2"):
        out = tmp_path / f"hash{seed}"
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        runs[out] = subprocess.Popen(
            [sys.executable, "-c", CHAIN, json.dumps(COMMANDS)], cwd=out, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        for out, process in runs.items():
            _, stderr = process.communicate(timeout=600)
            assert process.returncode == 0, f"{out.name}: {stderr}"
    finally:
        for process in runs.values():
            process.kill()  # a no-op once it has exited
    first, second = (_digests(out) for out in runs)
    assert len(first) == 24  # 11 ``analyze`` files and 13 from the other commands
    assert first == second
