"""Run regretstream subcommands back to back in one fresh process.

Usage: python3 worker.py SPEC.json RESULT.json

SPEC holds {"src": dir, "commands": [[argv...], ...], "layers": [...]}.
The package is imported before timing starts. With a non-empty "layers"
list, the probes of those layers are installed first. RESULT receives each
command's wall time and exit code, the process's peak resident memory and
the trace dump.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from regretstream.cli import main as cli_main

    import probes

    tracer = None
    if spec["layers"]:
        tracer = probes.Tracer()
        probes.install(tracer, probes.probes_for(spec["layers"]))

    walls, codes = [], []
    for argv in spec["commands"]:
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = -1
        walls.append(time.perf_counter() - start)
        codes.append(code)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "walls": walls,
        "codes": codes,
        "peak_rss_mb": peak_kb / 1024.0,
        "trace": tracer.to_dict() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
