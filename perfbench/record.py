"""Write expected.json: exit code, verdict and output sha256 of every job
that any seed can produce, one table per workload.

Run it at the commit whose outputs are the reference:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE.parent / ".perfbench_out" / "record"


def main():
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    table = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            table[name] = {}
            for job in cls.all_keys(str(WORKDIR), str(SRC)):
                code, verdict, digest = job.outcome(job.call())
                table[name][job.key] = {"exit": code, "verdict": verdict,
                                        "sha256": digest}
                print(f"{name}: {job.key} -> exit {code}, verdict {verdict}",
                      flush=True)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
