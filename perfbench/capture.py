"""Capture the reference values that ``run.py`` compares every iteration against.

    python3 perfbench/capture.py --workload solution-1d --seeds 0-15

Runs one untraced iteration per seed and stores its observations (error
ladders, slopes, final energies, study summaries) in
``perfbench/expected.json``.  Workloads whose inputs do not depend on the
seed (``rate-sweep``) are stored once, under ``"any"``.  Capture only from a
commit whose results are trusted: a later commit is held to these numbers at
``run.REL_TOL``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

SEED_FREE = {"rate-sweep"}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="0", help="one seed or an inclusive range, e.g. 0-15")
    args = parser.parse_args(argv)

    seeds = [0] if args.workload in SEED_FREE else parse_seeds(args.seeds)
    table = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    entries = table.setdefault(args.workload, {})
    workdir = run.ROOT / ".perfbench-work" / "capture"
    try:
        for seed in seeds:
            result = run.spawn(args.workload, seed, workdir)
            failed = [c for c in result.get("checks", []) if not c[1]]
            if "crashed" in result or failed:
                print(f"seed {seed}: not captured: {result.get('crashed') or failed}",
                      file=sys.stderr)
                return 1
            entries["any" if args.workload in SEED_FREE else str(seed)] = result["observations"]
            print(f"seed {seed}: {len(result['observations'])} values")
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
