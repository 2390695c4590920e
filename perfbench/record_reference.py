"""Record the output digest of every workload for a range of seeds.

    python3 perfbench/record_reference.py --seeds 0-31

Runs each workload's operation once per seed, applies its correctness check
(a failed check aborts the recording) and writes `reference_digests.json`,
against which run.py reports `hash_match`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORK, _import_eigerr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))

    _import_eigerr()
    from workloads import WORKLOADS

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    digests = {}
    out = WORK / "record"
    out.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            digests[name] = {}
            for seed in range(lo, hi + 1):
                result = workload.run(seed, out)
                ok, details = workload.check(result, out)
                if not ok:
                    raise SystemExit(f"{name} seed {seed} failed its check: {details}")
                digests[name][str(seed)] = workload.digest(result)
                print(name, seed, json.dumps(details), flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    payload = {"commit": commit, "digests": digests}
    (HERE / "reference_digests.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
