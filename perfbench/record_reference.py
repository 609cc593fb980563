#!/usr/bin/env python3
"""Record the meanings the benchmark's correctness check compares against.

    python3 perfbench/record_reference.py --size full --seeds 0 31

Runs each seeded workload's operation once per seed and stores every unit's
meaning in ``reference.json``, merged with what the file already holds.
Record only on a commit whose outputs are known to be right; the file notes
the package source digest it was recorded from.  ``verify_full`` needs no
recording: its expected verdicts are fixed in ``workloads.py``.
"""

import argparse
import json
import os
import sys
import tempfile

import run
import workloads

SEEDED = ("gd_experiment", "simulate", "exact_experiment")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=("full", "smoke"), required=True)
    p.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = p.parse_args(argv)
    pkg = run.import_package()
    sizes = workloads.SMOKE if args.size == "smoke" else workloads.FULL
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    else:
        ref = {"runs": {"full": {}, "smoke": {}}}
    digest = run.src_digest()
    if ref.setdefault("src_sha256", digest) != digest:
        raise SystemExit("reference.json was recorded from other package source")
    first, last = args.seeds
    os.makedirs(run.WORK, exist_ok=True)
    for workload in SEEDED:
        table = ref["runs"][args.size].setdefault(workload, {})
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory(dir=run.WORK, prefix="record-") as work:
                wl = workloads.setup(pkg, workload, sizes, seed, work)
                _, _, units, _ = run.run_op(wl, os.path.join(work, "out"), run.HostClock())
            meanings = {name: unit["meaning"] for name, unit in units.items()}
            failed = workloads.check_units(workload, units, None)
            if failed:
                raise SystemExit(f"{workload} seed {seed}: invariants fail for {failed}")
            table[str(seed)] = meanings
            print(f"{args.size} {workload} seed {seed}: {len(meanings)} units", file=sys.stderr)
        with open(run.REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
