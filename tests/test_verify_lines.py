"""Golden verify output: the quick suite's verdict lines.

``run_suite("quick")`` is deterministic apart from its timings, so each
check's ``(check, passed, details)`` triple is compared with
``golden_verify_quick.json``.  The details hold every headline number the
suite prints (regret envelopes, ledger counts, residuals), so a refactor of
the store, the checks or the stages they read must leave the file untouched.
A change that alters a verdict line on purpose re-records the file with
``PYTHONPATH=src python tests/test_verify_lines.py`` and says why.
"""

import json
import os
import sys

from rps_dynamics.verification import run_suite

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_verify_quick.json")


def verify_lines():
    return [[r.check, r.passed, r.details] for r in run_suite("quick", printer=None)]


def test_quick_verify_lines_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert verify_lines() == expected


if __name__ == "__main__":
    lines = verify_lines()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(lines, fh, indent=2)
        fh.write("\n")
    print(f"recorded {len(lines)} verify lines in {GOLDEN}", file=sys.stderr)
