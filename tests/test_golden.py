"""Golden artifact digests: every preset plus small exact-rational runs.

Each artifact the CLI writes is compared by sha256 against
``golden_digests.json``.  The recorded digests pin the bytes of the CSV and
JSON writers, the float rounding of every stage, and the int/Fraction types
of exact runs, so a refactor that is meant to keep behaviour must leave them
untouched.  A change that alters artifact bytes on purpose re-records the
file with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from rps_dynamics.cli import main
from rps_dynamics.presets import all_presets

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

EXACT_GD_SWEEP = {
    "name": "golden_gd4_exact",
    "weights": [1, 1, 1, 1],
    "learner": {
        "algorithm": "gd",
        "horizon": 200,
        "eta": 7,
        "x0": ["1/20", "7/20", "39/100", "21/100"],
    },
    "sweep": [["eta", [7, 9]]],
}

EXACT_FP_TOURNAMENT = {
    "name": "golden_fp5_tournament",
    "weights": [1] * 5,
    "learner": {
        "algorithm": "fp",
        "horizon": 500,
        "x0": [1, 0, 0, 0, 0],
        "tiebreak": {"kind": "tournament"},
        "arithmetic": "rational",
    },
}

# Between them these two step through every gradient-descent ledger class and
# through uncovered steps, with exact bounds.
EXACT_GD3_HALF = {
    "name": "golden_gd3_exact",
    "weights": [1, 1, 1],
    "learner": {"algorithm": "gd", "horizon": 200, "eta": "1/2", "x0": [1, 0, 0]},
}

EXACT_GD4_WEIGHTED = {
    "name": "golden_gd4_weighted_exact",
    "weights": [1, 2, 3, 4],
    "learner": {
        "algorithm": "gd",
        "horizon": 200,
        "eta": 1,
        "x0": ["1/20", "7/20", "39/100", "21/100"],
    },
}


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def produce_digests(out):
    """Write every golden artifact into ``out`` and return {file: sha256}."""
    for preset in all_presets():
        _cli("preset", "run", preset.id, "--out", out)
    for command, cfg in (
        ("sweep", EXACT_GD_SWEEP),
        ("run", EXACT_FP_TOURNAMENT),
        ("run", EXACT_GD3_HALF),
        ("run", EXACT_GD4_WEIGHTED),
    ):
        path = os.path.join(out, f"{cfg['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        _cli(command, "--config", path, "--out", out)
        os.remove(path)
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_artifacts_match_golden_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = produce_digests(str(tmp_path))
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"artifact bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = produce_digests(tmp)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
