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
import math
import os
import sys

from rps_dynamics import Trajectory
from rps_dynamics import verification as V
from rps_dynamics.verification import run_suite

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_verify_quick.json")


def verify_lines():
    return [[r.check, r.passed, r.details] for r in run_suite("quick", printer=None)]


def test_quick_verify_lines_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert verify_lines() == expected


def _tampered(traj, **columns):
    """A new run from copies of ``traj``'s columns, with ``columns`` replaced."""
    fields = {name: getattr(traj, name).copy() for name in ("xs", "ys", "energies", "supports")}
    return Trajectory(traj.config, traj.matrix, **{**fields, **columns})


def test_store_checks_fail_on_tampered_runs():
    """c05, c06, c08, c12 and c13 each fail on a quick store of tampered or
    swapped runs, and say why: an energy drop, a raised closing dual, and
    the gd3_small and gd3_boundary runs under each other's keys, where c08
    has no 1/sqrt(T) run to audit and c13 a run that never crosses its
    ceiling."""
    store = V.TrajectoryStore(V.QUICK_CAP)
    fp3, gd4 = store.get("fp3_lex"), store.get("gd4_main")
    energies = fp3.energies.copy()
    energies[400] -= 50.0  # the step into t = 400 falls by 50
    store._cache["fp3_lex"] = _tampered(fp3, energies=energies)
    ys = gd4.ys.copy()
    ys[-1] += 1000.0  # y^{T+1}: the dual-based regret leaves both other routes
    store._cache["gd4_main"] = _tampered(gd4, ys=ys)
    small, boundary = store.get("gd3_small"), store.get("gd3_boundary")
    store._cache["gd3_small"], store._cache["gd3_boundary"] = boundary, small

    c05 = V.check_gd_sqrt_regret(store, "quick")
    assert not c05.passed
    assert c05.details == "max Reg/sqrt(T) = 11.954, slope fit skipped (2 horizons)", c05.details
    c06 = V.check_energy_monotone(store, "quick")
    assert not c06.passed
    assert c06.details.endswith("(fp3_lex)"), c06.details
    c08 = V.check_gd_small_stepsize(store, "quick")
    assert not c08.passed
    assert c08.details == f"NotApplicable: stepsize 0.3 is not 1/sqrt({V.QUICK_CAP})"
    c12 = V.check_regret_identities(store, "quick")
    assert not c12.passed
    assert "gd4_main: direct route off by" in c12.details, c12.details
    assert "gd4_main: upper bound violated by" in c12.details, c12.details
    c13 = V.check_boundary_invariance(store, "quick")
    assert not c13.passed
    assert c13.details.startswith("gd3_boundary: ceiling never exceeded (vacuous); "), c13.details


def test_fp_sqrt_regret_fails_past_its_bound():
    """c01 fails on a quick store whose fp4_lex run has Reg/sqrt(T) = 20,
    twice its bound, at both quick horizons."""
    store = V.TrajectoryStore(V.QUICK_CAP)
    fp4 = store.get("fp4_lex")
    ys = fp4.ys.copy()
    for T in V._horizons(V.QUICK_CAP):  # Reg(T) = 2 max y^{T+1}
        ys[T + 1] += 10 * math.sqrt(T) - ys[T + 1].max()
    store._cache["fp4_lex"] = _tampered(fp4, ys=ys)
    c01 = V.check_fp_sqrt_regret(store, "quick")
    assert not c01.passed
    assert "max Reg/sqrt(T) = 20.000, " in c01.details, c01.details


def test_energy_ledger_bounds_fail_at_their_ambiguity_bound(monkeypatch):
    """c07 asks for an ambiguous share strictly below 1e-3.  With every
    ledger summarised as 1,000 steps with no violation, none uncovered and
    a ambiguous, it passes at a = 0 and fails at a = 1, where the share
    over its runs is exactly 1e-3."""
    def summary(ambiguous):
        return {"steps": 1000, "in_bounds": 1000 - ambiguous, "violations": 0, "uncovered": 0,
                "ambiguous": ambiguous, "initial": 1}

    class Store:
        def get(self, key):
            return key

    monkeypatch.setattr(V, "energy_growth_ledger", lambda traj: traj)
    verdicts = {}
    for ambiguous in (0, 1):
        monkeypatch.setattr(V, "ledger_summary", lambda ledger, a=ambiguous: summary(a))
        c07 = V.check_energy_ledger_bounds(Store(), "quick")
        verdicts[ambiguous] = c07.passed
        runs = int(c07.details.split(" runs:")[0].rsplit(" ", 1)[1])
        assert c07.details.endswith(f"{ambiguous * runs} ambiguous ({0.1 * ambiguous:.4f}%)"), c07.details
    assert runs / (1000 * runs) == 1e-3  # c07's share at a = 1
    assert verdicts == {0: True, 1: False}


if __name__ == "__main__":
    lines = verify_lines()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(lines, fh, indent=2)
        fh.write("\n")
    print(f"recorded {len(lines)} verify lines in {GOLDEN}", file=sys.stderr)
