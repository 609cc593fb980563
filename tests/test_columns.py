"""Column pins: the sha256 of every stored column of every verify-store slot.

``test_events.py`` compares ``run`` against ``oracle.run_stepwise``, but both
take their scalar steps through the same function, so a change to that step
moves both sides alike.  These pins catch it: each slot of the store at cap
1e4 is run and its ``xs``, ``ys``, ``energies`` and ``supports`` are hashed
against ``golden_columns.json``.  A numeric column is hashed by its bytes, an
object column by the repr of each cell's (type name, value), so the int and
``Fraction`` types of exact runs are pinned too.  A change that alters the
columns on purpose re-records the file with
``PYTHONPATH=src python tests/test_columns.py`` and says why.
"""

import builtins
import hashlib
import json
import math
import os
import sys

import pytest

from rps_dynamics import classify_region, verification
from rps_dynamics.analysis import _boundary_margin
from test_golden import DIGESTS, produce_digests
from test_verify_lines import GOLDEN, verify_lines

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_columns.json")
COLUMNS = ("xs", "ys", "energies", "supports")
STORE = verification.TrajectoryStore(10**4)


def column_digest(column):
    h = hashlib.sha256(repr((column.dtype.str, column.shape)).encode())
    if column.dtype == object:
        for cell in column.ravel().tolist():
            h.update(repr((type(cell).__name__, cell)).encode())
    else:
        h.update(column.tobytes())
    return h.hexdigest()


def slot_digests(slot):
    traj = STORE.get(slot)
    return {name: column_digest(getattr(traj, name)) for name in COLUMNS}


def load_pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_every_slot():
    assert sorted(load_pins()) == STORE.catalog()


@pytest.mark.parametrize("slot", STORE.catalog())
def test_store_columns_match_pins(slot):
    assert slot_digests(slot) == load_pins()[slot]


def sum_312(iterable, start=0):
    """Python 3.12's ``sum``, in Python: ints add exactly; once the total is
    a float, each further float is added with Neumaier's compensation (ints
    that fit a C long are added plainly), and the compensation is added at
    the end, or before an item of any other type, after which every item is
    added plainly."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(result) is not int:
                break
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                comp += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                result = (total + comp if comp and math.isfinite(comp) else total) + item
                break
        else:
            return total + comp if comp and math.isfinite(comp) else total
    for item in items:
        result = result + item
    return result


def test_store_columns_do_not_depend_on_the_sum_rule(monkeypatch):
    """The float kernels fold left to right and never call ``sum`` on
    floats, so Python 3.12's compensated ``sum`` moves no pinned column, and
    the region pass's margins still equal ``classify_region``'s."""
    assert sum_312([1e16, 1.0, -1e16]) == 1.0 and sum_312([0.1] * 10) == 1.0
    monkeypatch.setattr(builtins, "sum", sum_312)
    store = verification.TrajectoryStore(10**4)
    pins = load_pins()
    for slot in store.catalog():
        traj = store.get(slot)
        assert {name: column_digest(getattr(traj, name)) for name in COLUMNS} == pins[slot], slot
        if traj.config.algorithm.value == "gd" and not traj.is_exact:
            ys = traj.ys[:400]
            assert _boundary_margin(ys).tolist() == [classify_region(y).min_abs_margin for y in ys.tolist()]


def test_artifacts_and_verify_lines_do_not_depend_on_the_sum_rule(monkeypatch, tmp_path):
    """Under the same rule, the golden artifact digests and the quick suite's
    verdict lines (c09's max |dE| among them) hold too."""
    monkeypatch.setattr(builtins, "sum", sum_312)
    with open(DIGESTS, encoding="utf-8") as fh:
        assert produce_digests(str(tmp_path)) == json.load(fh)
    with open(GOLDEN, encoding="utf-8") as fh:
        assert verify_lines() == json.load(fh)


if __name__ == "__main__":
    pins = {slot: slot_digests(slot) for slot in STORE.catalog()}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(pins)} slots in {PINS}", file=sys.stderr)
