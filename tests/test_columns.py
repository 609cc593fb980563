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

import hashlib
import json
import os
import sys

import pytest

from rps_dynamics import verification

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


if __name__ == "__main__":
    pins = {slot: slot_digests(slot) for slot in STORE.catalog()}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(pins)} slots in {PINS}", file=sys.stderr)
