"""Smoke test of the benchmark: every workload at tiny horizons, both modes.

Each run must pass its correctness check, print every metric that
BENCHMARK.json lists for its mode by name with its unit, and leave the
package's functions unwrapped afterwards.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(BENCH, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run(workload, trace, listed):
    run.import_package()
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in run.tracing.PATCHES
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main([
            "--workload", workload, "--seed", "0", "--seconds", "0.01",
            "--trace", str(trace), "--smoke",
        ])
    assert rc == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines), name
    if trace and workload == "simulate":
        # The check's own oracle calls are not the operation's.
        assert result["metrics"]["oracle.regret_direct_s"]["value"] == 0
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn, (module, attr)
