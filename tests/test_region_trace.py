"""The vectorized region trace against the scalar ``classify_region`` oracle.

Every comparison is exact (``==``): the trace forms each slack with the
scalar classifier's operations in its order, so float rows must round to the
same bits and exact rows to the same rationals.
"""

import gc
import json
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rps_dynamics import (
    Algorithm,
    LearnerConfig,
    SimplexPoint,
    classify_region,
    make_rps,
    parse_config,
    region_trace,
    run,
    run_experiment,
    run_sweep,
)
from rps_dynamics import analysis
from rps_dynamics.analysis import REGION_KINDS
from rps_dynamics.verification import (
    QUICK_CAP,
    TrajectoryStore,
    check_energy_ledger_bounds,
    check_gd_cycling,
)


def assert_matches_oracle(ys):
    trace = analysis._build_region_trace(ys)
    assert trace.kind.shape == trace.index.shape == trace.min_abs_margin.shape == (len(ys),)
    for t, y in enumerate(ys.tolist()):
        tag = classify_region(y)
        got = (REGION_KINDS[trace.kind[t]], int(trace.index[t]), trace.min_abs_margin[t])
        want = (tag.kind, -1 if tag.index is None else tag.index, tag.min_abs_margin)
        assert got == want, f"row {t}: y={y}"
        assert trace.label(t) == tag.label()


@pytest.fixture(scope="module")
def quick_store():
    return TrajectoryStore(QUICK_CAP)


def test_trace_matches_oracle_on_every_stored_trajectory(quick_store):
    kinds = set()
    for key, traj in quick_store.build_all():
        assert_matches_oracle(traj.ys)
        kinds.add(traj.ys.dtype)
    assert kinds == {np.dtype(float), np.dtype(object)}


# Half-integers hit region boundaries exactly; wide floats cover long runs.
_coords = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False),
    st.integers(-12, 12).map(lambda k: k / 2),
)


@st.composite
def dual_blocks(draw):
    n = draw(st.integers(3, 10))
    rows = draw(st.lists(st.lists(_coords, min_size=n, max_size=n), min_size=1, max_size=8))
    return np.array(rows, dtype=float)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dual_blocks())
def test_trace_matches_oracle_on_random_rows(ys):
    assert_matches_oracle(ys)


def _adversarial_rows(n):
    eps = 1e-12
    rows = [[0.0] * n, [3.25] * n, [-7.0] * n]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for off in (0.0, eps, -eps):
                y = [0.0] * n
                y[i] = 1.0 + off          # y_i - y_j = 1 (+- eps)
                rows.append(y)
                y = [-5.0] * n
                y[i], y[j] = 2.5 + off, 1.5  # vertex/edge boundary on a pair
                rows.append(y)
        k = (i + 2) % n
        j = (i + 1) % n
        for off in (0.0, eps, -eps):
            y = [-9.0] * n
            y[i], y[j], y[k] = 1.0, 0.5 + off, 0.25  # y_i + y_j - 2 y_k = 1
            rows.append(y)
    return rows


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_trace_matches_oracle_near_boundaries(n):
    ys = np.array(_adversarial_rows(n), dtype=float)
    assert_matches_oracle(ys)
    trace = analysis._build_region_trace(ys)
    assert (trace.min_abs_margin < 1e-11).sum() > 0
    assert set(trace.kind.tolist()) >= {analysis.VERTEX, analysis.EDGE, analysis.INTERIOR}


@pytest.mark.parametrize("n", [8, 9, 10])
def test_trace_sums_like_the_oracle(n):
    # Interior rows with a large common offset: the interior slacks are the
    # smallest |slack|, and their last bits depend on the order y is summed
    # in (numpy's pairwise sum differs from sum(y) from n = 8 on).
    rng = np.random.default_rng(n)
    ys = 1e3 + rng.uniform(0.0, 0.05, (200, n))
    assert_matches_oracle(ys)
    trace = analysis._build_region_trace(ys)
    assert set(trace.kind.tolist()) == {analysis.INTERIOR}


def test_trace_matches_oracle_on_fraction_rows():
    F = Fraction
    rows = [
        [0, 0, 0, 0],
        [F(1), 0, 0, F(-1, 3)],
        [F(3, 2), F(1, 2), 0, F(-9, 4)],
        [1, 0, F(-1, 2), F(-7, 2)],          # y_0 - y_1 = 1 exactly
        [F(1), F(1, 2), F(1, 4), -3],        # y_0 + y_1 - 2 y_2 = 1 exactly
        [F(7, 3), F(7, 3), F(7, 3), F(7, 3)],
        [0, F(5, 2), 0, F(5, 2)],
    ]
    ys = np.empty((len(rows), 4), dtype=object)
    ys[:] = rows
    assert_matches_oracle(ys)
    trace = analysis._build_region_trace(ys)
    assert all(isinstance(m, (int, Fraction)) for m in trace.min_abs_margin.tolist())


_GD_SMALL = LearnerConfig(
    algorithm=Algorithm.GRADIENT_DESCENT,
    horizon=50,
    x0=SimplexPoint((0.05, 0.35, 0.39, 0.21)),
    eta=6.0,
)


def test_region_trace_is_memoized():
    traj = run(_GD_SMALL, make_rps((1.0,) * 4))
    assert region_trace(traj) is region_trace(traj)
    trace = region_trace(traj)
    for column in (trace.kind, trace.index, trace.min_abs_margin):
        assert not column.flags.writeable


def test_trajectory_columns_cannot_change_under_the_memo():
    """The memo never goes stale: no column can be rebound or written."""
    traj = run(_GD_SMALL, make_rps((1.0,) * 4))
    with pytest.raises(AttributeError):
        traj.xs = traj.xs.copy()
    for column in (traj.xs, traj.ys, traj.energies, traj.supports):
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_memo_is_dropped_with_its_trajectory():
    traj = run(_GD_SMALL, make_rps((1.0,) * 4))
    ref = weakref.ref(region_trace(traj))
    del traj
    gc.collect()
    assert ref() is None


@pytest.fixture
def build_counter(monkeypatch):
    calls = []
    build = analysis._build_region_trace

    def counted(ys):
        calls.append(ys.shape)
        return build(ys)

    monkeypatch.setattr(analysis, "_build_region_trace", counted)
    return calls


GD_CONFIG = {
    "name": "gd",
    "weights": [1.0, 1.0, 1.0, 1.0],
    "learner": {"algorithm": "gd", "horizon": 300, "eta": 6.0,
                "x0": [0.05, 0.35, 0.39, 0.21]},
}


def test_run_experiment_builds_the_trace_once(build_counter, tmp_path):
    run_experiment(parse_config(GD_CONFIG), str(tmp_path))
    assert build_counter == [(302, 4)]


def test_sweep_builds_one_trace_per_point(build_counter, tmp_path):
    cfg = json.loads(json.dumps(GD_CONFIG))
    cfg["sweep"] = [["eta", [6.0, 9.0]]]
    run_sweep(parse_config(cfg), str(tmp_path))
    assert build_counter == [(302, 4), (302, 4)]


def test_fp_runs_build_no_trace(build_counter, tmp_path):
    cfg = {"name": "fp", "weights": [1, 1, 1],
           "learner": {"algorithm": "fp", "horizon": 100, "x0": [1, 0, 0]}}
    run_experiment(parse_config(cfg), str(tmp_path))
    assert build_counter == []


def test_c04_and_c07_share_one_trace(build_counter):
    store = TrajectoryStore(QUICK_CAP)
    assert check_gd_cycling(store, "quick").passed
    assert check_energy_ledger_bounds(store, "quick").passed
    assert build_counter == [(QUICK_CAP + 2, 4)]
