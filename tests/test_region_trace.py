"""Regions read off a run's supports against the scalar ``classify_region``.

``region_trace`` names the region of the active set ``find_support`` chose
for each dual vector.  ``find_support`` keeps a coordinate that projects to
exactly 0 and ``classify_region`` counts such a point on the edge or interior,
so in rational arithmetic the two agree on every row (``==``).  A float row
can differ only where rounding flips ``find_support``'s drop test; its margin
is then at rounding level, and the ledger flags it ambiguous through
``_boundary_margin``, which must equal the scalar tag's margin bit for bit.
"""

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rps_dynamics import (
    Algorithm,
    Arithmetic,
    LearnerConfig,
    SimplexPoint,
    TiebreakKind,
    TiebreakRule,
    classify_region,
    find_support,
    ledger_summary,
    make_rps,
    parse_config,
    region_trace,
    run,
    run_experiment,
    run_sweep,
)
from rps_dynamics import analysis, oracle
from rps_dynamics.analysis import REGION_KINDS, RegionKind, detect_phases, energy_growth_ledger
from rps_dynamics.dynamics import LEDGER_BAND
from rps_dynamics.experiment import with_arithmetic, write_trajectory_csv
from rps_dynamics.presets import all_presets
from rps_dynamics.verification import (
    QUICK_CAP,
    TrajectoryStore,
    check_energy_ledger_bounds,
    check_gd_cycling,
)

from test_events import assert_same_columns
from test_golden import EXACT_GD3_HALF, EXACT_GD4_WEIGHTED, EXACT_GD_SWEEP


def tag_region(tag):
    return tag.kind, -1 if tag.index is None else tag.index


def support_region(y):
    """Region of ``find_support(y)``, read as a uint64 and as a Python-int mask."""
    mask = sum(1 << i for i in find_support(y))
    regions = set()
    for dtype in (np.uint64, object):
        kind, index = analysis._support_regions(np.array([mask], dtype=dtype), len(y))
        regions.add((REGION_KINDS[kind[0]], int(index[0])))
    assert len(regions) == 1
    return regions.pop()


def assert_trace_matches_oracle(traj):
    trace = region_trace(traj)
    assert trace.kind.shape == trace.index.shape == (traj.horizon + 2,)
    for t, y in enumerate(traj.ys.tolist()):
        tag = classify_region(y)
        assert (REGION_KINDS[trace.kind[t]], int(trace.index[t])) == tag_region(tag), (t, y)
        assert trace.label(t) == tag.label()


def assert_margin_matches_oracle(ys):
    want = [classify_region(y).min_abs_margin for y in ys.tolist()]
    assert analysis._boundary_margin(ys).tolist() == want


def spec_runs(spec):
    """Every sweep point of a spec, run."""
    fields = [f for f, _ in spec.sweep]
    for combo in itertools.product(*(values for _, values in spec.sweep)):
        learner = dataclasses.replace(spec.learner, **dict(zip(fields, combo)))
        yield run(learner, make_rps(spec.weights))


@pytest.fixture(scope="module")
def quick_store():
    return TrajectoryStore(QUICK_CAP)


def test_trace_matches_oracle_on_every_stored_trajectory(quick_store):
    kinds = set()
    for key, traj in quick_store.build_all():
        if traj.config.algorithm == Algorithm.FICTITIOUS_PLAY:
            continue
        assert_trace_matches_oracle(traj)
        if not traj.is_exact:
            assert_margin_matches_oracle(traj.ys)
        kinds.add(traj.ys.dtype)
    assert kinds == {np.dtype(float), np.dtype(object)}


def test_trace_matches_oracle_on_presets_and_golden_runs():
    specs = [s for p in all_presets() for s in p.specs]
    exact = [parse_config(c) for c in (EXACT_GD_SWEEP, EXACT_GD3_HALF, EXACT_GD4_WEIGHTED)]
    specs += exact + [with_arithmetic(s, "float") for s in exact]
    kinds = set()
    for spec in specs:
        if spec.learner.algorithm != Algorithm.GRADIENT_DESCENT:
            continue
        for traj in spec_runs(spec):
            assert_trace_matches_oracle(traj)
            if not traj.is_exact:
                assert_margin_matches_oracle(traj.ys)
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


def assert_float_rows_agree(ys):
    """The margin matches bit for bit, and the played support's region is the
    tag's wherever the row clears the ledger's ambiguity band."""
    tags = [classify_region(y) for y in ys.tolist()]
    assert analysis._boundary_margin(ys).tolist() == [tag.min_abs_margin for tag in tags]
    for y, tag in zip(ys.tolist(), tags):
        if tag.min_abs_margin > LEDGER_BAND:
            assert support_region(y) == tag_region(tag), y


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dual_blocks())
def test_trace_matches_oracle_on_random_rows(ys):
    assert_float_rows_agree(ys)


_fractions = st.one_of(
    st.integers(-12, 12).map(lambda k: Fraction(k, 2)),
    st.fractions(-20, 20, max_denominator=12),
)


@st.composite
def fraction_blocks(draw):
    n = draw(st.integers(3, 10))
    return draw(st.lists(st.lists(_fractions, min_size=n, max_size=n), min_size=1, max_size=4))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fraction_blocks())
def test_support_region_is_the_oracle_on_random_fraction_rows(rows):
    for y in rows:
        assert support_region(y) == tag_region(classify_region(y)), y


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
    rows = _adversarial_rows(n)
    ys = np.array(rows, dtype=float)
    assert_float_rows_agree(ys)
    assert (analysis._boundary_margin(ys) < 1e-11).sum() > 0
    # The same rows as the rationals the floats denote: no exceptions.
    kinds = set()
    for y in rows:
        y = [Fraction(c) for c in y]
        tag = classify_region(y)
        assert support_region(y) == tag_region(tag), y
        kinds.add(tag.kind)
    assert kinds >= {RegionKind.VERTEX, RegionKind.EDGE, RegionKind.INTERIOR}


@pytest.mark.parametrize("n", [8, 9, 10])
def test_trace_sums_like_the_oracle(n):
    # Interior rows with a large common offset: the interior slacks are the
    # smallest |slack|, and their last bits depend on the order y is summed
    # in (numpy's pairwise sum differs from sum(y) from n = 8 on).
    rng = np.random.default_rng(n)
    ys = 1e3 + rng.uniform(0.0, 0.05, (200, n))
    assert_float_rows_agree(ys)
    assert {support_region(y) for y in ys.tolist()} == {(RegionKind.INTERIOR, -1)}


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
    for y in rows:
        assert support_region(y) == tag_region(classify_region(y)), y


def test_float_rounding_row_follows_the_played_support():
    # y_2 projects to exactly 0, so the row is on the interior's boundary.
    # The float drop test rounds to -5.6e-17 and drops it, so the run plays
    # edge 0; the scalar tag says interior, at margin 0, which the ledger
    # flags as ambiguous.
    y = (1.25, 0.75, 0.5)
    assert find_support(y) == (0, 1)
    assert support_region(y) == (RegionKind.EDGE, 0)
    tag = classify_region(y)
    assert (tag.kind, tag.min_abs_margin) == (RegionKind.INTERIOR, 0.0)
    exact = tuple(map(Fraction, y))
    assert support_region(exact) == tag_region(classify_region(exact)) == (RegionKind.INTERIOR, -1)


def test_masks_wider_than_64_bits():
    n = 65
    cfg = LearnerConfig(
        algorithm=Algorithm.GRADIENT_DESCENT,
        horizon=40,
        x0=SimplexPoint((1.0,) + (0.0,) * (n - 1)),
        eta=3.0,
    )
    traj = run(cfg, make_rps((1.0,) * n))
    assert traj.supports.dtype == object
    assert_trace_matches_oracle(traj)
    assert detect_phases(traj).count >= 1
    assert energy_growth_ledger(traj).cls.shape == (cfg.horizon + 1,)


_WIDE = 65  # one coordinate past a uint64 mask


@pytest.mark.parametrize("cfg", [
    LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=400, x0=SimplexPoint.vertex(_WIDE, 4),
                  tiebreak=TiebreakRule(TiebreakKind.TOURNAMENT)),
    LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=400,
                  x0=SimplexPoint((0.5,) + (0.5 / (_WIDE - 1),) * (_WIDE - 1)), eta=3.0),
], ids=["fp_tournament", "gd_interior"])
def test_runs_past_64_actions(cfg, tmp_path):
    """Past n = 64 the support masks are Python ints in an object column:
    ``run`` still equals the stepwise oracle, the region labels are the
    played vertices (FP) or ``classify_region``'s (GD), the ledger finds no
    violation, and the trajectory CSV writes row 0's mask in full."""
    matrix = make_rps((1.0,) * _WIDE)
    traj = run(cfg, matrix)
    assert_same_columns(traj, oracle.run_stepwise(cfg, matrix))
    assert traj.supports.dtype == object
    gd = cfg.algorithm == Algorithm.GRADIENT_DESCENT
    if gd:
        assert_trace_matches_oracle(traj)
    else:
        trace = region_trace(traj)
        assert trace.label(0) == "interior"
        assert [trace.label(t) for t in range(1, traj.horizon + 2)] == [
            f"vertex_{traj.support(t)[0]}" for t in range(1, traj.horizon + 2)]
    summary = ledger_summary(energy_growth_ledger(traj))
    assert summary["violations"] == 0 and summary["in_bounds"] > 0
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, str(path))
    row0 = path.read_text().splitlines()[1].split(",")
    assert row0[-1] == str((1 << _WIDE) - 1 if gd else 1 << 4)  # interior x0, or e_4


@pytest.mark.parametrize("arithmetic", list(Arithmetic))
def test_region_trace_of_fictitious_play_is_the_played_vertex(arithmetic):
    exact = arithmetic == Arithmetic.EXACT_RATIONAL
    cfg = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=300,
                        x0=SimplexPoint((0, 1, 0, 0)), arithmetic=arithmetic)
    traj = run(cfg, make_rps((1, 2, 3, 4) if exact else (1.0, 2.0, 3.0, 4.0)))
    trace = region_trace(traj)
    assert trace.kind.shape == trace.index.shape == (traj.horizon + 2,)
    assert (REGION_KINDS[trace.kind[0]], trace.index[0]) == (RegionKind.INTERIOR, -1)
    for t in range(1, traj.horizon + 2):
        (played,) = traj.support(t)
        assert (REGION_KINDS[trace.kind[t]], trace.index[t]) == (RegionKind.VERTEX, played), t
        assert trace.label(t) == f"vertex_{played}"
    assert len(set(trace.index[1:].tolist())) == 4
    ledger = energy_growth_ledger(traj)
    assert isinstance(ledger.trace, analysis.RegionTrace)
    assert ledger.trace.kind.tolist() == trace.kind.tolist()
    assert ledger.trace.index.tolist() == trace.index.tolist()


_GD_SMALL = LearnerConfig(
    algorithm=Algorithm.GRADIENT_DESCENT,
    horizon=50,
    x0=SimplexPoint((0.05, 0.35, 0.39, 0.21)),
    eta=6.0,
)


def test_region_trace_is_read_only():
    trace = region_trace(run(_GD_SMALL, make_rps((1.0,) * 4)))
    for column in (trace.kind, trace.index):
        assert not column.flags.writeable


def test_trajectory_columns_cannot_change_under_the_memo():
    """Region traces are read off the supports column, so no column can be
    rebound or written."""
    traj = run(_GD_SMALL, make_rps((1.0,) * 4))
    with pytest.raises(AttributeError):
        traj.xs = traj.xs.copy()
    for column in (traj.xs, traj.ys, traj.energies, traj.supports):
        with pytest.raises(ValueError):
            column[0] = column[1]


@pytest.fixture
def margin_counter(monkeypatch):
    calls = []
    margin = analysis._boundary_margin

    def counted(ys):
        calls.append(ys.shape)
        return margin(ys)

    monkeypatch.setattr(analysis, "_boundary_margin", counted)
    return calls


GD_CONFIG = {
    "name": "gd",
    "weights": [1.0, 1.0, 1.0, 1.0],
    "learner": {"algorithm": "gd", "horizon": 300, "eta": 6.0,
                "x0": [0.05, 0.35, 0.39, 0.21]},
}


def test_run_experiment_computes_the_margin_once(margin_counter, tmp_path):
    run_experiment(parse_config(GD_CONFIG), str(tmp_path))
    assert margin_counter == [(302, 4)]


def test_sweep_computes_one_margin_per_point(margin_counter, tmp_path):
    cfg = json.loads(json.dumps(GD_CONFIG))
    cfg["sweep"] = [["eta", [6.0, 9.0]]]
    run_sweep(parse_config(cfg), str(tmp_path))
    assert margin_counter == [(302, 4), (302, 4)]


def test_fp_and_exact_runs_compute_no_margin(margin_counter, tmp_path):
    fp = {"name": "fp", "weights": [1, 1, 1],
          "learner": {"algorithm": "fp", "horizon": 100, "x0": [1, 0, 0]}}
    run_experiment(parse_config(fp), str(tmp_path))
    run_experiment(parse_config(EXACT_GD3_HALF), str(tmp_path))
    assert margin_counter == []


def test_c04_and_c07_compute_one_margin(margin_counter):
    store = TrajectoryStore(QUICK_CAP)
    assert check_gd_cycling(store, "quick").passed
    assert check_energy_ledger_bounds(store, "quick").passed
    assert margin_counter == [(QUICK_CAP + 2, 4)]
