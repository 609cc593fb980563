import csv
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rps_dynamics import (
    Algorithm,
    Arithmetic,
    ConfigInvalid,
    LearnerConfig,
    NonpositiveRegret,
    NoVertexReached,
    PhaseSummary,
    RegionKind,
    SimplexPoint,
    TiebreakKind,
    TiebreakRule,
    TooFewPhases,
    Trajectory,
    boundary_invariance_check,
    check_dual_subspace,
    classify_region,
    detect_phases,
    duality_gap,
    energy_growth_ledger,
    fp_primal,
    fit_regret_slope,
    interior_nash,
    ledger_summary,
    make_rps,
    regret,
    regret_at,
    run,
    small_stepsize_energy_check,
    verify_cycling,
)
from rps_dynamics import dynamics
from rps_dynamics.analysis import FP_SWITCH, INITIAL, UNCOVERED
from rps_dynamics.dynamics import EXACT_CLASS_TOL, LEDGER_BAND
from rps_dynamics.experiment import write_ledger_csv
from rps_dynamics.oracle import regret_direct


def _fp(n=3, T=50, weights=None, rule=None, exact=False):
    cfg = LearnerConfig(
        algorithm=Algorithm.FICTITIOUS_PLAY,
        horizon=T,
        x0=SimplexPoint.vertex(n, 0),
        tiebreak=rule,
        arithmetic=Arithmetic.EXACT_RATIONAL if exact else Arithmetic.FLOAT64,
    )
    return run(cfg, make_rps(weights or (1,) * n))


def _gd(n=3, T=50, eta=1, weights=None, x0=None, exact=False):
    cfg = LearnerConfig(
        algorithm=Algorithm.GRADIENT_DESCENT,
        horizon=T,
        x0=x0 or SimplexPoint.vertex(n, 0),
        eta=eta,
        arithmetic=Arithmetic.EXACT_RATIONAL if exact else Arithmetic.FLOAT64,
    )
    return run(cfg, make_rps(weights or ((1,) * n if exact else (1.0,) * n)))


# ---------------------------------------------------------------------------
# Regions


def test_region_vertex():
    tag = classify_region([5.0, 1.0, 0.0])
    assert tag.kind == RegionKind.VERTEX and tag.index == 0
    assert tag.min_abs_margin == 0.0           # y1 - y2 - 1 is exactly 0
    assert tag.label() == "vertex_0"


def test_region_edge():
    tag = classify_region([2.0, 1.8, -3.0])
    assert tag.kind == RegionKind.EDGE and tag.index == 0
    assert abs(tag.min_abs_margin - 0.8) < 1e-15
    assert tag.label() == "edge_0"


def test_region_interior():
    tag = classify_region([0.0, 0.0, 0.0])
    assert tag.kind == RegionKind.INTERIOR and tag.index is None
    assert abs(tag.min_abs_margin - 1.0 / 3) < 1e-15


def test_region_other_boundary():
    # Projection support {0, 2} on n=4 is a non-adjacent pair: no named region.
    tag = classify_region([3.0, 0.0, 3.0, 0.0])
    assert tag.kind == RegionKind.OTHER_BOUNDARY
    assert abs(tag.min_abs_margin - 1.0) < 1e-15


def test_region_near_boundary_ambiguity():
    eps = 1e-12
    tag = classify_region([1.0 + eps, 0.0, 0.0])
    assert tag.kind == RegionKind.VERTEX and tag.index == 0
    assert tag.min_abs_margin < 1e-11
    far = classify_region([10.0, 2.0, -8.0])
    assert far.min_abs_margin > 0.5


def test_region_matches_projection_support():
    """Region labels and the projection's support tell the same story."""
    from rps_dynamics import find_support

    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(800):
        n = int(rng.integers(3, 6))
        y = [float(v) for v in rng.uniform(-3, 3, n)]
        tag = classify_region(y)
        if tag.min_abs_margin < 1e-9:
            continue  # genuinely ambiguous; no claim
        s = find_support(y)
        if tag.kind == RegionKind.VERTEX:
            assert s == (tag.index,)
        elif tag.kind == RegionKind.EDGE:
            assert s == tuple(sorted((tag.index, (tag.index + 1) % n)))
        elif tag.kind == RegionKind.INTERIOR:
            assert s == tuple(range(n))
        checked += 1
    assert checked > 500


def test_region_exact_arithmetic():
    tag = classify_region((Fraction(3), Fraction(1), Fraction(0)))
    assert tag.kind == RegionKind.VERTEX and tag.index == 0
    # Exact boundary point: y0 - y1 = 1 exactly fails the strict vertex test.
    tag = classify_region((Fraction(1), Fraction(0), Fraction(-9)))
    assert tag.kind == RegionKind.EDGE and tag.index == 0
    assert tag.min_abs_margin == 0


# ---------------------------------------------------------------------------
# Regret


def test_regret_matches_definition_fp():
    traj = _fp(T=60)
    rep = regret(traj)
    # 2 * best fixed action against the empirical play sequence.
    assert abs(float(rep.regret_total) - float(regret_direct(traj))) < 1e-12
    assert rep.regret_by_energy == rep.regret_total  # FP: energy is the max
    assert rep.regret_upper == rep.regret_total


def test_regret_prefix_consistency():
    traj = _fp(T=80)
    short = _fp(T=25)
    assert regret_at(traj, 25) == regret_at(short, 25)
    assert regret_at(traj, 80) == regret(traj).regret_total


def test_regret_gap_identity_exact():
    for build in (lambda: _fp(T=40, weights=(1, 2, 3), exact=True),
                  lambda: _gd(T=40, exact=True)):
        traj = build()
        rep = regret(traj)
        assert rep.duality_gap_avg * (traj.horizon + 1) == rep.regret_total


def test_regret_gap_identity_float_random():
    rng = random.Random(17)
    for _ in range(8):
        n = rng.choice([3, 4, 5])
        algo = rng.choice(["fp", "gd"])
        if algo == "fp":
            traj = _fp(n=n, T=rng.randint(10, 60))
        else:
            traj = _gd(n=n, T=rng.randint(10, 60), eta=rng.choice([0.3, 1.0, 5.0]))
        rep = regret(traj)
        lhs = float(rep.duality_gap_avg) * (traj.horizon + 1)
        assert abs(lhs - float(rep.regret_total)) <= 1e-9 * max(1.0, abs(lhs))


def test_regret_upper_bound_gd():
    traj = _gd(T=60, eta=4.0, x0=SimplexPoint((0.2, 0.5, 0.3)))
    rep = regret(traj)
    assert rep.regret_upper is not None
    assert float(rep.regret_total) <= float(rep.regret_upper) + 1e-12


def test_regret_curve_shape():
    traj = _fp(T=100)
    rep = regret(traj)
    ts = [t for t, _ in rep.per_T_curve]
    assert ts == sorted(set(ts))
    assert ts[-1] == 100
    assert float(rep.per_T_curve[-1][1]) == float(rep.regret_total)


def test_fit_regret_slope_power_laws():
    for p in (0.5, 1.0, 0.25):
        curve = [(T, 3.0 * T**p) for T in (10, 100, 1000, 10000)]
        slope, intercept = fit_regret_slope(curve)
        assert abs(slope - p) < 1e-12
        assert abs(intercept - math.log10(3.0)) < 1e-12


def test_fit_regret_slope_errors():
    with pytest.raises(ValueError):
        fit_regret_slope([(10, 1.0), (100, 2.0)])
    with pytest.raises(NonpositiveRegret):
        fit_regret_slope([(10, 1.0), (100, 0.0), (1000, 2.0)])


# ---------------------------------------------------------------------------
# Phases


def test_phase_tiling_and_reference_values():
    traj = _fp(T=30)
    ph = detect_phases(traj)
    assert ph.t0 == 1
    assert isinstance(ph.count, int)
    got = list(zip(ph.t_start[:3].tolist(), ph.length[:3].tolist(), ph.vertex[:3].tolist()))
    assert got == [(1, 3, 1), (4, 5, 2), (9, 7, 0)]
    assert ph.start_energy[:4].tolist() == [1.0, 2.0, 2.0, 3.0]
    assert ph.energy_increased[:4].tolist() == [False, True, False, True]
    # Phase lengths tile [t0, T] exactly.
    assert ph.length.sum() == traj.horizon + 1 - ph.t0
    assert (ph.t_start[1:] == ph.t_start[:-1] + ph.length[:-1]).all()
    assert (ph.vertex[1:] != ph.vertex[:-1]).all()


def test_phase_detection_gd():
    traj = _gd(n=4, T=300, eta=6.0, x0=SimplexPoint((0.05, 0.35, 0.39, 0.21)))
    ph = detect_phases(traj)
    assert ph.t0 == 1
    assert verify_cycling(ph, 4) is None
    assert ph.length.sum() == 300
    # Energies at phase starts never decrease.
    starts = ph.start_energy.astype(float)
    assert (starts[1:] >= starts[:-1] - 1e-9).all()


def test_verify_cycling_detects_breaks():
    def mk(vertices):
        k = np.arange(len(vertices))
        return PhaseSummary(t0=0, t_start=3 * k, length=np.full(k.size, 3),
                            vertex=np.array(vertices), start_energy=k.astype(float),
                            energy_increased=k > 0)

    assert verify_cycling(mk([0, 1, 2, 0, 1]), 3) is None
    assert verify_cycling(mk([0, 1, 0]), 3) == 2
    assert verify_cycling(mk([2, 0, 1]), 3) is None
    with pytest.raises(TooFewPhases):
        verify_cycling(mk([0]), 3)


def _reference_phases(traj):
    """Phases step by step: (t0, [(t_start, length, vertex, gamma, c_k)])."""
    T = traj.horizon
    if traj.config.algorithm == Algorithm.FICTITIOUS_PLAY:
        labels = [m.bit_length() - 1 if m and m & (m - 1) == 0 else -1
                  for m in (traj.support_mask(t) for t in range(T + 1))]
    else:
        labels = []
        for t in range(T + 1):
            tag = classify_region(traj.y(t))
            labels.append(tag.index if tag.kind == RegionKind.VERTEX else -1)
    tol = 0 if traj.is_exact else 1e-9
    t0 = next((t for t in range(1, T + 1) if labels[t] >= 0), None)
    if t0 is None:
        return None
    starts = [(t0, labels[t0])]
    for t in range(t0 + 1, T + 1):
        if labels[t] >= 0 and labels[t] != starts[-1][1]:
            starts.append((t, labels[t]))
    phases = []
    for k, (tk, vk) in enumerate(starts):
        t_next = starts[k + 1][0] if k + 1 < len(starts) else T + 1
        hk = traj.energy(tk)
        c_k = k > 0 and hk > phases[-1][3] + tol * max(1, abs(phases[-1][3]))
        phases.append((tk, t_next - tk, vk, hk, c_k))
    return t0, phases


@pytest.mark.parametrize("index", range(13))
def test_phase_columns_match_step_by_step_reference(index):
    traj = _reference_run(index)
    expected = _reference_phases(traj)
    if expected is None:
        with pytest.raises(NoVertexReached):
            detect_phases(traj)
        return
    ph = detect_phases(traj)
    t0, rows = expected
    assert ph.t0 == t0 and type(ph.t0) is int
    assert ph.count == len(rows) and type(ph.count) is int
    columns = (ph.t_start, ph.length, ph.vertex, ph.start_energy, ph.energy_increased)
    assert [list(col) for col in zip(*rows)] == [col.tolist() for col in columns]
    if traj.is_exact:
        assert ph.start_energy.dtype == object
        assert all(g is traj.energies[t] for t, g in zip(ph.t_start, ph.start_energy))
        assert {type(g) for g in ph.start_energy} <= {int, Fraction}


# ---------------------------------------------------------------------------
# Energy-growth ledger


def test_ledger_fp_reference_run():
    traj = _fp(T=30)
    ledger = energy_growth_ledger(traj)
    assert ledger.transition(0) == "initial"
    assert ledger.cls[0] == INITIAL and np.isnan(ledger.lo[0]) and not ledger.ok[0]
    assert ledger.transition(1) == "fp_same" and ledger.delta[1] == 0
    assert ledger.transition(3) == "fp_switch" and ledger.delta[3] == 1.0
    summary = ledger_summary(ledger)
    assert summary["violations"] == 0 and summary["uncovered"] == 0
    assert summary["steps"] == 30
    assert summary["in_bounds"] == 30 - summary["ambiguous"]


def test_ledger_fp_switch_bound_is_a_max():
    traj = _fp(T=120, weights=(1, 2, 3), exact=True)
    ledger = energy_growth_ledger(traj)
    assert {ledger.transition(t) for t in range(1, 121)} <= {"fp_same", "fp_switch"}
    assert ledger.ok[1:].all()
    switch = ledger.delta[1:][ledger.cls[1:] == FP_SWITCH]
    assert all(0 <= d <= 3 for d in switch)


def test_ledger_gd_large_step_classes():
    traj = _gd(n=4, T=400, eta=6.0, x0=SimplexPoint((0.05, 0.35, 0.39, 0.21)))
    ledger = energy_growth_ledger(traj)
    summary = ledger_summary(ledger)
    assert summary["violations"] == 0
    assert summary["uncovered"] == 0
    seen = {ledger.transition(t) for t in range(1, 401) if not ledger.ambiguous[t]}
    assert "gd_vertex_same" in seen
    assert "gd_vertex_to_edge" in seen or "gd_vertex_advance" in seen


def test_ledger_small_step_is_uncovered():
    # Tiny stepsize keeps iterates interior: no tabulated transition applies,
    # and the ledger says so instead of inventing bounds.
    traj = _gd(T=20, eta=0.01, x0=SimplexPoint((0.3, 0.4, 0.3)))
    ledger = energy_growth_ledger(traj)
    assert any(ledger.transition(t).startswith("uncovered:interior") for t in range(21))
    assert ledger_summary(ledger)["uncovered"] > 0


def test_ledger_leaves_a_step_with_an_infinite_bound_uncovered():
    # eta * a_max = 1e300: the edge-to-vertex bound (eta a_max)^2 / 4 overflows.
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=50,
                        x0=SimplexPoint.vertex(3, 0), eta=1e300)
    traj = run(cfg, make_rps((1.0,) * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the overflow
        ledger = energy_growth_ledger(traj)
    uncovered = np.flatnonzero(ledger.cls == UNCOVERED)
    assert uncovered.size > 0
    for t in uncovered:
        assert ledger.transition(t).startswith("uncovered:edge_")
        assert math.isnan(ledger.lo[t]) and math.isnan(ledger.hi[t]) and not ledger.ok[t]
    assert np.isfinite(ledger.hi[ledger.cls > INITIAL]).all()
    assert ledger_summary(ledger)["uncovered"] == uncovered.size


def test_ledger_delta_sums_to_energy_gain():
    traj = _gd(n=4, T=200, eta=6.0, x0=SimplexPoint((0.05, 0.35, 0.39, 0.21)))
    ledger = energy_growth_ledger(traj)
    total = sum(ledger.delta.tolist())
    assert abs(total - (float(traj.energy(201)) - float(traj.energy(0)))) < 1e-9


def _doctored(algorithm, ys, energies, supports, exact, eta=1):
    """A one-step trajectory built from given columns, not from a run; the
    supports include the closing response to y^2."""
    dtype = object if exact else float
    cfg = LearnerConfig(
        algorithm=algorithm,
        horizon=1,
        x0=SimplexPoint.vertex(3, 0),
        eta=eta if exact else float(eta),
        arithmetic=Arithmetic.EXACT_RATIONAL if exact else Arithmetic.FLOAT64,
    )
    return Trajectory(
        cfg,
        make_rps((1, 1, 1) if exact else (1.0, 1.0, 1.0)),  # the game in the run's number type
        np.array([[1, 0, 0], [1, 0, 0]], dtype=dtype),
        np.array(ys, dtype=dtype),
        np.array(energies, dtype=dtype),
        np.array(supports, dtype=np.uint64),
    )


def _ledger_csv_row(ledger, path, t):
    write_ledger_csv(ledger, str(path))
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[t + 1]


def test_ledger_violations_read_false(tmp_path):
    # FP: the final step switches response (y^2 favours action 3) and gains
    # 2 > a_max = 1.
    fp = energy_growth_ledger(
        _doctored(Algorithm.FICTITIOUS_PLAY, [[0, 0, 0], [0, 1, 0], [0, 0, 5]],
                  [0, 1, 3], [1, 2, 4], exact=True)
    )
    # GD: vertex 1 -> vertex 2 gaining exactly its lower bound 1, which the
    # open exact interval (1, eta*a_max) excludes.  y^0 sits on vertex 1 as
    # well, and row 0 still reads initial.
    advance = ([[3, 0, 0], [3, 0, 0], [0, 3, 0]], [2, 2, 3], [1, 1, 2])
    gd = energy_growth_ledger(
        _doctored(Algorithm.GRADIENT_DESCENT, *advance, exact=True, eta=4)
    )
    assert fp.transition(1) == "fp_switch" and not fp.ok[1]
    assert gd.transition(0) == "initial" and ledger_summary(gd)["initial"] == 1
    assert gd.transition(1) == "gd_vertex_advance" and not gd.ok[1]
    assert (fp.lo[1], fp.hi[1], gd.lo[1], gd.hi[1]) == (0, 1, 1, 4)
    assert ledger_summary(fp)["violations"] + ledger_summary(gd)["violations"] == 2
    assert _ledger_csv_row(fp, tmp_path / "fp.csv", 1) == [
        "1", "fp_switch", "2/1", "0/1", "1/1", "false"
    ]
    assert _ledger_csv_row(gd, tmp_path / "gd.csv", 1) == [
        "1", "gd_vertex_advance", "1/1", "1/1", "4/1", "false"
    ]
    # Float runs close the interval and widen it by the band.
    gd_float = energy_growth_ledger(
        _doctored(Algorithm.GRADIENT_DESCENT, *advance, exact=False, eta=4)
    )
    assert gd_float.ok[1] and ledger_summary(gd_float)["violations"] == 0
    assert _ledger_csv_row(gd_float, tmp_path / "gd_float.csv", 1) == [
        "1", "gd_vertex_advance", "1", "1", "4", "true"
    ]
    # A zero bound allows float runs only 1e-12, not the 1e-9 band.
    fp_float = energy_growth_ledger(
        _doctored(Algorithm.FICTITIOUS_PLAY, [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
                  [0, 1, 1 + 1e-10], [1, 1, 1], exact=False)
    )
    assert fp_float.transition(1) == "fp_same" and not fp_float.ok[1]


def test_float_ledger_band_edges_are_inside():
    """A float step whose gain sits exactly on an edge of its band, lo -
    LEDGER_BAND or hi + LEDGER_BAND, is ok: float runs close the interval
    that exact runs keep open.  An ulp past either edge is not."""
    ys = [[3, 0, 0], [3, 0, 0], [0, 3, 0]]  # vertex 1 -> vertex 2, bounds (1, eta * a_max)
    low, high = 1.0 - LEDGER_BAND, 4.0 + LEDGER_BAND
    outside = (np.nextafter(low, -math.inf), np.nextafter(high, math.inf))
    for gain, ok in [(low, True), (high, True), *((g, False) for g in outside)]:
        ledger = energy_growth_ledger(
            _doctored(Algorithm.GRADIENT_DESCENT, ys, [0.0, 0.0, gain], [1, 1, 2], exact=False, eta=4)
        )
        assert ledger.transition(1) == "gd_vertex_advance" and ledger.delta[1] == gain
        assert ledger.ok[1] == ok, gain


def _reference_ledger(traj):
    """The ledger step by step from ``classify_region``: one (class, lo, hi,
    ok, ambiguous) tuple per t, None where a row has no bounds."""
    T, cfg, exact, n = traj.horizon, traj.config, traj.is_exact, traj.n
    a_max = traj.matrix.a_max if exact else float(traj.matrix.a_max)
    number = Fraction if exact else float
    tags = [classify_region(traj.y(t)) for t in range(T + 2)]
    etas = cfg.etas().tolist()
    rows = [("initial", None, None, None, False)]
    for t in range(1, T + 1):
        delta = traj.energy(t + 1) - traj.energy(t)
        cls, lo, hi, strict, ambiguous = None, None, None, False, False
        if cfg.algorithm == Algorithm.FICTITIOUS_PLAY:
            cur = traj.support(t)[0]
            if t < T:
                nxt = traj.support(t + 1)[0]
            else:
                nxt = fp_primal(traj.y(T + 1), cfg.effective_tiebreak, incumbent=cur,
                                tol=cfg.effective_tie_tolerance, step=T + 1)
            cls, lo, hi = ("fp_same", 0, 0) if nxt == cur else ("fp_switch", 0, a_max)
            if not exact:  # a vertex below its row's max won a tie the tolerance decided
                ambiguous = any(traj.y(s)[i] < max(traj.y(s)) for s, i in ((t, cur), (t + 1, nxt)))
        else:
            src, dst = tags[t], tags[t + 1]
            if not exact:
                ambiguous = min(src.min_abs_margin, dst.min_abs_margin) <= LEDGER_BAND
            b = etas[t] * a_max
            vertex, edge = RegionKind.VERTEX, RegionKind.EDGE
            i, j = src.index, dst.index
            if src.kind == dst.kind == vertex and j == i:
                cls, lo, hi = "gd_vertex_same", 0, 0
            elif src.kind == dst.kind == vertex and j == (i + 1) % n:
                cls, lo, hi, strict = "gd_vertex_advance", 1, b, True
            elif (src.kind, dst.kind) == (vertex, edge) and j == i:
                cls, lo, hi = "gd_vertex_to_edge", 0, 1
            elif (src.kind, dst.kind) == (edge, vertex) and j in ((i + 1) % n, (i + 2) % n):
                cls, lo, hi = "gd_edge_to_vertex", 0, b * b / number(4)
            elif src.kind == dst.kind == edge and j == (i + 1) % n:
                cls, lo, hi = "gd_edge_advance", 0, b + number(5) / number(4)
            else:
                cls = f"uncovered:{src.label()}->{dst.label()}"
        ok = None
        if lo is not None:
            if exact:
                ok = lo < delta < hi if strict else lo <= delta <= hi
            else:
                tol = EXACT_CLASS_TOL if cls in ("fp_same", "gd_vertex_same") else LEDGER_BAND
                ok = lo - tol <= delta <= hi + tol
        rows.append((cls, lo, hi, ok, ambiguous))
    return rows


def _reference_run(index):
    x0_gd4 = SimplexPoint((0.05, 0.35, 0.39, 0.21))
    if index == 0:
        return _fp(n=4, T=300)
    if index == 1:
        return _fp(n=4, T=300, rule=TiebreakRule(TiebreakKind.RANDOM_SEEDED, seed=3))
    if index == 2:
        return _fp(n=3, T=200, weights=(1, 2, 3), exact=True)
    if index == 3:
        return _gd(n=4, T=400, eta=6.0, x0=x0_gd4)
    if index == 4:
        return _gd(n=4, T=300, eta=1.0, weights=(1.0, 2.0, 3.0, 4.0), x0=x0_gd4)
    if index == 5:
        return _gd(T=50, eta=0.01, x0=SimplexPoint((0.3, 0.4, 0.3)))
    if index == 6:
        cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=200,
                            x0=SimplexPoint((0.3, 0.4, 0.3)), eta_schedule="inv_sqrt_t")
        return run(cfg, make_rps((1.0, 1.0, 1.0)))
    if index == 7:
        return _gd(T=200, eta=Fraction(1, 2), exact=True)
    if index == 9:  # uncovered pairs that differ only in the destination region
        return _gd(n=4, T=60, eta=0.3, x0=SimplexPoint((0.2, 0.2, 0.25, 0.35)))
    if index == 10:  # float FP whose tie tolerance keeps a vertex 1.25e-12 below the max
        return _fp(T=3000, weights=(2.4, 1.2, 2.2))
    if index == 11:  # float FP whose wide tie tolerance switches past the successor
        cfg = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=3000,
                            x0=SimplexPoint.vertex(5, 0), tie_tolerance=0.5,
                            tiebreak=TiebreakRule(TiebreakKind.PREFER_SWITCH))
        return run(cfg, make_rps((1.0, 2.0, 1.5, 3.0, 0.5)))
    if index == 12:  # exact FP whose orbit closes, so that most rows are tiled
        return _fp(n=5, T=500, rule=TiebreakRule(TiebreakKind.TOURNAMENT), exact=True)
    x0 = SimplexPoint(tuple(Fraction(k, 100) for k in (5, 35, 39, 21)))
    return _gd(n=4, T=200, eta=1, weights=(1, 2, 3, 4), x0=x0, exact=True)


def test_reference_runs_reach_backward_switches_and_tiled_rows(monkeypatch):
    traj = _reference_run(11)
    played = [traj.support(t)[0] for t in range(1, traj.horizon + 2)]
    assert {(b - a) % traj.n for a, b in zip(played, played[1:])} - {0, 1}

    tiled = []  # (start, stop) of each tiled column: rows from stop on repeat
    tile = dynamics._tile

    def counted(column, start, stop):
        tiled.append((start, stop))
        tile(column, start, stop)

    monkeypatch.setattr(dynamics, "_tile", counted)
    traj = _reference_run(12)
    assert tiled and traj.horizon - tiled[0][1] > 100


@pytest.mark.parametrize("index", range(13))
def test_ledger_columns_match_step_by_step_reference(index):
    traj = _reference_run(index)
    ledger = energy_growth_ledger(traj)
    expected = _reference_ledger(traj)
    assert ledger.transitions().tolist() == [row[0] for row in expected]
    for t, (cls, lo, hi, ok, ambiguous) in enumerate(expected):
        assert ledger.transition(t) == cls, t
        assert ledger.delta[t] == traj.energy(t + 1) - traj.energy(t), t
        assert bool(ledger.ambiguous[t]) == ambiguous, t
        if lo is None:
            assert ledger.cls[t] <= INITIAL and not ledger.ok[t], t
        else:
            assert (ledger.lo[t], ledger.hi[t], bool(ledger.ok[t])) == (lo, hi, ok), t
    clear = [row for row in expected[1:] if not row[4]]
    assert ledger_summary(ledger) == {
        "steps": traj.horizon,
        "in_bounds": sum(row[3] is True for row in clear),
        "violations": sum(row[3] is False for row in clear),
        "uncovered": sum(row[3] is None for row in clear),
        "ambiguous": traj.horizon - len(clear),
        "initial": 1,
    }


# ---------------------------------------------------------------------------
# Subspace / boundary / small-step checks


def test_dual_subspace_exact_zero():
    traj = _fp(T=200, weights=(1, 2, 3), exact=True)
    star = interior_nash(make_rps((1, 2, 3))).point
    assert check_dual_subspace(traj, star) == 0


def test_dual_subspace_float_rounding_only():
    traj = _gd(T=500, eta=0.3, weights=(1.0, 2.0, 3.0), x0=SimplexPoint.uniform(3))
    star = interior_nash(make_rps((1, 2, 3))).point
    assert check_dual_subspace(traj, star) < 1e-10


def test_dual_subspace_takes_x_star_in_the_run_dtype():
    """A float run rounds an exact x* to float64.  An exact run reads a float
    x* at its exact binary value, so its largest product is a Fraction: the
    exact distance of the rounded x* from the hyperplane, not float noise."""
    star = interior_nash(make_rps((1, 2, 3))).point
    rounded = SimplexPoint(tuple(float(c) for c in star.coords))
    floats = _gd(T=500, eta=0.3, weights=(1.0, 2.0, 3.0), x0=SimplexPoint.uniform(3))
    worst = check_dual_subspace(floats, star)
    assert type(worst) is float and worst == check_dual_subspace(floats, rounded)
    exact = _fp(T=1000, weights=(1, 2, 3), exact=True)
    worst = check_dual_subspace(exact, rounded)
    assert type(worst) is Fraction and worst == Fraction(31, 2**55)
    assert worst == max(abs(sum(Fraction(c) * y for c, y in zip(rounded.coords, row)))
                        for row in exact.ys.tolist())


def test_dual_subspace_dimension_check():
    traj = _fp(T=5)
    with pytest.raises(ConfigInvalid):
        check_dual_subspace(traj, SimplexPoint.uniform(4))


def test_boundary_invariance_moderate_step():
    traj = _gd(T=2000, eta=0.3, x0=SimplexPoint((0.3, 0.4, 0.3)))
    b = boundary_invariance_check(traj)
    assert b.first_exceed_t is not None
    assert not b.full_support_after_exceed


@pytest.mark.parametrize("index", range(3, 9))
def test_boundary_invariance_matches_step_by_step_reference(index):
    traj = _reference_run(index)
    full = (1 << traj.n) - 1
    interior = [t for t in range(1, traj.horizon + 1) if traj.support_mask(t) == full]
    ceiling = max((traj.energy(t) for t in interior), default=None)
    first = next((t for t in range(1, traj.horizon + 1)
                  if t not in interior and (ceiling is None or traj.energy(t) > ceiling)), None)
    b = boundary_invariance_check(traj)
    assert b.first_exceed_t == first
    assert b.full_support_after_exceed == (
        first is not None and any(t > first for t in interior))


def test_boundary_invariance_sees_a_return_to_interior():
    # Full support at t = 1 and 4.  The boundary iterate t = 2 only ties the
    # interior energies, t = 3 tops them, and t = 4 regains full support.
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=4,
                        x0=SimplexPoint.uniform(3))
    traj = Trajectory(cfg, make_rps((1.0, 1.0, 1.0)), np.zeros((5, 3)), np.zeros((6, 3)),
                      np.array([0.0, 2.0, 2.0, 3.0, 2.0, 2.0]),
                      np.array([7, 7, 1, 1, 7, 7], dtype=np.uint64))
    b = boundary_invariance_check(traj)
    assert (b.first_exceed_t, b.full_support_after_exceed) == (3, True)


def test_boundary_invariance_needs_gd():
    with pytest.raises(ConfigInvalid):
        boundary_invariance_check(_fp(T=10))


def test_small_stepsize_check_paths():
    T = 400
    ok = _gd(T=T, eta=1.0 / math.sqrt(T), x0=SimplexPoint((0.3, 0.4, 0.3)))
    v = small_stepsize_energy_check(ok)
    assert v.status == "pass"
    assert v.energy_final <= v.energy_bound
    wrong_eta = _gd(T=T, eta=0.5, x0=SimplexPoint((0.3, 0.4, 0.3)))
    assert small_stepsize_energy_check(wrong_eta).status == "not_applicable"
    leaves = _gd(T=9, eta=1.0 / 3, x0=SimplexPoint((0.1, 0.6, 0.3)))
    first = next(t for t in range(1, 10) if len(leaves.support(t)) < 3)
    assert first > 1
    v = small_stepsize_energy_check(leaves)
    assert (v.status, v.reason) == ("not_applicable", f"iterate at t={first} is not interior")
    with pytest.raises(ConfigInvalid):
        small_stepsize_energy_check(_fp(T=10))


# ---------------------------------------------------------------------------
# Cross-cutting property: monotone energy on random configurations


def test_energy_monotone_random_games():
    rng = random.Random(55)
    for _ in range(12):
        n = rng.choice([3, 4, 5])
        if rng.random() < 0.5:
            traj = _fp(n=n, T=100, weights=tuple(rng.randint(1, 4) for _ in range(n)))
        else:
            traj = _gd(n=n, T=100, eta=rng.choice([0.5, 2.0, 8.0]),
                       x0=SimplexPoint.uniform(n))
        H = traj.energies_array
        rel = np.diff(H)[1:] / np.maximum(1.0, np.abs(H[1:-1]))
        assert rel.min() >= -1e-9
