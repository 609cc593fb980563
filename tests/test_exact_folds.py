"""Exact folds over one common denominator against the per-cell formulas.

``dual_replay``, ``energy_drops``, ``oracle.regret_direct``, ``regret``'s
average iterate and ``check_dual_subspace`` fold an exact run's columns as
Python-int numerators over one common denominator.  The references below are
the per-cell formulas they replaced: numpy object arithmetic on the stored
ints and Fractions, which is also what the float paths still compute.  Both
must agree with ``==``, exact and float runs alike.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rps_dynamics import (
    Algorithm,
    Arithmetic,
    ArithmeticOverflow,
    LearnerConfig,
    SimplexPoint,
    SingularSystem,
    TiebreakKind,
    TiebreakRule,
    check_dual_subspace,
    interior_nash,
    make_rps,
    regret,
    run,
)
from rps_dynamics import dynamics, oracle, verification
from rps_dynamics.experiment import REL_TOL, dual_replay, energy_drops
from rps_dynamics.game import div, over_common_denominator

DETERMINISTIC_RULES = [kind for kind in TiebreakKind if kind != TiebreakKind.RANDOM_SEEDED]


# ---------------------------------------------------------------------------
# References: one object operation per cell


def dual_replay_reference(traj):
    ys = traj.ys
    etas = traj.config.etas()
    payoffs = np.stack(traj.matrix.apply(traj.xs.T), axis=1)
    resid = np.abs(ys[1:] - ys[:-1] - payoffs * etas[:, None])
    if traj.is_exact:
        top = resid.max()
        return top == 0, top
    resid = resid.max(axis=1)
    return bool((resid <= REL_TOL * np.maximum(1.0, np.abs(ys[1:]).max(axis=1))).all()), resid.max()


def energy_drops_reference(traj):
    H = traj.energies
    steps = np.diff(H)[1:]
    scale = np.maximum(1, np.abs(H[1:-1]))
    floor = -dynamics.tolerance(traj.is_exact, REL_TOL) * scale
    drops = [int(t) + 1 for t in np.nonzero(steps < floor)[0]]
    return drops, float((steps / scale).min()) if steps.size else 0.0


def regret_direct_reference(traj):
    return 2 * max(np.stack(traj.matrix.apply(traj.xs.T), axis=1).sum(axis=0).tolist())


def average_iterate_reference(traj):
    T = traj.horizon
    return SimplexPoint(tuple(div(s, T + 1) for s in traj.xs.sum(axis=0).tolist()))


def dual_subspace_reference(traj, star):
    prods = traj.ys @ np.array(star.coords, dtype=traj.ys.dtype)
    return max(np.abs(prods).tolist())


def assert_folds_match(traj, star):
    assert dual_replay(traj) == dual_replay_reference(traj)
    assert energy_drops(traj) == energy_drops_reference(traj)
    assert oracle.regret_direct(traj) == regret_direct_reference(traj)
    assert regret(traj).average_iterate == average_iterate_reference(traj)
    assert check_dual_subspace(traj, star) == dual_subspace_reference(traj, star)


# ---------------------------------------------------------------------------
# The helper


def test_over_common_denominator_is_the_lcm_and_exact():
    cells = np.array([[Fraction(1, 6), 2], [Fraction(-3, 4), Fraction(5, 1)]], dtype=object)
    nums, D = over_common_denominator(cells)
    assert D == 12 and nums.shape == cells.shape
    assert nums.tolist() == [[2, 24], [-9, 60]]
    assert all(type(v) is int for v in nums.ravel().tolist())
    assert [[Fraction(p, D) for p in row] for row in nums.tolist()] == cells.tolist()
    nums, D = over_common_denominator((3, 1, 2))
    assert D == 1 and nums.tolist() == [3, 1, 2]


def _fp(weights, x0, T=300, eta=1, kind=TiebreakKind.LEXICOGRAPHIC):
    return run(LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=T, x0=SimplexPoint(x0),
                             eta=eta, tiebreak=TiebreakRule(kind),
                             arithmetic=Arithmetic.EXACT_RATIONAL), make_rps(weights))


@pytest.mark.parametrize("kind", DETERMINISTIC_RULES)
def test_fp_from_int_inputs_stores_only_ints(kind):
    """The claim behind ``Trajectory.over_common_denominator``'s unscanned
    columns: fictitious play from int weights, x0 and eta stores ints only."""
    traj = _fp((2, 1, 3, 1, 5), (0, 0, 1, 0, 0), T=2000, kind=kind)
    for name in ("xs", "ys", "energies"):
        column = getattr(traj, name)
        assert {type(v) for v in column.ravel().tolist()} == {int}, name
        nums, D = traj.over_common_denominator(name)
        assert D == 1 and nums is column


@pytest.mark.parametrize("x0, eta", [((Fraction(1, 2), Fraction(1, 2), 0), 1), ((1, 0, 0), Fraction(1))])
def test_fp_with_a_fraction_input_is_scanned(x0, eta):
    traj = _fp((1, 2, 3), x0, eta=eta)
    for name in ("xs", "ys", "energies"):
        nums, D = traj.over_common_denominator(name)
        assert all(type(v) is int for v in nums.ravel().tolist()), name
        assert [Fraction(p, D) for p in nums.ravel().tolist()] == getattr(traj, name).ravel().tolist()


# ---------------------------------------------------------------------------
# Differential tests


def _bits(traj):
    return max(max(abs(v.numerator), v.denominator).bit_length()
               for column in (traj.xs, traj.ys, traj.energies) for v in column.ravel().tolist())


@st.composite
def exact_runs(draw):
    """An exact run: n in 3..8, int or Fraction weights and x0, gradient
    descent at an int or Fraction eta or fictitious play under a
    deterministic tiebreak rule (eta 1 or Fraction(1)).  Its bit budget is
    drawn from the upper quarter of the bits the run needs, and a run past it
    is cut to three quarters of its horizon until it fits, so its values
    reach up to the budget."""
    n = draw(st.integers(3, 8))
    bits = draw(st.integers(2, 40))
    fraction = st.builds(Fraction, st.integers(1, 2**bits), st.integers(1, 2**bits))
    number = fraction if draw(st.booleans()) else st.integers(1, 9)
    weights = tuple(draw(st.lists(number, min_size=n, max_size=n)))
    if draw(st.booleans()):
        x0 = SimplexPoint.vertex(n, draw(st.integers(0, n - 1)))
    else:
        counts = draw(st.lists(st.integers(0, 2**bits), min_size=n, max_size=n).filter(any))
        x0 = SimplexPoint(tuple(Fraction(c, sum(counts)) for c in counts))
    if draw(st.booleans()):
        kwargs = {"algorithm": Algorithm.GRADIENT_DESCENT, "eta": draw(number)}
    else:
        kwargs = {"algorithm": Algorithm.FICTITIOUS_PLAY, "eta": draw(st.sampled_from([1, 1, 1, Fraction(1)])),
                  "tiebreak": TiebreakRule(draw(st.sampled_from(DETERMINISTIC_RULES)))}
    config = LearnerConfig(horizon=draw(st.integers(1, 150)), x0=x0, arithmetic=Arithmetic.EXACT_RATIONAL,
                           bit_budget=10**6, **kwargs)
    matrix = make_rps(weights)
    need = _bits(run(config, matrix))
    config = dataclasses.replace(config, bit_budget=max(16, draw(st.integers(3 * need // 4, need))))
    while True:
        try:
            return run(config, matrix)
        except ArithmeticOverflow:
            assume(config.horizon > 0)
            config = dataclasses.replace(config, horizon=config.horizon * 3 // 4)


def _exact_star(traj, draw_counts):
    """An exact x* to take <x*, y^t> against: the interior equilibrium where
    there is one (the products are then 0), else a drawn exact point."""
    try:
        return interior_nash(traj.matrix).point
    except SingularSystem:
        return SimplexPoint(tuple(Fraction(c, sum(draw_counts)) for c in draw_counts))


def test_exact_folds_equal_the_per_cell_formulas():
    @settings(derandomize=True, max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(exact_runs(), st.lists(st.integers(1, 50), min_size=8, max_size=8))
    def check(traj, counts):
        assert_folds_match(traj, _exact_star(traj, counts[:traj.n]))

    check()


@st.composite
def float_runs(draw):
    n = draw(st.integers(3, 8))
    weights = tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    counts = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n).filter(any))
    x0 = SimplexPoint(tuple(c / sum(counts) for c in counts))
    horizon = draw(st.integers(1, 400))
    if draw(st.booleans()):
        config = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=horizon, x0=x0,
                               eta=draw(st.floats(0.01, 20.0)))
    else:
        kind = draw(st.sampled_from(DETERMINISTIC_RULES))
        config = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=horizon, x0=x0,
                               tiebreak=TiebreakRule(kind))
    return run(config, make_rps(weights))


def test_float_folds_are_the_per_cell_formulas():
    @settings(derandomize=True, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(float_runs())
    def check(traj):
        star = SimplexPoint.uniform(traj.n)
        assert_folds_match(traj, star)

    check()


@pytest.mark.parametrize("slot", verification.TrajectoryStore(verification.QUICK_CAP).catalog())
def test_store_slots_fold_like_the_per_cell_formulas(slot):
    traj = verification.TrajectoryStore(verification.QUICK_CAP).get(slot)
    assert_folds_match(traj, interior_nash(traj.matrix).point)


@pytest.mark.parametrize("slot", ["fp_weighted_exact", "gd_weighted_float"])
def test_weighted_slots_fold_like_the_per_cell_formulas_off_their_equilibrium(slot):
    """x* = (1/2, 1/3, 1/6) is not the equilibrium (1/3, 1/2, 1/6) of the
    weights (1, 2, 3), so <x*, y^t> is not 0, and the folds of the dual
    subspace products are compared on values that are not all 0."""
    traj = verification.TrajectoryStore(verification.QUICK_CAP).get(slot)
    coords = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    star = SimplexPoint(coords if traj.is_exact else tuple(map(float, coords)))
    assert tuple(map(float, interior_nash(traj.matrix).point.coords)) == (1 / 3, 1 / 2, 1 / 6)
    assert check_dual_subspace(traj, star) > 0
    assert_folds_match(traj, star)


@pytest.mark.parametrize("delta", [Fraction(1, 7), Fraction(-3, 2), 1])
@pytest.mark.parametrize("case", ["gd", "fp_ints"])
def test_tampered_dual_fails_replay_with_the_reference_residual(case, delta):
    """A changed dual cell fails the replay, with the reference's largest
    residual; in the int-input FP run a Fraction cell breaks the int claim,
    and the numerators still give the residual exactly."""
    if case == "gd":
        traj = run(LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=60,
                                 x0=SimplexPoint((Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))),
                                 eta=Fraction(7, 3), arithmetic=Arithmetic.EXACT_RATIONAL),
                   make_rps((Fraction(1, 2), 2, Fraction(5, 3))))
    else:
        traj = _fp((1, 2, 3), (1, 0, 0), T=60)
    assert dual_replay(traj) == (True, 0)
    ys = traj.ys.copy()
    ys[17, 1] += delta
    tampered = dynamics.Trajectory(traj.config, traj.matrix, traj.xs, ys, traj.energies, traj.supports)
    ok, resid = dual_replay(tampered)
    ref_ok, ref_resid = dual_replay_reference(tampered)
    assert not ok and not ref_ok
    assert resid == ref_resid == abs(delta)


def test_energy_quotient_past_the_float_range():
    """A relative energy step past the float range does not hide the least
    one: it is found exactly, as the per-cell Fraction quotients found it."""
    traj = _fp((1, 2, 3), (Fraction(1, 2), Fraction(1, 2), 0), T=3)
    energies = np.array([0, Fraction(1, 3), Fraction(1, 3) + 10**400, 10**401, 10**401 + 10**399],
                        dtype=object)
    tampered = dynamics.Trajectory(traj.config, traj.matrix, traj.xs, traj.ys, energies, traj.supports)
    with pytest.raises(OverflowError):
        float(energies[2])
    assert energy_drops(tampered) == energy_drops_reference(tampered) == ([], 0.01)
