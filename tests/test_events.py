"""Block stepping and orbit closure against the stepwise oracle.

``run`` takes the steps of a vertex segment in blocks and tiles a
fictitious-play orbit once its state repeats; ``oracle.run_stepwise`` takes
every step through the scalar step the two share.  Their columns must agree
byte for byte in float runs, and value for value and type for type in exact
runs; so must the errors they raise.  Float blocks are also held to the
per-row rule ``keeps_vertex``, the reference for their two-column decision.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rps_dynamics import (
    Algorithm,
    Arithmetic,
    ArithmeticOverflow,
    LearnerConfig,
    ProjectionInfeasible,
    RpsDynamicsError,
    RpsMatrix,
    SimplexPoint,
    TiebreakKind,
    TiebreakRule,
    find_support,
    fp_primal,
    gamma,
    make_rps,
    run,
)
from rps_dynamics import dynamics, oracle, verification
from rps_dynamics.experiment import parse_config

COLUMNS = ("xs", "ys", "energies", "supports")
STORES = {cap: verification.TrajectoryStore(cap) for cap in (verification.QUICK_CAP, 10**4)}


def assert_same_columns(fast, ref):
    for name in COLUMNS:
        a, b = getattr(fast, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        if a.dtype == object:
            cells_a, cells_b = a.ravel().tolist(), b.ravel().tolist()
            assert cells_a == cells_b, name
            assert list(map(type, cells_a)) == list(map(type, cells_b)), name
        else:
            assert a.tobytes() == b.tobytes(), name


def outcome(engine, config, matrix):
    """The trajectory, or the package error's type and message."""
    try:
        return engine(config, matrix)
    except RpsDynamicsError as exc:
        return type(exc), str(exc)


def assert_same_outcome(config, matrix):
    fast, ref = outcome(run, config, matrix), outcome(oracle.run_stepwise, config, matrix)
    if isinstance(ref, tuple) or isinstance(fast, tuple):
        assert fast == ref
    else:
        assert_same_columns(fast, ref)


@pytest.mark.parametrize("cap", sorted(STORES))
@pytest.mark.parametrize("slot", STORES[verification.QUICK_CAP].catalog())
def test_run_matches_stepwise_on_every_store_slot(slot, cap):
    spec = parse_config(STORES[cap].configs[slot])
    matrix = make_rps(spec.weights)
    assert_same_columns(run(spec.learner, matrix), oracle.run_stepwise(spec.learner, matrix))


@pytest.fixture
def block_sizes(monkeypatch):
    """The number of steps each block of ``run`` takes, in order."""
    taken = []
    block = dynamics._vertex_block

    def counted(*args):
        result = block(*args)
        taken.append(result[0])
        return result

    monkeypatch.setattr(dynamics, "_vertex_block", counted)
    return taken


def test_blocks_take_most_steps_of_vertex_runs(block_sizes):
    """The comparison above is not vacuous: blocks take most steps of runs
    whose response stays on one vertex for long stretches."""
    for slot in ("fp3_lex", "fp4_random", "gd4_main", "fp_weighted_exact"):
        spec = parse_config(STORES[10**4].configs[slot])
        block_sizes.clear()
        run(spec.learner, make_rps(spec.weights))
        assert sum(block_sizes) > 0.8 * (spec.learner.horizon + 1), slot


@pytest.fixture
def apply_calls(monkeypatch):
    """A one-cell list: the calls of ``RpsMatrix.apply`` so far."""
    calls = [0]
    apply = RpsMatrix.apply

    def counted(self, x):
        calls[0] += 1
        return apply(self, x)

    monkeypatch.setattr(RpsMatrix, "apply", counted)
    return calls


@pytest.mark.parametrize("slot", ["fp3_lex", "fp4_random", "gd4_main", "gd3_small"])
def test_run_forms_one_payoff_vector_per_iterate(block_sizes, apply_calls, closures, slot):
    """A x is formed for x^0 and then once per scalar step, and each block
    reuses the vector of the step before it.  Every scalar step whose
    response is a vertex tries a block, so fp4_random, whose vertex runs
    are often short, takes few scalar steps.  gd3_small never reaches a
    vertex: it takes no block and is the control."""
    spec = parse_config(STORES[10**4].configs[slot])
    matrix = make_rps(spec.weights)
    run(spec.learner, matrix)
    assert closures == []  # no row is tiled: every row is a block's or a scalar step's
    scalar = spec.learner.horizon + 1 - sum(block_sizes)
    assert apply_calls[0] <= scalar + 1, slot
    if slot == "fp4_random":
        assert scalar <= 300
    if slot == "gd3_small":
        assert block_sizes == []


@pytest.mark.parametrize("weights, arithmetic", [((0.001, 1.0, 1.0), Arithmetic.FLOAT64),
                                                 ((1, 1000, 1000), Arithmetic.EXACT_RATIONAL)])
def test_run_matches_stepwise_past_a_full_block(block_sizes, weights, arithmetic):
    """Vertex segments longer than ``MAX_BLOCK`` rows: a full block is
    followed by a scalar step and another block, which the store slots and
    the random games above never reach."""
    config = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=20000,
                           x0=SimplexPoint.vertex(3, 0), arithmetic=arithmetic)
    matrix = make_rps(weights)
    fast = run(config, matrix)
    assert dynamics.MAX_BLOCK in block_sizes
    assert_same_columns(fast, oracle.run_stepwise(config, matrix))


@st.composite
def configs(draw, kind):
    """A run on a random game: n in 3..10, integer or float weights,
    fictitious play under the tiebreak rule ``kind`` or, for None, gradient
    descent at stepsizes below, near and above max(2/a_min, 1/gamma) or on
    the decreasing schedule; vertex and interior starts."""
    n = draw(st.integers(3, 10))
    exact = draw(st.booleans())
    algorithm = Algorithm.GRADIENT_DESCENT if kind is None else Algorithm.FICTITIOUS_PLAY
    if exact:
        weights = tuple(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
        horizon = draw(st.integers(20, 250))
    else:
        weight = st.one_of(st.integers(1, 9).map(float), st.floats(0.1, 10.0))
        weights = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
        horizon = draw(st.integers(20, 1500))
    matrix = make_rps(weights)
    if draw(st.booleans()):
        x0 = SimplexPoint.vertex(n, draw(st.integers(0, n - 1)))
    else:
        counts = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        coords = [Fraction(c, sum(counts)) for c in counts]
        x0 = SimplexPoint(tuple(coords if exact else map(float, coords)))
    kwargs = {"arithmetic": Arithmetic.EXACT_RATIONAL if exact else Arithmetic.FLOAT64}
    if algorithm == Algorithm.FICTITIOUS_PLAY:
        seed = draw(st.integers(0, 99)) if kind == TiebreakKind.RANDOM_SEEDED else None
        kwargs["tiebreak"] = TiebreakRule(kind, seed)
    else:
        g = gamma(matrix, x0)
        threshold = Fraction(2) / Fraction(matrix.a_min)
        if g > 0:
            threshold = max(threshold, 1 / Fraction(g))
        factor = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(19, 20), 1,
                                       Fraction(21, 20), 2, 10]))
        eta = (threshold * factor).limit_denominator(50) or Fraction(1, 50)
        kwargs["eta"] = eta if exact else float(eta)
        if not exact and draw(st.booleans()):
            kwargs["eta_schedule"] = "inv_sqrt_t"
    return LearnerConfig(algorithm=algorithm, horizon=horizon, x0=x0, **kwargs), matrix


@pytest.mark.parametrize("kind", [None, *TiebreakKind])
def test_run_matches_stepwise_on_random_games(kind):
    @settings(derandomize=True, max_examples=40 if kind is None else 20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(configs(kind))
    def check(case):
        assert_same_outcome(*case)

    check()


def _unit3_gd(eta):
    return LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=50,
                         x0=SimplexPoint.vertex(3, 0), eta=eta)


@pytest.mark.parametrize("eta", [1e25, 1e30, 1e50, 1e100, 1e150, 1e300])
def test_run_matches_stepwise_with_huge_duals(eta):
    # At 1e100 both engines raise the same ProjectionInfeasible.
    assert_same_outcome(_unit3_gd(eta), make_rps((1.0,) * 3))


def test_huge_stepsize_breaks_down_past_a_horizon_like_stepwise():
    """eta = 1e25 completes at T=50, but from T=405 on a projected coordinate
    comes out near -8.6e9, and both engines raise the same error."""
    matrix = make_rps((1.0,) * 3)
    config = dataclasses.replace(_unit3_gd(1e25), horizon=500)
    fast, ref = outcome(run, config, matrix), outcome(oracle.run_stepwise, config, matrix)
    assert fast == ref and fast[0] is ProjectionInfeasible


@pytest.mark.parametrize("eta", [1e307, 1e308])
def test_overflow_raises_like_stepwise(eta):
    matrix = make_rps((1.0,) * 3)
    fast, ref = outcome(run, _unit3_gd(eta), matrix), outcome(oracle.run_stepwise, _unit3_gd(eta), matrix)
    assert fast == ref and fast[0] is ArithmeticOverflow


# ---------------------------------------------------------------------------
# Orbit closure

CLOSING_RULES = [kind for kind in TiebreakKind if kind != TiebreakKind.RANDOM_SEEDED]
# The energy-conserving store runs: (y^t, incumbent) repeats from t=1 with
# these periods.
ORBIT_PERIODS = {"fp3_switch": 9, "fp4_switch": 8, "fp_tournament_3": 9,
                 "fp_tournament_4": 8, "fp_tournament_5": 25}


@pytest.fixture
def closures(monkeypatch):
    """The rows (r1, r2) of each orbit a run closes, once per tiled column."""
    seen = []
    tile = dynamics._tile

    def counted(column, start, stop):
        seen.append((start, stop))
        tile(column, start, stop)

    monkeypatch.setattr(dynamics, "_tile", counted)
    return seen


@pytest.fixture
def scalar_steps(monkeypatch):
    """A one-cell list: the fictitious-play scalar steps taken so far, that
    is, the calls of ``TiebreakRule.select``."""
    calls = [0]
    select = TiebreakRule.select

    def counted(self, *args):
        calls[0] += 1
        return select(self, *args)

    monkeypatch.setattr(TiebreakRule, "select", counted)
    return calls


@st.composite
def fp_orbits(draw, kind):
    """Fictitious play under ``kind`` on a random game: n in 3..8, unit
    weights (whose orbits close) or integer weights, float or exact, vertex
    or interior start, over horizons of many orbit periods."""
    n = draw(st.integers(3, 8))
    exact = draw(st.booleans())
    weights = (1,) * n if draw(st.booleans()) else tuple(
        draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    if draw(st.booleans()):
        x0 = SimplexPoint.vertex(n, draw(st.integers(0, n - 1)))
    else:
        counts = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        coords = [Fraction(c, sum(counts)) for c in counts]
        x0 = SimplexPoint(tuple(coords if exact else map(float, coords)))
    config = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, x0=x0, tiebreak=TiebreakRule(kind),
                           horizon=draw(st.integers(100, 1000 if exact else 2000)),
                           arithmetic=Arithmetic.EXACT_RATIONAL if exact else Arithmetic.FLOAT64)
    return config, make_rps(weights if exact else tuple(map(float, weights)))


@pytest.mark.parametrize("kind", CLOSING_RULES)
def test_run_matches_stepwise_on_fp_orbits(closures, kind):
    closed = []

    @settings(derandomize=True, max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fp_orbits(kind))
    def check(case):
        closures.clear()
        assert_same_outcome(*case)
        closed.append(bool(closures))

    check()
    if kind in (TiebreakKind.TOURNAMENT, TiebreakKind.PREFER_SWITCH):
        assert sum(closed) >= 3  # not vacuous: unit-weight orbits close


def test_overflowing_orbit_raises_like_stepwise(closures):
    """Duals that overflow to inf and then would repeat: the run raises the
    stepwise run's error at the first block try from a non-finite row,
    before an inf state can be tiled."""
    config = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=100, x0=SimplexPoint.vertex(3, 0),
                           tiebreak=TiebreakRule(TiebreakKind.PREFER_SWITCH))
    matrix = make_rps((5e307, 1e308, 1.7e308))
    fast, ref = outcome(run, config, matrix), outcome(oracle.run_stepwise, config, matrix)
    assert not closures and fast == ref and fast[0] is ArithmeticOverflow


@pytest.mark.parametrize("slot", sorted(ORBIT_PERIODS))
def test_closed_orbits_take_few_scalar_steps(scalar_steps, slot):
    """The comparisons above are not vacuous: at T=1e5 the energy-conserving
    store runs close their orbit within a few periods."""
    spec = parse_config(STORES[10**4].configs[slot])
    config = dataclasses.replace(spec.learner, horizon=10**5)
    run(config, make_rps(spec.weights))
    assert scalar_steps[0] < 200


def test_random_seeded_and_stepwise_never_close(closures):
    """fp3_random revisits a switch state whose future differs, because its
    rule reads the step index; run must step on.  The reference never
    closes at all."""
    spec = parse_config(STORES[10**4].configs["fp3_random"])
    traj = run(spec.learner, make_rps(spec.weights))
    first = {}
    for r in range(1, traj.horizon + 2):
        r1 = first.setdefault((traj.ys[r].tobytes(), traj.support_mask(r)), r)
        if r1 < r:
            break
    assert r1 < r and traj.ys[r1 + 1:r1 + 100].tobytes() != traj.ys[r + 1:r + 100].tobytes()
    spec = parse_config(STORES[10**4].configs["fp3_switch"])
    oracle.run_stepwise(spec.learner, make_rps(spec.weights))
    assert closures == []


@pytest.mark.parametrize("slot, period", sorted(ORBIT_PERIODS.items()))
def test_store_orbit_periods(slot, period):
    traj = STORES[10**4].get(slot)

    def state(r):
        return traj.ys[r].tolist(), traj.support_mask(r)

    assert next(p for p in range(1, traj.horizon) if state(1 + p) == state(1)) == period
    for column in (traj.xs, traj.ys, traj.energies, traj.supports):
        assert (column[1 + period:] == column[1:-period]).all()


# ---------------------------------------------------------------------------
# Exact blocks in closed form


@pytest.fixture
def block_calls(monkeypatch):
    """Each block of ``run``, in order: its vertex i, its first step t, the
    steps it took, and the y and d = eta_t A x it started from."""
    calls = []
    block = dynamics._vertex_block

    def recorded(config, etas, columns, x, v, y, i, t):
        result = block(config, etas, columns, x, v, y, i, t)
        calls.append((i, t, result[0], list(y), [etas[t] * vi for vi in v]))
        return result

    monkeypatch.setattr(dynamics, "_vertex_block", recorded)
    return calls


def _row_gap(row, i, c):
    """min_{m != i} y_i - c - y_m of an exact dual row: the row certainly
    gets vertex i when it is positive."""
    return min(row[i] - c - v for m, v in enumerate(row) if m != i)


def assert_exact_blocks_are_maximal(config, matrix, calls):
    """``run`` equals ``run_stepwise``, value for value and type for type,
    and every block that took rows took exactly the rows that keep its
    vertex: each of them keeps it, and the next one does not unless the
    block reached ``MAX_BLOCK`` or the horizon.  Returns how many blocks
    the gap stopped, and how many of those before a row where it is
    exactly 0."""
    ref = oracle.run_stepwise(config, matrix)
    assert_same_columns(run(config, matrix), ref)
    c = 0 if config.algorithm == Algorithm.FICTITIOUS_PLAY else 1
    stopped = at_zero = 0
    for i, t, taken, _, _ in calls:
        if taken:
            rows = ref.ys[t + 1:t + 2 + taken].tolist()
            assert all(_row_gap(row, i, c) > 0 for row in rows[:taken]), (t, taken)
            if taken < min(dynamics.MAX_BLOCK, config.horizon + 1 - t):
                assert _row_gap(rows[taken], i, c) <= 0, (t, taken)
                stopped += 1
                at_zero += _row_gap(rows[taken], i, c) == 0
    return stopped, at_zero


def _exact(algorithm, x0, weights, **kwargs):
    config = LearnerConfig(algorithm=algorithm, horizon=300, x0=SimplexPoint(tuple(x0)),
                           arithmetic=Arithmetic.EXACT_RATIONAL, **kwargs)
    return config, make_rps(weights)


def _fp(rule, x0, weights):
    return _exact(Algorithm.FICTITIOUS_PLAY, x0, weights, tiebreak=TiebreakRule(rule))


_LEX, _SWITCH = TiebreakKind.LEXICOGRAPHIC, TiebreakKind.PREFER_SWITCH
_THIRDS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
_TENTHS = (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10))

# Each case's blocks start from y and d of the types named; int y and int d
# form the moving columns by int sums, the others as Fractions.
EXACT_BLOCK_CASES = {
    "gd_fraction_y_fraction_d": (_exact(Algorithm.GRADIENT_DESCENT, (1, 0, 0), (1, 1, 1), eta=2),
                                 {(Fraction, Fraction)}),
    "gd_int_y_fraction_d": (_exact(Algorithm.GRADIENT_DESCENT, (1, 0, 0), (9, 1, 1), eta=1),
                            {(int, Fraction), (Fraction, Fraction)}),
    "gd_fraction_eta": (_exact(Algorithm.GRADIENT_DESCENT, (1, 0, 0), (2, 1, 1), eta=Fraction(1, 2)),
                        {(Fraction, Fraction)}),
    "fp_lexicographic": (_fp(_LEX, (1, 0, 0), (1, 2, 3)), {(int, int)}),
    "fp_prefer_switch": (_fp(_SWITCH, (1, 0, 0, 0), (2, 3, 5, 7)), {(int, int)}),
    "fp_lexicographic_fraction_y_int_d": (_fp(_LEX, _THIRDS, (1, 2, 3)), {(Fraction, int)}),
    "fp_prefer_switch_fraction_y_int_d": (_fp(_SWITCH, _THIRDS, (1, 2, 3)), {(Fraction, int)}),
    # A set tie tolerance is an exact 0; as the float 0.0 it is refused, since
    # max y^1 - 0.0 = 1/10 - 0.0 would be the float 0.1 > 1/10.
    "fp_tenths_zero_tolerance": (_exact(Algorithm.FICTITIOUS_PLAY, (1, 0, 0), _TENTHS, tie_tolerance=0),
                                 {(Fraction, Fraction)}),
}


def _types(values):
    """Fraction if any of ``values`` is one, else int."""
    return Fraction if any(type(v) is Fraction for v in values) else int


@pytest.mark.parametrize("case", sorted(EXACT_BLOCK_CASES))
def test_exact_blocks_stop_where_the_gap_reaches_zero(block_calls, case):
    """Blocks take exactly the rows whose exact gap y_i - c - max_{m != i}
    y_m is positive, c = 1 (GD) or the tie tolerance 0 (FP), and some stop
    before a row where it is exactly 0: taking ceil(r) - 1 rows there, r
    = gap / slope an integer, is what an off-by-one gets wrong either way."""
    (config, matrix), kinds = EXACT_BLOCK_CASES[case]
    assert assert_exact_blocks_are_maximal(config, matrix, block_calls)[1] > 0
    started = {(_types(y), _types([v for v in d if v != 0])) for _, _, taken, y, d in block_calls if taken}
    assert started == kinds


def _bits(values):
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


# On the unit 3-cycle no block passes the largest bit length of the rows
# before it (none up to T=6000), so no budget is crossed inside one.
@pytest.mark.parametrize("case", sorted(set(EXACT_BLOCK_CASES) - {"gd_fraction_y_fraction_d"}))
def test_exact_block_crossing_the_bit_budget_raises_like_stepwise(monkeypatch, block_calls, case):
    """The case's game with weights scaled by 2^20, so that values pass the
    least budget, and a budget that a block's rows cross after its first:
    the block raises the stepwise run's ArithmeticOverflow, at its step."""
    (config, matrix), _ = EXACT_BLOCK_CASES[case]
    config = dataclasses.replace(config, horizon=1000)
    matrix = make_rps(tuple(w * 2**20 for w in matrix.weights))
    assert assert_exact_blocks_are_maximal(config, matrix, block_calls)[0] > 0
    ref = oracle.run_stepwise(config, matrix)
    reach = np.maximum.accumulate([_bits(row) for row in ref.ys.tolist()])  # budget to reach row s
    t, taken = next((t, taken) for _, t, taken, _, _ in block_calls if reach[t + 1] < reach[t + taken])
    config = dataclasses.replace(config, bit_budget=int(reach[t + 1]))
    raised = []
    check_block = dynamics._check_block_bits

    def spy(starts, steps, columns, budget, start):
        try:
            check_block(starts, steps, columns, budget, start)
        except ArithmeticOverflow as exc:
            raised.append((start, str(exc)))
            raise

    monkeypatch.setattr(dynamics, "_check_block_bits", spy)
    fast, ref = outcome(run, config, matrix), outcome(oracle.run_stepwise, config, matrix)
    assert fast == ref and fast[0] is ArithmeticOverflow
    step = int(fast[1].rsplit(" ", 1)[1])
    assert raised == [(t, fast[1])] and t < step < t + taken


# ---------------------------------------------------------------------------
# Float blocks against the row rule


def keeps_vertex(rows, i, tie_tol):
    """The row rule, applied row by row: which float dual rows certainly get
    the response vertex i, as a bool column.

    Fictitious play (``tie_tol`` set): the tie set y_j >= max - tie_tol is
    exactly {i}.  Gradient descent (``tie_tol`` None): the projection's
    support is (i,), that is y_i - max_{j != i} y_j - 1 past
    ``GD_VERTEX_MARGIN``'s rounding bound.  A row that fails may still get
    i; the scalar step decides it.
    """
    n = rows.shape[1]
    yi = rows[:, i]
    others = rows[:, [k for k in range(n) if k != i]]
    if tie_tol is not None:
        return (others < (yi - tie_tol)[:, None]).all(axis=1)
    gap = yi - others.max(axis=1) - 1
    return gap > dynamics.GD_VERTEX_MARGIN * (n * n) * np.maximum(1.0, np.abs(rows).max(axis=1))


def block_length(config, y, d, i, t):
    """The rows a block from step t may take: up to the row where
    coordinate i+1, the one that gains on y_i, is predicted to reach it, at
    most ``MAX_BLOCK`` and the horizon (``_vertex_block``)."""
    j = (i + 1) % len(y)
    is_fp = config.algorithm == Algorithm.FICTITIOUS_PLAY
    gap = y[i] - config.effective_tie_tolerance - y[j] if is_fp else y[i] - y[j] - 1
    length = min(dynamics.MAX_BLOCK, config.horizon + 1 - t)
    if d[j] > 0 and gap < d[j] * length:
        length = int(gap / d[j]) + 1 if gap > 0 else 0
    return length


def rule_taken(config, rows, i):
    """The rows a block may take, ``rows``, up to the first that fails the
    row rule; none when there are fewer than ``MIN_BLOCK``."""
    if len(rows) < dynamics.MIN_BLOCK:
        return 0
    tol = config.effective_tie_tolerance if config.algorithm == Algorithm.FICTITIOUS_PLAY else None
    with np.errstate(over="ignore", invalid="ignore"):
        keeps = keeps_vertex(rows, i, tol)
    return len(rows) if keeps.all() else int(keeps.argmin())


def assert_float_blocks_take_what_the_rule_keeps(config, matrix, calls):
    """``run`` equals ``run_stepwise`` byte for byte, and every block took
    exactly the rows the row rule keeps among those it may take.  Returns
    how many rows the blocks took."""
    ref = oracle.run_stepwise(config, matrix)
    calls.clear()
    assert_same_columns(run(config, matrix), ref)
    for i, t, taken, y, d in calls:
        rows = ref.ys[t + 1:t + 1 + block_length(config, y, d, i, t)]
        assert taken == rule_taken(config, rows, i), (t, taken)
    return sum(taken for _, _, taken, _, _ in calls)


FLOAT_SLOTS = [slot for slot, cfg in STORES[verification.QUICK_CAP].configs.items()
               if not parse_config(cfg).learner.is_exact]


@pytest.mark.parametrize("cap", sorted(STORES))
@pytest.mark.parametrize("slot", FLOAT_SLOTS)
def test_float_blocks_take_the_rows_the_row_rule_keeps(block_calls, slot, cap):
    spec = parse_config(STORES[cap].configs[slot])
    assert_float_blocks_take_what_the_rule_keeps(spec.learner, make_rps(spec.weights), block_calls)


def _unit_game(algorithm, x0, horizon=20000, **kwargs):
    config = LearnerConfig(algorithm=algorithm, horizon=horizon, x0=x0, **kwargs)
    return config, make_rps((1.0,) * x0.n)


_FP, _GD = Algorithm.FICTITIOUS_PLAY, Algorithm.GRADIENT_DESCENT
# The five runs of perfbench's simulate workload at seed 0, and gradient
# descent on the decreasing stepsize schedule, whose blocks step by
# eta_s A e_i with eta_s changing every row.
FLOAT_BLOCK_RUNS = {
    "fp3_lex": _unit_game(_FP, SimplexPoint.vertex(3, 0), tiebreak=TiebreakRule(_LEX)),
    "fp8_lex": _unit_game(_FP, SimplexPoint.vertex(8, 0), tiebreak=TiebreakRule(_LEX)),
    "fp4_random": _unit_game(_FP, SimplexPoint.vertex(4, 0),
                             tiebreak=TiebreakRule(TiebreakKind.RANDOM_SEEDED, 0)),
    "gd4": _unit_game(_GD, SimplexPoint((0.05, 0.35, 0.39, 0.21)), eta=6.0),
    "gd8": _unit_game(_GD, SimplexPoint((0.17, 0.04, 0.03, 0.27, 0.36, 0.04, 0.01, 0.08)), eta=6.0),
    "gd3_inv_sqrt_t": _unit_game(_GD, SimplexPoint.vertex(3, 0), horizon=2000, eta_schedule="inv_sqrt_t"),
}


@pytest.mark.parametrize("name", sorted(FLOAT_BLOCK_RUNS))
def test_float_blocks_of_long_vertex_runs_take_the_rows_the_row_rule_keeps(block_calls, name):
    assert assert_float_blocks_take_what_the_rule_keeps(*FLOAT_BLOCK_RUNS[name], block_calls) > 0


@pytest.mark.parametrize("algorithm", [_FP, _GD])
def test_blocks_whose_last_row_overflows(block_calls, algorithm):
    """Blocks whose last row has overflowed to inf in the rising column.
    Fictitious play takes the rows the row rule keeps, all before the inf
    row.  Gradient descent takes none, since its bound is taken at that
    row, where the row rule would keep some.  Both raise the stepwise run's
    error."""
    if algorithm == _FP:
        config, matrix = _unit_game(_FP, SimplexPoint.vertex(3, 0), horizon=3000)[0], make_rps((3e306,) * 3)
    else:
        config, matrix = _unit_game(_GD, SimplexPoint.vertex(3, 0), horizon=50, eta=3e307)
    fast, ref = outcome(run, config, matrix), outcome(oracle.run_stepwise, config, matrix)
    assert fast == ref and fast[0] is ArithmeticOverflow
    seen = []
    for i, t, taken, y, d in block_calls:
        length = block_length(config, y, d, i, t)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = scalar_rows(y, d, length)
        rise = rows[:, (i + 1) % 3]
        if length >= dynamics.MIN_BLOCK and np.isfinite(rows[0]).all() and rise[-1] == math.inf:
            seen.append((taken, rule_taken(config, rows, i)))
            assert taken < int(np.argmax(rise == math.inf))
    if algorithm == _FP:
        assert all(taken == kept for taken, kept in seen) and any(taken for taken, _ in seen)
    else:
        assert all(taken == 0 for taken, _ in seen) and any(kept for _, kept in seen)


def block_rows(config, matrix, y, i):
    """The rows ``_vertex_block`` takes at step 1 of a run, from the dual
    ``y`` after a step whose response is vertex i."""
    n, T = matrix.n, config.horizon
    x = [0] * n
    x[i] = 1 if config.algorithm == _FP else 1.0
    dtype = object if config.is_exact else float
    columns = (np.empty((T + 1, n), dtype), np.empty((T + 2, n), dtype), np.empty(T + 2, dtype),
               np.zeros(T + 2, dtype=np.uint64))
    etas = config.etas().tolist()
    taken, _ = dynamics._vertex_block(config, etas, columns, x, matrix.apply(x), list(y), i, 1)
    return columns[1][2:2 + taken]


@pytest.mark.parametrize("algorithm", [_FP, _GD])
@pytest.mark.parametrize("cell, value", [(0, math.inf), (2, -math.inf), (3, math.nan)])
def test_float_block_from_a_non_finite_row_takes_nothing(algorithm, cell, value):
    """A row 1 with a non-finite cell, at i, in a constant column or in the
    falling column, takes no rows: inf and nan never turn finite, so the
    block raises the error a run ending on a non-finite dual raises."""
    config, matrix = _unit_game(algorithm, SimplexPoint.vertex(4, 0), horizon=100)
    y = [100.0, 0.0, -50.0, -50.0]
    assert len(block_rows(config, matrix, y, 0)) > 0
    y[cell] = value
    with pytest.raises(ArithmeticOverflow, match="^float dual state overflowed to inf or nan$"):
        block_rows(config, matrix, y, 0)


def scalar_rows(y, d, count):
    """y + d, y + 2d, ..., as the scalar steps sum them."""
    return np.add.accumulate(np.array([y] + [d] * count), axis=0)[1:]


@pytest.mark.parametrize("scale", [10.0**k for k in range(16)])
def test_gd_margin_never_keeps_a_row_the_scalar_step_would_not(scale):
    """Blocks whose rising column reaches, at row K, a few grid steps either
    side of y_i - 1 or a little past the margin, at |y| from 1 to 1e15, with
    other row-1 cells level with it; and blocks whose moving columns stay
    near 0 while a constant cell sits a few grid steps from y_i - 1.  Every
    row a block keeps is the scalar step's, projects onto (i,) and passes
    the row rule, and no block keeps a row within a few grid steps of the
    boundary.  Every value is a multiple of the grid step g, below 2^53 g,
    so the sums are exact and row K is where it is meant to be."""
    rng = np.random.default_rng(int(round(math.log10(scale))))
    g = 2.0 ** (math.ceil(math.log2(scale + 2)) - 51)

    def grid(v):
        return round(v / g) * g

    kept = 0
    for n in range(3, 11):
        for _ in range(12):
            i = int(rng.integers(n))
            j, p = (i + 1) % n, (i - 1) % n
            top = grid(scale * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
            margin = dynamics.GD_VERTEX_MARGIN * n * n * max(1.0, abs(top) + 1)
            weights = [1.0] * n
            weights[i] = g * int(rng.integers(8, 1024))  # A e_i gains this at j
            weights[p] = g * int(rng.integers(1, 1024))  # and loses this at p
            matrix = make_rps(weights)
            d = [0.0] * n
            d[j], d[p] = weights[i], -weights[p]
            config = LearnerConfig(algorithm=_GD, horizon=200, x0=SimplexPoint.vertex(n, i), eta=1.0)
            K = int(rng.integers(8, 40))
            cases = [(0.0, u) for u in range(-4, 5)] + [(f * margin, 0) for f in (0.5, 0.99, 1.01, 1.5, 3.0)]
            for offset, steps in cases:
                target = top - 1.0 - grid(offset) + steps * g  # row K of the rising column
                y = [grid(v) for v in rng.uniform(top - 2 * abs(top) - 2, top - 1 - 4 * margin, size=n)]
                y[i], y[j] = top, target - K * weights[i]
                if rng.random() < 0.5:  # more row-1 cells level with row K of the rising column
                    for m in range(n):
                        if m not in (i, j) and rng.random() < 0.5:
                            y[m] = target + weights[p] if m == p else target
                near = n > 3 and offset == 0.0 and rng.random() < 0.5
                if near:  # a constant cell at the boundary, the moving columns near 0
                    y[j] = y[p] = 0.0
                    y[(i + 2) % n] = target
                rows = block_rows(config, matrix, y, i)
                assert rows.tolist() == scalar_rows(y, d, len(rows)).tolist()
                assert keeps_vertex(rows, i, None).all()
                for row in rows.tolist():
                    assert find_support(row) == (i,), (row, i)
                if offset == 0.0:
                    assert len(rows) == 0 if near else len(rows) < K, (y, i)
                kept += len(rows)
    assert kept > 0  # rows past the margin are kept


@pytest.mark.parametrize("top", [0.0, 1.0, 3.5, -7.25, 1e6, 1e15])
def test_fp_block_never_keeps_a_runner_up_at_the_tolerance(top):
    """Blocks stop where the rising column reaches c = y_i - tol: a block
    whose rising column is level with c at row K takes K - 1 rows, and one
    just below c there takes K.  A row-1 cell of the falling column, or of
    a constant one, level with c takes nothing, and one just below does not
    stop the block.  Float rows sit an ulp below c; both moving columns
    step by 4 ulps of c, so the sums near c are exact.  Exact rows, at
    tolerance 0 and top as a Fraction, sit 10^-9 below it, and their cells
    keep the scalar steps' types; ``run`` on their game equals the stepwise
    run."""
    tol = dynamics.TIE_TOL
    c = top - tol
    below = np.nextafter(c, -math.inf)
    step = 4 * float(np.spacing(abs(c)))
    K = 10
    config = LearnerConfig(algorithm=_FP, horizon=100, x0=SimplexPoint.vertex(3, 0))
    matrix = make_rps((step, 1.0, step))  # A e_0 = (0, step, -step)
    switch = TiebreakRule(TiebreakKind.PREFER_SWITCH)
    cases = ((c, top - 5.0, K - 1), (below, top - 5.0, K), (below, c, 0), (below, below, K))
    for runner, fall, taken in cases:
        # Row K of the rising column is runner, and row 1 of the falling one is fall.
        y = [top, runner - K * step, fall + step]
        rows = block_rows(config, matrix, y, 0)
        expected = scalar_rows(y, [0.0, step, -step], taken + 1)
        assert len(rows) == taken and rows.tolist() == expected[:taken].tolist()
        # prefer_switch leaves vertex 0 exactly when another coordinate is in the tie set.
        for k, row in enumerate(expected.tolist()):
            assert (fp_primal(row, switch, incumbent=0, tol=tol) == 0) == (k < taken)

    config = LearnerConfig(algorithm=_FP, horizon=100, x0=SimplexPoint.vertex(4, 0),
                           arithmetic=Arithmetic.EXACT_RATIONAL, tiebreak=switch)
    matrix = make_rps((Fraction(1, 3), 1, 1, Fraction(2, 7)))
    d = matrix.apply((1, 0, 0, 0))  # (Fraction(0), 1/3, int 0, -2/7)
    c = Fraction(top)
    below = c - Fraction(1, 10**9)
    low = c - 5
    cases = ((c, low, low, K - 1), (below, low, low, K), (below, c, low, 0), (below, low, c, 0),
             (below, below, below, K))
    for runner, fall, level, taken in cases:
        # Row K of the rising column is runner, row 1 of the falling one is
        # fall, and the constant column holds level.
        y = [c, runner - K * d[1], level, fall - d[3]]
        rows = block_rows(config, matrix, y, 0).tolist()
        expected = []
        for _ in range(taken + 1):  # the scalar steps' sums, at eta = 1
            y = [ym + 1 * dm for ym, dm in zip(y, d)]
            expected.append(y)
        assert len(rows) == taken and rows == expected[:taken]
        assert [list(map(type, row)) for row in rows] == [list(map(type, row)) for row in expected[:taken]]
        for k, row in enumerate(expected):
            assert (fp_primal(row, switch, incumbent=0) == 0) == (k < taken)
    assert_same_columns(run(config, matrix), oracle.run_stepwise(config, matrix))
