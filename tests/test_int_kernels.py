"""The exact kernels in Python ints against the Fraction formulas they replaced.

``dynamics._gd_response`` (and through its scan ``find_support`` and
``energy_gd``), the exact branch of ``dynamics._vertex_block`` and
``game.interior_nash`` compute over Python-int numerators of one common
denominator, and form each Fraction they return once.  The references below
are the formulas they replaced, one Fraction operation at a time.  Kernels
and references must agree value for value and type for type, and raise the
same errors with the same messages.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rps_dynamics import (
    ArithmeticOverflow,
    LearnerConfig,
    SimplexPoint,
    SingularSystem,
    energy_gd,
    find_support,
    interior_nash,
    make_rps,
    run,
)
from rps_dynamics import dynamics, oracle
from rps_dynamics.game import is_exact


# ---------------------------------------------------------------------------
# References: the Fraction formulas


def _fold(values):
    total = 0
    for v in values:
        total += v
    return total


def ref_scan(y):
    """The support scan on the values themselves: a Fraction fold, and the
    drop test m y_i - total + 1 < 0 on an exact fold."""
    n = len(y)
    order = sorted(range(n), key=y.__getitem__)
    total = _fold(y)
    exact = is_exact(total)
    mask = (1 << n) - 1
    m = n
    while m > 1:
        i = order[n - m]
        yi = y[i]
        if not (m * yi - total + 1 < 0 if exact else yi - total / m + 1.0 / m < 0):
            break
        total -= yi
        mask -= 1 << i
        m -= 1
    return (tuple(sorted(order[n - m:])) if m < n else tuple(range(n))), mask


def ref_exact_response(y, primal=True):
    """The response of a row that is exact on its support S: mu = mean_S(y)
    as a Fraction, the deviations' squares folded in Fractions, and
    x_i = y_i + (1 - sum_S y) / m."""
    support, mask = ref_scan(y)
    m = len(support)
    on = [y[j] for j in support]
    total = _fold(on)
    assert is_exact(total), "the reference takes rows that are exact on S"
    mu = Fraction(total, m)
    dev = _fold((v - mu) * (v - mu) for v in on)
    energy = Fraction(dev, 2) + mu - Fraction(1, 2 * m)
    if not primal:
        return support, energy, mask, None
    x = [0] * len(y)
    shift = Fraction(1 - total, m)
    for i, v in zip(support, on):
        x[i] = v + shift
    return support, energy, mask, x


def ref_stride_two_chain(w, start):
    n = len(w)
    chain = [Fraction(0)] * n
    chain[start] = Fraction(1)
    j = start
    while (j + 2) % n != start:
        nxt = (j + 2) % n
        chain[nxt] = chain[j] * w[j] / w[(j + 1) % n]
        j = nxt
    total = sum(chain)
    return [c / total for c in chain]


def ref_interior_nash(matrix):
    """The stride-two chain in Fractions, as (coords, residual)."""
    n = matrix.n
    w = [Fraction(v) for v in matrix.weights]
    if n % 2 == 1:
        coords = tuple(ref_stride_two_chain(w, 0))
    else:
        even_prod = math.prod(w[0::2])
        odd_prod = math.prod(w[1::2])
        if even_prod != odd_prod:
            raise SingularSystem(
                "no interior equilibrium: for even n one is only consistent "
                f"when prod(even-indexed weights) == prod(odd-indexed weights); "
                f"got {even_prod} != {odd_prod}, so Ax = 0 forces x = 0"
            )
        p, q = (ref_stride_two_chain(w, start) for start in (0, 1))
        pp = sum(c * c for c in p)
        qq = sum(c * c for c in q)
        lam = qq / (pp + qq)
        coords = tuple(lam * a + (1 - lam) * b for a, b in zip(p, q))
    coords = coords if matrix.exact else tuple(float(c) for c in coords)
    return coords, max(abs(v) for v in matrix.apply(coords))


def typed(values):
    """Each value as (type, repr): equal for floats only bit for bit."""
    return [(type(v), repr(v)) for v in values]


def response_outcome(response, y, primal=True):
    support, energy, mask, x = response(y, primal)
    return support, typed([energy]), mask, None if x is None else typed(x)


def assert_response_is_reference(y):
    for primal in (True, False):
        want = response_outcome(ref_exact_response, y, primal)
        assert response_outcome(dynamics._gd_response, y, primal) == want, y
    assert find_support(y) == want[0]
    assert typed([energy_gd(y)]) == want[1]


# ---------------------------------------------------------------------------
# Rows


dims = st.integers(3, 10)


@st.composite
def exact_rows(draw):
    """Ints and Fractions of small denominators, drawn from a small pool so
    that ties and region boundaries are common."""
    n = draw(dims)
    pool = draw(st.lists(st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=15)),
                         min_size=1, max_size=n))
    return [draw(st.sampled_from(pool)) for _ in range(n)]


@st.composite
def exact_on_support_rows(draw):
    """An exact row with floats far below it: the scan drops the floats, so
    the row is exact only on S."""
    row = draw(exact_rows())
    for i in draw(st.lists(st.integers(0, len(row) - 1), min_size=1, max_size=len(row) - 1, unique=True)):
        row[i] = draw(st.floats(-1e6, -1e3))
    return row


@st.composite
def wide_rows(draw):
    """Numerators near the default ``bit_budget`` (4096 bits) over
    denominators of up to 64 bits."""
    n = draw(dims)
    bits = draw(st.integers(4000, 4096))
    return [Fraction(draw(st.integers(-(1 << bits), 1 << bits)), draw(st.integers(1, 1 << 64)))
            for _ in range(n)]


# ---------------------------------------------------------------------------
# The GD response


@settings(derandomize=True, max_examples=300, deadline=None)
@given(exact_rows())
def test_response_is_the_fraction_reference_on_exact_rows(y):
    assert_response_is_reference(y)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(exact_on_support_rows())
def test_response_is_the_fraction_reference_on_rows_exact_only_on_the_support(y):
    assert not all(is_exact(v) for v in y)
    assert_response_is_reference(y)
    assert all(type(v) is not float for v in dynamics._gd_response(y)[3])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wide_rows())
def test_response_is_the_fraction_reference_on_wide_rows(y):
    assert_response_is_reference(y)


def test_response_ties_and_boundaries():
    """Rows where a drop test is exactly 0, and all-tied rows: a coordinate
    that would project to exactly 0 stays on S."""
    third = Fraction(1, 3)
    for y in ([0, 0, 0], [third, third, third, third], [1, 0, 0], [Fraction(3, 2), 1, Fraction(1, 2)],
              [2, 1, 1, 0, 0], [Fraction(-7, 4)] * 10, [5, Fraction(5), 4, 4],
              [True, False, False], [True, False, -5.0]):  # bools fold to ints
        assert_response_is_reference(y)
    assert typed(dynamics._gd_response([1, 0, 0])[3]) == typed([Fraction(1), Fraction(0), Fraction(0)])


# ---------------------------------------------------------------------------
# The equilibrium solve


@st.composite
def weight_vectors(draw):
    """Int, Fraction, float or mixed int and Fraction weights, n = 3..10; an even n
    draws its odd-indexed weights as a permutation of its even-indexed ones
    half the time, so that the products agree and a minimum-norm segment
    point exists."""
    n = draw(dims)
    kind = draw(st.sampled_from(["int", "fraction", "float", "mixed"]))
    value = {
        "int": st.integers(1, 50),
        "fraction": st.fractions(Fraction(1, 20), 20, max_denominator=30).filter(lambda f: f > 0),
        "float": st.floats(0.05, 20.0),
        "mixed": st.one_of(st.integers(1, 9), st.fractions(Fraction(1, 9), 9, max_denominator=9).filter(lambda f: f > 0)),
    }[kind]
    weights = [draw(value) for _ in range(n)]
    if n % 2 == 0 and draw(st.booleans()):
        weights[1::2] = draw(st.permutations(weights[0::2]))
    return tuple(weights)


def nash_outcome(solve, matrix):
    try:
        result = solve(matrix)
    except SingularSystem as exc:
        return "SingularSystem", str(exc)
    coords, residual = (result.point.coords, result.residual) if hasattr(result, "point") else result
    return typed(coords), typed([residual])


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(weight_vectors())
def test_interior_nash_is_the_fraction_chain(weights):
    matrix = make_rps(weights)
    assert nash_outcome(interior_nash, matrix) == nash_outcome(ref_interior_nash, matrix)


@pytest.mark.parametrize("weights", [
    (1, 2, 3), (2, 3, 5, 7), (1, 2, 2, 1), (3, 1, 1, 3), (Fraction(1, 2), 2, 2, Fraction(1, 2)),
    (0.1, 0.3, 0.3, 0.1), (1, 1, 1, 2, 1, 1), (0.5, 1.5, 1.0), tuple(range(1, 11)),
])
def test_interior_nash_pins(weights):
    """Odd n, even n with and without matched products (the refusal's
    message included), and float weights."""
    matrix = make_rps(weights)
    assert nash_outcome(interior_nash, matrix) == nash_outcome(ref_interior_nash, matrix)


def test_interior_nash_on_c14s_draws():
    """The float weights c14 draws, each n = 3..8: the same points and
    residuals, and the same refusals."""
    for n in range(3, 9):
        rng = np.random.default_rng(1400 + n)
        for _ in range(20):
            matrix = make_rps(tuple(float(v) for v in rng.uniform(0.5, 5.0, n)))
            assert nash_outcome(interior_nash, matrix) == nash_outcome(ref_interior_nash, matrix)


# ---------------------------------------------------------------------------
# Whole exact runs: blocks and the scalar step against the Fraction kernel


def run_outcome(engine, config, matrix):
    try:
        traj = engine(config, matrix)
    except ArithmeticOverflow as exc:
        return ArithmeticOverflow, str(exc)
    return tuple(tuple(typed(getattr(traj, name).ravel().tolist())) for name in ("xs", "ys", "energies", "supports"))


def fraction_stepwise(monkeypatch, config, matrix):
    """``oracle.run_stepwise`` with the reference response: every step as
    the Fraction kernel took it."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_gd_response", ref_exact_response)
        return run_outcome(oracle.run_stepwise, config, matrix)


PERFBENCH_X0 = SimplexPoint((Fraction(1, 20), Fraction(7, 20), Fraction(39, 100), Fraction(21, 100)))
BUDGET_RUNS = {
    "unit4_eta7": (LearnerConfig("gd", 400, PERFBENCH_X0, eta=7, arithmetic="rational"), (1, 1, 1, 1)),
    "w123_eta91": (LearnerConfig("gd", 400, SimplexPoint((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
                                 eta=91, arithmetic="rational"), (1, 2, 3)),
    "halves_eta7_3": (LearnerConfig("gd", 400, SimplexPoint((Fraction(1, 2), Fraction(1, 6), Fraction(1, 3))),
                                    eta=Fraction(7, 3), arithmetic="rational"), (Fraction(1, 2), Fraction(3, 2), 1)),
}


def _bits(values):
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


@pytest.mark.parametrize("case", sorted(BUDGET_RUNS))
def test_exact_gd_bit_budget_raises_where_the_fraction_kernel_did(monkeypatch, case):
    """The case's game with weights scaled by 2^20, so that values pass the
    least budget, and every budget up to the run's peak bit length: ``run``
    raises at the Fraction kernel's step, with its message, whether the
    scalar step or a block crosses the budget, and past the peak gives the
    same columns."""
    config, weights = BUDGET_RUNS[case]
    matrix = make_rps(tuple(w * 2**20 for w in weights))
    traj = run(config, matrix)
    peak = _bits(traj.ys.ravel().tolist() + traj.xs.ravel().tolist())
    in_blocks = []
    check_block = dynamics._check_block_bits

    def spy(*args):
        try:
            check_block(*args)
        except ArithmeticOverflow:
            in_blocks.append(args[-1])
            raise

    monkeypatch.setattr(dynamics, "_check_block_bits", spy)
    outcomes = []
    for budget in range(16, peak + 2):
        config = dataclasses.replace(config, bit_budget=budget)
        want = fraction_stepwise(monkeypatch, config, matrix)
        assert run_outcome(run, config, matrix) == want, budget
        outcomes.append(want[0] is ArithmeticOverflow)
    assert outcomes[0] and not outcomes[-1]
    assert in_blocks or case == "unit4_eta7"  # no block of that run passes the rows before it


def test_block_bits_bound_reads_the_common_denominator():
    """Cells whose numerators over L are small can still pass the budget in
    their denominator: with L the product of two 16-bit primes, a 16-bit
    budget raises at the first row, where the scalar step would."""
    L = 65519 * 65521
    cells = [Fraction(k, L) for k in (2, 3, 4)]
    with pytest.raises(ArithmeticOverflow, match="exceeded 16 bits at step 7$"):
        dynamics._check_block_bits(L, [(2, 4)], [cells], 16, 7)
    dynamics._check_block_bits(L, [(2, 4)], [cells], 32, 7)


@st.composite
def exact_gd_configs(draw):
    n = draw(st.integers(3, 6))
    weights = tuple(draw(st.one_of(st.integers(1, 4), st.fractions(Fraction(1, 4), 4, max_denominator=6)
                                   .filter(lambda f: f > 0))) for _ in range(n))
    counts = [draw(st.integers(0, 6)) for _ in range(n)]
    if not any(counts):
        counts[0] = 1
    x0 = SimplexPoint(tuple(Fraction(c, sum(counts)) for c in counts))
    eta = draw(st.one_of(st.integers(1, 12), st.fractions(Fraction(1, 3), 12, max_denominator=5).filter(lambda f: f > 0)))
    return LearnerConfig("gd", 150, x0, eta=eta, arithmetic="rational"), weights


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
@given(exact_gd_configs())
def test_exact_gd_runs_are_the_fraction_kernels_runs(monkeypatch, case):
    """``run``, with its int blocks and int response, against the Fraction
    kernel stepping every row: the same columns, value and type."""
    config, weights = case
    matrix = make_rps(weights)
    assert run_outcome(run, config, matrix) == fraction_stepwise(monkeypatch, config, matrix)
