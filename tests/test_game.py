import random
from fractions import Fraction

import numpy as np
import pytest

from rps_dynamics import (
    DimensionMismatch,
    DimensionTooSmall,
    NonpositiveWeight,
    SimplexPoint,
    SingularSystem,
    duality_gap,
    gamma,
    interior_nash,
    make_rps,
)


# ---------------------------------------------------------------------------
# References: the dense matrix, entry by entry, for checking ``apply``.


def entry(m, i, j):
    """A[i, j]: +w[i-1] in column i-1, -w[i] in column i+1 (mod n), else 0."""
    n = m.n
    if j == (i + 1) % n:
        return -m.weights[i]
    if j == (i - 1) % n:
        return m.weights[(i - 1) % n]
    return 0


def as_array(m):
    """The payoff matrix as a dense float array."""
    return np.array([[float(entry(m, i, j)) for j in range(m.n)] for i in range(m.n)])


def dense_apply(m, x):
    """A @ x on the dense matrix: each row a left-to-right fold over every
    column, zeros included."""
    out = []
    for i in range(m.n):
        acc = 0
        for j in range(m.n):
            acc += entry(m, i, j) * x[j]
        out.append(acc)
    return tuple(out)


def is_vertex(point):
    return len(point.support) == 1


def test_matrix_pattern_n3():
    # Row i: +w[i-1] on column i-1, -w[i] on column i+1 (cyclic).
    m = make_rps((1, 2, 3))
    assert entry(m, 0, 2) == 3      # row 0 beats row 2 with weight w_2
    assert entry(m, 0, 1) == -1
    assert entry(m, 1, 0) == 1
    assert entry(m, 1, 2) == -2
    assert entry(m, 2, 1) == 2
    assert entry(m, 2, 0) == -3
    assert entry(m, 0, 0) == 0
    assert m.a_min == 1 and m.a_max == 3


def test_matrix_is_skew_symmetric():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(3, 8)
        w = tuple(rng.uniform(0.1, 9.0) for _ in range(n))
        arr = as_array(make_rps(w))
        assert np.allclose(arr, -arr.T)


def test_apply_matches_matrix_vector_product():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        w = tuple(float(v) for v in rng.uniform(0.5, 4.0, n))
        m = make_rps(w)
        x = rng.uniform(-2, 2, n)
        via_loop = np.array(m.apply(tuple(float(v) for v in x)))
        assert np.allclose(via_loop, as_array(m) @ x, atol=1e-12)


def _typed(values):
    return [(type(v), repr(v)) for v in values]  # repr: a float's every bit


@pytest.mark.parametrize("kind", ["float", "int", "fraction"])
def test_apply_is_the_dense_product(kind):
    """``apply`` on a vector, and on the n columns of a block as ``payoffs()``
    passes them, equals the dense fold in value and type; for floats each
    two-term difference is the dense sum bit for bit (IEEE addition
    commutes, and adding the zero entries changes nothing but a zero's sign)."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(3, 9)
        if kind == "float":
            w = tuple(rng.uniform(0.1, 9.0) for _ in range(n))
            rows = [tuple(rng.uniform(-5, 5) for _ in range(n)) for _ in range(6)]
        elif kind == "int":
            w = tuple(rng.randint(1, 9) for _ in range(n))
            rows = [tuple(rng.randint(-50, 50) for _ in range(n)) for _ in range(6)]
        else:
            w = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(n))
            rows = [tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n))
                    for _ in range(6)]
        m = make_rps(w)
        for row in rows:
            assert _typed(m.apply(row)) == _typed(dense_apply(m, row))
        block = np.array(rows, dtype=float if kind == "float" else object)
        columns = m.apply(block.T)
        assert len(columns) == n
        for r, row in enumerate(rows):
            got = [column[r] for column in columns]
            if kind == "float":  # numpy scalars: compare as Python floats
                got = [float(v) for v in got]
            assert _typed(got) == _typed(dense_apply(m, row))


def test_apply_exact_stays_exact():
    m = make_rps((1, 2, 3))
    out = m.apply((Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)))
    assert all(isinstance(v, (int, Fraction)) for v in out)
    assert all(v == 0 for v in out)


def test_matrix_validation():
    with pytest.raises(DimensionTooSmall):
        make_rps((1, 1))
    with pytest.raises(NonpositiveWeight):
        make_rps((1, 0, 1))
    with pytest.raises(NonpositiveWeight):
        make_rps((1, -2, 1))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(NonpositiveWeight):
            make_rps((1, bad, 1))
    with pytest.raises(DimensionMismatch):
        make_rps((1, 1, 1)).apply((0.5, 0.5))


# ---------------------------------------------------------------------------
# Simplex points


def test_simplex_point_validation():
    SimplexPoint((0.2, 0.3, 0.5))
    SimplexPoint((Fraction(1, 2), Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        SimplexPoint((0.5, 0.6, 0.1))       # sums to 1.2
    with pytest.raises(ValueError):
        SimplexPoint((0.5, 0.6, -0.1))      # negative coordinate
    with pytest.raises(ValueError):
        SimplexPoint((Fraction(1, 2), Fraction(1, 3)))  # exact sum != 1


def test_vertex_and_uniform():
    v = SimplexPoint.vertex(4, 2)
    assert v.coords == (0, 0, 1, 0)
    assert is_vertex(v) and v.vertex_index == 2
    u = SimplexPoint.uniform(3)
    assert u.coords == (1.0 / 3,) * 3
    assert not is_vertex(u) and u.vertex_index is None
    assert SimplexPoint.uniform(5).support == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        SimplexPoint.vertex(3, 3)


# ---------------------------------------------------------------------------
# Interior equilibrium


def test_nash_weighted_three_cycle():
    """The weighted 3-cycle (1,2,3) equilibrates at (1/3, 1/2, 1/6)."""
    res = interior_nash(make_rps((1, 2, 3)))
    assert res.point.coords == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    assert res.residual == 0


def test_nash_uniform_for_equal_weights():
    for n in (3, 4, 5, 6, 7):
        res = interior_nash(make_rps((2,) * n))
        assert res.point.coords == (Fraction(1, n),) * n


def test_nash_odd_n_property():
    # Any positive weights on an odd cycle give a unique interior equilibrium
    # with exactly zero residual when solved in rationals.
    rng = random.Random(123)
    for _ in range(60):
        n = rng.choice([3, 5, 7])
        w = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(n))
        res = interior_nash(make_rps(w))
        assert res.residual == 0
        assert min(res.point.coords) > 0
        assert sum(res.point.coords) == 1


def test_nash_even_n_needs_matched_products():
    # Generic even-cycle weights admit no interior solution at all.
    with pytest.raises(SingularSystem):
        interior_nash(make_rps((1, 2, 3, 4)))
    # Matching alternating products (1*3 == 3*1) restores solvability.
    res = interior_nash(make_rps((1, 3, 3, 1)))
    assert res.residual == 0
    assert min(res.point.coords) > 0


def test_nash_even_n_min_norm_is_valid_equilibrium():
    rng = random.Random(99)
    hits = 0
    for _ in range(40):
        n = rng.choice([4, 6])
        w = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        # Force the closure condition by solving the last weight from the rest.
        even = Fraction(1)
        odd = Fraction(1)
        for i in range(0, n, 2):
            even *= w[i]
        for i in range(1, n - 1, 2):
            odd *= w[i]
        w[n - 1] = even / odd
        res = interior_nash(make_rps(tuple(w)))
        assert res.residual == 0
        assert min(res.point.coords) > 0
        hits += 1
    assert hits == 40


def test_nash_float_weights_small_residual():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.choice([3, 5, 7]))
        w = tuple(float(v) for v in rng.uniform(0.5, 5.0, n))
        res = interior_nash(make_rps(w))
        assert float(res.residual) <= 1e-12
        assert min(res.point.coords) > 0


# ---------------------------------------------------------------------------
# Payoff geometry helpers


def test_gamma_known_value():
    m = make_rps((1.0,) * 4)
    x0 = SimplexPoint((0.05, 0.35, 0.39, 0.21))
    g = gamma(m, x0)
    assert abs(g - 0.2) < 1e-12


def test_gamma_zero_at_equilibrium():
    m = make_rps((1, 2, 3))
    star = interior_nash(m).point
    assert gamma(m, star) == 0


def test_duality_gap_zero_exactly_at_nash():
    m = make_rps((1, 2, 3))
    star = interior_nash(m).point
    assert duality_gap(m, star) == 0
    off = SimplexPoint((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    assert duality_gap(m, off) > 0


def test_duality_gap_is_twice_best_payoff():
    # For skew-symmetric A the column minimum is the negated row maximum.
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        m = make_rps(tuple(float(v) for v in rng.uniform(0.5, 3.0, n)))
        raw = rng.uniform(0.01, 1.0, n)
        x = SimplexPoint(tuple(float(v) for v in raw / raw.sum()))
        gap = duality_gap(m, x)
        best = max(m.apply(x.coords))
        assert abs(gap - 2.0 * best) < 1e-12
        # The definition, max_i (Ax)_i - min_j (x^T A)_j, on the dense matrix.
        arr, xv = as_array(m), np.array(x.coords)
        assert abs(gap - ((arr @ xv).max() - (xv @ arr).min())) < 1e-12
