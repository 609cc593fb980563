"""The fused gradient-descent kernel against the composition it replaced.

``dynamics._gd_response`` finds the projection's support, its energy, its
bitmask and the projection in one pass.  The reference below is the earlier
composition of three separate functions (``find_support``, ``energy_gd`` and
``_projection_coords``), each of which summed for itself.  Their sums are
written as explicit folds from int 0, which is how ``sum`` adds on Python 3.11;
since 3.12 ``sum`` compensates float rounding, so the builtin would no longer
be the reference.  Squares are IEEE products, as in the kernel.  The kernel must give the reference's results bit for bit on
float rows, value for value and type for type on exact rows, and the same
errors.  Against ``oracle.project_rows``, which enumerates every support,
it must agree on the support: exactly on exact rows, and up to rounding on
float rows.
"""

import math
import platform
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rps_dynamics import ArithmeticOverflow, ProjectionInfeasible, dynamics, energy_gd, find_support, gd_primal, oracle
from rps_dynamics.dynamics import PROJECTION_CLAMP, _gd_response
from rps_dynamics.game import div, is_exact


# ---------------------------------------------------------------------------
# Reference: the three-function composition


def _fold(values):
    total = 0
    for v in values:
        total += v
    return total


def ref_find_support(y):
    n = len(y)
    order = sorted(range(n), key=lambda i: (y[i], i))
    total = _fold(y)
    exact = is_exact(total)
    m = n
    k = 0
    while k < n - 1:
        i = order[k]
        if exact:
            drop = m * y[i] - total + 1 < 0
        else:
            drop = y[i] - total / m + 1.0 / m < 0
        if not drop:
            break
        total -= y[i]
        m -= 1
        k += 1
    return tuple(sorted(order[k:]))


def ref_energy_gd(y, idx):
    m = len(idx)
    mu = div(_fold(y[j] for j in idx), m)
    dev = _fold((y[j] - mu) * (y[j] - mu) for j in idx)  # IEEE squares, not pow
    return div(dev, 2) + mu - div(mu ** 0, 2 * m)


def ref_projection_coords(y, indices):
    n = len(y)
    m = len(indices)
    out = [0] * n
    shift = div(1 - _fold(y[j] for j in indices), m)
    if is_exact(shift):
        for i in indices:
            out[i] = y[i] + shift
        return out
    inv_m = 1.0 / m
    for i in indices:
        s = 0.0
        yi = y[i]
        for j in indices:
            s += yi - y[j]
        c = s * inv_m + inv_m
        if c < 0.0:
            if c < -PROJECTION_CLAMP:
                raise ProjectionInfeasible(
                    f"projection coordinate {i} is {c!r} on support {indices}, "
                    f"below -{PROJECTION_CLAMP:g}"
                )
            c = 0.0
        out[i] = c
    return out


def ref_response(y):
    support = ref_find_support(y)
    energy = ref_energy_gd(y, support)
    mask = sum(1 << i for i in support)
    return support, energy, mask, ref_projection_coords(y, support)


def typed(values):
    """Each value as (type, repr): equal for floats only bit for bit."""
    return [(type(v), repr(v)) for v in values]


def outcome(response, y):
    try:
        support, energy, mask, x = response(y)
    except ProjectionInfeasible as exc:
        return "ProjectionInfeasible", str(exc)
    return support, typed([energy]), mask, typed(x)


def assert_is_reference(y):
    want = outcome(ref_response, y)
    assert outcome(_gd_response, y) == want, y
    if isinstance(want[0], tuple):  # the wrappers read the same pass
        assert find_support(y) == want[0]
        assert typed([energy_gd(y)]) == want[1]
        assert typed(gd_primal(y).coords) == want[3]


# ---------------------------------------------------------------------------
# Rows

dims = st.integers(3, 10)


@st.composite
def float_rows(draw):
    """Rows of any scale up to 1e15."""
    n = draw(dims)
    scale = 10.0 ** draw(st.integers(-3, 15))
    return [draw(st.floats(-1.0, 1.0)) * scale for _ in range(n)]


@st.composite
def near_tied_rows(draw):
    """A common base plus small multiples of one spacing: ties, ulp-level
    gaps and region boundaries (gaps of exactly 1 and 1/2)."""
    n = draw(dims)
    base = draw(st.floats(-1e15, 1e15))
    spacing = draw(st.sampled_from([0.0, 2.0**-52, 1e-12, 1e-9, 0.5, 1.0, 1.0 / 3]))
    return [base + draw(st.integers(-3, 3)) * spacing for _ in range(n)]


@st.composite
def exact_rows(draw, sizes=dims):
    """Fraction and int rows; exact ties and boundaries are common."""
    n = draw(sizes)
    value = st.one_of(
        st.integers(-6, 6),
        st.fractions(min_value=-6, max_value=6, max_denominator=12),
    )
    return [draw(value) for _ in range(n)]


@st.composite
def mixed_rows(draw):
    """Ints and Fractions among floats: the scan is a float scan, and the
    support decides its own mode."""
    row = draw(exact_rows())
    for i in draw(st.lists(st.integers(0, len(row) - 1), max_size=len(row))):
        row[i] = float(row[i])
    return row


# ---------------------------------------------------------------------------
# Kernel == reference


@settings(derandomize=True, max_examples=200, deadline=None)
@given(float_rows())
def test_kernel_is_the_reference_on_float_rows(y):
    assert_is_reference(y)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(near_tied_rows())
def test_kernel_is_the_reference_on_near_tied_rows(y):
    assert_is_reference(y)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(exact_rows(), mixed_rows()))
def test_kernel_is_the_reference_on_exact_and_mixed_rows(y):
    assert_is_reference(y)


def test_kernel_is_the_reference_on_huge_rows():
    """Rows past |y| ~ 1e16, where rounding breaks the scan's drop tests and
    the projection can be infeasible: same results, same errors."""
    rng = np.random.default_rng(77)
    for n in range(3, 11):
        for e in (16, 25, 50, 100, 150):
            for row in rng.uniform(-1.0, 1.0, (20, n)) * 10.0 ** e:
                assert_is_reference(row.tolist())


# ---------------------------------------------------------------------------
# Kernel against the enumeration


@settings(derandomize=True, max_examples=80, deadline=None)
@given(exact_rows(st.integers(3, 8)))  # past n = 8 the exact enumeration is slow
def test_kernel_support_is_the_oracle_on_exact_rows(y):
    support, energy, _, x = _gd_response(y)
    coords, values = oracle.project_rows(np.array([y], dtype=object))
    coords = coords.tolist()[0]
    # The scan keeps a coordinate that projects to exactly 0; the enumeration
    # prefers the smaller support.  Positive coordinates agree.
    assert [i for i in range(len(y)) if x[i] > 0] == [i for i, c in enumerate(coords) if c > 0]
    assert x == coords
    assert energy == values.tolist()[0]
    assert all(x[i] == 0 for i in support if coords[i] == 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(float_rows(), near_tied_rows()))
def test_kernel_support_is_the_oracle_on_float_rows(y):
    """Up to the enumeration's rounding.  Its coordinates y_j + (1 - sum_S y)
    / |S| carry about n eps M of it, M = max(1, |y|), so its values carry
    about n eps M^2; a support whose value is that close to the best has its
    candidate within the square root of twice that (the objective is
    1-strongly concave).  Past M ~ 1e6 that bound exceeds 1, so the float
    comparison tests the rows of moderate size.  The scan's drop tests round
    by at most (n^2 + 3.5n) eps M (``GD_VERTEX_MARGIN``'s bound); only
    where that passes the clamp may a kept coordinate project below it."""
    n = len(y)
    scale = max(1.0, max(abs(v) for v in y))
    value_tol = 64 * n * 2.0**-52 * scale * scale
    x_tol = math.sqrt(2 * value_tol) + value_tol
    try:
        support, energy, _, x = _gd_response(y)
    except ProjectionInfeasible:
        assert (n * n + 3.5 * n) * 2.0**-52 * scale > PROJECTION_CLAMP, y
        return
    coords, values = oracle.project_rows(np.array([y], dtype=float))
    coords = coords.tolist()[0]
    assert max(abs(a - b) for a, b in zip(x, coords)) <= x_tol, (y, x, coords)
    assert all(i in support for i, c in enumerate(coords) if c > x_tol)
    assert all(coords[i] > 0 for i in support if x[i] > x_tol)
    assert abs(energy - values.tolist()[0]) <= value_tol


def test_kernel_mode_follows_the_support():
    """An exact support gives Fractions even when a dropped coordinate is a
    float; a float on the support gives floats.  Off the support x is int 0."""
    support, energy, mask, x = _gd_response([Fraction(3, 2), 2, -7.5])
    assert (support, mask) == ((0, 1), 0b011)
    assert typed([energy]) == typed([Fraction(25, 16)])
    assert typed(x) == typed([Fraction(1, 4), Fraction(3, 4), 0])
    support, energy, mask, x = _gd_response([1.5, 2, -7.5])
    assert typed([energy]) == typed([1.5625]) and typed(x) == typed([0.25, 0.75, 0])
    assert _gd_response([1.5, 2, -7.5], primal=False) == ((0, 1), 1.5625, 0b011, None)


# Rows of the unit 3-cycle's interior where glibc's pow(d, 2) and the IEEE
# product d * d differ for one deviation d, so the energy's last bit does.
POW_ROWS = [
    [-0.1373758749627957, -0.24238801202171723, -0.013465746794134925],
    [-0.27290011614341175, 0.06321953283967036, 0.17831389948963045],
    [-0.2864258472639086, 0.06451818936165954, 0.11145842228537528],
]


def test_energy_squares_are_ieee_products():
    for y in POW_ROWS:
        mu = (0 + y[0] + y[1] + y[2]) / 3
        products = powers = 0
        for v in y:
            products += (v - mu) * (v - mu)
            powers += (v - mu) ** 2
        assert find_support(y) == (0, 1, 2)
        assert typed([energy_gd(y)]) == typed([products / 2 + mu - 1.0 / 6])
        if platform.libc_ver()[0] == "glibc":  # the rows are glibc's cases
            assert products != powers


def test_overflowing_square_raises_package_error(monkeypatch):
    """``d ** 2`` raised OverflowError for a finite d whose square overflows;
    the product raises ArithmeticOverflow there.  A deviation that is already
    inf or nan is no overflow, as it was not for ``**``."""
    monkeypatch.setattr(dynamics, "_support_scan", lambda y: ((0, 1, 2), 0b111, _fold(y)))
    with pytest.raises(OverflowError):
        (1e200) ** 2
    with pytest.raises(ArithmeticOverflow, match="square of a finite deviation"):
        energy_gd([1e200, -1e200, 0.0])
    assert math.isnan(energy_gd([math.inf, 0.0, 0.0]))
