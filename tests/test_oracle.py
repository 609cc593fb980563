import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rps_dynamics import (
    Algorithm,
    Arithmetic,
    ArithmeticOverflow,
    DimensionTooLarge,
    LearnerConfig,
    SimplexPoint,
    TooCloseToBoundary,
    energy_gd,
    find_support,
    gd_primal,
    grad_fd,
    make_rps,
    project_bruteforce,
    regret,
    regret_direct,
    run,
)
from rps_dynamics import oracle
from rps_dynamics.game import div


def _loop_projection(y):
    """The reference for ``project_rows``: one support at a time, every sum
    adding in index order with ``+=`` (Python 3.12's ``sum`` is compensated),
    and a later support winning only with a strictly larger value."""
    n = len(y)
    best_obj = best_coords = None
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        total = 0
        for i in idx:
            total += y[i]
        shift = div(1 - total, len(idx))
        coords = [0] * n
        for i in idx:
            coords[i] = y[i] + shift
        if any(coords[i] < 0 for i in idx):
            continue
        cy = cc = 0
        for i in idx:
            cy += coords[i] * y[i]
            cc += coords[i] * coords[i]
        obj = cy - div(cc, 2)
        if best_obj is None or obj > best_obj:
            best_obj, best_coords = obj, coords
    return best_coords, best_obj


def _assert_float_rows_match(ys):
    coords, values = oracle.project_rows(ys)
    for y, c, v in zip(ys.tolist(), coords, values):
        ref_c, ref_v = _loop_projection(y)
        assert c.tobytes() == np.array(ref_c, dtype=float).tobytes(), y
        assert v.tobytes() == np.float64(ref_v).tobytes(), y


def _assert_exact_rows_match(block):
    coords, values = oracle.project_rows(np.array(block, dtype=object))
    for y, c, v in zip(block, coords.tolist(), values.tolist()):
        ref_c, ref_v = _loop_projection(y)
        assert c == ref_c and [type(a) for a in c] == [type(a) for a in ref_c], y
        assert v == ref_v and type(v) is type(ref_v), y


def test_bruteforce_closed_forms():
    # Deep vertex region: projection is the vertex, value y_max - 1/2.
    pt, obj = project_bruteforce([5.0, 1.0, 0.0])
    assert pt.coords == (1.0, 0.0, 0.0)
    assert abs(obj - 4.5) < 1e-12
    # Edge region: two-point support, value (d^2)/4 + s/2 - 1/4.
    pt, obj = project_bruteforce([2.0, 1.8, -3.0])
    assert pt.coords[2] == 0 and pt.coords[0] > pt.coords[1] > 0
    d, s = 2.0 - 1.8, 2.0 + 1.8
    assert abs(obj - (d * d / 4 + s / 2 - 0.25)) < 1e-12
    # Origin: uniform point, value -1/(2n).
    pt, obj = project_bruteforce([0.0, 0.0, 0.0, 0.0])
    assert pt.coords == (0.25,) * 4
    assert abs(obj - (-0.125)) < 1e-15


def test_bruteforce_exact_rational():
    pt, obj = project_bruteforce((Fraction(2), Fraction(3, 2), Fraction(-3)))
    assert pt.coords == (Fraction(3, 4), Fraction(1, 4), Fraction(0))
    assert obj == energy_gd((Fraction(2), Fraction(3, 2), Fraction(-3)))


def test_bruteforce_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        project_bruteforce([0.0] * 21)


def test_bruteforce_refuses_nan_and_inf():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ArithmeticOverflow):
            project_bruteforce((0.0, bad, 1.0))
        with pytest.raises(ArithmeticOverflow):
            project_bruteforce((Fraction(1, 2), bad, 0))
        with pytest.raises(ArithmeticOverflow):
            oracle.project_rows(np.array([[0.0, 1.0, 2.0], [0.0, bad, 1.0]]))


def test_bruteforce_refuses_a_cancelled_shift():
    """At (1e300, -1e300, 0) the shift (1 - 1e300) / 1 rounds to -1e300, so
    support {0} gets coordinate 0.0; the enumeration says so in a package
    error.  The fast path's pairwise form still gives the vertex."""
    y = (1e300, -1e300, 0.0)
    with pytest.raises(ArithmeticOverflow, match=r"mean shift .* cancelled"):
        project_bruteforce(y)
    assert gd_primal(y).coords == (1.0, 0, 0)


@pytest.mark.parametrize("n", range(2, 10))
def test_project_rows_is_the_loop_bit_for_bit_on_floats(n):
    """n = 2..9 spans numpy's sequential (< 8) and pairwise (>= 8) reduce;
    the rows of halves and of one repeated value make ties between supports.
    Near-equal values past 1e154 give some feasible supports the value
    inf - inf = nan, which the loop never picks."""
    rng = np.random.default_rng(40 + n)
    ys = np.concatenate([
        rng.uniform(-5, 5, (40, n)),
        rng.uniform(-1, 1, (10, n)) * 10.0 ** rng.integers(-8, 9, (10, 1)),
        rng.integers(-3, 4, (15, n)) / 2.0,
        1.7e215 * (1 + rng.integers(-3, 4, (10, n)) * 2.0 ** -52),
        np.full((1, n), 0.7),
        np.zeros((1, n)),
    ])
    _assert_float_rows_match(ys)


def test_project_rows_is_the_loop_on_rational_and_int_rows():
    """Value and type per cell; with repeated values two supports can reach the
    same point (one with a Fraction 0, one with an int 0), and the lower
    bitmask must win."""
    rng = random.Random(8)
    blocks = []
    for n in (2, 3, 4, 5):
        for draw in (
            lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            lambda: rng.randint(-2, 2),
            lambda: rng.choice([Fraction(1, 2), 0, Fraction(-1, 2), 1]),
        ):
            blocks.append([tuple(draw() for _ in range(n)) for _ in range(25)])
    # Supports {0} and {0, 1} both give (1, 0, 0) here; {0} leaves an int 0.
    tie = (Fraction(3, 2), Fraction(1, 2), -5)
    blocks.append([tie, (1, 1, 1), (0, 0, 0)])
    for block in blocks:
        _assert_exact_rows_match(block)
    assert [type(c) for c in project_bruteforce(tie)[0].coords] == [Fraction, int, int]


def test_project_rows_spans_support_chunks():
    """2^14 - 1 supports take several chunks: the first row's best support
    lies in the first chunk, the second's in the last."""
    assert (1 << 14) - 1 > 2 * oracle.CHUNK_CELLS
    first = np.array([5.0, 4.9] + [-3.0] * 12)
    last = np.random.default_rng(14).uniform(-0.2, 0.2, 14)
    _assert_float_rows_match(np.stack([first, last]))


def test_project_rows_chunks_rows_and_supports(monkeypatch):
    """A budget of 8 cells puts one row and 8 supports in each chunk.  In the
    last exact row supports {0} (mask 1) and {0, 3} (mask 9) tie across
    chunks."""
    monkeypatch.setattr(oracle, "CHUNK_CELLS", 8)
    _assert_float_rows_match(np.random.default_rng(5).uniform(-2, 2, (6, 5)))
    _assert_exact_rows_match([(Fraction(1, 2), Fraction(1, 2), 0, -1, 2), (1, 1, 0, 0, 0), (1, -5, -5, 0, -5)])


def test_fast_projection_agrees_with_bruteforce():
    """The sorted-scan projection and the 2^n enumeration never disagree."""
    rng = np.random.default_rng(2024)
    worst_dx = 0.0
    worst_de = 0.0
    for n in (3, 4, 5, 6):
        ys = rng.uniform(-5, 5, (400, n))
        coords, values = oracle.project_rows(ys)
        for y, brute, brute_obj in zip(ys.tolist(), coords.tolist(), values.tolist()):
            fast = gd_primal(y)
            worst_dx = max(
                worst_dx,
                max(abs(a - b) for a, b in zip(fast.coords, brute)),
            )
            worst_de = max(worst_de, abs(brute_obj - energy_gd(y)))
            assert find_support(y) == tuple(i for i, c in enumerate(brute) if c > 0)
    assert worst_dx < 1e-10
    assert worst_de < 1e-10


def test_fast_projection_agrees_exactly_on_rationals():
    rng = random.Random(31)
    blocks = {3: [], 4: [], 5: []}
    for _ in range(150):
        n = rng.choice([3, 4, 5])
        blocks[n].append(tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)
        ))
    for n, block in blocks.items():
        coords, values = oracle.project_rows(np.array(block, dtype=object))
        for y, brute, brute_obj in zip(block, coords.tolist(), values.tolist()):
            assert gd_primal(y).coords == tuple(brute)
            assert energy_gd(y) == brute_obj
            # At an exact tie the active set may carry a zero-weight coordinate,
            # so it contains the positive support rather than equalling it.
            support = set(find_support(y))
            positive = {i for i, c in enumerate(brute) if c > 0}
            assert positive <= support
            assert all(brute[i] == 0 for i in range(n) if i not in support)


def test_regret_direct_matches_dual_route():
    fp = run(
        LearnerConfig(
            algorithm=Algorithm.FICTITIOUS_PLAY,
            horizon=200,
            x0=SimplexPoint.vertex(3, 0),
        ),
        make_rps((1.0, 1.0, 1.0)),
    )
    assert abs(regret_direct(fp) - float(regret(fp).regret_total)) < 1e-9
    gd = run(
        LearnerConfig(
            algorithm=Algorithm.GRADIENT_DESCENT,
            horizon=200,
            eta=2.5,
            x0=SimplexPoint((0.2, 0.3, 0.5)),
        ),
        make_rps((1.0, 2.0, 3.0)),
    )
    assert abs(regret_direct(gd) - float(regret(gd).regret_total)) < 1e-9


def test_regret_direct_exact_equality():
    cases = [
        # Int weights from a vertex: every payoff cell is an int.
        (Algorithm.FICTITIOUS_PLAY, (1, 2, 3), 1, SimplexPoint.vertex(3, 2)),
        # Fraction weights, eta and x0: payoff rows over denominators D_w D_x.
        (Algorithm.GRADIENT_DESCENT, (Fraction(1, 2), 2, Fraction(5, 3)), Fraction(7, 3),
         SimplexPoint((Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)))),
        (Algorithm.GRADIENT_DESCENT, (Fraction(3, 10), Fraction(7, 4), 1, Fraction(2, 9)), Fraction(9, 2),
         SimplexPoint((Fraction(1, 20), Fraction(7, 20), Fraction(39, 100), Fraction(21, 100)))),
        (Algorithm.FICTITIOUS_PLAY, (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)), 1,
         SimplexPoint((Fraction(1, 4), Fraction(3, 4), 0))),
    ]
    for algorithm, weights, eta, x0 in cases:
        config = LearnerConfig(algorithm=algorithm, horizon=150, x0=x0, eta=eta,
                               arithmetic=Arithmetic.EXACT_RATIONAL)
        traj = run(config, make_rps(weights))
        assert regret_direct(traj) == regret(traj).regret_total, weights


def test_grad_fd_is_projection():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 60:
        n = int(rng.integers(3, 5))
        y = [float(v) for v in rng.uniform(-4, 4, n)]
        try:
            g = grad_fd(y)
        except TooCloseToBoundary:
            continue
        x = np.array(gd_primal(y).coords)
        assert np.abs(g - x).max() < 1e-5
        checked += 1


def test_grad_fd_rejects_kinks():
    # Margin ~1e-7 sits inside the 10h stencil radius at the default h.
    with pytest.raises(TooCloseToBoundary):
        grad_fd([1.0 + 1e-7, 0.0, 0.0])
    # A smaller stencil makes the same point acceptable.
    g = grad_fd([1.0 + 1e-7, 0.0, 0.0], h=1e-9)
    assert np.abs(g - np.array([1.0, 0.0, 0.0])).max() < 1e-4
