import random
from fractions import Fraction

import numpy as np
import pytest

from rps_dynamics import (
    Algorithm,
    Arithmetic,
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


def test_fast_projection_agrees_with_bruteforce():
    """The sorted-scan projection and the 2^n enumeration never disagree."""
    rng = np.random.default_rng(2024)
    worst_dx = 0.0
    worst_de = 0.0
    for n in (3, 4, 5, 6):
        for _ in range(400):
            y = [float(v) for v in rng.uniform(-5, 5, n)]
            brute_pt, brute_obj = project_bruteforce(y)
            fast = gd_primal(y)
            worst_dx = max(
                worst_dx,
                max(abs(a - b) for a, b in zip(fast.coords, brute_pt.coords)),
            )
            worst_de = max(worst_de, abs(float(brute_obj) - energy_gd(y)))
            assert find_support(y) == tuple(
                i for i, c in enumerate(brute_pt.coords) if c > 0
            )
    assert worst_dx < 1e-10
    assert worst_de < 1e-10


def test_fast_projection_agrees_exactly_on_rationals():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.choice([3, 4, 5])
        y = tuple(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)
        )
        brute_pt, brute_obj = project_bruteforce(y)
        assert gd_primal(y).coords == brute_pt.coords
        assert energy_gd(y) == brute_obj
        # At an exact tie the active set may carry a zero-weight coordinate,
        # so it contains the positive support rather than equalling it.
        support = set(find_support(y))
        positive = {i for i, c in enumerate(brute_pt.coords) if c > 0}
        assert positive <= support
        assert all(brute_pt.coords[i] == 0 for i in range(n) if i not in support)


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
    traj = run(
        LearnerConfig(
            algorithm=Algorithm.FICTITIOUS_PLAY,
            horizon=150,
            x0=SimplexPoint.vertex(3, 2),
            arithmetic=Arithmetic.EXACT_RATIONAL,
        ),
        make_rps((1, 2, 3)),
    )
    assert regret_direct(traj) == regret(traj).regret_total


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
