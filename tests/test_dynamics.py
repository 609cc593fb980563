import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rps_dynamics import (
    Algorithm,
    Arithmetic,
    ArithmeticOverflow,
    ConfigInvalid,
    DimensionMismatch,
    LearnerConfig,
    ProjectionInfeasible,
    RpsMatrix,
    SimplexPoint,
    classify_region,
    TiebreakKind,
    TiebreakRule,
    energy_fp,
    energy_gd,
    find_support,
    fp_primal,
    gd_primal,
    make_rps,
    run,
)
from rps_dynamics import dynamics, oracle, verification
from rps_dynamics.experiment import ExperimentSpec, config_hash, dual_replay
from rps_dynamics.game import interior_nash, is_exact


# ---------------------------------------------------------------------------
# Support scan and projection


def test_find_support_single_winner():
    assert find_support([10.0, 0.0, 0.0]) == (0,)
    assert find_support([-1, -1, 5]) == (2,)


def test_find_support_partial():
    assert find_support([0.5, 0.3, -5.0]) == (0, 1)


def test_find_support_full():
    assert find_support([0.0, 0.0, 0.0]) == (0, 1, 2)
    assert find_support([0.1, 0.0, -0.1]) == (0, 1, 2)


def test_find_support_exact_ties():
    # Exact arithmetic: the borderline coordinate (projected value exactly 0)
    # stays in the support.
    assert find_support((Fraction(0), Fraction(1), Fraction(-1))) == (0, 1)


def test_gd_primal_examples():
    p = gd_primal([0.5, 0.3, -5.0])
    assert max(abs(a - b) for a, b in zip(p.coords, (0.6, 0.4, 0.0))) < 1e-15
    # Deep in a vertex region the projection is the vertex itself.
    assert gd_primal([9.0, 1.0, 0.0]).coords == (1.0, 0.0, 0.0)
    # All-zero dual projects to uniform.
    u = gd_primal([0.0] * 4)
    assert max(abs(c - 0.25) for c in u.coords) < 1e-15


def test_gd_primal_exact():
    p = gd_primal((Fraction(2), Fraction(3, 2), Fraction(-3)))
    assert p.coords == (Fraction(3, 4), Fraction(1, 4), 0)


def test_sorted_scan_matches_on_random_draws():
    """The argmin-removal scan keeps every surviving projected value >= 0 and
    drops only coordinates that would have been negative."""
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        y = [float(v) for v in rng.uniform(-4, 4, n)]
        idx = find_support(y)
        m = len(idx)
        mu = sum(y[i] for i in idx) / m
        for i in idx:
            assert y[i] - mu + 1.0 / m >= -1e-12
        for i in range(n):
            if i not in idx:
                assert y[i] < mu  # dropped coordinates sit below the support mean


def test_projection_is_idempotent_on_simplex_points():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        raw = rng.uniform(0.05, 1.0, n)
        x = tuple(float(v) for v in raw / raw.sum())
        p = gd_primal(list(x))
        assert max(abs(a - b) for a, b in zip(p.coords, x)) < 1e-12


def test_projection_on_wrong_support_raises_package_error(monkeypatch):
    # On the full support the first coordinate is (0 - 10) / 3 + 1/3 = -3.
    monkeypatch.setattr(dynamics, "_support_scan", lambda y: ((0, 1, 2), 0b111, 10.0))
    with pytest.raises(ProjectionInfeasible, match=r"coordinate 0 .*support \(0, 1, 2\)"):
        gd_primal((0.0, 10.0, 0.0))


def test_projection_clamps_round_off_negative_to_zero(monkeypatch):
    """The scan keeps coordinate 3, which the oracle drops: it projects to
    about -4.4e-16, and the clamp makes it 0."""
    y = (3.2328354047641312, -1.0891765741722308, -0.5233187487047002, 2.2328354047641303)
    point, value = oracle.project_bruteforce(y)
    assert find_support(y) == (0, 3) and point.support == (0,)
    assert gd_primal(y).coords[3] == 0.0
    assert max(abs(a - b) for a, b in zip(gd_primal(y).coords, point.coords)) <= 1e-15
    assert energy_gd(y) == value
    monkeypatch.setattr(dynamics, "PROJECTION_CLAMP", 0.0)
    with pytest.raises(ProjectionInfeasible, match="-4.44"):
        gd_primal(y)


# ---------------------------------------------------------------------------
# Energies


def test_energy_fp_is_max():
    assert energy_fp([1.0, -2.0, 0.5]) == 1.0
    assert energy_fp((Fraction(1, 3), Fraction(1, 2), 0)) == Fraction(1, 2)


def test_energy_gd_at_zero():
    for n in (3, 4, 5, 8):
        assert abs(energy_gd([0.0] * n) + 1.0 / (2 * n)) < 1e-15


def test_energy_gd_vertex_region_form():
    # With a singleton support the conjugate is y_max - 1/2.
    assert abs(energy_gd([5.0, 1.0, 0.0]) - 4.5) < 1e-15


def test_energy_gd_edge_form():
    # Support {0, 1}: (y0-y1)^2/4 + (y0+y1)/2 - 1/4.
    y = [2.0, 1.5, -3.0]
    expect = (2.0 - 1.5) ** 2 / 4 + (2.0 + 1.5) / 2 - 0.25
    assert abs(energy_gd(y) - 1.5625) < 1e-15
    assert abs(expect - 1.5625) < 1e-15


def test_energy_gd_example():
    assert abs(energy_gd([0.5, 0.3, -5.0]) - 0.16) < 1e-15


def test_energy_gd_translation_covariance():
    # Adding c to every coordinate adds exactly c to the conjugate value.
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        y = [float(v) for v in rng.uniform(-3, 3, n)]
        c = float(rng.uniform(-50, 50))
        shifted = [v + c for v in y]
        assert abs(energy_gd(shifted) - energy_gd(y) - c) < 1e-9


def test_energy_gd_large_offset_precision():
    # Deviation-form evaluation: a huge common offset must not swallow the
    # spread between coordinates.
    base = [0.5, 0.3, -5.0]
    off = 1e8
    assert abs((energy_gd([v + off for v in base]) - off) - 0.16) < 1e-6


@pytest.mark.parametrize("y, margin_exact", [
    ([0.5, 2, 3], True),            # exact support; margin from y_2 - y_1 - 1
    ([1, 2, 3, 0.5], True),         # exact support
    ([1.5, 1, 0, 0.25], True),      # support (0, 1) holds a float
    ([0.25, 1, 3, 3], False),       # exact support; margin from a slack reading 0.25
    ([0.5, 0.75, 1], False),        # every coordinate on the support
])
def test_mixed_vectors_follow_the_type_rule(y, margin_exact):
    """A vector mixing ints and floats agrees with its all-float twin, and
    each result is exact exactly when the coordinates it reads are."""
    yf = [float(v) for v in y]
    support = find_support(y)
    assert support == find_support(yf)
    exact_on_support = all(is_exact(y[i]) for i in support)

    coords, coords_f = gd_primal(y).coords, gd_primal(yf).coords
    assert max(abs(a - b) for a, b in zip(coords, coords_f)) < 1e-12
    for i, c in enumerate(coords):
        if i in support:
            assert isinstance(c, Fraction if exact_on_support else float), (i, c)
        else:
            assert type(c) is int and c == 0, (i, c)

    energy = energy_gd(y)
    assert abs(energy - energy_gd(yf)) < 1e-12
    assert isinstance(energy, Fraction if exact_on_support else float)

    tag, tag_f = classify_region(y), classify_region(yf)
    assert (tag.kind, tag.index) == (tag_f.kind, tag_f.index)
    assert abs(tag.min_abs_margin - tag_f.min_abs_margin) < 1e-12
    assert is_exact(tag.min_abs_margin) == margin_exact


# ---------------------------------------------------------------------------
# Tiebreak rules


def test_fp_primal_plain_argmax():
    assert fp_primal([0.0, 1.0, -1.0]) == 1
    assert fp_primal((Fraction(2), Fraction(-4), Fraction(1))) == 0


def test_lexicographic_tie():
    assert fp_primal([1.0, 2.0, 2.0]) == 1


def test_tournament_prefers_cyclic_successor():
    rule = TiebreakRule(TiebreakKind.TOURNAMENT)
    assert rule.select((1, 2), None, 3) == 2
    assert rule.select((0, 1), None, 3) == 1
    assert rule.select((0, 2), None, 3) == 0      # 0 follows 2 on the cycle
    assert rule.select((2, 3), None, 5) == 3
    assert rule.select((0, 4), None, 5) == 0
    # Multi-way ties walk forward from the incumbent.
    assert rule.select((0, 1, 2), 0, 3) == 1
    assert rule.select((0, 1, 2), 2, 3) == 0


def test_prefer_incumbent_and_switch():
    inc = TiebreakRule(TiebreakKind.PREFER_INCUMBENT)
    sw = TiebreakRule(TiebreakKind.PREFER_SWITCH)
    assert inc.select((0, 2), 2, 3) == 2
    assert inc.select((0, 2), 1, 3) == 0
    assert sw.select((0, 2), 0, 3) == 2
    assert sw.select((0, 2), 2, 3) == 0
    assert sw.select((1,), 1, 3) == 1


def test_random_seeded_is_reproducible():
    rule = TiebreakRule(TiebreakKind.RANDOM_SEEDED, seed=0)
    picks = [rule.select((0, 1, 2), None, 3, step=s) for s in range(20)]
    again = [rule.select((0, 1, 2), None, 3, step=s) for s in range(20)]
    assert picks == again
    assert all(p in (0, 1, 2) for p in picks)
    assert len(set(picks)) > 1  # actually randomizes across steps
    other = TiebreakRule(TiebreakKind.RANDOM_SEEDED, seed=1)
    assert [other.select((0, 1, 2), None, 3, step=s) for s in range(20)] != picks


def test_tiebreak_seed_validation():
    with pytest.raises(ConfigInvalid):
        TiebreakRule(TiebreakKind.RANDOM_SEEDED)
    with pytest.raises(ConfigInvalid):
        TiebreakRule(TiebreakKind.LEXICOGRAPHIC, seed=3)


def test_fp_primal_tie_tolerance():
    y = [1.0, 1.0 - 1e-12, 0.0]
    # Default float tolerance 1e-9 treats the first two as tied.
    assert fp_primal(y, TiebreakRule(TiebreakKind.PREFER_SWITCH), incumbent=0) == 1
    # A zero tolerance sees a strict winner.
    assert fp_primal(y, TiebreakRule(TiebreakKind.PREFER_SWITCH), incumbent=0, tol=0) == 0


# ---------------------------------------------------------------------------
# Config validation


def test_config_rejects_bad_values():
    x0 = SimplexPoint.vertex(3, 0)
    fp, gd = Algorithm.FICTITIOUS_PLAY, Algorithm.GRADIENT_DESCENT
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=fp, horizon=-1, x0=x0)
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=gd, horizon=10, x0=x0, eta=0)
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=fp, horizon=10, x0=x0, eta=2)  # FP pins eta=1
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=gd, horizon=10, x0=x0,
                      tiebreak=TiebreakRule(TiebreakKind.TOURNAMENT))
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=gd, horizon=10, x0=x0, eta_schedule="linear")
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=gd, horizon=10, x0=SimplexPoint((0.5, 0.25, 0.25)),
                      eta=0.5, arithmetic=Arithmetic.EXACT_RATIONAL)
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=gd, horizon=10, x0=x0, bit_budget=8)
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=fp, horizon=True, x0=x0)
    exact_gd = {"algorithm": gd, "eta": 1, "arithmetic": Arithmetic.EXACT_RATIONAL}
    for kwargs in (
        {"algorithm": "xx"},
        {"algorithm": fp, "arithmetic": "rationall"},
        {"algorithm": fp, "eta_schedule": "inv_sqrt_t"},
        {"algorithm": gd, "tie_tolerance": 1e-6},
        {**exact_gd, "x0": SimplexPoint((0.5, 0.25, 0.25))},  # exact eta, float x0
        {**exact_gd, "eta_schedule": "inv_sqrt_t"},
        {"algorithm": fp, "tiebreak": "tournament"},  # a kind, not a TiebreakRule
        {"algorithm": fp, "x0": (1, 0, 0)},  # coordinates, not a SimplexPoint
        {**exact_gd, "x0": (1, 0, 0)},  # checked before the exact-x0 test reads x0.coords
    ):
        with pytest.raises(ConfigInvalid):
            LearnerConfig(**{"horizon": 10, "x0": x0, **kwargs})
    with pytest.raises(ConfigInvalid):
        TiebreakRule("foo")


def test_config_coerces_enum_values():
    """The values of the enums stand for their members, and hash alike."""
    x0 = SimplexPoint.vertex(3, 0)
    named = LearnerConfig(algorithm="fp", horizon=10, x0=x0, arithmetic="rational",
                          tiebreak=TiebreakRule("tournament"))
    members = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=10, x0=x0,
                            arithmetic=Arithmetic.EXACT_RATIONAL,
                            tiebreak=TiebreakRule(TiebreakKind.TOURNAMENT))
    assert named.algorithm is Algorithm.FICTITIOUS_PLAY
    assert named.arithmetic is Arithmetic.EXACT_RATIONAL
    assert named.tiebreak.kind is TiebreakKind.TOURNAMENT
    assert config_hash(ExperimentSpec("t", (1, 1, 1), named)) == \
        config_hash(ExperimentSpec("t", (1, 1, 1), members))


@pytest.mark.parametrize("eta", [math.inf, math.nan])
def test_config_rejects_non_finite_eta(eta):
    with pytest.raises(ConfigInvalid):
        LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=10,
                      x0=SimplexPoint.vertex(3, 0), eta=eta)


def test_config_accepts_fraction_eta_beyond_float_range():
    # math.isfinite would overflow on this value; the check must not convert.
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=10,
                        x0=SimplexPoint.vertex(3, 0), eta=Fraction(10**400),
                        arithmetic=Arithmetic.EXACT_RATIONAL)
    assert cfg.eta == 10**400


def test_float_mode_refuses_values_past_the_float_range():
    """Float runs refuse an eta, tie tolerance or weight that has no float
    value at entry, with ConfigInvalid: float() overflows on them.  The
    same values are fine in rational mode."""
    huge = Fraction(10**400, 3)
    gd, fp, e0 = Algorithm.GRADIENT_DESCENT, Algorithm.FICTITIOUS_PLAY, SimplexPoint.vertex(3, 0)
    for kwargs in ({"algorithm": gd, "eta": huge}, {"algorithm": gd, "eta": 10**400},
                   {"algorithm": fp, "tie_tolerance": huge}):
        with pytest.raises(ConfigInvalid, match="float range"):
            LearnerConfig(horizon=10, x0=e0, **kwargs)
    config = LearnerConfig(algorithm=gd, horizon=10, x0=e0, eta=1)
    for weights in ((huge, 1, 1), (1, 10**400, 1)):
        for engine in (run, oracle.run_stepwise):
            with pytest.raises(ConfigInvalid, match="weights within the float range"):
                engine(config, make_rps(weights))
    exact = replace(config, horizon=1, arithmetic=Arithmetic.EXACT_RATIONAL, eta=huge)
    assert run(exact, make_rps((huge, 1, 1))).y(1) == (0, huge * huge, -huge)


def test_float_mode_refuses_an_eta_that_underflows():
    """A positive eta whose float() is 0.0 would step with eta = 0 and leave
    y at 0: float runs refuse it with ConfigInvalid, and rational runs keep
    it exact."""
    tiny, small = Fraction(1, 10**400), Fraction(1, 10**300)
    config = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=1, x0=SimplexPoint.vertex(3, 0), eta=small)
    assert run(config, make_rps((1, 1, 1))).y(1) == (0.0, float(small), -float(small))
    with pytest.raises(ConfigInvalid, match="stays positive as a float"):
        replace(config, eta=tiny)
    exact = replace(config, eta=tiny, arithmetic=Arithmetic.EXACT_RATIONAL)
    assert run(exact, make_rps((1, 1, 1))).y(1) == (0, tiny, -tiny)


def test_run_dimension_checks():
    cfg = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=5,
                        x0=SimplexPoint.vertex(3, 0))
    with pytest.raises(DimensionMismatch):
        run(cfg, make_rps((1, 1, 1, 1)))
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=5,
                        x0=SimplexPoint.vertex(3, 0), eta=1,
                        arithmetic=Arithmetic.EXACT_RATIONAL)
    with pytest.raises(ConfigInvalid):
        run(cfg, make_rps((1.0, 1.0, 1.0)))  # float weights in rational mode


def test_rational_mode_refuses_every_inexact_input():
    """A rational run holds only ints and Fractions (``game.is_exact``): a
    float tie tolerance, 0.0 included, and numpy scalars as eta, x0
    coordinates or weights are config errors, not failures inside the run.
    Float runs take numpy weights, and count numpy ints as floats."""
    fp, gd = Algorithm.FICTITIOUS_PLAY, Algorithm.GRADIENT_DESCENT
    e0 = SimplexPoint.vertex(3, 0)
    assert not any(map(is_exact, (True, 1.0, np.int64(1), np.float32(1), np.float64(1))))
    for kwargs in ({"algorithm": fp, "tie_tolerance": 0.0},
                   {"algorithm": gd, "eta": np.float32(0.5)},
                   {"algorithm": gd, "x0": SimplexPoint((np.int64(1), 0, 0))}):
        with pytest.raises(ConfigInvalid):
            LearnerConfig(**{"horizon": 10, "x0": e0, "eta": 1, "arithmetic": Arithmetic.EXACT_RATIONAL,
                             **kwargs})
    exact = LearnerConfig(fp, 10, e0, arithmetic=Arithmetic.EXACT_RATIONAL, tie_tolerance=0)
    ints, floats = np.array([3, 2, 1], dtype=np.int64), np.array([0.1, 0.2, 0.3], dtype=np.float32)
    for weights in (ints, floats):
        with pytest.raises(ConfigInvalid):
            run(exact, make_rps(tuple(weights)))
    float_fp = replace(exact, arithmetic=Arithmetic.FLOAT64, tie_tolerance=None)
    assert run(float_fp, make_rps(tuple(ints))).ys.tobytes() == \
        run(float_fp, make_rps((3.0, 2.0, 1.0))).ys.tobytes()
    nash = interior_nash(make_rps(tuple(ints))).point.coords
    assert nash == tuple(float(c) for c in interior_nash(make_rps((3, 2, 1))).point.coords)
    assert all(type(c) is float for c in nash)


def test_trajectory_checks_column_shapes():
    traj = run(_unit3_gd(3.0), make_rps((1.0,) * 3))
    assert replace(traj).ys is traj.ys
    for name, column in [("xs", traj.xs[:-1]), ("ys", traj.ys[:-1]), ("ys", traj.ys[:, :2]),
                         ("energies", traj.energies[:-1]), ("supports", traj.supports[:-1])]:
        with pytest.raises(DimensionMismatch, match=name):
            replace(traj, **{name: column})
    with pytest.raises(DimensionMismatch):  # a game of another size
        replace(traj, matrix=make_rps((1.0,) * 4))


# ---------------------------------------------------------------------------
# Full runs


def test_fp_reference_trace():
    """Unweighted 3-cycle from e_1, lexicographic: plays and duals by hand."""
    cfg = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=15,
                        x0=SimplexPoint.vertex(3, 0))
    traj = run(cfg, make_rps((1, 1, 1)))
    plays = [traj.support_mask(t).bit_length() - 1 for t in range(1, 16)]
    assert plays == [1, 1, 1, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0]
    assert traj.y(1) == (0.0, 1.0, -1.0)
    assert traj.y(4) == (-3.0, 1.0, 2.0)
    assert traj.y(9) == (2.0, -4.0, 2.0)
    assert traj.energy(1) == 1.0
    assert traj.energy(4) == 2.0
    assert traj.support_mask(0) == 0b001


def test_fp_duals_are_payoff_sums():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.choice([3, 4, 5])
        w = tuple(rng.randint(1, 5) for _ in range(n))
        cfg = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=40,
                            x0=SimplexPoint.vertex(n, rng.randrange(n)),
                            arithmetic=Arithmetic.EXACT_RATIONAL)
        traj = run(cfg, make_rps(w))
        m = make_rps(w)
        acc = tuple([0] * n)
        for t in range(traj.horizon + 1):
            acc = tuple(a + v for a, v in zip(acc, m.apply(traj.x(t))))
            assert traj.y(t + 1) == acc


def test_gd_large_step_first_iterate_is_vertex():
    # Pinned interior start; eta = max(2/a_min, 1/gamma) + 1 = 6 here.
    x0 = SimplexPoint((0.05, 0.35, 0.39, 0.21))
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=3,
                        x0=x0, eta=6.0)
    traj = run(cfg, make_rps((1.0,) * 4))
    y1 = traj.y(1)
    assert max(abs(a - b) for a, b in zip(y1, (-0.84, -2.04, 0.84, 2.04))) < 1e-12
    assert traj.support_mask(1) == 0b1000  # x^1 = e_4 (last coordinate)
    assert traj.x(1) == (0.0, 0.0, 0.0, 1.0)


def test_gd_rational_run_small_state():
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=50,
                        x0=SimplexPoint.vertex(3, 0), eta=1,
                        arithmetic=Arithmetic.EXACT_RATIONAL)
    traj = run(cfg, make_rps((1, 1, 1)))
    assert all(isinstance(v, (int, Fraction)) for v in traj.y(50))
    for t in range(1, 50):
        assert traj.energy(t + 1) >= traj.energy(t)
    # The cyclic orbit keeps denominators tiny.
    assert max(Fraction(v).denominator for v in traj.y(50)) <= 4


def test_rational_bit_budget_overflow(monkeypatch):
    cfg = LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=10,
                        x0=SimplexPoint.vertex(3, 0),
                        arithmetic=Arithmetic.EXACT_RATIONAL, bit_budget=16)
    with pytest.raises(ArithmeticOverflow):
        run(cfg, make_rps((1 << 20, 1, 1)))

    # Overflows that land inside a block raise at the stepwise loop's step.
    block_starts = []
    check_block = dynamics._check_block_bits

    def spy(starts, steps, columns, budget, t):
        try:
            check_block(starts, steps, columns, budget, t)
        except ArithmeticOverflow:
            block_starts.append(t)
            raise

    monkeypatch.setattr(dynamics, "_check_block_bits", spy)
    runs = [
        (replace(cfg, horizon=5000), (1000, 2000, 3000)),
        (LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=3000, eta=91,
                       x0=SimplexPoint((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
                       arithmetic=Arithmetic.EXACT_RATIONAL, bit_budget=16), (1, 2, 3)),
    ]
    for config, weights in runs:
        block_starts.clear()
        with pytest.raises(ArithmeticOverflow) as ref:
            oracle.run_stepwise(config, make_rps(weights))
        with pytest.raises(ArithmeticOverflow) as fast:
            run(config, make_rps(weights))
        assert str(fast.value) == str(ref.value)
        step = int(str(ref.value).rsplit(" ", 1)[1])
        assert len(block_starts) == 1 and block_starts[0] < step


def _unit3_gd(eta):
    return LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=50,
                         x0=SimplexPoint.vertex(3, 0), eta=eta)


def test_find_support_keeps_the_last_coordinate_of_a_huge_y():
    # Rounding of the running total rejects the maximum too; it still projects to 1.
    assert find_support((1e25, -2.5000000000000005e25, 1.5000000000000002e25)) == (2,)


@pytest.mark.parametrize("eta", [1e25, 1e150, 1e300])
def test_float_gd_with_huge_duals_completes(eta):
    traj = run(_unit3_gd(eta), make_rps((1.0,) * 3))
    for column in (traj.xs, traj.ys, traj.energies):
        assert np.isfinite(column).all()
    assert (traj.xs >= 0).all() and np.allclose(traj.xs.sum(axis=1), 1.0)


@pytest.mark.parametrize("eta", [1e25, 1e150, 1e300])
def test_dual_replay_residual_is_relative_to_the_dual(eta):
    # Rounding alone leaves absolute residuals far above REL_TOL on duals near eta.
    traj = run(_unit3_gd(eta), make_rps((1.0,) * 3))
    ok, resid = dual_replay(traj)
    assert ok and resid > 1
    ys = traj.ys.copy()
    ys[25] *= 1 + 1e-6
    assert not dual_replay(dynamics.Trajectory(traj.config, traj.matrix, traj.xs, ys,
                                               traj.energies, traj.supports))[0]


@pytest.mark.parametrize("eta", [1e307, 1e308])
def test_float_gd_overflow_is_a_package_error(eta):
    with pytest.raises(ArithmeticOverflow, match="float"):
        run(_unit3_gd(eta), make_rps((1.0,) * 3))


def test_float_and_exact_runs_agree_early():
    """Before rounding can accumulate, float and rational runs coincide."""
    for algo, eta in ((Algorithm.FICTITIOUS_PLAY, 1), (Algorithm.GRADIENT_DESCENT, 2)):
        exact_cfg = LearnerConfig(algorithm=algo, horizon=30,
                                  x0=SimplexPoint.vertex(3, 1), eta=eta,
                                  arithmetic=Arithmetic.EXACT_RATIONAL)
        float_cfg = LearnerConfig(algorithm=algo, horizon=30,
                                  x0=SimplexPoint.vertex(3, 1), eta=float(eta))
        te = run(exact_cfg, make_rps((1, 2, 1)))
        tf = run(float_cfg, make_rps((1, 2, 1)))
        for t in range(31):
            diff = max(abs(float(a) - b) for a, b in zip(te.y(t), tf.y(t)))
            assert diff < 1e-9, (algo, t, diff)
            assert te.support_mask(t) == tf.support_mask(t)


@pytest.fixture
def all_exact_calls(monkeypatch):
    """A one-cell list counting calls of the ``all_exact`` dynamics imports."""
    calls = [0]
    inner = dynamics.all_exact

    def counted(values):
        calls[0] += 1
        return inner(values)

    monkeypatch.setattr(dynamics, "all_exact", counted)
    return calls


@pytest.mark.parametrize("config, weights", [
    (LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=0,
                   x0=SimplexPoint((0.3, 0.4, 0.3)), eta=0.01), (1.0,) * 3),
    (LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=0,
                   x0=SimplexPoint.vertex(3, 0), eta=Fraction(1, 2),
                   arithmetic=Arithmetic.EXACT_RATIONAL), (1, 1, 1)),
], ids=["float-interior", "exact"])
def test_run_decides_the_mode_once(all_exact_calls, config, weights):
    """The scalar gradient-descent step reads its mode off the values; no
    step scans y for floats, so the call count does not grow with T."""
    counts = []
    for horizon in (100, 1000):
        cfg = replace(config, horizon=horizon)
        before = all_exact_calls[0]
        run(cfg, make_rps(weights))
        counts.append(all_exact_calls[0] - before)
    assert counts[0] == counts[1]


def test_eta_schedule_decreasing():
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=50,
                        x0=SimplexPoint((0.3, 0.4, 0.3)), eta=1,
                        eta_schedule="inv_sqrt_t")
    traj = run(cfg, make_rps((1.0, 1.0, 1.0)))
    m = make_rps((1.0, 1.0, 1.0))
    # Step t uses stepsize 1/sqrt(t+1).
    v0 = m.apply(traj.x(0))
    expect = tuple(vi * 1.0 for vi in v0)
    assert max(abs(a - b) for a, b in zip(traj.y(1), expect)) < 1e-15
    v1 = m.apply(traj.x(1))
    expect2 = tuple(a + vi / math.sqrt(2.0) for a, vi in zip(traj.y(1), v1))
    assert max(abs(a - b) for a, b in zip(traj.y(2), expect2)) < 1e-15


def test_trajectory_storage_shapes():
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=7,
                        x0=SimplexPoint.uniform(4), eta=0.5)
    traj = run(cfg, make_rps((1.0,) * 4))
    assert traj.xs_array.shape == (8, 4)
    assert traj.ys_array.shape == (9, 4)
    assert traj.energies_array.shape == (9,)
    assert traj.support(0) == (0, 1, 2, 3)
    assert traj.y(0) == (0.0, 0.0, 0.0, 0.0)
    assert abs(traj.energy(0) + 1.0 / 8) < 1e-15  # energy of y = 0
    with pytest.raises(IndexError):
        traj.x(9)


QUICK_STORE = verification.TrajectoryStore(verification.QUICK_CAP)


@pytest.mark.parametrize("slot", QUICK_STORE.catalog())
def test_payoffs_are_the_runs_own_products(slot):
    """Row t of ``payoffs()``'s P / D is ``matrix.apply(x(t))``, the product
    the run stepped with: byte for byte over D = 1 in float runs, Python-int
    numerators of the same values in exact runs.  The recorded game is in the
    run's number type, so a float run on int weights (fp3_lex) records float
    weights."""
    traj = QUICK_STORE.get(slot)
    kinds = {type(w) for w in traj.matrix.weights}
    assert kinds <= ({int, Fraction} if traj.is_exact else {float})
    P, D = traj.payoffs()
    assert (P.dtype, P.shape, type(D)) == (traj.xs.dtype, traj.xs.shape, int)
    if not traj.is_exact:
        assert D == 1
    for t, row in enumerate(P.tolist()):
        expect = list(traj.matrix.apply(traj.x(t)))
        if traj.is_exact:
            assert all(type(p) is int for p in row), t
            assert [Fraction(p, D) for p in row] == expect, t
        else:
            assert np.array(row).tobytes() == np.array(expect).tobytes(), t


@pytest.mark.parametrize("slot", ["gd4_main", "gd3_exact", "fp_weighted_exact"])
def test_payoffs_are_formed_once_per_run(monkeypatch, slot):
    """``dual_replay`` and ``oracle.regret_direct`` read one read-only P:
    the rows are formed on the first ``payoffs()`` call only."""
    traj = QUICK_STORE.get(slot)
    traj = dynamics.Trajectory(traj.config, traj.matrix, traj.xs, traj.ys, traj.energies, traj.supports)
    calls = []
    apply = RpsMatrix.apply
    monkeypatch.setattr(RpsMatrix, "apply", lambda self, x: calls.append(x) or apply(self, x))
    assert dual_replay(traj)[0]
    oracle.regret_direct(traj)
    assert len(calls) == 1
    P, D = traj.payoffs()
    assert traj.payoffs()[0] is P and not P.flags.writeable


def test_support_column_round_trips_find_support():
    """The stored bitmask decodes to the active set the run projected on."""
    cfg = LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=60,
                        x0=SimplexPoint((0.05, 0.35, 0.39, 0.21)), eta=0.7)
    traj = run(cfg, make_rps((1.0, 2.0, 1.0, 3.0)))
    sizes = set()
    for t in range(1, traj.horizon + 1):
        support = find_support(traj.y(t))
        assert traj.support(t) == support
        assert traj.support_mask(t) == sum(1 << i for i in support)
        sizes.add(len(support))
    assert len(sizes) > 1  # the walk crosses regions of different support size


def _closing_response_configs():
    x0_gd4 = (Fraction(5, 100), Fraction(35, 100), Fraction(39, 100), Fraction(21, 100))
    for kind in TiebreakKind:
        rule = TiebreakRule(kind, seed=7 if kind == TiebreakKind.RANDOM_SEEDED else None)
        for arithmetic in Arithmetic:
            yield f"fp-{kind.value}-{arithmetic.value}", LearnerConfig(
                algorithm=Algorithm.FICTITIOUS_PLAY, horizon=0, x0=SimplexPoint.vertex(3, 0),
                tiebreak=rule, arithmetic=arithmetic,
            ), (1, 1, 1)
    yield "gd-float", LearnerConfig(
        algorithm=Algorithm.GRADIENT_DESCENT, horizon=0,
        x0=SimplexPoint(tuple(float(c) for c in x0_gd4)), eta=6.0,
    ), (1.0,) * 4
    yield "gd-rational", LearnerConfig(
        algorithm=Algorithm.GRADIENT_DESCENT, horizon=0, x0=SimplexPoint(x0_gd4), eta=1,
        arithmetic=Arithmetic.EXACT_RATIONAL,
    ), (1, 2, 3, 4)
    yield "gd-inv-sqrt-t", LearnerConfig(
        algorithm=Algorithm.GRADIENT_DESCENT, horizon=0, x0=SimplexPoint((0.3, 0.4, 0.3)),
        eta_schedule="inv_sqrt_t",
    ), (1.0, 2.0, 1.0)


@pytest.mark.parametrize(
    "base, weights",
    [case[1:] for case in _closing_response_configs()],
    ids=[case[0] for case in _closing_response_configs()],
)
def test_closing_response_is_the_next_support(base, weights):
    """Row T+1 of the supports is the response to y^{T+1}: what the longer run
    plays at T+1, and what the primal rule picks there."""
    matrix = make_rps(weights)
    longer = run(replace(base, horizon=41), matrix)
    for T in (0, 1, 2, 5, 13, 40):
        cfg = replace(base, horizon=T)
        traj = run(cfg, matrix)
        assert traj.supports.shape == (T + 2,)
        assert np.array_equal(traj.supports, longer.supports[: T + 2])
        y = traj.y(T + 1)
        if cfg.algorithm == Algorithm.FICTITIOUS_PLAY:
            i = fp_primal(y, cfg.effective_tiebreak, incumbent=traj.support(T)[0],
                          tol=cfg.effective_tie_tolerance, step=T + 1)
            assert traj.support_mask(T + 1) == 1 << i
        else:
            assert traj.support(T + 1) == find_support(y)
