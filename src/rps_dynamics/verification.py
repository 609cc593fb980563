"""Self-contained verification suite behind ``rpsdyn verify``.

Fourteen checks cover the package's claims end to end: square-root regret
growth for both dynamics, exact energy conservation under the tournament
tiebreak, one-step vertex collapse and cycling at large stepsizes, per-step
energy-growth bounds, the small-stepsize interior regime, agreement between
the fast projection routines and brute-force oracles, dual-subspace
confinement, the regret identities, boundary invariance, and the equilibrium
solver.  Each check prints one line with its verdict and headline numbers.

``level="quick"`` caps horizons at 10^3 so the suite runs in seconds;
``level="full"`` raises the cap to 10^5.  Verdicts are deterministic at both
levels.  All long trajectories are built once in a shared store and reused,
so the reported per-check times are dominated by the first check that needs
each run.
"""

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import oracle
from .analysis import (
    EDGE,
    VERTEX,
    boundary_invariance_check,
    check_dual_subspace,
    detect_phases,
    energy_growth_ledger,
    fit_regret_slope,
    ledger_summary,
    regret,
    regret_at,
    region_trace,
    small_stepsize_energy_check,
    verify_cycling,
)
from .dynamics import REL_TOL, Trajectory, _gd_response, run
from .errors import SingularSystem, TooCloseToBoundary
from .experiment import (
    config_document,
    energy_drops,
    parse_config,
    regret_bound_slack,
    regret_route_gaps,
)
from .game import SimplexPoint, gamma, interior_nash, make_rps
from .presets import _X0_GD3, _X0_GD4, _X0_GD4_COMPARE  # the x0 of the figures the criteria cite

QUICK_CAP = 10**3
FULL_CAP = 10**5

# Tiebreak documents of the FP slots, by slot-name suffix.
_FP_RULES = {
    "lex": {"kind": "lexicographic"},
    "random": {"kind": "random_seeded", "seed": 0},
    "switch": {"kind": "prefer_switch"},
}


@dataclass
class CheckResult:
    check: str
    passed: bool
    details: str
    elapsed: float = 0.0


def _vertex(n: int) -> List[int]:
    return [1] + [0] * (n - 1)


class TrajectoryStore:
    """Lazily built, memoized runs shared by the checks.

    Every trajectory used anywhere in the suite has a named slot here, so
    "every stored trajectory" checks (energy monotonicity, regret identities)
    have a well-defined, reproducible universe to quantify over.  Each slot is
    a config document in the format ``rpsdyn run --config`` reads, kept in
    ``configs`` under its ``name``.
    """

    def __init__(self, cap: int = FULL_CAP):
        self.cap = cap
        self._cache: Dict[str, Trajectory] = {}
        mid = min(cap, 10**4)
        short = min(cap, 10**3)
        unit3, unit4 = (1.0,) * 3, (1.0,) * 4
        doc = config_document
        docs = [
            doc(f"fp{n}_{rule_name}", (1,) * n, "fp", cap, _vertex(n), tiebreak=rule)
            for n in (3, 4)
            for rule_name, rule in _FP_RULES.items()
        ] + [
            doc(f"fp_tournament_{n}", (1,) * n, "fp", mid, _vertex(n),
                tiebreak={"kind": "tournament"}, arithmetic="rational")
            for n in (3, 4, 5)
        ] + [
            doc("gd4_main", unit4, "gd", cap, _X0_GD4, eta=self.gd4_eta()),
            doc("gd4_eta10", unit4, "gd", short, _X0_GD4, eta=10.0),
            doc("gd3_small", unit3, "gd", mid, _X0_GD3, eta=1.0 / math.sqrt(mid)),
            doc("gd3_boundary", unit3, "gd", mid, _X0_GD3, eta=0.3),
            doc("gd4_boundary", unit4, "gd", mid, _X0_GD4_COMPARE, eta=0.3),
            doc("fp_weighted_exact", (1, 2, 3), "fp", short, _vertex(3), arithmetic="rational"),
            doc("gd3_exact", (1, 1, 1), "gd", short, _vertex(3), eta=1, arithmetic="rational"),
            doc("gd_weighted_float", (1.0, 2.0, 3.0), "gd", mid, (1.0 / 3,) * 3, eta=0.3),
        ]
        self.configs: Dict[str, dict] = {d["name"]: d for d in docs}

    def catalog(self) -> List[str]:
        return sorted(self.configs)

    def get(self, key: str) -> Trajectory:
        if key not in self._cache:
            spec = parse_config(self.configs[key])
            self._cache[key] = run(spec.learner, make_rps(spec.weights))
        return self._cache[key]

    def build_all(self) -> List[Tuple[str, Trajectory]]:
        return [(key, self.get(key)) for key in self.catalog()]

    def gd4_eta(self) -> float:
        matrix = make_rps((1.0,) * 4)
        x0 = SimplexPoint(_X0_GD4)
        return max(2.0 / float(matrix.a_min), 1.0 / float(gamma(matrix, x0))) + 1.0


# ---------------------------------------------------------------------------
# Individual checks

CHECKS: List[Tuple[str, Callable[[TrajectoryStore, str], CheckResult]]] = []


def _check(check_id: str):
    """Register ``body(store) -> (passed, details)`` in ``CHECKS``, in
    definition order, as ``check(store, level) -> CheckResult``.  ``level`` is
    accepted only because callers pass it; the store's cap sets the horizons."""
    def register(body: Callable[[TrajectoryStore], Tuple[bool, str]]):
        @functools.wraps(body)
        def check(store: TrajectoryStore, level: str) -> CheckResult:
            return CheckResult(check_id, *body(store))
        CHECKS.append((check_id, check))
        return check
    return register


def _horizons(cap: int) -> List[int]:
    return [T for T in (10**2, 10**3, 10**4, 10**5) if T <= cap]


def _sqrt_regret_envelope(traj: Trajectory, Ts: List[int]) -> Tuple[float, Optional[float]]:
    """Largest Reg(T)/sqrt(T) over the horizons, and the log-log slope of
    Reg(T) against T (None with fewer than 3 horizons)."""
    pts = [(T, float(regret_at(traj, T))) for T in Ts]
    ratio = max(r / math.sqrt(T) for T, r in pts)
    slope = fit_regret_slope(pts)[0] if len(pts) >= 3 else None
    return ratio, slope


@_check("c01-fp-sqrt-regret")
def check_fp_sqrt_regret(store: TrajectoryStore) -> Tuple[bool, str]:
    """FP regret grows like sqrt(T) under every tiebreak rule tried."""
    Ts = _horizons(store.cap)
    worst_ratio = 0.0
    slopes: List[float] = []
    runs = 0
    ok = True
    for n in (3, 4):
        for rule_name in _FP_RULES:
            ratio, slope = _sqrt_regret_envelope(store.get(f"fp{n}_{rule_name}"), Ts)
            runs += 1
            worst_ratio = max(worst_ratio, ratio)
            if slope is not None:
                slopes.append(slope)
                # Constant-regret runs (energy-conserving tiebreaks) sit on
                # the interval's closed 0.0 endpoint; least squares returns
                # it with ~1e-16 noise, so the endpoint gets a tolerance.
                ok = ok and -REL_TOL <= slope <= 0.6
    ok = ok and worst_ratio <= 10.0
    if slopes:
        srange = f"slopes [{min(slopes):.3f}, {max(slopes):.3f}]"
    else:
        srange = f"slope fit skipped ({len(Ts)} horizons)"
    return ok, f"{runs} runs, T up to {Ts[-1]}: max Reg/sqrt(T) = {worst_ratio:.3f}, {srange}"


@_check("c02-fp-tournament-constant")
def check_fp_tournament_constant(store: TrajectoryStore) -> Tuple[bool, str]:
    """Cyclic-successor tiebreak freezes the FP energy exactly (rational)."""
    ok = True
    parts = []
    for n in (3, 4, 5):
        traj = store.get(f"fp_tournament_{n}")
        T = traj.horizon
        psi1 = traj.energy(1)
        conserved = bool((traj.energies[1:] == psi1).all())
        reg = regret_at(traj, T)
        identity = reg == 2 * Fraction(psi1)
        ok = ok and conserved and identity
        parts.append(
            f"n={n}: Psi={psi1}{'' if conserved else ' NOT CONSERVED'}, "
            f"Reg={reg}{'' if identity else ' != 2*Psi'}"
        )
    return ok, "; ".join(parts)


@_check("c03-gd-vertex-first-step")
def check_gd_vertex_first_step(store: TrajectoryStore) -> Tuple[bool, str]:
    """One large gradient step from the pinned interior point lands on a vertex."""
    parts = []
    ok = True
    for key, eta_text in (("gd4_main", f"eta={store.gd4_eta():.4g}"), ("gd4_eta10", "eta=10")):
        traj = store.get(key)
        trace = region_trace(traj)
        singleton = bool(trace.kind[1] == VERTEX)
        ok = ok and singleton
        label = f"e_{trace.index[1] + 1}" if singleton else f"mask={traj.support_mask(1):b}"
        parts.append(f"{eta_text}: x^1 = {label}")
    return ok, "; ".join(parts)


@_check("c04-gd-cycling")
def check_gd_cycling(store: TrajectoryStore) -> Tuple[bool, str]:
    """After lock-in, vertices advance cyclically and no edge repeats."""
    traj = store.get("gd4_main")
    Teff = min(traj.horizon, 10**4)
    phases = detect_phases(traj)
    bad_phase = verify_cycling(phases, traj.n)
    trace = region_trace(traj)
    kind = trace.kind[phases.t0 : Teff + 1]
    index = trace.index[phases.t0 : Teff + 1]
    on_edge = kind == EDGE
    edge_repeats = int((on_edge[1:] & on_edge[:-1] & (index[1:] == index[:-1])).sum())
    ok = bad_phase is None and edge_repeats == 0
    return ok, (
        f"{phases.count} phases from t0={phases.t0}, "
        + ("cyclic order holds" if bad_phase is None else f"order breaks at phase {bad_phase}")
        + f", consecutive same-edge iterates: {edge_repeats} (t <= {Teff})"
    )


@_check("c05-gd-sqrt-regret")
def check_gd_sqrt_regret(store: TrajectoryStore) -> Tuple[bool, str]:
    """Large-stepsize GD regret also grows like sqrt(T)."""
    Ts = _horizons(store.cap)
    worst_ratio, slope = _sqrt_regret_envelope(store.get("gd4_main"), Ts)
    ok = worst_ratio <= 10.0
    if slope is not None:
        ok = ok and slope <= 0.6
        stext = f"slope {slope:.3f}"
    else:
        stext = f"slope fit skipped ({len(Ts)} horizons)"
    return ok, f"max Reg/sqrt(T) = {worst_ratio:.3f}, {stext}"


@_check("c06-energy-monotone")
def check_energy_monotone(store: TrajectoryStore) -> Tuple[bool, str]:
    """Energy never decreases (t >= 1) on any stored trajectory."""
    worst = 0.0
    worst_key = "-"
    ok = True
    for key, traj in store.build_all():
        drops, drop = energy_drops(traj)
        if drop < worst:
            worst = drop
            worst_key = key
        ok = ok and not drops
    return ok, (
        f"{len(store.catalog())} trajectories, worst relative drop {worst:.3g} ({worst_key})"
    )


@_check("c07-energy-ledger-bounds")
def check_energy_ledger_bounds(store: TrajectoryStore) -> Tuple[bool, str]:
    """Every unambiguous step obeys its transition-case energy bound."""
    keys = [f"fp{n}_{r}" for n in (3, 4) for r in _FP_RULES] + ["gd4_main"]
    steps = in_bounds = violations = uncovered = ambiguous = 0
    for key in keys:
        summary = ledger_summary(energy_growth_ledger(store.get(key)))
        steps += summary["steps"]
        in_bounds += summary["in_bounds"]
        violations += summary["violations"]
        uncovered += summary["uncovered"]
        ambiguous += summary["ambiguous"]
    frac = ambiguous / steps if steps else 0.0
    ok = violations == 0 and uncovered == 0 and frac < 1e-3
    return ok, (
        f"{steps} steps over {len(keys)} runs: {in_bounds} in bounds, "
        f"{violations} violations, {uncovered} uncovered, "
        f"{ambiguous} ambiguous ({100 * frac:.4f}%)"
    )


@_check("c08-gd-small-stepsize")
def check_gd_small_stepsize(store: TrajectoryStore) -> Tuple[bool, str]:
    """eta = 1/sqrt(T): interior iterates keep energy and regret bounded; an inapplicable slot fails."""
    traj = store.get("gd3_small")
    verdict = small_stepsize_energy_check(traj)
    if verdict.status == "not_applicable":
        return False, f"NotApplicable: {verdict.reason}"
    ok = verdict.status == "pass"
    return ok, (
        f"energy {verdict.energy_final:.4f} <= {verdict.energy_bound:.2f}, "
        f"Reg {verdict.regret_total:.3f} <= {verdict.regret_bound:.3f} "
        f"(T={traj.horizon})"
    )


@_check("c09-projection-oracle")
def check_projection_oracle(store: TrajectoryStore) -> Tuple[bool, str]:
    """Fast support scan and projection match brute-force enumeration."""
    draws = 1000
    worst_x = worst_e = 0.0
    mismatches = 0
    for n in (3, 4, 5):
        ys = np.random.default_rng(900 + n).uniform(-5.0, 5.0, (draws, n))
        coords, values = oracle.project_rows(ys)
        # One scalar kernel call per draw, compared in one numpy pass per n.
        _, energies, masks, xs = zip(*map(_gd_response, ys.tolist()))
        same = np.array(masks) == (coords > 0) @ (1 << np.arange(n))
        mismatches += int(np.count_nonzero(~same))
        if same.any():
            worst_x = max(worst_x, float(np.abs(np.array(xs, dtype=float) - coords)[same].max()))
            worst_e = max(worst_e, float(np.abs(np.array(energies) - values)[same].max()))
    ok = mismatches == 0 and worst_x <= 1e-10 and worst_e <= 1e-10
    return ok, (
        f"{3 * draws} draws: {mismatches} support mismatches, "
        f"max |dx| = {worst_x:.2e}, max |dE| = {worst_e:.2e}"
    )


@_check("c10-conjugate-gradient")
def check_conjugate_gradient(store: TrajectoryStore) -> Tuple[bool, str]:
    """The primal map is the numerical gradient of the projection energy."""
    per_n = 100
    worst = 0.0
    used = 0
    for n in (3, 4):
        rng = np.random.default_rng(1000 + n)
        accepted = 0
        attempts = 0
        while accepted < per_n and attempts < 100 * per_n:
            attempts += 1
            y = [float(v) for v in rng.uniform(-5.0, 5.0, n)]
            try:
                g = oracle.grad_fd(y)
            except TooCloseToBoundary:
                continue
            accepted += 1
            px = np.array(_gd_response(y)[3])
            worst = max(worst, float(np.abs(g - px).max()))
        used += accepted
    ok = used == 2 * per_n and worst <= 1e-5
    return ok, f"{used} region-interior points: max |grad - Q(y)| = {worst:.2e}"


@_check("c11-dual-subspace")
def check_dual_subspace_confinement(store: TrajectoryStore) -> Tuple[bool, str]:
    """<x*, y^t> stays zero: exactly in rational mode, to rounding in float."""
    parts = []
    ok = True
    for key in ("fp_weighted_exact", "gd3_exact"):
        traj = store.get(key)
        star = interior_nash(traj.matrix).point
        worst = check_dual_subspace(traj, star)
        ok = ok and worst == 0
        parts.append(f"{key}: max |<x*,y>| = {worst}")
    for key in ("fp4_lex", "gd_weighted_float"):
        traj = store.get(key)
        worst = check_dual_subspace(traj, interior_nash(traj.matrix).point)
        bound = 1e-8 * min(traj.horizon, 10**4)
        ok = ok and worst <= bound
        parts.append(f"{key}: {worst:.2e} <= {bound:.0e}")
    return ok, "; ".join(parts)


@_check("c12-regret-identities")
def check_regret_identities(store: TrajectoryStore) -> Tuple[bool, str]:
    """Direct, dual-based, and averaged-gap regret routes coincide; the
    regularizer upper bound always holds."""
    worst_rel = 0.0
    failures = []
    for key, traj in store.build_all():
        rep = regret(traj)
        for name, (holds, gap) in regret_route_gaps(traj, rep).items():
            worst_rel = max(worst_rel, float(gap))
            if not holds:
                failures.append(f"{key}: {name} route off by {float(gap):.2e}")
        if rep.regret_upper is not None:
            holds, slack = regret_bound_slack(traj, rep)
            if not holds:
                failures.append(f"{key}: upper bound violated by {float(-slack):.2e}")
    if failures:
        return False, "; ".join(failures[:4])
    return True, f"{len(store.catalog())} trajectories, max route disagreement {worst_rel:.2e}"


@_check("c13-boundary-invariance")
def check_boundary_invariance(store: TrajectoryStore) -> Tuple[bool, str]:
    """Past the interior energy ceiling, iterates never regain full support; a run never past it fails."""
    parts = []
    ok = True
    for key in ("gd3_boundary", "gd4_boundary"):
        b = boundary_invariance_check(store.get(key))
        ok = ok and b.first_exceed_t is not None and not b.full_support_after_exceed
        if b.first_exceed_t is None:
            parts.append(f"{key}: ceiling never exceeded (vacuous)")
        else:
            parts.append(
                f"{key}: ceiling crossed at t={b.first_exceed_t}, "
                + ("stays boundary" if not b.full_support_after_exceed else "RETURNS interior")
            )
    return ok, "; ".join(parts)


@_check("c14-nash-solver")
def check_nash_solver(store: TrajectoryStore) -> Tuple[bool, str]:
    """Random cyclic games have a strictly interior equilibrium with zero
    residual; the pinned weighted-3-cycle instance matches its known point."""
    draws = 100
    fail_by_n: Dict[int, int] = {}
    for n in range(3, 9):
        rng = np.random.default_rng(1400 + n)
        failures = 0
        for _ in range(draws):
            w = tuple(float(v) for v in rng.uniform(0.5, 5.0, n))
            try:
                res = interior_nash(make_rps(w))
            except SingularSystem:
                failures += 1
                continue
            if not (float(res.residual) <= 1e-12 and min(res.point.coords) > 0):
                failures += 1
        fail_by_n[n] = failures
    known = interior_nash(make_rps((1, 2, 3)))
    expected = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    pin_err = max(
        abs(float(a) - float(b)) for a, b in zip(known.point.coords, expected)
    )
    ok = all(v == 0 for v in fail_by_n.values()) and pin_err <= 1e-12
    per_n = ", ".join(f"n={n}: {v}/{draws} fail" for n, v in fail_by_n.items())
    detail = f"{per_n}; pinned (1,2,3) error {pin_err:.1e}"
    if any(v for n, v in fail_by_n.items() if n % 2 == 0):
        detail += (
            " [even n has no interior equilibrium unless alternating weight "
            "products match, which random draws never do]"
        )
    return ok, detail


def run_suite(
    level: str = "full",
    printer: Optional[Callable[[str], None]] = print,
    store: Optional[TrajectoryStore] = None,
) -> List[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    if store is None:
        store = TrajectoryStore(QUICK_CAP if level == "quick" else FULL_CAP)
    # Build every slot up front, so each check's time is its own.
    t0 = time.perf_counter()
    built = store.build_all()
    if printer is not None:
        printer(f"store: {len(built)} trajectories built in {time.perf_counter() - t0:.2f}s")
    results = []
    for check_id, fn in CHECKS:
        t0 = time.perf_counter()
        res = fn(store, level)
        res.elapsed = time.perf_counter() - t0
        results.append(res)
        if printer is not None:
            tag = "PASS" if res.passed else "FAIL"
            printer(f"[{tag}] {res.check:<28} {res.details}  ({res.elapsed:.2f}s)")
    if printer is not None:
        failed = [r.check for r in results if not r.passed]
        if failed:
            printer(f"{len(failed)}/{len(results)} checks failed: {', '.join(failed)}")
        else:
            printer(f"all {len(results)} checks passed")
    return results
