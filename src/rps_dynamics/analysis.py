"""Trajectory analysis: regions, phases, regret accounting, energy audits.

Everything here is a pure function of a recorded :class:`~.dynamics.Trajectory`.
The dual space decomposes into regions by what the simplex projection does to a
dual vector y:

* ``vertex`` i  — y_i - y_j > 1 for every other j; the projection is e_i;
* ``edge`` i    — |y_i - y_{i+1}| <= 1 and the pair's midpoint clears every
  other coordinate by more than 1/2; the projection lives on the open edge
  between e_i and e_{i+1};
* ``interior``  — the projection has full support;
* ``other_boundary`` — everything else.

``classify_region`` assigns one vector.  A run's ``supports`` column records
its response at every step, so ``region_trace`` reads both learners' regions
off it for phase detection and the ledger; no pass re-derives them.

Phases segment a trajectory into maximal runs at one best-response vertex, and
the energy-growth ledger classifies each dual step against the per-case growth
bounds those regions admit.  In float mode a step whose defining inequalities
sit within ``LEDGER_BAND`` of zero, or whose FP response was a tie the tie
tolerance decided, is tagged ambiguous and excluded from case assertions;
exact-rational trajectories are audited with exact comparisons.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigInvalid,
    NonpositiveRegret,
    NoVertexReached,
    TooFewPhases,
)
from .dynamics import (
    EXACT_CLASS_TOL,
    LEDGER_BAND,
    REL_TOL,
    SMALL_STEP_ENERGY_SLACK,
    SMALL_STEP_ETA_TOL,
    SMALL_STEP_REGRET_SLACK,
    Algorithm,
    Trajectory,
    tolerance,
)
from .game import Number, SimplexPoint, div, duality_gap, over_common_denominator


class RegionKind(str, Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    INTERIOR = "interior"
    OTHER_BOUNDARY = "other_boundary"


# Codes of ``RegionTrace.kind``: position in RegionKind's definition order.
REGION_KINDS: Tuple[RegionKind, ...] = tuple(RegionKind)
VERTEX, EDGE, INTERIOR, OTHER_BOUNDARY = range(len(REGION_KINDS))


@dataclass(frozen=True)
class RegionTag:
    """Region assignment for one dual vector.

    ``min_abs_margin`` is the smallest absolute slack over every
    region-defining inequality and measures distance to the nearest
    classification boundary.
    """

    kind: RegionKind
    index: Optional[int]
    min_abs_margin: Number

    def label(self) -> str:
        if self.index is None:
            return self.kind.value
        return f"{self.kind.value}_{self.index}"


def _slacks(y: Sequence) -> Iterator[Tuple[int, Optional[int], bool, Number]]:
    """Every region-defining inequality on y as (kind code, index, strict,
    slack): the region of that kind and index is where each of its slacks is
    positive (strict) or nonnegative.  ``y`` is a dual vector or the float
    columns of a ``ys`` block; numpy rounds each element as Python rounds the
    scalar, so a row's slacks are its scalar slacks bit for bit.  A slack is
    exact when the coordinates it reads are."""
    n = len(y)
    for i in range(n):
        for j in range(n):
            if j != i:
                yield VERTEX, i, True, y[i] - y[j] - 1
    for i in range(n):
        j = (i + 1) % n
        yield EDGE, i, False, 1 - abs(y[i] - y[j])
        for k in range(n):
            if k != i and k != j:
                yield EDGE, i, True, div(y[i] + y[j] - 2 * y[k] - 1, 2)
    total = reduce(add, y, 0)  # a fold from int 0, scalar or columnwise: never 3.12's compensated sum
    for i in range(n):
        yield INTERIOR, None, False, div(n * y[i] - total + 1, n)


def classify_region(y: Sequence[Number]) -> RegionTag:
    """Assign a dual vector to its region.

    Checks vertex regions first, then edges, then the full-support region; the
    three families are pairwise disjoint, so order only decides how boundary
    points (where a non-strict inequality holds with equality) are labeled.
    The margin has the type of the slack it comes from (see ``_slacks``).
    """
    holds: Dict[Tuple[int, Optional[int]], bool] = {}
    margin: Number = math.inf
    for kind, index, strict, s in _slacks(y):
        holds[kind, index] = holds.get((kind, index), True) and (s > 0 if strict else s >= 0)
        margin = min(margin, abs(s))
    kind, index = next((key for key, held in holds.items() if held), (OTHER_BOUNDARY, None))
    return RegionTag(REGION_KINDS[kind], index, margin)


@dataclass(frozen=True, eq=False)  # array fields: == would be ambiguous
class RegionTrace:
    """Region of every dual vector y^0..y^{T+1} of one run, either learner.

    Row t is the region of the support the run recorded for y^t: the vertex
    fictitious play played, or the active set of the gradient-descent
    projection, which is what ``classify_region`` says of ``traj.y(t)``.
    ``kind`` holds codes into ``REGION_KINDS`` and ``index`` the vertex or
    edge index (-1 where the region has none).  At a float row within
    rounding of a region boundary the two may differ; the trace then names
    the support that was played."""

    kind: np.ndarray
    index: np.ndarray

    def label(self, t: int) -> str:
        kind = REGION_KINDS[self.kind[t]].value
        i = int(self.index[t])
        return kind if i < 0 else f"{kind}_{i}"


def _support_regions(masks: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Region codes and indices of support bitmasks, uint64 or Python ints:
    bit i alone is vertex i, the cyclic pair {i, i+1} edge i, all n bits the
    interior and any other mask other_boundary."""
    kind = np.full(masks.shape, OTHER_BOUNDARY, dtype=np.int8)
    index = np.full(masks.shape, -1, dtype=np.int64)
    kind[masks == (1 << n) - 1] = INTERIOR
    for i in range(n):
        for code, mask in ((VERTEX, 1 << i), (EDGE, 1 << i | 1 << (i + 1) % n)):
            hit = masks == mask
            kind[hit] = code
            index[hit] = i
    return kind, index


def region_trace(traj: Trajectory) -> RegionTrace:
    """The regions of a run, read off its ``supports``; row 0, y^0 = 0, is the
    interior, and a fictitious-play row t >= 1 is the vertex played.  For
    gradient descent, ``find_support`` keeps a coordinate that projects to
    exactly 0, as the non-strict edge and interior tests of
    ``classify_region`` do, so the two agree on every exact row."""
    kind, index = _support_regions(traj.supports, traj.n)
    kind[0], index[0] = INTERIOR, -1
    kind.flags.writeable = index.flags.writeable = False
    return RegionTrace(kind, index)


def _boundary_margin(ys: np.ndarray) -> np.ndarray:
    """The margin ``classify_region`` tags each row of a float ``ys`` with,
    folded in one slack column at a time."""
    margin = np.full(len(ys), np.inf)
    for _, _, _, s in _slacks([ys[:, i] for i in range(ys.shape[1])]):
        np.minimum(margin, np.abs(s), out=margin)
    return margin


# ---------------------------------------------------------------------------
# Regret


@dataclass(frozen=True)
class RegretReport:
    """Regret of the self-play sequence, via several routes.

    ``regret_total`` is the realized regret (2/eta) * max_i y^{T+1}_i (for a
    decreasing-stepsize run it is the equivalent summed-payoff form).
    ``regret_by_energy`` re-expresses it through the dynamic's own energy and
    ``regret_upper`` adds the regularizer width (0 for FP, 1/2 for OGD), giving
    the guaranteed upper bound; both are None for decreasing stepsizes.
    ``duality_gap_avg`` is the gap of the time-averaged iterate, which satisfies
    duality_gap_avg * (T+1) == regret_total exactly.
    """

    regret_total: Number
    regret_by_energy: Optional[Number]
    regret_upper: Optional[Number]
    duality_gap_avg: Number
    average_iterate: SimplexPoint
    per_T_curve: Tuple[Tuple[int, Number], ...]


def regret_at(traj: Trajectory, horizon: int) -> Number:
    """Regret of the run truncated at a shorter horizon.

    Dual iterates of a truncated run coincide with a prefix of the longer run,
    so this reads y^{horizon+1} straight from storage.  Constant stepsize only.
    """
    if traj.config.eta_schedule is not None:
        raise ConfigInvalid("prefix regret needs a constant stepsize")
    if not 0 <= horizon <= traj.horizon:
        raise ValueError(f"horizon {horizon} outside [0, {traj.horizon}]")
    return div(2 * max(traj.y(horizon + 1)), traj.config.eta)


def _curve_horizons(T: int) -> List[int]:
    """Up to 33 log-spaced horizons in [1, T], always ending at T."""
    if T < 1:
        return [0]
    raw = np.unique(
        np.round(np.logspace(0.0, math.log10(T), 33)).astype(int)
    )
    pts = [int(p) for p in raw if 1 <= p <= T]
    if not pts or pts[-1] != T:
        pts.append(T)
    return pts


def regret(traj: Trajectory) -> RegretReport:
    """Full regret accounting for one trajectory."""
    T = traj.horizon
    cfg = traj.config
    is_fp = cfg.algorithm == Algorithm.FICTITIOUS_PLAY
    horizons = _curve_horizons(T)

    if cfg.eta_schedule is not None:
        cum = np.cumsum(traj.payoffs()[0], axis=0)  # over D = 1: schedules are float-only
        total: Number = 2.0 * float(cum[T].max())
        curve = tuple((h, 2.0 * float(cum[h].max())) for h in horizons)
        by_energy: Optional[Number] = None
        upper: Optional[Number] = None
    else:
        eta = cfg.eta
        total = regret_at(traj, T)
        curve = tuple((h, regret_at(traj, h)) for h in horizons)
        H = traj.energy(T + 1)
        by_energy = div(2 * H, eta)
        upper = by_energy if is_fp else div(2 * H + 1, eta)

    X, D = traj.over_common_denominator("xs")  # the numerators' sums over (T+1) D
    avg = SimplexPoint(tuple(div(s, (T + 1) * D) for s in X.sum(axis=0).tolist()))
    gap = duality_gap(traj.matrix, avg)

    return RegretReport(
        regret_total=total,
        regret_by_energy=by_energy,
        regret_upper=upper,
        duality_gap_avg=gap,
        average_iterate=avg,
        per_T_curve=curve,
    )


def fit_regret_slope(curve: Sequence[Tuple[int, Number]]) -> Tuple[float, float]:
    """Least-squares slope and intercept of log10(Reg) against log10(T)."""
    pts = [(t, r) for t, r in curve if t >= 1]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 positive-horizon points, got {len(pts)}")
    for _, r in pts:
        if not r > 0:
            raise NonpositiveRegret(f"cannot take log of regret {r!r}")
    xs = np.log10([float(t) for t, _ in pts])
    ys = np.log10([float(r) for _, r in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# Phases


@dataclass(frozen=True, eq=False)  # array fields: == would be ambiguous
class PhaseSummary:
    """Vertex phases k = 0..count-1 as read-only columns: phase k is the
    maximal run of ``length[k]`` iterates at ``vertex[k]`` from ``t_start[k]``,
    with start energy gamma_k (in the trajectory's column dtype) and c_k =
    ``energy_increased[k]``, False for k = 0.  ``t0`` is ``t_start[0]``."""

    t0: int
    t_start: np.ndarray
    length: np.ndarray
    vertex: np.ndarray
    start_energy: np.ndarray
    energy_increased: np.ndarray

    def __post_init__(self):
        for column in (self.t_start, self.length, self.vertex, self.start_energy,
                       self.energy_increased):
            column.flags.writeable = False

    @property
    def count(self) -> int:
        return len(self.t_start)


def detect_phases(traj: Trajectory) -> PhaseSummary:
    """Segment a trajectory into vertex phases.

    The first phase starts at t0, the first t >= 1 whose iterate sits at a
    vertex.  A phase ends at the first later iterate sitting at a *different*
    vertex; edge or boundary iterates in between extend the current phase.
    The final phase is truncated by the horizon: its length counts through
    iterate T, so lengths plus t0 tile [t0, T] exactly.
    """
    T = traj.horizon
    if T < 1:
        raise NoVertexReached("no iterate beyond the starting point")

    # Iterate t sits at vertex trace.index[t] where its kind is VERTEX; FP
    # iterates t >= 1 all do.
    trace = region_trace(traj)
    at = np.flatnonzero(trace.kind[1 : T + 1] == VERTEX) + 1
    if at.size == 0:
        raise NoVertexReached("no vertex-region iterate found")
    v = trace.index[at]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    t_start = at[starts]
    gamma = traj.energies[t_start]
    tol = tolerance(traj.is_exact, REL_TOL)
    increased = np.zeros(t_start.size, dtype=bool)
    increased[1:] = gamma[1:] > gamma[:-1] + tol * np.maximum(1, np.abs(gamma[:-1]))
    length = np.diff(t_start, append=T + 1)
    return PhaseSummary(int(t_start[0]), t_start, length, v[starts], gamma, increased)


def verify_cycling(phases: PhaseSummary, n: int) -> Optional[int]:
    """None when every phase vertex is its predecessor's cyclic successor;
    otherwise the index of the first offending phase."""
    vertex = phases.vertex
    if vertex.size < 2:
        raise TooFewPhases(f"cycling needs at least 2 phases, got {vertex.size}")
    bad = np.flatnonzero(vertex[1:] != (vertex[:-1] + 1) % n)
    return int(bad[0]) + 1 if bad.size else None


# ---------------------------------------------------------------------------
# Energy-growth ledger


# Codes of ``Ledger.cls``: position in LEDGER_CLASSES; UNCOVERED marks a step
# that matches no tabulated case.
LEDGER_CLASSES: Tuple[str, ...] = (
    "initial", "fp_same", "fp_switch", "gd_vertex_same", "gd_vertex_advance",
    "gd_vertex_to_edge", "gd_edge_to_vertex", "gd_edge_advance",
)
(INITIAL, FP_SAME, FP_SWITCH, GD_VERTEX_SAME, GD_VERTEX_ADVANCE,
 GD_VERTEX_TO_EDGE, GD_EDGE_TO_VERTEX, GD_EDGE_ADVANCE) = range(len(LEDGER_CLASSES))
UNCOVERED = -1

# One ledger case per row, by learner: (class, source and destination
# region, a predicate on the index advance (destination index minus source
# index mod n), the energy-gain bounds given b = eta_t * a_max in b's number
# type, point bound or not, open in exact runs or not).  FP's b is a_max,
# as FP has eta = 1.  Lingering on one edge never happens under a large
# stepsize, so it stays uncovered rather than get an invented bound; so does
# a float step whose bound overflows to inf.
_LEDGER_CASES = {
    Algorithm.FICTITIOUS_PLAY: (
        (FP_SAME, VERTEX, VERTEX, lambda a: a == 0, lambda b: (0, 0), True, False),
        (FP_SWITCH, VERTEX, VERTEX, lambda a: a != 0, lambda b: (0, b), False, False),
    ),
    Algorithm.GRADIENT_DESCENT: (
        (GD_VERTEX_SAME, VERTEX, VERTEX, lambda a: a == 0, lambda b: (0, 0), True, False),
        (GD_VERTEX_ADVANCE, VERTEX, VERTEX, lambda a: a == 1, lambda b: (1, b), False, True),
        (GD_VERTEX_TO_EDGE, VERTEX, EDGE, lambda a: a == 0, lambda b: (0, 1), False, False),
        (GD_EDGE_TO_VERTEX, EDGE, VERTEX, lambda a: (a == 1) | (a == 2),
         lambda b: (0, b * b / Fraction(4)), False, False),
        (GD_EDGE_ADVANCE, EDGE, EDGE, lambda a: a == 1,
         lambda b: (0, b + Fraction(5, 4)), False, False),
    ),
}


@dataclass(frozen=True, eq=False)  # array fields: == would be ambiguous
class Ledger:
    """The audited dual steps y^t -> y^{t+1}, t = 0..T, as read-only columns.

    ``delta`` is the energy gain H(y^{t+1}) - H(y^t); ``cls`` holds codes into
    ``LEDGER_CLASSES``, or ``UNCOVERED`` for a step outside the case table.
    ``lo`` and ``hi`` are the case bounds and ``ok`` says whether delta keeps
    them; rows with ``cls <= INITIAL`` have no bounds (NaN or None) and
    ``ok`` False.  ``delta``, ``lo`` and ``hi`` share the trajectory's column
    dtype.  ``ambiguous`` marks float steps with an end within ``LEDGER_BAND``
    of a region boundary (GD) or whose vertex the tie tolerance chose below
    the maximum (FP).  ``trace`` is the run's region trace, which names the
    ends of an uncovered step.
    """

    delta: np.ndarray
    cls: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ok: np.ndarray
    ambiguous: np.ndarray
    trace: RegionTrace

    def transition(self, t: int) -> str:
        code = int(self.cls[t])
        if code != UNCOVERED:
            return LEDGER_CLASSES[code]
        return f"uncovered:{self.trace.label(t)}->{self.trace.label(t + 1)}"

    def transitions(self) -> np.ndarray:
        """``transition(t)`` of every row, as an object array; uncovered rows
        are named once per distinct pair of end regions."""
        names = np.array(LEDGER_CLASSES, dtype=object).take(self.cls)  # UNCOVERED (-1): patched
        rows = np.flatnonzero(self.cls == UNCOVERED)
        if rows.size:
            # One int64 per region (kind, index), then one per pair of them.
            region = (self.trace.index + 1) * len(REGION_KINDS) + self.trace.kind
            key = region[rows] * (int(region.max()) + 1) + region[rows + 1]
            _, first, pair = np.unique(key, return_index=True, return_inverse=True)
            pair_names = np.array([self.transition(t) for t in rows[first].tolist()], dtype=object)
            names[rows] = pair_names.take(pair)
        return names


def energy_growth_ledger(traj: Trajectory) -> Ledger:
    """Classify every dual step by its end regions in ``region_trace`` and
    check it against its case bound in ``_LEDGER_CASES``.

    FP steps split on whether the played vertex changed: an unchanged vertex
    cannot move the maximum (bound exactly 0), a switch gains at most a_max.
    OGD steps are classified by the source/destination regions: staying on a
    vertex costs nothing; jumping a vertex forward gains in (1, eta*a_max);
    sliding from a vertex onto its edge gains at most 1; leaving an edge for a
    vertex at most (eta*a_max)^2/4; and hopping edge-to-edge at most
    eta*a_max + 5/4.  The step from y^0, the interior for both learners, is
    recorded as "initial" with no bound, since x^0 is chosen by the
    experimenter rather than the dynamics.

    Exact runs compare exactly, and the forward jump's interval is open.
    Float runs allow ``EXACT_CLASS_TOL`` around the point bounds and
    ``LEDGER_BAND`` around the others.
    """
    T = traj.horizon
    cfg = traj.config
    exact = traj.is_exact
    energies = traj.energies
    delta = energies[1:] - energies[:-1]
    cls = np.full(T + 1, UNCOVERED, dtype=np.int8)
    cls[0] = INITIAL
    lo = np.full(T + 1, None, dtype=energies.dtype)  # NaN in a float column
    hi = lo.copy()
    ok = np.zeros(T + 1, dtype=bool)
    ambiguous = np.zeros(T + 1, dtype=bool)
    trace = region_trace(traj)
    src, dst = trace.kind[:-1], trace.kind[1:]
    advance = (trace.index[1:] - trace.index[:-1]) % traj.n

    with np.errstate(over="ignore"):  # a bound past the float range comes out inf
        b = cfg.etas() * traj.matrix.a_max
        for code, src_kind, dst_kind, moves, bounds, point, open_ in _LEDGER_CASES[cfg.algorithm]:
            rows = np.flatnonzero((src == src_kind) & (dst == dst_kind) & moves(advance))
            lo[rows], hi[rows] = bounds(b[rows])
            beyond = hi[rows] == math.inf  # no bound: the step stays uncovered
            lo[rows[beyond]] = hi[rows[beyond]] = np.nan
            rows = rows[~beyond]
            cls[rows] = code
            tol = tolerance(exact, EXACT_CLASS_TOL if point else LEDGER_BAND)
            d, low, high = delta[rows], lo[rows] - tol, hi[rows] + tol
            ok[rows] = (low < d) & (d < high) if open_ and exact else (low <= d) & (d <= high)

    if not exact and cfg.algorithm == Algorithm.FICTITIOUS_PLAY:
        # Step t is ambiguous when y^t or y^{t+1} played below its max.
        ys = traj.ys[1:]
        below = ys[np.arange(T + 1), trace.index[1:]] < ys.max(axis=1)
        ambiguous[1:] = below[:-1] | below[1:]
    elif not exact:  # step t is ambiguous when y^t or y^{t+1} sits within the band
        margins = _boundary_margin(traj.ys)
        ambiguous[1:] = np.minimum(margins[1:-1], margins[2:]) <= LEDGER_BAND
    for column in (delta, cls, lo, hi, ok, ambiguous):
        column.flags.writeable = False
    return Ledger(delta, cls, lo, hi, ok, ambiguous, trace)


def ledger_summary(ledger: Ledger) -> Dict[str, int]:
    """Counts used by reports: audited steps, violations, exclusions.

    An ambiguous step counts as ambiguous and nothing else.
    """
    cls = ledger.cls
    clear = ~ledger.ambiguous
    bounded = clear & (cls > INITIAL)
    initial = int(np.count_nonzero(cls == INITIAL))
    return {
        "steps": cls.size - initial,
        "in_bounds": int(np.count_nonzero(bounded & ledger.ok)),
        "violations": int(np.count_nonzero(bounded & ~ledger.ok)),
        "uncovered": int(np.count_nonzero(clear & (cls == UNCOVERED))),
        "ambiguous": int(np.count_nonzero(ledger.ambiguous)),
        "initial": initial,
    }


# ---------------------------------------------------------------------------
# Subspace, boundary, and small-stepsize checks


def check_dual_subspace(traj: Trajectory, star: SimplexPoint) -> Number:
    """max over t of |<x*, y^t>|; the dual walk never leaves the hyperplane
    orthogonal to an interior equilibrium, so this is rounding noise (exactly
    zero in rational mode).  x* is taken in the run's dtype: a float run
    rounds it to float64, and an exact run reads a float coordinate as its
    exact binary value.  The products are taken over common denominators,
    y^t = Y/D_y and x* = S/D_*, and the largest is divided once by D_y D_*."""
    if star.n != traj.n:
        raise ConfigInvalid(f"equilibrium has dimension {star.n}, game {traj.n}")
    Y, Dy = traj.over_common_denominator("ys")
    S, Ds = over_common_denominator(np.array(star.coords, dtype=traj.ys.dtype))
    return div(max(np.abs(Y @ S).tolist()), Dy * Ds)


@dataclass(frozen=True)
class BoundaryInvariance:
    """Empirical audit of the one-way interior -> boundary passage.

    ``first_exceed_t`` is the first boundary iterate whose energy tops every
    energy ever seen at a full-support iterate of the same run (if no iterate
    t >= 1 has full support, the first boundary iterate counts as exceeding).
    ``full_support_after_exceed`` reports whether any later iterate regained
    full support — the dynamics say it never should.
    """

    first_exceed_t: Optional[int]
    full_support_after_exceed: bool


def boundary_invariance_check(traj: Trajectory) -> BoundaryInvariance:
    if traj.config.algorithm != Algorithm.GRADIENT_DESCENT:
        raise ConfigInvalid("boundary invariance is a gradient-descent property")
    T = traj.horizon
    full = region_trace(traj).kind[1 : T + 1] == INTERIOR
    energies = traj.energies[1 : T + 1]
    exceed = ~full
    if full.any():
        exceed &= energies > energies[full].max()
    hits = np.flatnonzero(exceed)
    if hits.size == 0:
        return BoundaryInvariance(None, False)
    first = int(hits[0])
    return BoundaryInvariance(first + 1, bool(full[first + 1 :].any()))


@dataclass(frozen=True)
class SmallStepVerdict:
    status: str                 # "pass" | "fail" | "not_applicable"
    reason: str
    energy_final: Optional[float] = None
    energy_bound: Optional[float] = None
    regret_total: Optional[float] = None
    regret_bound: Optional[float] = None


def small_stepsize_energy_check(traj: Trajectory) -> SmallStepVerdict:
    """Audit the eta = 1/sqrt(T) regime: while every iterate keeps full
    support, the final energy stays below n*a_max^2/2 and regret below
    sqrt(T)*(n*a_max^2/2 + 1)."""
    cfg = traj.config
    if cfg.algorithm != Algorithm.GRADIENT_DESCENT:
        raise ConfigInvalid("small-stepsize audit applies to gradient descent")
    T = traj.horizon
    if T >= 1:
        if cfg.eta_schedule is not None or abs(float(cfg.eta) * math.sqrt(T) - 1.0) > SMALL_STEP_ETA_TOL:
            return SmallStepVerdict(
                "not_applicable", f"stepsize {cfg.eta!r} is not 1/sqrt({T})"
            )
    outside = np.flatnonzero(region_trace(traj).kind[1 : T + 1] != INTERIOR)
    if outside.size:
        return SmallStepVerdict(
            "not_applicable", f"iterate at t={int(outside[0]) + 1} is not interior"
        )
    n = traj.n
    a_max = float(traj.matrix.a_max)
    bound_e = n * a_max * a_max / 2.0
    e_final = float(traj.energy(T + 1))
    ok = e_final <= bound_e + SMALL_STEP_ENERGY_SLACK
    if T == 0:
        return SmallStepVerdict(
            "pass" if ok else "fail",
            "single dual step; regret bound not evaluated",
            energy_final=e_final,
            energy_bound=bound_e,
        )
    reg = float(regret_at(traj, T))
    bound_r = math.sqrt(T) * (bound_e + 1.0) + SMALL_STEP_REGRET_SLACK
    ok = ok and reg <= bound_r
    return SmallStepVerdict(
        "pass" if ok else "fail",
        "all iterates interior",
        energy_final=e_final,
        energy_bound=bound_e,
        regret_total=reg,
        regret_bound=bound_r,
    )
