"""Primal-dual learning dynamics over a cyclic game.

Both learners share a single dual update on accumulated payoffs,

    y^0 = 0,    y^{t+1} = y^t + eta * A x^t,

and differ only in the primal response to the dual vector:

* fictitious play (FP, eta = 1) plays a best-response vertex, breaking argmax
  ties with a pluggable rule;
* online gradient descent (OGD, lazy / dual-averaging form) plays the Euclidean
  projection of y onto the simplex, which is a uniform shift on an active
  support set.

Each dynamic carries a natural energy in dual space: max_i y_i for FP, and for
OGD the optimal value of max_{x in simplex} <x, y> - |x|^2 / 2.  Trajectories
record primals, duals, energies, and supports so the analysis module can audit
energy growth, regions, and regret.

Arithmetic is generic over float64 and exact rationals, and the number type
carries the mode (see ``game``): ``run`` fixes it once, converting x0 and the
weights per the config, and each kernel reads it off the values it is given.
In exact mode every stored quantity is an int or ``fractions.Fraction``,
comparisons are exact, and a bit budget guards against denominator blowup.
The exact kernels, the GD response and the vertex block, compute in Python
ints, on numerators over one common denominator (``game.numerators``), and
form each Fraction they store once.

The gradient-descent response is one kernel, ``_gd_response``: one pass per
dual row gives the projection's support, energy, bitmask and coordinates.  Its
sums are explicit left-to-right folds from int 0, never the builtin ``sum``
(compensated on floats since Python 3.12), and its squares are IEEE products,
never libm's ``pow``; so its bytes depend on neither.

``run`` takes the steps of a vertex segment in blocks of predicted length,
where every step adds d = eta A e_i.  It is zero but at the two neighbours of
i, so in both modes a block is (y, d, length): it forms only its two moving
columns, and the rising one decides where it stops.
"""

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ArithmeticOverflow,
    ConfigInvalid,
    DimensionMismatch,
    ProjectionInfeasible,
)
from .game import Number, RpsMatrix, SimplexPoint, all_exact, div, is_exact, numerators, over_common_denominator

# Numeric tolerances of float runs.  Exact-rational runs compare exactly: every
# tolerance below is 0 for them (see ``tolerance``); a run picks its mode once,
# from its config.  Per-check acceptance bounds stay with their checks.
TIE_TOL = 1e-9            # FP: coordinates this close to the max tie for argmax
PROJECTION_CLAMP = 1e-12  # GD: round-off negatives down to -this project to 0
LEDGER_BAND = 1e-9        # ledger: ambiguous-margin band and slack on bounds
EXACT_CLASS_TOL = 1e-12   # ledger: slack on bounds that are a single point
REL_TOL = 1e-9            # relative slack of identities and energy monotonicity
# The small-stepsize audit works in floats in both modes: how far eta sqrt(T)
# may be from 1, and the absolute slack on its energy and regret bounds.
SMALL_STEP_ETA_TOL = 1e-9
SMALL_STEP_ENERGY_SLACK = 1e-9
SMALL_STEP_REGRET_SLACK = 1e-6
# GD blocks: a float row stays in vertex i's region only while
# y_i - max_{j != i} y_j - 1 > GD_VERTEX_MARGIN * n^2 * max(1, |y|_inf).
# find_support's drop tests round by at most (n^2 + 3.5n) eps max(1, |y|_inf)
# and the gap itself by 3 eps max(1, |y|_inf), eps = 2^-52; for n >= 3 this
# margin covers both, so every row it keeps projects onto (i,).  A block's
# columns are constant or monotone, so it reads |y|_inf off its first and
# last rows, and max_{j != i} y_j as the larger of the rising column and row
# 1's other cells: no smaller than any of its rows' own.
GD_VERTEX_MARGIN = 4 * 2.0**-52

# Block stepping in ``run``: rows per block, and the shortest block worth its
# numpy calls.
MAX_BLOCK = 4096
MIN_BLOCK = 8


def tolerance(exact: bool, tol: float) -> Number:
    """The float tolerance ``tol``, or 0 for exact arithmetic."""
    return 0 if exact else tol


def _member(enum, value, field: str):
    """``value`` as a member of ``enum``: a member, or a member's value such
    as ``"fp"``.  Anything else raises ConfigInvalid."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigInvalid(f"{field} must be one of {[m.value for m in enum]}, got {value!r}") from None


class Algorithm(str, Enum):
    FICTITIOUS_PLAY = "fp"
    GRADIENT_DESCENT = "gd"


class Arithmetic(str, Enum):
    FLOAT64 = "float"
    EXACT_RATIONAL = "rational"


class TiebreakKind(str, Enum):
    LEXICOGRAPHIC = "lexicographic"
    TOURNAMENT = "tournament"
    RANDOM_SEEDED = "random_seeded"
    PREFER_INCUMBENT = "prefer_incumbent"
    PREFER_SWITCH = "prefer_switch"


@dataclass(frozen=True)
class TiebreakRule:
    """Selects a best-response vertex among argmax-tied coordinates.

    ``seed`` is required for (and only for) the seeded random rule; selection
    there depends only on (seed, step index), so replays are deterministic
    across platforms and processes.
    """

    kind: TiebreakKind = TiebreakKind.LEXICOGRAPHIC
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _member(TiebreakKind, self.kind, "tiebreak kind"))
        if self.seed is not None and (not isinstance(self.seed, int) or isinstance(self.seed, bool)):
            raise ConfigInvalid(f"tiebreak seed must be an int, got {self.seed!r}")
        if self.kind == TiebreakKind.RANDOM_SEEDED:
            if self.seed is None:
                raise ConfigInvalid("random_seeded tiebreak needs a seed")
        elif self.seed is not None:
            raise ConfigInvalid(f"seed is only meaningful for random_seeded, not {self.kind.value}")

    def select(
        self,
        tied: Sequence[int],
        incumbent: Optional[int],
        n: int,
        step: int = 0,
    ) -> int:
        """Pick one index from the (ascending) tied set."""
        if not tied:
            raise ValueError("empty tie set")
        if len(tied) == 1:
            return tied[0]
        kind = self.kind
        if kind == TiebreakKind.LEXICOGRAPHIC:
            return tied[0]
        if kind == TiebreakKind.RANDOM_SEEDED:
            rng = random.Random(f"{self.seed}:{step}")
            return rng.choice(list(tied))
        if kind == TiebreakKind.PREFER_INCUMBENT:
            if incumbent is not None and incumbent in tied:
                return incumbent
            return tied[0]
        if kind == TiebreakKind.PREFER_SWITCH:
            others = [i for i in tied if i != incumbent]
            return others[0] if others else tied[0]
        return self._tournament(tied, incumbent, n)  # TOURNAMENT, the one kind left

    @staticmethod
    def _tournament(tied: Sequence[int], incumbent: Optional[int], n: int) -> int:
        # A tie between cyclically adjacent actions goes to the one that beats
        # the other (the cyclic successor); this is what conserves the FP
        # energy once the best-response cycle is underway.
        if len(tied) == 2:
            a, b = tied
            if (b - a) % n == 1:
                return b
            if (a - b) % n == 1:
                return a
        if incumbent is not None:
            members = set(tied)
            for d in range(1, n + 1):
                c = (incumbent + d) % n
                if c in members:
                    return c
        return tied[0]


def _support_scan(y: Sequence[Number], D: Optional[int] = None) -> Tuple[Tuple[int, ...], int, Number]:
    """Active set of the Euclidean projection of y onto the simplex, as
    ascending indices and as a bitmask, and the scan's running total.

    Starts from all coordinates and repeatedly drops the current argmin (lowest
    index on ties) while its projected value y_i - mean_S(y) + 1/|S| would be
    negative.  Every surviving coordinate then projects to a nonnegative value.
    The drop tests read a running total: a fold of y from int 0, less each
    dropped value.  With ``D``, y holds the int numerators Y of an exact row
    over D, and the test is its exact form times m D > 0, m Y_i - sum Y + D < 0:
    scaling a row by D keeps its order and its ties.
    """
    n = len(y)
    order = sorted(range(n), key=y.__getitem__)  # stable: lowest index first on ties
    total = reduce(add, y, 0)
    mask = (1 << n) - 1
    m = n
    while m > 1:  # a lone coordinate projects to 1, however y rounds
        i = order[n - m]
        yi = y[i]
        if not (yi - total / m + 1.0 / m < 0 if D is None else m * yi - total + D < 0):
            break
        total -= yi
        mask -= 1 << i
        m -= 1
    return (tuple(sorted(order[n - m:])) if m < n else tuple(range(n))), mask, total


def _exact_row(y: Sequence[Number]) -> Tuple[Sequence[Number], Optional[int]]:
    """An exact row as its ``numerators`` over one D; any other row, one
    that holds a float, as it is, with D None.  The mode is read off the
    pass that forms the numerators, and a float first cell decides at once,
    so a float row pays one type test."""
    if type(y[0]) is not float:
        try:
            return numerators(y)
        except KeyError:  # a float further on
            pass
    return y, None


def find_support(y: Sequence[Number]) -> Tuple[int, ...]:
    """Active set of the Euclidean projection of y onto the simplex, as
    ascending indices (see ``_support_scan``)."""
    return _support_scan(*_exact_row(y))[0]


def _gd_response(y: Sequence[Number], primal: bool = True,
                 ) -> Tuple[Tuple[int, ...], Number, int, Optional[List[Number]]]:
    """The gradient-descent response to a dual vector in one pass: the
    projection's support S, its energy, the support's bitmask, and, with
    ``primal``, the projection x itself (else None).

    An exact row is scanned as its numerators Y over one D (``_exact_row``),
    and the scan's running total is then S's sum; any other row is scanned
    as it is, and S's sum is a fresh fold over S in index order (the scan's
    own fold when it drops nothing).  With mu = mean_S(y), the energy is

        sum_{j in S} (y_j - mu)^2 / 2  +  mu  -  1 / (2m),    m = |S|,

    in deviation form, so that large duals with small spread keep the
    spread.  x is int 0 off S.  When y is exact on S (a float row's values
    on S are then taken as numerators too), the energy and x_i = y_i + (1 -
    sum_S y) / m are Fractions, each formed once from Python ints: with s
    the sum of Y over S, the energy is (sum_S (m Y_j - s)^2 + (2s - D) m D)
    / (2 m^2 D^2) and x_i = (m Y_i + D - s) / (m D).  Otherwise they are
    floats.  The squares d * d are folded from int 0, and a finite d whose
    square overflows raises ArithmeticOverflow.  Float x_i are formed from
    pairwise differences of dual values (exact when the values are close)
    rather than subtracting a large mean from a large value; round-off
    negatives up to ``PROJECTION_CLAMP`` are clamped to zero, and anything
    lower raises ProjectionInfeasible.
    """
    on, D = _exact_row(y)
    support, mask, total = _support_scan(y) if D is None else _support_scan(on, D)
    m = len(support)
    if m < len(y):
        on = [on[j] for j in support]
        if D is None:  # y may still be exact on S
            on, D = _exact_row(on)
            total = reduce(add, on, 0)
    if D is not None:
        mD = m * D
        dev = 0
        for v in on:
            d = m * v - total
            dev += d * d
        energy = Fraction(dev + (2 * total - D) * mD, 2 * mD * mD)
        if not primal:
            return support, energy, mask, None
        x: List[Number] = [0] * len(y)
        for i, v in zip(support, on):
            x[i] = Fraction(m * v + D - total, mD)
        return support, energy, mask, x
    mu = total / m
    dev = 0
    for v in on:
        d = v - mu
        dev += d * d
    if not dev < math.inf and any(math.isfinite(d) and d * d == math.inf for d in [v - mu for v in on]):
        raise ArithmeticOverflow("float state overflowed: the square of a finite deviation")
    energy = dev / 2 + mu - 1.0 / (2 * m)
    if not primal:
        return support, energy, mask, None
    x = [0] * len(y)
    inv_m = 1.0 / m
    for i, yi in zip(support, on):
        s = 0.0
        for v in on:
            s += yi - v
        c = s * inv_m + inv_m
        if c < 0.0:
            if c < -PROJECTION_CLAMP:
                raise ProjectionInfeasible(
                    f"projection coordinate {i} is {c!r} on support {support}, "
                    f"below -{PROJECTION_CLAMP:g}"
                )
            c = 0.0
        x[i] = c
    return support, energy, mask, x


def gd_primal(y: Sequence[Number]) -> SimplexPoint:
    """Euclidean projection of a dual vector onto the simplex."""
    return SimplexPoint(tuple(_gd_response(y)[3]))


def fp_primal(
    y: Sequence[Number],
    rule: Optional[TiebreakRule] = None,
    incumbent: Optional[int] = None,
    tol: Optional[Number] = None,
    step: int = 0,
) -> int:
    """Index of the best-response vertex for a dual vector.

    ``tol`` widens the argmax tie set to all coordinates within tol of the
    maximum (defaults: 0 for exact inputs, ``TIE_TOL`` for floats).  ``step``
    feeds the seeded random rule.
    """
    if rule is None:
        rule = TiebreakRule(TiebreakKind.LEXICOGRAPHIC)
    top = max(y)
    if tol is None:
        tol = tolerance(all_exact(y), TIE_TOL)
    tied = [i for i, v in enumerate(y) if v >= top - tol]
    return rule.select(tied, incumbent=incumbent, n=len(y), step=step)


def energy_fp(y: Sequence[Number]) -> Number:
    """Best-response energy: the largest accumulated payoff."""
    return max(y)


def energy_gd(y: Sequence[Number]) -> Number:
    """Projection energy: value of max_{x in simplex} <x, y> - |x|^2 / 2 (see
    ``_gd_response``).  It is a Fraction when y is exact on the active set, and
    a float otherwise."""
    return _gd_response(y, primal=False)[1]


@dataclass(frozen=True)
class LearnerConfig:
    """Everything needed to reproduce one run.

    FP always uses eta = 1 (its dual update is the raw payoff sum).  The
    optional ``eta_schedule="inv_sqrt_t"`` replaces the constant stepsize for
    OGD in float mode: the update producing y^s uses 1/sqrt(s).
    """

    algorithm: Algorithm
    horizon: int
    x0: SimplexPoint
    eta: Number = 1
    tiebreak: Optional[TiebreakRule] = None
    arithmetic: Arithmetic = Arithmetic.FLOAT64
    tie_tolerance: Optional[Number] = None
    bit_budget: int = 4096
    eta_schedule: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "algorithm", _member(Algorithm, self.algorithm, "algorithm"))
        object.__setattr__(self, "arithmetic", _member(Arithmetic, self.arithmetic, "arithmetic"))
        if not isinstance(self.horizon, int) or isinstance(self.horizon, bool) or self.horizon < 0:
            raise ConfigInvalid(f"horizon must be a nonnegative int, got {self.horizon!r}")
        if not isinstance(self.x0, SimplexPoint):
            raise ConfigInvalid(f"x0 must be a SimplexPoint, got {self.x0!r}")
        if not isinstance(self.tiebreak, (TiebreakRule, type(None))):
            raise ConfigInvalid(f"tiebreak must be a TiebreakRule or None, got {self.tiebreak!r}")
        # Here and for tie_tolerance, not math.isfinite: it overflows on
        # Fractions beyond the float range.
        if isinstance(self.eta, bool) or not 0 < self.eta < math.inf:
            raise ConfigInvalid(f"eta must be a positive finite number, got {self.eta!r}")
        if self.eta_schedule not in (None, "inv_sqrt_t"):
            raise ConfigInvalid(f"unknown eta_schedule {self.eta_schedule!r}")
        if self.algorithm == Algorithm.FICTITIOUS_PLAY:
            if self.eta != 1:
                raise ConfigInvalid("fictitious play runs with eta = 1")
            if self.eta_schedule is not None:
                raise ConfigInvalid("eta_schedule applies to gradient descent only")
        else:
            if self.tiebreak is not None:
                raise ConfigInvalid("tiebreak rules apply to fictitious play only")
            if self.tie_tolerance is not None:
                raise ConfigInvalid("tie_tolerance applies to fictitious play only")
        tie_tol = self.tie_tolerance
        if tie_tol is not None and (isinstance(tie_tol, bool) or not 0 <= tie_tol < math.inf):
            raise ConfigInvalid(f"tie_tolerance must be a nonnegative finite number, got {tie_tol!r}")
        if not isinstance(self.bit_budget, int) or self.bit_budget < 16:
            raise ConfigInvalid(f"bit_budget must be an int >= 16, got {self.bit_budget!r}")
        if self.arithmetic == Arithmetic.EXACT_RATIONAL:
            if not all_exact((self.eta, *self.x0.coords, 0 if tie_tol is None else tie_tol)):
                raise ConfigInvalid("rational mode needs an exact eta, x0 and tie tolerance (int or Fraction)")
            if tie_tol not in (None, 0):
                raise ConfigInvalid("rational mode breaks ties exactly; tie_tolerance must be unset or 0")
            if self.eta_schedule is not None:
                raise ConfigInvalid("eta_schedule is float-only (1/sqrt(t) is irrational)")
        else:
            try:  # float() overflows on an int or Fraction past the float range
                eta, _ = float(self.eta), float(tie_tol or 0)
            except OverflowError:
                raise ConfigInvalid("float mode needs an eta and tie tolerance within the float range") from None
            if eta == 0:  # and underflows on a positive Fraction below it
                raise ConfigInvalid(f"float mode needs an eta that stays positive as a float, got {self.eta!r}")

    @property
    def is_exact(self) -> bool:
        return self.arithmetic == Arithmetic.EXACT_RATIONAL

    @property
    def effective_tiebreak(self) -> TiebreakRule:
        return self.tiebreak if self.tiebreak is not None else TiebreakRule()

    @property
    def effective_tie_tolerance(self) -> Number:
        if self.tie_tolerance is not None:
            return self.tie_tolerance
        return tolerance(self.is_exact, TIE_TOL)

    def etas(self) -> np.ndarray:
        """Stepsize of the update producing y^{t+1}, t = 0..horizon, as one
        column (object if exact)."""
        if self.eta_schedule == "inv_sqrt_t":
            return 1.0 / np.sqrt(np.arange(1, self.horizon + 2))
        return np.full(self.horizon + 1, self.eta, dtype=object if self.is_exact else float)


def _check_bits(values: Sequence[Number], budget: int, step: int) -> None:
    for v in values:  # an int is its own numerator, over 1
        if v.numerator.bit_length() > budget or v.denominator.bit_length() > budget:
            raise ArithmeticOverflow(f"rational state exceeded {budget} bits at step {step}")


@dataclass(frozen=True, eq=False)  # array fields: == would be ambiguous
class Trajectory:
    """A recorded run: primals x^0..x^T, duals y^0..y^{T+1}, energies, supports.

    Both arithmetic modes store the same numpy columns, read-only: ``xs``
    (T+1, n), ``ys`` (T+2, n) and ``energies`` (T+2,) are float64 for float
    runs and dtype=object for exact runs, where they hold the very int and
    ``Fraction`` values the run produced.  ``supports`` (T+2,) holds bitmasks
    (bit i = coordinate i): supp(x^0) at t = 0, then the response to y^t, the
    chosen vertex (FP) or the projection's active set (OGD); row T+1 is the
    closing response, decided but never played.  ``matrix`` is the game in the
    run's number type.  ``x``, ``y`` and ``energy`` return Python numbers; the
    ``*_array`` views are float64 in both modes.  A column whose shape does
    not fit ``config.horizon`` and ``matrix.n`` raises ``DimensionMismatch``.
    """

    config: LearnerConfig
    matrix: RpsMatrix
    xs: np.ndarray
    ys: np.ndarray
    energies: np.ndarray
    supports: np.ndarray

    def __post_init__(self):
        T, n = self.config.horizon, self.matrix.n
        shapes = {"xs": (T + 1, n), "ys": (T + 2, n), "energies": (T + 2,), "supports": (T + 2,)}
        for name, shape in shapes.items():
            column = getattr(self, name)
            if column.shape != shape:
                raise DimensionMismatch(f"{name} has shape {column.shape}, expected {shape}")
            column.flags.writeable = False

    @property
    def is_exact(self) -> bool:
        return self.config.is_exact

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def n(self) -> int:
        return self.matrix.n

    def x(self, t: int) -> Tuple[Number, ...]:
        return tuple(self.xs[t].tolist())

    def y(self, t: int) -> Tuple[Number, ...]:
        return tuple(self.ys[t].tolist())

    def energy(self, t: int) -> Number:
        return self.energies.item(t)

    def support_mask(self, t: int) -> int:
        return int(self.supports[t])

    def support(self, t: int) -> Tuple[int, ...]:
        mask = self.support_mask(t)
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    def payoffs(self) -> Tuple[np.ndarray, int]:
        """The (T+1, n) payoff rows A x^t as ``(P, D)``, numerators over D =
        D_w D_x: ``RpsMatrix.apply`` on the numerators of the weights, in the
        column dtype, and of the columns of ``xs``.  P is Python ints in an
        exact run, and in a float run the rows it stepped with, over D = 1.
        Formed on the first call, read-only."""
        return self._payoffs

    @cached_property
    def _payoffs(self) -> Tuple[np.ndarray, int]:
        W, Dw = over_common_denominator(np.array(self.matrix.weights, dtype=self.xs.dtype))
        X, Dx = self.over_common_denominator("xs")
        P = np.stack(RpsMatrix(W.tolist()).apply(X.T), axis=1)
        P.flags.writeable = False
        return P, Dw * Dx

    def over_common_denominator(self, name: str) -> Tuple[np.ndarray, int]:
        """The column ``name`` ("xs", "ys" or "energies") as
        ``game.over_common_denominator`` gives it: a float run's as it is, over
        D = 1.  Fictitious play from int weights, x0 and eta forms every cell
        by int sums and products, never a division, so its columns too come
        back as they are, over D = 1, with no scan of their cells."""
        column = getattr(self, name)
        inputs = (*self.matrix.weights, *self.config.x0.coords, self.config.eta)
        if self.config.algorithm == Algorithm.FICTITIOUS_PLAY and all(type(v) is int for v in inputs):
            return column, 1
        return over_common_denominator(column)

    @property
    def xs_array(self) -> np.ndarray:
        """(T+1, n) float array of primal iterates."""
        return self.xs.astype(float, copy=False)

    @property
    def ys_array(self) -> np.ndarray:
        """(T+2, n) float array of dual iterates."""
        return self.ys.astype(float, copy=False)

    @property
    def energies_array(self) -> np.ndarray:
        return self.energies.astype(float, copy=False)


def _check_block_bits(L: int, ends: List[Tuple[int, int]], columns: List[list], budget: int, t: int) -> None:
    """Raise where the scalar steps t, t+1, ... would if a cell of a block's
    moving ``columns`` passes the bit budget; its other columns hold values
    the step before it checked.

    Column m's cells are numerators over L from ``ends[m]``, the first and
    the last: they are monotone, so each cell's reduced numerator is at most
    the larger end and its denominator divides L.  Only when a bound passes
    the budget are the rows scanned.
    """
    if L.bit_length() > budget or any(max(map(abs, pair)).bit_length() > budget for pair in ends):
        for k, cells in enumerate(zip(*columns)):
            _check_bits(cells, budget, t + k)


def _progression(y0: Number, d: Number, P: int, Q: int, L: int, count: int) -> List[Number]:
    """y0 + k d for k = 1..count in the type of y0 + d: ints, or Fractions
    (P + k Q) / L, with y0 = P / L and d = Q / L."""
    if type(y0) is int and type(d) is int:
        return list(range(y0 + d, y0 + (count + 1) * d, d))
    return [Fraction(c, L) for c in range(P + Q, P + (count + 1) * Q, Q)]


def _block_length(y: Sequence[Number], v: Sequence[Number], i: int, eta_t: Number,
                  tol: Optional[Number], cap: int) -> int:
    """The steps a block from the dual ``y`` at vertex i, with payoffs ``v``,
    may take: at most ``cap``, and none past the one where y_j, j = i+1,
    rising by eta_t v_j, is predicted to reach y_i - c, c the tie tolerance
    ``tol`` (FP) or 1 (GD, ``tol`` None).  The quotient is exact on ints and
    Fractions, and the float quotient, truncated, on floats."""
    j = (i + 1) % len(y)
    rate = eta_t * v[j]
    gap = y[i] - y[j] - 1 if tol is None else y[i] - tol - y[j]
    if rate > 0 and gap < rate * cap:
        return int(div(gap, rate)) + 1 if gap > 0 else 0
    return cap


def _vertex_block(config: LearnerConfig, etas: List[Number], v: List[Number], y: List[Number], i: int, t: int,
                  length: int) -> Tuple[int, List[Number], Sequence[Number], Sequence[Number], Number]:
    """The block of at most ``length`` steps from step t at the vertex i of
    x^t, with payoffs ``v``: how many steps keep i, row 1, the rising and
    falling columns (their first rows are the block's) and the energy.

    d = eta A e_i is 0 but at j = i+1 and p = i-1, so every other column
    holds row 1's value, and the rising column stops the block once row 1's
    other cells are below c = y_i - tol, tol the tie tolerance (FP) or 1
    (GD).  Exact blocks decide in ints, on the ``numerators`` of y, d_j and
    d_p over one L: they stop after ceil((c - y_j) / d_j) - 1 rows and form
    j and p as progressions.  Float blocks form j and p by one
    ``np.add.accumulate``, the scalar steps' sums, and stop at one search for
    c (FP) or at ``GD_VERTEX_MARGIN``'s bound (GD); a non-finite row 1 raises
    ArithmeticOverflow.  The scalar step takes the row where a block stops.
    """
    n = len(y)
    is_fp = config.algorithm == Algorithm.FICTITIOUS_PLAY
    eta_t = etas[t]
    j, p = (i + 1) % n, (i - 1) % n
    if is_exact(eta_t):  # an exact run: eta is constant and the tie tolerance 0
        steps = (eta_t * v[j], eta_t * v[p])
        (*Y, R, Q), L = numerators((*y, *steps))
        c = Y[i] if is_fp else Y[i] - L
        gap = c - Y[j]
        rest = max([Y[p] + Q] + [Y[m] for m in range(n) if m not in (i, j, p)])  # row 1 off i and j
        taken = min(length, -(-gap // R) - 1) if rest < c else 0
        starts = ((Y[j], R), (Y[p], Q))
        rise, fall = moving = [_progression(y[m], dm, P, Q, L, taken) for m, dm, (P, Q) in zip((j, p), steps, starts)]
        _check_block_bits(L, [(P + Q, P + taken * Q) for P, Q in starts], moving, config.bit_budget, t)
        # Row 1 off j and p is y_m + eta 0 = y_m, of y_m's type: an int y_m
        # has only had int steps, so eta and the weights by m are ints.  A
        # one-coordinate support has energy_gd y_i - 1/2.
        return taken, y, rise, fall, y[i] if is_fp else y[i] - Fraction(1, 2)
    first = [ym + eta_t * vm for ym, vm in zip(y, v)]
    rest = max(first[m] for m in range(n) if m != i and m != j)
    c = first[i] - (config.effective_tie_tolerance if is_fp else 1)
    if not all(map(math.isfinite, first)):
        raise ArithmeticOverflow("float dual state overflowed to inf or nan")
    pair = np.empty((2, length + 1))
    if config.eta_schedule is None:
        pair[0], pair[1] = eta_t * v[j], eta_t * v[p]
    else:
        pair[:, 1:] = np.multiply.outer((v[j], v[p]), etas[t:t + length])
    pair[0, 0], pair[1, 0] = y[j], y[p]
    rise, fall = np.add.accumulate(pair, axis=1)[:, 1:]  # an inf row fails below
    if is_fp:
        taken = int(np.searchsorted(rise, c)) if rest < c else 0
    else:
        scale = max(1.0, *map(abs, first), abs(rise[-1]), abs(fall[-1]))
        gaps = first[i] - np.maximum(rise, rest) - 1
        taken = int(np.count_nonzero(gaps > GD_VERTEX_MARGIN * (n * n) * scale))
    return taken, first, rise, fall, first[i] if is_fp else first[i] - 0.5


def _tile(column: np.ndarray, start: int, stop: int) -> None:
    """Fill the rows of ``column`` from ``stop`` on with rows start..stop-1,
    repeated."""
    rows = len(column) - stop
    reps = (rows // (stop - start) + 1,) + (1,) * (column.ndim - 1)
    column[stop:] = np.tile(column[start:stop], reps)[:rows]


def _simulate(config: LearnerConfig, matrix: RpsMatrix, blocks: bool) -> Trajectory:
    """The run of ``config`` on ``matrix``: ``run`` with ``blocks``,
    ``oracle.run_stepwise`` without.

    Scalar step t writes x^t to row t of ``xs``, forms y^{t+1} = y^t + eta_t
    A x^t, and writes it and its response to row t+1 of the other columns.
    A x^t is formed once per primal iterate, when the step picks x, and
    serves both the next dual update and a block.  With ``blocks``, a step
    whose response is a vertex predicts the block after it (``_block_length``)
    and forms it (``_vertex_block``) when it reaches ``MIN_BLOCK`` rows.  This
    loop writes every row: a scalar step's, a block's and a closed orbit's.

    With ``blocks``, fictitious play under a rule that reads only (y,
    incumbent), every rule but ``random_seeded``, also closes its orbit:
    each row where the vertex switches is keyed by its state, and once a
    state recurs, rows r1 and r2, every later row repeats rows r1..r2-1 and
    is tiled from them.  Inside a vertex segment y changes at every step, so
    every orbit passes through a switch row.  The keys of one energy level
    are dropped when the energy moves, which keeps them few on runs whose
    energy keeps rising.
    """
    n = matrix.n
    if config.x0.n != n:
        raise DimensionMismatch(f"x0 has dimension {config.x0.n}, game has {n}")
    exact = config.is_exact
    if exact and not matrix.exact:
        raise ConfigInvalid("rational mode needs exact game weights (int or Fraction)")

    T = config.horizon
    number = (lambda v: v) if exact else float
    try:
        game = RpsMatrix(tuple(number(w) for w in matrix.weights))
    except OverflowError:
        raise ConfigInvalid("float mode needs weights within the float range") from None
    x: List[Number] = [number(c) for c in config.x0.coords]
    y: List[Number] = [number(0)] * n
    dtype = object if exact else np.float64
    xs = np.empty((T + 1, n), dtype=dtype)
    ys = np.empty((T + 2, n), dtype=dtype)
    energies = np.empty(T + 2, dtype=dtype)
    # Masks have n bits; past 64 they need Python ints.
    supports = np.zeros(T + 2, dtype=np.uint64 if n <= 64 else object)
    columns = (xs, ys, energies, supports)

    is_fp = config.algorithm == Algorithm.FICTITIOUS_PLAY
    ys[0] = y
    energies[0] = energy_fp(y) if is_fp else _gd_response(y, primal=False)[1]
    supports[0] = sum(1 << i for i, c in enumerate(x) if c > 0)
    select = config.effective_tiebreak.select
    tol = config.effective_tie_tolerance
    budget = config.bit_budget
    etas = config.etas().tolist() if config.eta_schedule else [number(config.eta)] * (T + 1)
    vertex = config.x0.vertex_index
    closes = blocks and is_fp and config.effective_tiebreak.kind != TiebreakKind.RANDOM_SEEDED
    seen: Dict[tuple, int] = {}  # switch rows at energy `level`, by state
    level = None
    t, v = 0, game.apply(x)  # v is A x^t, formed once per primal iterate
    try:
        while t <= T:
            eta_t = etas[t]
            xs[t] = x
            y = [yi + eta_t * vi for yi, vi in zip(y, v)]
            ys[t + 1] = y
            if exact:
                _check_bits(y, budget, t)
            if is_fp:
                top = max(y)  # energy_fp, and fp_primal's tie set
                energies[t + 1] = top
                floor = top - tol
                chosen = select([i for i, yi in enumerate(y) if yi >= floor], vertex, n, t + 1)
                supports[t + 1] = 1 << chosen
                x = [0] * n
                x[chosen] = 1
                v = game.apply(x)
                if closes and chosen != vertex:
                    if top != level:
                        seen.clear()
                        level = top
                    # The row's bytes, or each value with its type: a repeat
                    # is a repeat of the very ints and Fractions stored.
                    state = tuple((type(c), c) for c in y) if exact else ys[t + 1].tobytes()
                    first = seen.setdefault((state, chosen), t + 1)
                    if first <= t:
                        for column in columns:
                            _tile(column, first, t + 1)
                        y = ys[-1].tolist()
                        break
                vertex = chosen
            else:
                support, energies[t + 1], supports[t + 1], x = _gd_response(y, t < T)
                if t < T:  # x^{T+1} is not formed
                    if exact:
                        _check_bits(x, budget, t)
                    v = game.apply(x)
                vertex = support[0] if len(support) == 1 else None
            t += 1
            if vertex is None or not blocks or t > T:
                continue
            length = _block_length(y, v, vertex, etas[t], tol if is_fp else None, min(MAX_BLOCK, T + 1 - t))
            if length < MIN_BLOCK:
                continue
            taken, row1, rise, fall, energy = _vertex_block(config, etas, v, y, vertex, t, length)
            rows = ys[t + 1:t + 1 + taken]
            rows[:] = row1
            rows[:, (vertex + 1) % n] = rise[:taken]
            rows[:, (vertex - 1) % n] = fall[:taken]
            energies[t + 1:t + 1 + taken] = energy
            xs[t:t + taken] = x
            supports[t + 1:t + 1 + taken] = 1 << vertex
            t += taken
            y = ys[t].tolist()
    except OverflowError as exc:
        raise ArithmeticOverflow(f"float state overflowed: {exc}") from exc
    if not exact and not all(map(math.isfinite, y)):  # inf and nan never turn finite
        raise ArithmeticOverflow("float dual state overflowed to inf or nan")
    return Trajectory(config, game, *columns)


def run(config: LearnerConfig, matrix: RpsMatrix) -> Trajectory:
    """Simulate the configured learner for horizon T and record everything.

    The run performs T+1 dual updates (producing y^1 .. y^{T+1}) and T primal
    responses (x^1 .. x^T) after the given x^0.  The closing response to
    y^{T+1} is recorded as support row T+1, but x^{T+1} is not formed.

    After each scalar step whose response is a vertex, the steps that keep
    it are taken in one block when at least ``MIN_BLOCK`` of them are
    predicted; the others are scalar steps.  A x^t is formed once per primal
    iterate, and a fictitious-play orbit that closes is tiled (see
    ``_simulate``).  The columns are identical, byte for byte and type for
    type, to those of ``oracle.run_stepwise``, the same loop without blocks
    and the reference this engine is tested against.  Blocks sum in numpy
    with overflow warnings off: a dual that overflows ends the run on a
    non-finite row, which raises ArithmeticOverflow as the reference does.
    """
    with np.errstate(over="ignore"):
        return _simulate(config, matrix, blocks=True)
