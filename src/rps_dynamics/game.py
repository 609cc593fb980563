"""Weighted cyclic matrix games on the probability simplex.

An n-action weighted rock-paper-scissors game is built from one directed cycle
over the actions: action i wins against action i+1 with stake w[i] (indices mod
n, zero-based).  The payoff matrix is skew-symmetric, so the game is symmetric
zero-sum, and every such game is fully described by its tuple of positive cycle
weights.

Arithmetic is generic: weights and points may be ints, floats, or
``fractions.Fraction``, and the number type carries the mode.  A value is exact
iff its type is int or Fraction (``is_exact``), and a result is exact when every
number it is formed from is, mixed vectors included, as ``div`` keeps for
division.  So each kernel reads its mode off its values; one path serves both.
Folds over a column go through ``over_common_denominator``: numerators over
one denominator, Python ints for exact cells, so they pay no gcd per operation,
and a float64 column as itself over 1, so one fold serves both modes.  The
exact kernels compute in Python ints too, and form each Fraction they
return once: the GD response and vertex blocks in ``dynamics`` on
``numerators`` over one denominator, and ``interior_nash`` on the weights'
integer ratios; the values they return stay ints and Fractions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    NonpositiveWeight,
    SingularSystem,
)

Number = Union[int, float, Fraction]
_EXACT_TYPES = (int, Fraction)


def is_exact(value: Number) -> bool:
    """The one exactness rule: the value's type is int or Fraction, so bools and
    numpy scalars are not exact.  It reads type(): isinstance is slow on ABCs."""
    return type(value) in _EXACT_TYPES


def div(q: Number, d: Number) -> Number:
    """q / d: a Fraction when both are exact, else the float (or numpy) quotient."""
    if is_exact(q) and is_exact(d):
        return Fraction(q, d)
    return q / d


def all_exact(values: Sequence[Number]) -> bool:
    return all(is_exact(v) for v in values)


# The integer ratio of an exact value, by its type: ``is_exact``'s types, and
# bool, which folds to an int.
_RATIOS = {int: int.as_integer_ratio, bool: int.as_integer_ratio, Fraction: Fraction.as_integer_ratio}


def numerators(values: Sequence[Number]) -> Tuple[List[int], int]:
    """Exact values as Python-int numerators over one common denominator, the
    LCM of theirs: ``(nums, D)`` with values[k] == nums[k] / D.  Int sums,
    products and comparisons of the numerators pay no gcd per operation, as
    Fractions do.  Each value's ratio is taken by its type, and a value that
    is not exact raises KeyError: a caller reads a row's mode off the pass
    that forms its numerators, with no scan of its own."""
    return _over_lcm([_RATIOS[type(v)](v) for v in values])


def _over_lcm(ratios: List[Tuple[int, int]]) -> Tuple[List[int], int]:
    """Integer ratios (p, d) as numerators over the LCM of their d."""
    D = math.lcm(*{d for _, d in ratios})
    return [p * (D // d) for p, d in ratios], D


def over_common_denominator(cells) -> Tuple[np.ndarray, int]:
    """Cells as numerators over one common denominator: ``(nums, D)``, cell k
    equal to nums[k] / D.  A float64 array is its own numerators over D = 1,
    read off its dtype.  Other cells, an array or a sequence, come back as
    Python ints in an object array of their shape over the LCM of their
    denominators: int folds, with no gcd per operation as a Fraction takes."""
    if isinstance(cells, np.ndarray) and cells.dtype == np.float64:
        return cells, 1
    cells = np.asarray(cells, dtype=object)
    nums, D = _over_lcm([c.as_integer_ratio() for c in cells.ravel().tolist()])
    return np.array(nums, dtype=object).reshape(cells.shape), D


class RpsMatrix:
    """Payoff matrix of a weighted cyclic game.

    Row i carries +w[i-1] in column i-1 and -w[i] in column i+1 (mod n): the
    row player's action i collects w[i-1] from the predecessor action and pays
    w[i] to the successor.  All other entries are zero.
    """

    __slots__ = ("weights", "n", "a_min", "a_max", "exact", "_terms")

    def __init__(self, weights: Sequence[Number]):
        ws = tuple(weights)
        if len(ws) < 3:
            raise DimensionTooSmall(
                f"cyclic game needs at least 3 actions, got {len(ws)}"
            )
        for w in ws:
            if isinstance(w, bool) or not 0 < w < math.inf:
                raise NonpositiveWeight(f"cycle weights must be positive and finite numbers, got {w!r}")
        self.weights = ws
        self.n = len(ws)
        self.a_min = min(ws)
        self.a_max = max(ws)
        self.exact = all_exact(ws)
        n = self.n  # row i of A x is w[i-1] x[i-1] - w[i] x[i+1]
        self._terms = tuple((ws[(i - 1) % n], (i - 1) % n, ws[i], (i + 1) % n) for i in range(n))

    def __repr__(self) -> str:
        return f"RpsMatrix(weights={self.weights!r})"

    def apply(self, x: Sequence[Number]) -> Tuple[Number, ...]:
        """A @ x using the two nonzero entries per row.  ``x`` is a vector, or
        the n columns of a block of rows, whose products come back as columns."""
        if len(x) != self.n:
            raise DimensionMismatch(f"expected length {self.n}, got {len(x)}")
        return tuple(a * x[p] - b * x[q] for a, p, b, q in self._terms)


def make_rps(weights: Sequence[Number]) -> RpsMatrix:
    """Build the payoff matrix of the weighted cyclic game with these stakes."""
    return RpsMatrix(weights)


@dataclass(frozen=True)
class SimplexPoint:
    """A mixed strategy: nonnegative coordinates summing to one.

    The sum must hold exactly when every coordinate is exact (``is_exact``),
    and within 1e-12 otherwise.
    """

    coords: Tuple[Number, ...]

    def __post_init__(self):
        cs = tuple(self.coords)
        object.__setattr__(self, "coords", cs)
        if len(cs) == 0:
            raise ValueError("empty strategy vector")
        for c in cs:
            if isinstance(c, bool) or not c >= 0:
                raise ValueError(f"coordinate {c!r} is not a nonnegative number")
        total = sum(cs)
        if all_exact(cs):
            if total != 1:
                raise ValueError(f"coordinates sum to {total}, expected exactly 1")
        elif abs(total - 1) > 1e-12:
            raise ValueError(f"coordinates sum to {total!r}, off by more than 1e-12")

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c > 0)

    @property
    def vertex_index(self) -> Optional[int]:
        s = self.support
        return s[0] if len(s) == 1 else None

    @staticmethod
    def vertex(n: int, i: int) -> "SimplexPoint":
        if not 0 <= i < n:
            raise ValueError(f"vertex index {i} outside range({n})")
        return SimplexPoint(tuple(1 if j == i else 0 for j in range(n)))

    @staticmethod
    def uniform(n: int) -> "SimplexPoint":
        return SimplexPoint((1.0 / n,) * n)


@dataclass(frozen=True)
class NashResult:
    """Interior equilibrium along with its residual max|.(Ax*)_i|."""

    point: SimplexPoint
    residual: Number


def _stride_two_chain(ratios: List[Tuple[int, int]], start: int) -> List[int]:
    """Int solution of x[j+2] = (w[j] / w[j+1]) * x[j] along the stride-two
    walk from ``start`` until it closes, each w[k] = a / b given as its
    integer ratio (a, b); coordinates off the walk stay 0.  The walk keeps
    its running product as a numerator and a denominator, and every
    coordinate comes back over the last denominator, which each earlier one
    divides."""
    n = len(ratios)
    N = D = 1
    walk = {start: (N, D)}
    j = start
    while (j + 2) % n != start:
        (a, b), (c, d) = ratios[j], ratios[(j + 1) % n]
        N, D = N * a * d, D * b * c
        j = (j + 2) % n
        walk[j] = (N, D)
    chain = [0] * n
    for k, (num, den) in walk.items():
        chain[k] = num * (D // den)
    return chain


def interior_nash(matrix: RpsMatrix) -> NashResult:
    """Interior equilibrium of the cyclic game, solved exactly.

    Stationarity (Ax)_i = 0 pins down the stride-two recurrence
    x[j+2] = (w[j] / w[j+1]) * x[j] on the cycle.  For odd n the stride-two
    walk visits every coordinate, so the equilibrium is unique.  For even n
    the walk splits into two parity chains; each chain closes consistently if
    and only if the product of even-indexed weights equals the product of
    odd-indexed weights.  When that holds there is a whole segment of
    equilibria and the minimum-norm one is returned (it is automatically
    interior); when it fails the system Ax = 0, sum(x) = 1 has no solution at
    all and SingularSystem is raised.

    The solve runs in Python ints, on each weight's integer ratio (a float's
    exact binary value, a numpy scalar's as its Python number), and forms
    each coordinate once from an int quotient: a Fraction for exact inputs,
    and otherwise the correctly rounded float of that Fraction.
    """
    n = matrix.n
    ratios = [(w.item() if isinstance(w, np.generic) else w).as_integer_ratio() for w in matrix.weights]
    quotient = Fraction if matrix.exact else truediv
    if n % 2 == 1:
        chain = _stride_two_chain(ratios, 0)
        total = sum(chain)
        coords = tuple(quotient(c, total) for c in chain)
    else:
        (a_even, b_even), (a_odd, b_odd) = (map(math.prod, zip(*ratios[k::2])) for k in (0, 1))
        if a_even * b_odd != a_odd * b_even:
            raise SingularSystem(
                "no interior equilibrium: for even n one is only consistent "
                f"when prod(even-indexed weights) == prod(odd-indexed weights); "
                f"got {Fraction(a_even, b_even)} != {Fraction(a_odd, b_odd)}, so Ax = 0 forces x = 0"
            )
        p, q = (_stride_two_chain(ratios, start) for start in (0, 1))
        # Disjoint supports, so with p and q normalized |x|^2 = lam^2 |p|^2 +
        # (1-lam)^2 |q|^2, least at lam = |q|^2 / (|p|^2 + |q|^2), strictly
        # between the endpoints.  Over the chains' sums sp and sq:
        sp, sq = sum(p), sum(q)
        pp, qq = sum(c * c for c in p), sum(c * c for c in q)
        den = pp * sq * sq + qq * sp * sp
        coords = tuple(quotient(qq * sp * a + pp * sq * b, den) for a, b in zip(p, q))

    point = SimplexPoint(coords)
    residual = max(abs(v) for v in matrix.apply(point.coords))
    return NashResult(point=point, residual=residual)


def gamma(matrix: RpsMatrix, point: SimplexPoint) -> Number:
    """Smallest pairwise gap among the dual payoff coordinates of A x.

    A positive gap means the payoff vector has a strict ordering; the larger
    the gap, the smaller the stepsize needed for a gradient step from x to
    land in a vertex region.
    """
    v = matrix.apply(point.coords)
    n = len(v)
    return min(abs(v[k] - v[m]) for k in range(n) for m in range(k + 1, n))


def duality_gap(matrix: RpsMatrix, point: SimplexPoint) -> Number:
    """Duality gap of the self-play profile (x, x).

    max_i (Ax)_i - min_j (x^T A)_j; by skew-symmetry (x^T A)_j = -(Ax)_j, so
    this is 2 * max_i (Ax)_i, and it vanishes exactly at equilibrium.
    """
    return 2 * max(matrix.apply(point.coords))
