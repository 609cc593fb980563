"""Brute-force references for validating the fast paths.

Each oracle reaches the same quantity as a fast implementation through a
different route: exhaustive support enumeration over a stack of rows
(``project_rows``) instead of the sorted active-set scan, fresh payoff sums
(in ints over common denominators, for exact runs) instead of stored duals,
finite differences instead of the closed-form projection, and one scalar step
per row instead of ``run``'s vertex blocks.
"""

import math
from typing import Sequence, Tuple

import numpy as np

from .errors import ArithmeticOverflow, DimensionTooLarge, TooCloseToBoundary
from .analysis import classify_region
from .dynamics import LearnerConfig, Trajectory, _gd_response, _simulate
from .game import Number, RpsMatrix, SimplexPoint, div

MAX_ENUMERATION_N = 20  # 2^20 supports per row
CHUNK_CELLS = 4096  # (row, support) cells in each temporary of project_rows


def run_stepwise(config: LearnerConfig, matrix: RpsMatrix) -> Trajectory:
    """``dynamics.run`` without blocks: every dual update goes through the
    scalar step.  ``run`` must give the same columns, byte for byte (float)
    or value and type for value and type (exact), and the same errors."""
    return _simulate(config, matrix, blocks=False)


def project_rows(ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Simplex projection of each row of ``ys`` by trying every nonempty support.

    For each candidate support S the equality-constrained maximizer of
    <x, y> - |x|^2/2 is x_i = y_i - mean_S(y) + 1/|S|; candidates with a
    negative coordinate are infeasible.  Returns, for a (rows, n) array, the
    best feasible candidate of each row as a (rows, n) array and its objective
    value as a (rows,) array.  Never calls the fast support scan.

    A float array is enumerated in float64; any other array as Python objects
    with ``div``, so Fraction and int rows stay exact (off the support a
    coordinate is int 0).  Every sum runs over the support in index order,
    and of equal values the lowest support bitmask wins.  Rows and supports go
    in chunks of at most ``CHUNK_CELLS`` (row, support) cells.  Rows holding
    nan or inf raise ArithmeticOverflow.
    """
    rows, n = ys.shape
    _check_width(n)
    ys = ys.astype(float if ys.dtype.kind == "f" else object, copy=False)
    if not ((ys == ys) & (abs(ys) != math.inf)).all():  # no ordered nan compare: it warns
        raise ArithmeticOverflow("the enumeration takes finite rows; got nan or inf")
    mask_step = min((1 << n) - 1, CHUNK_CELLS)
    row_step = max(1, CHUNK_CELLS // mask_step)
    coords = np.empty((rows, n), dtype=ys.dtype)
    values = np.empty(rows, dtype=ys.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # products overflow past |y| ~ 1e154
        for r in range(0, rows, row_step):
            coords[r:r + row_step], values[r:r + row_step] = _project(ys[r:r + row_step], mask_step)
    return coords, values


def project_bruteforce(y: Sequence[Number]) -> Tuple[SimplexPoint, Number]:
    """``project_rows`` on the single row y, in float64 when every entry is
    a float: the projection as a SimplexPoint and its objective value as a
    Python number.  Raises ArithmeticOverflow where the coordinates do not
    sum to 1, as when the mean shift cancels."""
    _check_width(len(y))
    floats = all(isinstance(v, float) for v in y)
    coords, values = project_rows(np.array([tuple(y)], dtype=float if floats else object))
    try:
        return SimplexPoint(tuple(coords.tolist()[0])), values.tolist()[0]
    except ValueError as exc:  # far past |y| ~ 1e16, 1 - sum_S y rounds away the 1
        raise ArithmeticOverflow(f"the mean shift (1 - sum_S y) / |S| cancelled on {tuple(y)!r}: {exc}") from exc


def _check_width(n: int) -> None:
    if n > MAX_ENUMERATION_N:
        raise DimensionTooLarge(f"2^{n} supports is past the enumeration budget")
    if n == 0:
        raise ValueError("rows of length 0 have no support")


def _project(y: np.ndarray, mask_step: int) -> Tuple[np.ndarray, np.ndarray]:
    """Best support of each row of y, over the supports in chunks of
    ``mask_step``; a later chunk wins only with a strictly larger value."""
    n = y.shape[1]
    masks = (1 << n) - 1
    for lo in range(1, masks + 1, mask_step):
        chunk = np.arange(lo, min(lo + mask_step, masks + 1))
        value, shift = _objectives(y, chunk)
        k = value.argmax(axis=1)[:, None]
        v, s = (np.take_along_axis(a, k, axis=1)[:, 0] for a in (value, shift))
        if lo == 1:
            best, best_value, best_shift = chunk[k[:, 0]], v, s
        else:
            better = v > best_value
            best = np.where(better, chunk[k[:, 0]], best)
            best_value = np.where(better, v, best_value)
            best_shift = np.where(better, s, best_shift)
    member = (best[:, None] >> np.arange(n) & 1).astype(bool)
    coords = np.full(y.shape, _zero(y), dtype=y.dtype)
    np.add(y, best_shift[:, None], out=coords, where=member)
    return coords, best_value


def _zero(y: np.ndarray) -> Number:
    return 0 if y.dtype == object else 0.0


def _divide(y: np.ndarray):
    return np.frompyfunc(div, 2, 1) if y.dtype == object else np.true_divide


def _objectives(y: np.ndarray, masks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each row of y and each support in ``masks``: the value
    <c, y> - |c|^2/2 of the candidate c_j = y_j + shift on the support, with
    shift = (1 - sum_S y) / |S|, and that shift.  The value is -inf where the
    candidate is infeasible, and where it is nan (inf - inf, past
    |y| ~ 1e154): the per-support loop never picked a nan, as its first
    support's value is finite.  As in that loop, sums add column by column
    and only on the support, and products are formed only for feasible
    candidates."""
    zero = _zero(y)
    shape = (len(y), len(masks))
    members = [(masks >> j & 1).astype(bool) for j in range(y.shape[1])]
    total = np.full(shape, zero, dtype=y.dtype)
    for j, member in enumerate(members):
        np.add(total, y[:, j, None], out=total, where=member)
    shift = _divide(y)(1 - total, np.bitwise_count(masks).astype(y.dtype))
    cs = [
        np.add(y[:, j, None], shift, out=np.full(shape, zero, dtype=y.dtype), where=member)
        for j, member in enumerate(members)
    ]
    feasible = np.ones(shape, dtype=bool)
    for c in cs:
        feasible &= ~(c < 0)  # c is zero off the support
    cy, cc, term = (np.full(shape, zero, dtype=y.dtype) for _ in range(3))
    for j, (member, c) in enumerate(zip(members, cs)):
        on = member & feasible
        np.multiply(c, y[:, j, None], out=term, where=on)
        np.add(cy, term, out=cy, where=on)
        np.multiply(c, c, out=term, where=on)
        np.add(cc, term, out=cc, where=on)
    value = np.full(shape, -math.inf, dtype=y.dtype)
    value[feasible] = cy[feasible] - _divide(y)(cc[feasible], 2)
    value[value != value] = -math.inf
    return value, shift


def regret_direct(traj: Trajectory) -> Number:
    """2 * max_i of the summed payoff vectors, straight from the primals: the
    rows of ``traj.payoffs()`` (ints in an exact run, the run's own float rows
    in a float one), summed down the stack and divided once by their D."""
    P, D = traj.payoffs()
    return div(2 * max(P.sum(axis=0).tolist()), D)


def grad_fd(y: Sequence[float], h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the projection energy.

    Away from region boundaries the energy is smooth and its gradient is the
    projection itself; within 10h of a boundary the difference stencil may
    straddle a kink, so such points are rejected.
    """
    tag = classify_region(y)
    if tag.min_abs_margin <= 10 * h:
        raise TooCloseToBoundary(
            f"margin {float(tag.min_abs_margin):.3g} <= {10 * h:.3g}"
        )
    base = [float(v) for v in y]
    out = np.empty(len(base))
    for i in range(len(base)):
        hi = list(base)
        lo = list(base)
        hi[i] += h
        lo[i] -= h
        out[i] = (_gd_response(hi, False)[1] - _gd_response(lo, False)[1]) / (2.0 * h)
    return out
