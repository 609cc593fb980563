"""Brute-force references for validating the fast paths.

Each oracle reaches the same quantity as a fast implementation through a
different route: exhaustive support enumeration instead of the sorted
active-set scan, fresh payoff sums instead of stored duals, finite
differences instead of the closed-form projection, and one scalar step per
row instead of ``run``'s vertex blocks.
"""

from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionTooLarge, TooCloseToBoundary
from .analysis import classify_region
from .dynamics import LearnerConfig, Trajectory, _simulate, energy_gd
from .game import Number, RpsMatrix, SimplexPoint, div


def run_stepwise(config: LearnerConfig, matrix: RpsMatrix) -> Trajectory:
    """``dynamics.run`` without blocks: every dual update goes through the
    scalar step.  ``run`` must give the same columns, byte for byte (float)
    or value and type for value and type (exact), and the same errors."""
    return _simulate(config, matrix, blocks=False)


def project_bruteforce(y: Sequence[Number]) -> Tuple[SimplexPoint, Number]:
    """Simplex projection by trying every nonempty support.

    For each candidate support S the equality-constrained maximizer of
    <x, y> - |x|^2/2 is x_i = y_i - mean_S(y) + 1/|S|; candidates with a
    negative coordinate are infeasible.  Returns the best feasible candidate
    and its objective value.  Never calls the fast support scan.
    """
    n = len(y)
    if n > 20:
        raise DimensionTooLarge(f"2^{n} supports is past the enumeration budget")
    best_obj = None
    best_coords = None
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        m = len(idx)
        shift = div(1 - sum(y[i] for i in idx), m)
        coords = [0] * n
        feasible = True
        for i in idx:
            c = y[i] + shift
            if c < 0:
                feasible = False
                break
            coords[i] = c
        if not feasible:
            continue
        obj = sum(coords[i] * y[i] for i in idx) - div(sum(coords[i] * coords[i] for i in idx), 2)
        if best_obj is None or obj > best_obj:
            best_obj = obj
            best_coords = coords
    return SimplexPoint(tuple(best_coords)), best_obj


def regret_direct(traj: Trajectory) -> Number:
    """2 * max_i of the summed payoff vectors, straight from the primals."""
    return 2 * max(traj.payoffs().sum(axis=0).tolist())


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
        out[i] = (energy_gd(hi) - energy_gd(lo)) / (2.0 * h)
    return out
