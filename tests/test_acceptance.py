"""End-to-end acceptance checks.

Each test runs one named check from the verification suite at full horizons
(T up to 1e5), prints its one-line verdict, and asserts it passed.  The
trajectory store is module-scoped so the long runs are built once and shared.

``test_c14_interior_nash_solver`` is expected to fail: for even dimensions a
generic weight vector admits no interior equilibrium (the stride-two weight
recurrence closes only when the even- and odd-indexed weight products agree),
so the all-dimensions solvability claim it audits is unattainable.  The check
reports the per-dimension failure counts; the test records the claim honestly
rather than weakening it.
"""

import pytest

from rps_dynamics import verification as V


@pytest.fixture(scope="module")
def store():
    return V.TrajectoryStore(V.FULL_CAP)


def _run(check_fn, store):
    res = check_fn(store, "full")
    line = f"[{'PASS' if res.passed else 'FAIL'}] {res.check:<28} {res.details}"
    print(line)
    assert res.passed, line


def test_checks_are_registered_in_order_under_their_module_names():
    assert [check_id[:4] for check_id, _ in V.CHECKS] == [f"c{k:02d}-" for k in range(1, 15)]
    for _, fn in V.CHECKS:
        assert getattr(V, fn.__name__) is fn


def test_c01_fp_sqrt_regret(store):
    """Fictitious play regret grows at a sublinear (sqrt-like) rate for every
    tiebreak rule, with log-log slope in [0, 0.6] and Reg/sqrt(T) <= 10."""
    _run(V.check_fp_sqrt_regret, store)


def test_c02_fp_tournament_constant(store):
    """Tournament-tiebreak fictitious play in exact arithmetic conserves the
    dual energy exactly, pinning regret at its first-step value."""
    _run(V.check_fp_tournament_constant, store)


def test_c03_gd_vertex_first_step(store):
    """Above the stepsize threshold the first descent iterate already sits on
    a single-vertex support."""
    _run(V.check_gd_vertex_first_step, store)


def test_c04_gd_cycling(store):
    """Large-stepsize descent visits the vertices in strict cyclic order and
    never lingers on the same edge across consecutive phases."""
    _run(V.check_gd_cycling, store)


def test_c05_gd_sqrt_regret(store):
    """Large-stepsize descent keeps the same sublinear regret envelope as
    fictitious play (slope <= 0.6, Reg/sqrt(T) <= 10)."""
    _run(V.check_gd_sqrt_regret, store)


def test_c06_energy_monotone(store):
    """The dual energy never decreases along any stored trajectory (relative
    dips bounded by 1e-9)."""
    _run(V.check_energy_monotone, store)


def test_c07_energy_ledger_bounds(store):
    """Every unambiguous classified dual step lands inside its per-class
    energy-growth bound, and ambiguous steps stay below 0.1%."""
    _run(V.check_energy_ledger_bounds, store)


def test_c08_gd_small_stepsize(store):
    """At eta = 1/sqrt(T) the iterates stay interior with bounded energy and
    O(sqrt(T)) regret (or the check reports not-applicable honestly)."""
    _run(V.check_gd_small_stepsize, store)


def test_c09_projection_oracle(store):
    """The fast simplex projection agrees with brute-force support enumeration
    on random duals: supports exactly, coordinates and energies to 1e-10."""
    _run(V.check_projection_oracle, store)


def test_c10_conjugate_gradient(store):
    """A finite-difference gradient of the projection energy matches the
    projection itself to 1e-5 away from region boundaries."""
    _run(V.check_conjugate_gradient, store)


def test_c11_dual_subspace(store):
    """Dual iterates stay orthogonal to the interior equilibrium: exactly in
    rational mode, to 1e-8 * T in float mode."""
    _run(V.check_dual_subspace_confinement, store)


def test_c12_regret_identities(store):
    """All regret accounting routes (payoff sums, dual maximum, energy) agree
    to 1e-9 relative, and the upper bound is never violated."""
    _run(V.check_regret_identities, store)


def test_c13_boundary_invariance(store):
    """Once the energy exceeds everything seen on full-support iterates, the
    descent trajectory never regains full support."""
    _run(V.check_boundary_invariance, store)


def test_c14_interior_nash_solver(store):
    """Exact interior equilibrium for random weights in every dimension 3..8.

    Expected to fail on even dimensions (see module docstring): generic even-n
    weight vectors have no interior equilibrium to find, and the solver
    correctly refuses rather than fabricating one.
    """
    _run(V.check_nash_solver, store)
