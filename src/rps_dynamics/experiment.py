"""Experiment configurations, runners, and plot-ready artifacts.

An :class:`ExperimentSpec` binds a game, a learner configuration, and output
choices.  Runs produce up to four artifacts per experiment into an output
directory:

* ``<name>__trajectory.csv`` — rows t = 0..T+1 with primal coordinates
  ``x_1..x_n``, dual coordinates ``y_1..y_n``, the energy of y^t, and the
  support bitmask of x^t (bit i-1 is coordinate i; the final row carries only
  the closing dual vector and its energy);
* ``<name>__phases.csv``    — one row per detected phase (vertex ids 1-based);
* ``<name>__ledger.csv``    — the per-step energy-growth audit;
* ``<name>__report.json``   — regret accounting, slope fit, phase and ledger
  summaries, and verification verdicts.

A sweep writes one artifact set per point and ``<name>__sweep.csv``: one row
per point with the swept fields, ``regret_total``, ``slope`` and ``verdicts``.

Everything written is a deterministic function of the spec: floats are printed
with 17 significant digits, rationals as explicit ``p/q``, and line endings are
``\n``, so identical specs produce byte-identical files.

Config files are JSON.  Any numeric field accepts a number, a decimal string,
or a ``"p/q"`` rational string; the presence of a rational string anywhere
switches the run to exact-rational arithmetic.
"""

import dataclasses
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import analysis, oracle
from .analysis import (
    INITIAL,
    Ledger,
    PhaseSummary,
    RegretReport,
    detect_phases,
    energy_growth_ledger,
    fit_regret_slope,
    ledger_summary,
    regret,
)
from .dynamics import (
    REL_TOL,
    Algorithm,
    Arithmetic,
    LearnerConfig,
    TiebreakKind,
    TiebreakRule,
    Trajectory,
    _member,
    run,
    tolerance,
)
from .errors import ConfigInvalid, IoError, NoVertexReached
from .game import Number, SimplexPoint, all_exact, div, make_rps

OUT_ENV = "RPSDYN_OUT"
OUTPUT_KINDS = ("trajectory_csv", "phases_csv", "ledger_csv", "report_json")

_LEARNER_FIELDS = {f.name for f in dataclasses.fields(LearnerConfig)}
# Scalar learner fields a sweep may vary.
SWEEP_FIELDS = ("horizon", "eta", "tie_tolerance", "bit_budget", "eta_schedule")


def default_out_dir() -> str:
    return os.environ.get(OUT_ENV, "rpsdyn_out")


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, fully-resolved experiment."""

    name: str
    weights: Tuple[Number, ...]
    learner: LearnerConfig
    sweep: Tuple[Tuple[str, Tuple], ...] = ()
    outputs: Tuple[str, ...] = OUTPUT_KINDS
    seed: int = 0
    note: str = ""

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ConfigInvalid("experiment needs a nonempty name")
        if "/" in self.name or os.sep in self.name:
            # The name is a file-name prefix inside the output directory.
            raise ConfigInvalid(f"experiment name {self.name!r} must not contain a path separator")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigInvalid("seed must be an integer")
        if self.learner.is_exact and not all_exact(self.weights):
            raise ConfigInvalid("rational mode needs exact weights (int or p/q)")
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise ConfigInvalid(f"unknown output kind {kind!r}")
        if len(dict(self.sweep)) < len(self.sweep):
            raise ConfigInvalid(f"sweep names a field twice: {[f for f, _ in self.sweep]}")
        for fname, values in self.sweep:
            if fname not in SWEEP_FIELDS:
                raise ConfigInvalid(
                    f"sweep field {fname!r} is not one of {', '.join(SWEEP_FIELDS)}"
                )
            if not isinstance(values, tuple) or not values:
                raise ConfigInvalid(f"sweep over {fname!r} needs a nonempty value list")
            for v in values:
                # Fails now, not after the points before it have run.
                dataclasses.replace(self.learner, **{fname: v})
            tokens = [_filename_token(v) for v in values]
            if len(set(tokens)) < len(tokens):  # two points, one set of artifact names
                raise ConfigInvalid(f"sweep over {fname!r} repeats a value: {tokens}")

    def to_json(self) -> dict:
        """The spec as a config document; ``note`` is left out, so it does not
        change the ``config_hash``."""
        return {key: value for key, value in _encode(self).items() if key != "note"}


def _encode(value):
    """JSON form of a spec or report value: enums by value, dataclasses
    (``LearnerConfig``, ``TiebreakRule``) as objects of their fields, simplex
    points and tuples as lists, Fractions as ``"p/q"``."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, SimplexPoint):
        value = value.coords
    elif dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def config_hash(spec: ExperimentSpec) -> str:
    blob = json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Config parsing


def _parse_number(value, where: str) -> Number:
    if isinstance(value, bool):
        raise ConfigInvalid(f"{where}: booleans are not numbers")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        s = value.strip()
        try:
            return Fraction(s) if "/" in s else float(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigInvalid(f"{where}: cannot parse number {value!r}") from exc
    raise ConfigInvalid(f"{where}: expected a number, got {type(value).__name__}")


def _parse_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigInvalid(f"{where} must be a list, got {type(value).__name__}")
    return value


def _parse_tiebreak(raw, seed) -> TiebreakRule:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigInvalid('tiebreak must be {"kind": ..., "seed": optional}')
    unknown = set(raw) - {"kind", "seed"}
    if unknown:
        raise ConfigInvalid(f"unknown tiebreak keys: {sorted(unknown)}")
    tb_seed = raw.get("seed")
    if raw["kind"] == TiebreakKind.RANDOM_SEEDED and tb_seed is None:  # a str enum: "random_seeded" too
        tb_seed = seed
    return TiebreakRule(raw["kind"], tb_seed)


def _parse_sweep_item(item) -> Tuple[str, Tuple]:
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise ConfigInvalid("sweep entries must be [field, [values...]] pairs")
    fname, values = item
    values = _parse_list(values, f"sweep.{fname}")
    if fname not in ("horizon", "eta_schedule"):
        values = [_parse_number(v, f"sweep.{fname}") for v in values]
    return fname, tuple(values)


def parse_config(data: dict) -> ExperimentSpec:
    """Decode a JSON config document into an ExperimentSpec.

    This only decodes: ``LearnerConfig`` and ``ExperimentSpec`` hold every
    rule a run must satisfy, so a config file and the Python API reject the
    same inputs.  A ``"p/q"`` number anywhere, sweep values included, makes
    the whole experiment exact-rational.
    """
    if not isinstance(data, dict):
        raise ConfigInvalid("config root must be a JSON object")
    unknown = set(data) - {"name", "weights", "learner", "sweep", "outputs", "seed", "note"}
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    for key in ("name", "weights", "learner"):
        if key not in data:
            raise ConfigInvalid(f"missing config key {key!r}")
    learner = data["learner"]
    if not isinstance(learner, dict):
        raise ConfigInvalid(f"learner must be a JSON object, got {type(learner).__name__}")
    unknown = set(learner) - _LEARNER_FIELDS
    if unknown:
        raise ConfigInvalid(f"unknown learner keys: {sorted(unknown)}")
    missing = {"algorithm", "horizon", "x0"} - set(learner)
    if missing:
        raise ConfigInvalid(f"missing learner keys: {sorted(missing)}")
    learner = dict(learner)
    seed = data.get("seed", 0)
    note = data.get("note", "")
    if not isinstance(note, str):
        raise ConfigInvalid(f"note must be a string, got {type(note).__name__}")

    weights = tuple(_parse_number(w, "weights") for w in _parse_list(data["weights"], "weights"))
    x0 = tuple(_parse_number(c, "x0") for c in _parse_list(learner["x0"], "learner.x0"))
    if "eta" in learner:
        learner["eta"] = _parse_number(learner["eta"], "eta")
    if learner.get("tie_tolerance") is not None:
        learner["tie_tolerance"] = _parse_number(learner["tie_tolerance"], "tie_tolerance")
    if learner.get("tiebreak") is not None:
        learner["tiebreak"] = _parse_tiebreak(learner["tiebreak"], seed)
    arithmetic = Arithmetic.FLOAT64
    if learner.get("arithmetic") is not None:
        arithmetic = _member(Arithmetic, learner["arithmetic"], "arithmetic")
    sweep = tuple(map(_parse_sweep_item, _parse_list(data.get("sweep", []), "sweep")))
    outputs = tuple(_parse_list(data["outputs"], "outputs")) if "outputs" in data else OUTPUT_KINDS

    numbers = [*weights, *x0, learner.get("eta"), learner.get("tie_tolerance")]
    numbers += [v for _, values in sweep for v in values]
    if arithmetic != Arithmetic.EXACT_RATIONAL and any(isinstance(v, Fraction) for v in numbers):
        arithmetic = Arithmetic.EXACT_RATIONAL
        note = (note + "; " if note else "") + "arithmetic forced to rational by p/q values"
    try:
        learner["x0"] = SimplexPoint(x0)
    except ValueError as exc:
        raise ConfigInvalid(f"x0 is not a simplex point: {exc}") from exc
    learner["arithmetic"] = arithmetic
    return ExperimentSpec(
        name=data["name"],
        weights=weights,
        learner=LearnerConfig(**learner),
        sweep=sweep,
        outputs=outputs,
        seed=seed,
        note=note,
    )


def config_document(
    name: str, weights, algorithm: str, horizon: int, x0, sweep=(), note: str = "", **learner
) -> dict:
    """A config document as ``parse_config`` reads it; ``learner`` holds the
    optional learner keys (``eta``, ``tiebreak``, ``arithmetic``, ...)."""
    return {
        "name": name,
        "weights": list(weights),
        "learner": {"algorithm": algorithm, "horizon": horizon, "x0": list(x0), **learner},
        "sweep": list(sweep),
        "note": note,
    }


def load_config(path: str) -> ExperimentSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigInvalid(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# Overrides


def with_seed(spec: ExperimentSpec, seed: int) -> ExperimentSpec:
    """Replace the experiment seed (and reseed a seeded-random tiebreak)."""
    learner = spec.learner
    tb = learner.tiebreak
    if tb is not None and tb.kind == TiebreakKind.RANDOM_SEEDED:
        learner = dataclasses.replace(learner, tiebreak=TiebreakRule(tb.kind, seed))
    return dataclasses.replace(spec, seed=seed, learner=learner)


def with_arithmetic(spec: ExperimentSpec, target: str) -> ExperimentSpec:
    """Reinterpret the experiment in the requested arithmetic.

    Switching to rational requires every numeric input to already be exact:
    ``LearnerConfig`` and ``ExperimentSpec`` refuse float inputs rather than
    reinterpret them bit-for-bit.  Switching to float converts the weights,
    x0, eta and tie_tolerance (sweep values too), if within the float range.
    """
    arith = _member(Arithmetic, target, "arithmetic")
    lc = spec.learner
    if arith == lc.arithmetic:
        return spec
    if arith == Arithmetic.EXACT_RATIONAL:
        return dataclasses.replace(spec, learner=dataclasses.replace(lc, arithmetic=arith))

    def number(field, v):
        return float(v) if field in ("eta", "tie_tolerance") and v is not None else v

    x0 = SimplexPoint(tuple(map(float, lc.x0.coords)))
    try:
        floats = {f: number(f, getattr(lc, f)) for f in ("eta", "tie_tolerance")}
        sweep = tuple((f, tuple(number(f, v) for v in vs)) for f, vs in spec.sweep)
        weights = tuple(map(float, spec.weights))
    except OverflowError:
        raise ConfigInvalid("float mode needs weights, eta and tie tolerance within the float range") from None
    learner = dataclasses.replace(lc, arithmetic=arith, x0=x0, **floats)
    return dataclasses.replace(spec, weights=weights, learner=learner, sweep=sweep)


# ---------------------------------------------------------------------------
# Formatting / writers


def format_value(v) -> str:
    """Canonical cell text: 17-significant-digit floats, explicit p/q rationals."""
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _number_cell(v) -> str:
    """A float as ``format_value`` prints it; an exact value (a run's int or
    Fraction) as explicit p/q, integers included; None as empty."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return f"{v.numerator}/{v.denominator}"


def _open_artifact(path: str):
    """Open an artifact for writing: UTF-8, with ``\\n`` line endings on every
    platform."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str, header: List[str], lines) -> None:
    """Write a header and preformatted ``\\n``-terminated lines.

    Cells are never quoted, because none can hold a comma, a quote or a
    newline: they are numbers, ledger class names, ``uncovered:<a>-><b>``,
    check names and ``eta_schedule`` values (``None`` or ``"inv_sqrt_t"``).
    """
    with _open_artifact(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


# Rows per written string: enough that the per-block calls vanish against
# formatting, few enough that a block's cells and text stay under 1 MiB
# whatever the run's length.
_CSV_BLOCK = 1024


def _raw(spec: str, col: np.ndarray):
    """A column as a (%-spec, block) pair: ``block(s, e)`` is the list of the
    values of rows s..e-1, which ``spec`` converts."""
    return spec, lambda s, e: col[s:e].tolist()


def _numbers(col: np.ndarray, blank: Optional[np.ndarray] = None):
    """A number column as a (%-spec, block) pair, printing what
    ``_number_cell`` prints; an exact column's None cells, and a float
    column's ``blank`` rows, are empty.

    A float column with blank rows, or with at most half its cells distinct,
    formats each distinct value once and gathers the cells by index: one
    format costs about as much as sorting and gathering two cells.  Distinct
    means distinct bits, so -0.0 and 0.0 stay apart.  Other float columns go
    raw into ``%.17g``.  An exact column formats each distinct object once,
    found by ``id`` (hashing a Fraction costs more than formatting it):
    vertex blocks and tiled orbits repeat the very same objects.
    """
    if col.dtype == object:
        cells = col.tolist()
        _, first, index = np.unique(np.fromiter(map(id, cells), np.intp, len(cells)),
                                           return_index=True, return_inverse=True)
        texts = np.array([_number_cell(cells[k]) for k in first.tolist()], dtype=object)
        return "%s", lambda s, e: texts.take(index[s:e]).tolist()
    bits = col.view(np.uint64)
    # Sort and drop repeats: np.unique on uint64 took about 15 times as long
    # (numpy 2.4).
    ordered = np.sort(bits)
    distinct = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    if blank is None and 2 * distinct.size > col.size:
        return _raw("%.17g", col)
    texts = np.array(["%.17g" % v for v in distinct.view(np.float64).tolist()] + [""], dtype=object)

    def block(s, e):
        index = np.searchsorted(distinct, bits[s:e])
        if blank is not None:
            index[blank[s:e]] = distinct.size  # the "" text
        return texts.take(index).tolist()

    return "%s", block


def _lines(rows: int, columns):
    """The lines of ``rows`` rows, one string per ``_CSV_BLOCK`` of them:
    each row is its index, then a cell of each (%-spec, block) column."""
    specs, blocks = zip(*columns)
    row = ",".join(("%d",) + specs) + "\n"
    for s in range(0, rows, _CSV_BLOCK):
        e = min(rows, s + _CSV_BLOCK)
        yield "".join(map(row.__mod__, zip(range(s, e), *(block(s, e) for block in blocks))))


def _trajectory_lines(traj: Trajectory):
    T = traj.horizon
    columns = [*traj.xs.T, *traj.ys[:T + 1].T, traj.energies[:T + 1]]
    yield from _lines(T + 1, [*map(_numbers, columns), _raw("%d", traj.supports[:T + 1])])
    closing = [str(T + 1)] + [""] * traj.n + [_number_cell(v) for v in traj.y(T + 1)]
    yield ",".join(closing + [_number_cell(traj.energy(T + 1)), ""]) + "\n"


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    n = traj.n
    header = (["t"] + [f"x_{i}" for i in range(1, n + 1)]
              + [f"y_{i}" for i in range(1, n + 1)] + ["energy", "support"])
    _write_csv(path, header, _trajectory_lines(traj))


def write_phases_csv(summary: Optional[PhaseSummary], path: str) -> None:
    lines = () if summary is None else _lines(summary.count, [
        _raw("%d", summary.t_start), _raw("%d", summary.length), _raw("%d", summary.vertex + 1),
        _numbers(summary.start_energy), _raw("%d", summary.energy_increased)])
    _write_csv(path, ["k", "t_k", "tau_k", "vertex", "gamma_k", "c_k"], lines)


_OK_TEXTS = np.array(["false", "true"], dtype=object)


def _ledger_lines(ledger: Ledger):
    names = ledger.transitions()
    ambiguous = np.flatnonzero(ledger.ambiguous)
    names[ambiguous] = ["ambiguous:" + name for name in names[ambiguous].tolist()]
    blank = ledger.cls <= INITIAL  # no bounds
    ok = _OK_TEXTS.take(ledger.ok)
    ok[blank] = ""
    return _lines(ledger.cls.size, [
        _raw("%s", names), _numbers(ledger.delta), _numbers(ledger.lo, blank),
        _numbers(ledger.hi, blank), _raw("%s", ok)])


def write_ledger_csv(ledger: Ledger, path: str) -> None:
    _write_csv(path, ["t", "class", "delta", "bound_lo", "bound_hi", "ok"], _ledger_lines(ledger))


def write_report_json(report: dict, path: str) -> None:
    with _open_artifact(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Running


@dataclass
class RunResult:
    spec: ExperimentSpec
    config_hash: str
    trajectory: Trajectory
    report: dict
    paths: Dict[str, str]
    verdicts: List[dict]

    @property
    def all_passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts)


def _verdict(check: str, passed: bool, details: str, chash: str) -> dict:
    return {"check": check, "pass": bool(passed), "details": details, "config_hash": chash}


# ---------------------------------------------------------------------------
# Per-trajectory invariants, shared by the run verdicts and the verify suite.
# Float runs hold within REL_TOL (relative), exact runs exactly.


def _relative_gap(value: Number, reference: Number) -> Number:
    return div(abs(value - reference), max(1, abs(reference)))


def dual_replay(traj: Trajectory) -> Tuple[bool, Number]:
    """Whether y^{t+1} = y^t + eta_t A x^t holds on the stored columns, each
    row's residual within REL_TOL * max(1, |y^{t+1}|_inf) (0 in exact runs),
    and the largest residual.

    An exact run has a constant eta = p/q.  With the payoff rows P/D of
    ``traj.payoffs()`` and y = Y/D_y, the check is q D (Y[t+1] - Y[t]) ==
    p D_y P[t] in ints, one column at a time, and the largest residual is the
    largest gap over q D D_y, a Fraction.  This is the one invariant with two
    paths: one fold would put the etas column over a common denominator and
    form the float path's |y| bound in object ints, 2-3x slower on exact runs
    (exact FP at n=5, T=3000: 1.9 ms -> 4.9 ms)."""
    P, D = traj.payoffs()
    if traj.is_exact:  # an exact residual is 0 or not, at any scale
        Y, Dy = traj.over_common_denominator("ys")
        p, q = traj.config.eta.as_integer_ratio()
        scale = q * D
        steps = Y[1:] - Y[:-1]
        top = max(np.abs(scale * steps[:, i] - p * Dy * P[:, i]).max() for i in range(traj.n))
        return top == 0, Fraction(top, scale * Dy)
    ys = traj.ys
    etas = traj.config.etas()
    resid = np.abs(ys[1:] - ys[:-1] - P * etas[:, None]).max(axis=1)
    return bool((resid <= REL_TOL * np.maximum(1.0, np.abs(ys[1:]).max(axis=1))).all()), resid.max()


def energy_drops(traj: Trajectory) -> Tuple[List[int], float]:
    """Steps t >= 1 where the energy falls, relative to max(1, |H(y^t)|), and
    the worst relative one-step change.

    The energies are E/D over one common denominator (a float run's are
    their own numerators, over 1): a step falls when its difference is below
    -REL_TOL max(D, |E[t]|) (0 in exact runs), and its relative change is
    (E[t+1] - E[t]) / max(D, |E[t]|).  An exact run's int quotient is
    correctly rounded, and rounding is monotone, so the least of the
    quotients is the float of the least relative change."""
    E, D = traj.over_common_denominator("energies")
    steps = np.diff(E)[1:]
    scale = np.maximum(D, np.abs(E[1:-1]))
    drops = [int(t) + 1 for t in np.nonzero(steps < -tolerance(traj.is_exact, REL_TOL) * scale)[0]]
    try:
        return drops, float((steps / scale).min()) if steps.size else 0.0
    except OverflowError:  # an int quotient past the float range: find the least exactly
        return drops, float(min(map(Fraction, steps.tolist(), scale.tolist())))


def regret_route_gaps(traj: Trajectory, rep: RegretReport) -> Dict[str, Tuple[bool, Number]]:
    """(holds, relative gap) of each other regret route against the dual-based
    total: summed payoffs (``direct``), the average iterate's duality gap times
    T+1 (``gap``) and, for FP, the energy (``energy``).  On ``eta_schedule``
    runs the total sums the same payoff rows in the same order as ``direct``,
    so that gap is 0.0 by construction."""
    routes = {
        "direct": oracle.regret_direct(traj),
        "gap": rep.duality_gap_avg * (traj.horizon + 1),
    }
    if traj.config.algorithm == Algorithm.FICTITIOUS_PLAY:
        routes["energy"] = rep.regret_by_energy
    tol = tolerance(traj.is_exact, REL_TOL)
    gaps = {name: _relative_gap(value, rep.regret_total) for name, value in routes.items()}
    return {name: (gap <= tol, gap) for name, gap in gaps.items()}


def regret_bound_slack(traj: Trajectory, rep: RegretReport) -> Tuple[bool, Number]:
    """Whether the regret stays below ``regret_upper`` (constant stepsizes
    only), and the slack upper - total."""
    upper = rep.regret_upper
    slack = upper - rep.regret_total
    return slack >= -tolerance(traj.is_exact, REL_TOL) * max(1, abs(upper)), slack


def _run_verdicts(traj: Trajectory, rep: RegretReport, chash: str) -> List[dict]:
    """Universal invariants checked after every run.

    Regime-specific case bounds live in the ledger CSV instead; they assume the
    large-stepsize setting and would misfire on small-stepsize experiments.
    """
    total, upper = rep.regret_total, rep.regret_upper
    replay_ok, resid = dual_replay(traj)
    drops, _ = energy_drops(traj)
    routes = regret_route_gaps(traj, rep)
    direct_ok, direct_gap = routes["direct"]
    gap_ok, gap_gap = routes["gap"]
    # (check, passed, text of a passing exact run, text otherwise)
    rows = [
        ("dual_consistency", replay_ok, "exact replay", f"max dual residual {float(resid):.3g}"),
        ("energy_monotone", not drops, "exact monotone",
         f"energy drops at t={drops[:3]}" if drops else "monotone within 1e-9 relative"),
        ("regret_identity", direct_ok, "exact match", f"relative gap {float(direct_gap):.3g}"),
    ]
    if upper is not None:
        bound_ok, slack = regret_bound_slack(traj, rep)
        rows.append(("regret_upper_bound", bound_ok, f"total {total} <= bound {upper}",
                     f"bound slack {float(slack):.3g}"))
    # Duality gap of the average iterate times the iterate count is the regret.
    rows.append(("duality_gap_identity", gap_ok, "exact identity",
                 f"relative gap {float(gap_gap):.3g}"))
    return [
        _verdict(check, ok, exact_text if traj.is_exact and ok else text, chash)
        for check, ok, exact_text, text in rows
    ]


def run_experiment(spec: ExperimentSpec, out_dir: str) -> RunResult:
    """Run one experiment and write its requested artifacts."""
    chash = config_hash(spec)
    matrix = make_rps(spec.weights)
    traj = run(spec.learner, matrix)
    rep = regret(traj)

    phases: Optional[PhaseSummary] = None
    phases_note = ""
    try:
        phases = detect_phases(traj)
    except NoVertexReached as exc:
        phases_note = str(exc)

    ledger = energy_growth_ledger(traj)
    led = ledger_summary(ledger)

    slope_fit = None
    try:
        slope_fit = fit_regret_slope(rep.per_T_curve)
    except (ValueError, analysis.NonpositiveRegret):
        pass

    verdicts = _run_verdicts(traj, rep, chash)

    report = {
        "name": spec.name,
        "note": spec.note,
        "config": spec.to_json(),
        "config_hash": chash,
        "regret": _encode(rep),
        "slope": None
        if slope_fit is None
        else {"slope": slope_fit[0], "intercept": slope_fit[1]},
        "phases": None
        if phases is None
        else {
            "t0": phases.t0,
            "count": phases.count,
            # Phases always start at the first vertex iterate; the field stays
            # in the report's schema.
            "start_rule": "first_vertex",
            "vertices": (phases.vertex + 1).tolist(),
        },
        "phases_note": phases_note,
        "ledger": led,
        "verdicts": verdicts,
    }

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    # Looked up on each call, so a patched module writer is the one used.
    writers = {
        "trajectory_csv": ("__trajectory.csv", write_trajectory_csv, traj),
        "phases_csv": ("__phases.csv", write_phases_csv, phases),
        "ledger_csv": ("__ledger.csv", write_ledger_csv, ledger),
        "report_json": ("__report.json", write_report_json, report),
    }
    paths: Dict[str, str] = {}
    for kind, (suffix, write, data) in writers.items():
        if kind in spec.outputs:
            paths[kind] = os.path.join(out_dir, spec.name + suffix)
            write(data, paths[kind])
    return RunResult(spec, chash, traj, report, paths, verdicts)


@dataclass
class SweepResult:
    results: List[RunResult]
    csv_path: str

    @property
    def all_passed(self) -> bool:
        return all(r.all_passed for r in self.results)


def _filename_token(v) -> str:
    return format_value(v).replace("/", "_")


def run_sweep(spec: ExperimentSpec, out_dir: str) -> SweepResult:
    """Run the cartesian product of the sweep overrides; one artifact set per
    point plus an aggregate CSV."""
    if not spec.sweep:
        raise ConfigInvalid("sweep requested but the spec has no sweep entries")
    fields = [fname for fname, _ in spec.sweep]
    results: List[RunResult] = []
    lines: List[str] = []
    for combo in itertools.product(*(values for _, values in spec.sweep)):
        overrides = dict(zip(fields, combo))
        learner = dataclasses.replace(spec.learner, **overrides)
        suffix = "_".join(f"{f}_{_filename_token(v)}" for f, v in overrides.items())
        point = dataclasses.replace(
            spec, name=f"{spec.name}__{suffix}", learner=learner, sweep=()
        )
        res = run_experiment(point, out_dir)
        results.append(res)
        failed = [v["check"] for v in res.verdicts if not v["pass"]]
        slope = res.report["slope"]
        cells = [format_value(overrides[f]) for f in fields] + [
            format_value(res.report["regret"]["regret_total"]),
            "" if slope is None else format_value(slope["slope"]),
            "ok" if not failed else "fail:" + "+".join(failed),
        ]
        lines.append(",".join(cells) + "\n")
    csv_path = os.path.join(out_dir, f"{spec.name}__sweep.csv")
    _write_csv(csv_path, fields + ["regret_total", "slope", "verdicts"], lines)
    return SweepResult(results, csv_path)
