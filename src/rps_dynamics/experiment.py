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

Everything written is a deterministic function of the spec: floats are printed
with 17 significant digits, rationals as explicit ``p/q``, and line endings are
fixed, so identical specs produce byte-identical files.

Config files are JSON.  Any numeric field accepts a number, a decimal string,
or a ``"p/q"`` rational string; the presence of a rational string anywhere
switches the run to exact-rational arithmetic.
"""

import csv
import dataclasses
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import analysis, oracle
from .analysis import (
    INITIAL,
    LEDGER_CLASSES,
    UNCOVERED,
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
    run,
    tolerance,
)
from .errors import ConfigInvalid, IoError, NoVertexReached
from .game import Number, SimplexPoint, all_exact, is_exact, make_rps, number_to_json

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
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise ConfigInvalid(f"unknown output kind {kind!r}")
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

    def to_json(self) -> dict:
        lc = self.learner
        tb = None
        if lc.tiebreak is not None:
            tb = {"kind": lc.tiebreak.kind.value, "seed": lc.tiebreak.seed}
        return {
            "name": self.name,
            "weights": [number_to_json(w) for w in self.weights],
            "learner": {
                "algorithm": lc.algorithm.value,
                "eta": number_to_json(lc.eta),
                "horizon": lc.horizon,
                "x0": [number_to_json(c) for c in lc.x0.coords],
                "tiebreak": tb,
                "arithmetic": lc.arithmetic.value,
                "tie_tolerance": number_to_json(lc.tie_tolerance)
                if lc.tie_tolerance is not None
                else None,
                "bit_budget": lc.bit_budget,
                "eta_schedule": lc.eta_schedule,
            },
            "sweep": [
                [fname, [number_to_json(v) if not isinstance(v, str) else v for v in values]]
                for fname, values in self.sweep
            ],
            "outputs": list(self.outputs),
            "seed": self.seed,
        }


def config_hash(spec: ExperimentSpec) -> str:
    blob = json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Config parsing


def _parse_number(value, rational_seen: List[bool], where: str) -> Number:
    if isinstance(value, bool):
        raise ConfigInvalid(f"{where}: booleans are not numbers")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        s = value.strip()
        try:
            if "/" in s:
                rational_seen[0] = True
                return Fraction(s)
            return float(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigInvalid(f"{where}: cannot parse number {value!r}") from exc
    raise ConfigInvalid(f"{where}: expected a number, got {type(value).__name__}")


def parse_config(data: dict) -> ExperimentSpec:
    """Build a validated ExperimentSpec from a decoded JSON document."""
    if not isinstance(data, dict):
        raise ConfigInvalid("config root must be a JSON object")
    allowed = {"name", "weights", "learner", "sweep", "outputs", "seed", "note"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    rational_seen = [False]
    try:
        name = data["name"]
        weights = tuple(
            _parse_number(w, rational_seen, "weights") for w in data["weights"]
        )
        raw_learner = dict(data["learner"])
    except KeyError as exc:
        raise ConfigInvalid(f"missing config key {exc}") from exc

    unknown = set(raw_learner) - _LEARNER_FIELDS
    if unknown:
        raise ConfigInvalid(f"unknown learner keys: {sorted(unknown)}")
    try:
        algorithm = Algorithm(raw_learner["algorithm"])
    except (KeyError, ValueError) as exc:
        raise ConfigInvalid(f"learner.algorithm must be one of "
                            f"{[a.value for a in Algorithm]}") from exc
    horizon = raw_learner.get("horizon")
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise ConfigInvalid("learner.horizon must be an integer")
    try:
        x0_raw = raw_learner["x0"]
    except KeyError as exc:
        raise ConfigInvalid("learner.x0 is required") from exc
    x0_coords = tuple(_parse_number(c, rational_seen, "x0") for c in x0_raw)
    eta = raw_learner.get("eta", 1)
    if not isinstance(eta, (int, float)) or isinstance(eta, bool):
        eta = _parse_number(eta, rational_seen, "eta")

    tiebreak = None
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigInvalid("seed must be an integer")
    tb_raw = raw_learner.get("tiebreak")
    if tb_raw is not None:
        if not isinstance(tb_raw, dict) or "kind" not in tb_raw:
            raise ConfigInvalid('tiebreak must be {"kind": ..., "seed": optional}')
        try:
            kind = TiebreakKind(tb_raw["kind"])
        except ValueError as exc:
            raise ConfigInvalid(
                f"tiebreak.kind must be one of {[k.value for k in TiebreakKind]}"
            ) from exc
        tb_seed = tb_raw.get("seed")
        if kind == TiebreakKind.RANDOM_SEEDED and tb_seed is None:
            tb_seed = seed
        tiebreak = TiebreakRule(kind, tb_seed)

    tie_tol = raw_learner.get("tie_tolerance")
    if tie_tol is not None:
        tie_tol = _parse_number(tie_tol, rational_seen, "tie_tolerance")
    bit_budget = raw_learner.get("bit_budget", 4096)
    if not isinstance(bit_budget, int) or isinstance(bit_budget, bool):
        raise ConfigInvalid("bit_budget must be an integer")
    eta_schedule = raw_learner.get("eta_schedule")

    # Sweep values count towards the arithmetic: a p/q among them makes the
    # whole experiment rational.
    sweep: List[Tuple[str, Tuple]] = []
    for item in data.get("sweep", []):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigInvalid("sweep entries must be [field, [values...]] pairs")
        fname, values = item
        parsed: List = []
        for v in values:
            if fname == "horizon":
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ConfigInvalid("horizon sweep values must be integers")
                parsed.append(v)
            elif fname == "eta_schedule":
                parsed.append(v)
            else:
                parsed.append(_parse_number(v, rational_seen, f"sweep.{fname}"))
        sweep.append((fname, tuple(parsed)))

    note = data.get("note", "")
    explicit = raw_learner.get("arithmetic")
    if explicit is not None:
        try:
            arithmetic = Arithmetic(explicit)
        except ValueError as exc:
            raise ConfigInvalid(
                f"arithmetic must be one of {[a.value for a in Arithmetic]}"
            ) from exc
    else:
        arithmetic = Arithmetic.FLOAT64
    if rational_seen[0] and arithmetic != Arithmetic.EXACT_RATIONAL:
        arithmetic = Arithmetic.EXACT_RATIONAL
        note = (note + "; " if note else "") + "arithmetic forced to rational by p/q values"
    if arithmetic == Arithmetic.EXACT_RATIONAL and not all_exact(weights):
        raise ConfigInvalid("rational mode needs exact weights (int or p/q)")

    try:
        x0 = SimplexPoint(x0_coords)
    except ValueError as exc:
        raise ConfigInvalid(f"x0 is not a simplex point: {exc}") from exc
    learner = LearnerConfig(
        algorithm=algorithm,
        horizon=horizon,
        x0=x0,
        eta=eta,
        tiebreak=tiebreak,
        arithmetic=arithmetic,
        tie_tolerance=tie_tol,
        bit_budget=bit_budget,
        eta_schedule=eta_schedule,
    )

    outputs = tuple(data.get("outputs", OUTPUT_KINDS))
    return ExperimentSpec(
        name=name,
        weights=weights,
        learner=learner,
        sweep=tuple(sweep),
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
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
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

    Switching to rational requires every numeric input to already be exact;
    float inputs are refused rather than silently reinterpreted bit-for-bit.
    """
    try:
        arith = Arithmetic(target)
    except ValueError as exc:
        raise ConfigInvalid(f"unknown arithmetic {target!r}") from exc
    lc = spec.learner
    if arith == lc.arithmetic:
        return spec
    if arith == Arithmetic.EXACT_RATIONAL:
        if not all_exact(spec.weights) or not all_exact(lc.x0.coords) or not all_exact([lc.eta]):
            raise ConfigInvalid(
                "cannot switch to rational: config contains float values; "
                "write them as p/q strings instead"
            )
        learner = dataclasses.replace(lc, arithmetic=arith)
        return dataclasses.replace(spec, learner=learner)
    weights = tuple(float(w) for w in spec.weights)
    x0 = SimplexPoint(tuple(float(c) for c in lc.x0.coords))
    learner = dataclasses.replace(
        lc,
        arithmetic=arith,
        x0=x0,
        eta=float(lc.eta),
        tie_tolerance=float(lc.tie_tolerance) if lc.tie_tolerance is not None else None,
    )
    return dataclasses.replace(spec, weights=weights, learner=learner)


# ---------------------------------------------------------------------------
# Formatting / writers


def format_value(v) -> str:
    """Canonical cell text: 17-significant-digit floats, explicit p/q rationals."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _rational_cell(v) -> str:
    # In exact mode every numeric cell is explicit p/q, integers included.
    fr = Fraction(v)
    return f"{fr.numerator}/{fr.denominator}"


def _open_writer(path: str):
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return fh, csv.writer(fh, lineterminator="\n")


# Rows per write of the trajectory CSV: enough that formatting dominates the
# per-block cost, few enough that the block's Python objects stay under 1 MiB.
_CSV_BLOCK = 1024


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    n = traj.n
    T = traj.horizon
    exact = traj.is_exact
    cell = _rational_cell if exact else format_value
    # One %-format per row; "%.17g" prints what format_value does, and exact
    # cells arrive preformatted as p/q.
    row = ",".join(["%d"] + ["%s" if exact else "%.17g"] * (2 * n + 1) + ["%d"]) + "\n"
    fh, w = _open_writer(path)
    with fh:
        w.writerow(
            ["t"]
            + [f"x_{i}" for i in range(1, n + 1)]
            + [f"y_{i}" for i in range(1, n + 1)]
            + ["energy", "support"]
        )
        for start in range(0, T + 1, _CSV_BLOCK):
            block = slice(start, min(start + _CSV_BLOCK, T + 1))
            lines = []
            for t, x, y, e, mask in zip(
                range(start, block.stop),
                traj.xs[block].tolist(),
                traj.ys[block].tolist(),
                traj.energies[block].tolist(),
                traj.supports[block].tolist(),
            ):
                cells = x + y + [e]
                if exact:
                    cells = [cell(v) for v in cells]
                lines.append(row % (t, *cells, mask))
            fh.writelines(lines)
        w.writerow(
            [T + 1]
            + ["" for _ in range(n)]
            + [cell(v) for v in traj.y(T + 1)]
            + [cell(traj.energy(T + 1)), ""]
        )


def write_phases_csv(summary: Optional[PhaseSummary], path: str, exact: bool = False) -> None:
    cell = _rational_cell if exact else format_value
    fh, w = _open_writer(path)
    with fh:
        w.writerow(["k", "t_k", "tau_k", "vertex", "gamma_k", "c_k"])
        if summary is None:
            return
        for p in summary.phases:
            w.writerow(
                [p.index, p.t_start, p.length, p.vertex + 1,
                 cell(p.start_energy), 1 if p.energy_increased else 0]
            )


def write_ledger_csv(ledger: Ledger, path: str) -> None:
    # "%.17g" prints a float as format_value does, without its type tests.
    cell = _rational_cell if ledger.delta.dtype == object else "%.17g".__mod__
    fh, w = _open_writer(path)
    with fh:
        w.writerow(["t", "class", "delta", "bound_lo", "bound_hi", "ok"])
        for start in range(0, ledger.cls.size, _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            lines = []
            for t, code, ambiguous, delta, lo, hi, ok in zip(
                range(start, start + _CSV_BLOCK),
                ledger.cls[block].tolist(),
                ledger.ambiguous[block].tolist(),
                ledger.delta[block].tolist(),
                ledger.lo[block].tolist(),
                ledger.hi[block].tolist(),
                ledger.ok[block].tolist(),
            ):
                name = ledger.transition(t) if code == UNCOVERED else LEDGER_CLASSES[code]
                if ambiguous:
                    name = "ambiguous:" + name
                if code > INITIAL:
                    bounds = (cell(lo), cell(hi), "true" if ok else "false")
                else:
                    bounds = ("", "", "")
                lines.append("%d,%s,%s,%s,%s,%s\n" % (t, name, cell(delta), *bounds))
            fh.writelines(lines)


def write_report_json(report: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


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


def _jsonify(v):
    if isinstance(v, Fraction):
        return number_to_json(v)
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
    if isinstance(v, float):
        return float(v)
    return v


def _verdict(check: str, passed: bool, details: str, chash: str) -> dict:
    return {"check": check, "pass": bool(passed), "details": details, "config_hash": chash}


# ---------------------------------------------------------------------------
# Per-trajectory invariants, shared by the run verdicts and the verify suite.
# Float runs hold within REL_TOL (relative), exact runs exactly.


def _relative_gap(value: Number, reference: Number) -> Number:
    diff = abs(value - reference)
    return (Fraction(diff) if is_exact(diff) else diff) / max(1, abs(reference))


def dual_replay(traj: Trajectory) -> Tuple[bool, Number]:
    """Whether y^{t+1} = y^t + eta_t A x^t holds on the stored columns, and
    the largest residual."""
    ys = traj.ys
    etas = traj.config.etas()
    resid = np.abs(ys[1:] - ys[:-1] - traj.payoffs() * etas[:, None]).max()
    return resid <= tolerance(traj.is_exact, REL_TOL), resid


def energy_drops(traj: Trajectory) -> Tuple[List[int], float]:
    """Steps t >= 1 where the energy falls, relative to max(1, |H(y^t)|), and
    the worst relative one-step change."""
    H = traj.energies
    steps = np.diff(H)[1:]
    scale = np.maximum(1, np.abs(H[1:-1]))
    floor = -tolerance(traj.is_exact, REL_TOL) * scale
    drops = [int(t) + 1 for t in np.nonzero(steps < floor)[0]]
    return drops, float((steps / scale).min()) if steps.size else 0.0


def regret_route_gaps(traj: Trajectory, rep: RegretReport) -> Dict[str, Tuple[bool, Number]]:
    """(holds, relative gap) of each other regret route against the dual-based
    total: summed payoffs (``direct``), the average iterate's duality gap times
    T+1 (``gap``) and, for FP, the energy (``energy``)."""
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
        "regret": _jsonify(
            {
                "regret_total": rep.regret_total,
                "regret_by_energy": rep.regret_by_energy,
                "regret_upper": rep.regret_upper,
                "duality_gap_avg": rep.duality_gap_avg,
                "average_iterate": list(rep.average_iterate.coords),
                "per_T_curve": [[t, r] for t, r in rep.per_T_curve],
            }
        ),
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
            "vertices": [p.vertex + 1 for p in phases.phases],
        },
        "phases_note": phases_note,
        "ledger": led,
        "verdicts": verdicts,
    }

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    paths: Dict[str, str] = {}
    base = os.path.join(out_dir, spec.name)
    if "trajectory_csv" in spec.outputs:
        paths["trajectory_csv"] = base + "__trajectory.csv"
        write_trajectory_csv(traj, paths["trajectory_csv"])
    if "phases_csv" in spec.outputs:
        paths["phases_csv"] = base + "__phases.csv"
        write_phases_csv(phases, paths["phases_csv"], exact=traj.is_exact)
    if "ledger_csv" in spec.outputs:
        paths["ledger_csv"] = base + "__ledger.csv"
        write_ledger_csv(ledger, paths["ledger_csv"])
    if "report_json" in spec.outputs:
        paths["report_json"] = base + "__report.json"
        write_report_json(report, paths["report_json"])
    return RunResult(spec, chash, traj, report, paths, verdicts)


@dataclass
class SweepResult:
    results: List[RunResult]
    rows: List[dict]
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
    rows: List[dict] = []
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
        rows.append(
            {
                **{f: format_value(v) for f, v in overrides.items()},
                "regret_total": format_value(res.report["regret"]["regret_total"]),
                "slope": "" if slope is None else format_value(slope["slope"]),
                "verdicts": "ok" if not failed else "fail:" + "+".join(failed),
            }
        )
    csv_path = os.path.join(out_dir, f"{spec.name}__sweep.csv")
    fh, w = _open_writer(csv_path)
    with fh:
        header = fields + ["regret_total", "slope", "verdicts"]
        w.writerow(header)
        for row in rows:
            w.writerow([row[h] for h in header])
    return SweepResult(results, rows, csv_path)
