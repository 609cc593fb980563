import csv
import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from rps_dynamics import (
    Algorithm,
    Arithmetic,
    ConfigInvalid,
    ExperimentSpec,
    IoError,
    LearnerConfig,
    SimplexPoint,
    TiebreakKind,
    TiebreakRule,
    config_hash,
    load_config,
    make_rps,
    parse_config,
    run,
    run_experiment,
    run_sweep,
    with_arithmetic,
    with_seed,
)
from rps_dynamics.analysis import (INITIAL, detect_phases, energy_growth_ledger, regret_at,
                                   small_stepsize_energy_check)
from rps_dynamics.cli import main
from rps_dynamics.errors import NonpositiveWeight, NoVertexReached
from rps_dynamics.experiment import (
    _CSV_BLOCK,
    OUT_ENV,
    OUTPUT_KINDS,
    _lines,
    _number_cell,
    _numbers,
    default_out_dir,
    format_value,
)
from rps_dynamics.presets import all_presets, get_preset
from rps_dynamics.verification import FULL_CAP, QUICK_CAP, TrajectoryStore


def fp_config(**over):
    cfg = {
        "name": "t",
        "weights": [1, 1, 1],
        "learner": {
            "algorithm": "fp",
            "horizon": 30,
            "x0": [1, 0, 0],
        },
    }
    cfg.update(over)
    return cfg


def write_json(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


# ---------------------------------------------------------------------------
# Config parsing


def test_parse_minimal_config():
    spec = parse_config(fp_config())
    assert spec.name == "t"
    assert spec.weights == (1, 1, 1)
    assert spec.learner.horizon == 30
    assert spec.learner.arithmetic == Arithmetic.FLOAT64
    assert spec.outputs == OUTPUT_KINDS
    assert spec.seed == 0 and spec.sweep == ()


def test_parse_pq_strings_force_rational():
    cfg = fp_config()
    cfg["learner"]["x0"] = ["1/3", "1/3", "1/3"]
    spec = parse_config(cfg)
    assert spec.learner.arithmetic == Arithmetic.EXACT_RATIONAL
    assert spec.learner.x0.coords == (Fraction(1, 3),) * 3
    assert "forced to rational" in spec.note


def test_parse_pq_with_float_elsewhere_rejected():
    cfg = fp_config()
    cfg["learner"]["x0"] = ["1/2", "1/2", 0]
    cfg["weights"] = [1.5, 1.0, 1.0]
    with pytest.raises(ConfigInvalid):
        parse_config(cfg)


def test_parse_pq_sweep_value_forces_rational():
    cfg = {
        "name": "t",
        "weights": [1, 1, 1],
        "learner": {"algorithm": "gd", "eta": 1, "horizon": 5, "x0": [1, 0, 0]},
        "sweep": [["eta", ["1/2", 2]]],
    }
    spec = parse_config(cfg)
    assert spec.learner.arithmetic == Arithmetic.EXACT_RATIONAL
    assert spec.sweep == (("eta", (Fraction(1, 2), 2)),)
    assert "forced to rational" in spec.note
    # A rational run breaks FP ties exactly: a p/q tolerance cannot apply.
    with pytest.raises(ConfigInvalid):
        parse_config(fp_config(sweep=[["tie_tolerance", ["1/2", 0]]]))


def test_parse_pq_sweep_value_with_float_weights_rejected():
    # A p/q sweep value makes the run rational, which float weights cannot be.
    cfg = {
        "name": "t",
        "weights": [1.0, 1.0, 1.0],
        "learner": {"algorithm": "gd", "eta": 1.0, "horizon": 5, "x0": [1, 0, 0]},
        "sweep": [["eta", ["1/2", "2"]]],
    }
    with pytest.raises(ConfigInvalid):
        parse_config(cfg)


def test_parse_rejects_sweep_value_the_arithmetic_cannot_run():
    # "2" is a decimal string, so a float eta, which a rational run refuses.
    cfg = {
        "name": "t",
        "weights": [1, 1, 1],
        "learner": {"algorithm": "gd", "eta": 1, "horizon": 5, "x0": [1, 0, 0]},
        "sweep": [["eta", ["1/2", "2"]]],
    }
    with pytest.raises(ConfigInvalid):
        parse_config(cfg)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigInvalid):
        parse_config(fp_config(extra=1))
    cfg = fp_config()
    cfg["learner"]["mystery"] = 1
    with pytest.raises(ConfigInvalid):
        parse_config(cfg)


def test_parse_rejects_bad_fields():
    cfg = fp_config()
    cfg["learner"]["algorithm"] = "sgd"
    with pytest.raises(ConfigInvalid):
        parse_config(cfg)
    cfg = fp_config()
    cfg["learner"]["horizon"] = True
    with pytest.raises(ConfigInvalid):
        parse_config(cfg)
    cfg = fp_config()
    cfg["weights"] = [1, "one", 1]
    with pytest.raises(ConfigInvalid):
        parse_config(cfg)
    with pytest.raises(ConfigInvalid, match="root"):
        parse_config([fp_config()])
    for field, spoil in (
        ("name", lambda cfg: cfg.pop("name")),
        ("horizon", lambda cfg: cfg["learner"].pop("horizon")),
        ("tiebreak", lambda cfg: cfg["learner"].update(tiebreak="lexicographic")),
        ("sweep entries", lambda cfg: cfg.update(sweep=[["horizon"]])),
        ("x0", lambda cfg: cfg["learner"].update(x0=[1, 1, 0])),
        # ExperimentSpec's own rules
        ("name", lambda cfg: cfg.update(name="")),
        ("output kind", lambda cfg: cfg.update(outputs=["pdf"])),
        ("nonempty value list", lambda cfg: cfg.update(sweep=[["horizon", []]])),
    ):
        cfg = fp_config()
        spoil(cfg)
        with pytest.raises(ConfigInvalid, match=field):
            parse_config(cfg)


def test_python_api_refuses_the_booleans_parse_config_refuses():
    """True is an int to Python, so a range check alone lets it through; a
    spec built from it would hash apart from the same run with 1 and echo a
    config that does not parse back."""
    vertex = SimplexPoint.vertex(3, 0)
    with pytest.raises(ConfigInvalid, match="eta"):
        LearnerConfig(algorithm=Algorithm.GRADIENT_DESCENT, horizon=10, x0=vertex, eta=True)
    with pytest.raises(ConfigInvalid, match="tie_tolerance"):
        LearnerConfig(algorithm=Algorithm.FICTITIOUS_PLAY, horizon=10, x0=vertex, tie_tolerance=True)
    with pytest.raises(ValueError, match="True"):
        SimplexPoint((True, False, False))
    with pytest.raises(NonpositiveWeight, match="True"):
        make_rps((True, 1, 1))
    for weights, learner in (([True, 1, 1], {}), ([1, 1, 1], {"x0": [True, False, False]}),
                             ([1, 1, 1], {"tie_tolerance": True}),
                             ([1, 1, 1], {"algorithm": "gd", "eta": True})):
        cfg = fp_config(weights=weights)
        cfg["learner"].update(learner)
        with pytest.raises(ConfigInvalid):
            parse_config(cfg)


def test_tiebreak_seed_defaults_to_experiment_seed():
    cfg = fp_config(seed=7)
    cfg["learner"]["tiebreak"] = {"kind": "random_seeded"}
    spec = parse_config(cfg)
    assert spec.learner.tiebreak.kind == TiebreakKind.RANDOM_SEEDED
    assert spec.learner.tiebreak.seed == 7


def test_load_config_errors(tmp_path):
    with pytest.raises(IoError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigInvalid):
        load_config(str(bad))


def test_config_hash_stability():
    a = parse_config(fp_config())
    b = parse_config(fp_config())
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    cfg = fp_config()
    cfg["learner"]["horizon"] = 31
    assert config_hash(parse_config(cfg)) != config_hash(a)


def test_with_arithmetic_refuses_lossy_switch():
    cfg = fp_config()
    cfg["weights"] = [1.5, 1.0, 1.0]
    spec = parse_config(cfg)
    with pytest.raises(ConfigInvalid):
        with_arithmetic(spec, "rational")
    with pytest.raises(ConfigInvalid):
        with_arithmetic(spec, "complex")


def test_with_arithmetic_switches_exact_config(tmp_path):
    spec = parse_config(fp_config())           # all ints: safe to promote
    up = with_arithmetic(spec, "rational")
    assert up.learner.arithmetic == Arithmetic.EXACT_RATIONAL
    down = with_arithmetic(up, "float")
    assert down.learner.arithmetic == Arithmetic.FLOAT64
    assert all(isinstance(w, float) for w in down.weights)
    assert with_arithmetic(spec, "float") is spec
    # p/q sweep values become floats too, so every point's config echo
    # parses back to the point that ran.
    cfg = fp_config(sweep=[["eta", ["1/2", "3/2"]]])
    cfg["learner"].update(algorithm="gd", eta="1/2")
    swept = run_sweep(with_arithmetic(parse_config(cfg), "float"), str(tmp_path))
    assert len(swept.results) == 2
    for res in swept.results:
        assert res.spec.learner.arithmetic == Arithmetic.FLOAT64
        assert config_hash(parse_config(res.report["config"])) == res.config_hash


def test_switch_to_float_refuses_values_past_the_float_range(tmp_path, capsys):
    """A rational config whose weight, eta or swept eta has no float value
    is a config error when switched to float, and ``rpsdyn run
    --arithmetic float`` on it exits 2."""
    huge = f"{10**400}/3"
    cases = [dict(weights=[huge, 1, 1]), dict(learner=dict(algorithm="gd", eta=huge)),
             dict(learner=dict(algorithm="gd", eta=1), sweep=[["eta", [1, huge]]])]
    for k, case in enumerate(cases):
        cfg = fp_config()
        cfg["learner"].update(arithmetic="rational", **case.pop("learner", {}))
        cfg.update(case)
        spec = parse_config(cfg)
        with pytest.raises(ConfigInvalid, match="float range"):
            with_arithmetic(spec, "float")
        path = write_json(tmp_path, cfg, f"huge{k}.json")
        capsys.readouterr()
        assert main(["run", "--config", path, "--arithmetic", "float", "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err


def test_with_seed_reseeds_random_tiebreak():
    cfg = fp_config(seed=1)
    cfg["learner"]["tiebreak"] = {"kind": "random_seeded"}
    spec = with_seed(parse_config(cfg), 9)
    assert spec.seed == 9
    assert spec.learner.tiebreak.seed == 9
    plain = with_seed(parse_config(fp_config()), 9)
    assert plain.learner.tiebreak is None


def test_default_out_dir_env(monkeypatch):
    monkeypatch.delenv(OUT_ENV, raising=False)
    assert default_out_dir() == "rpsdyn_out"
    monkeypatch.setenv(OUT_ENV, "/tmp/elsewhere")
    assert default_out_dir() == "/tmp/elsewhere"


# ---------------------------------------------------------------------------
# Artifacts


def test_trajectory_csv_layout(tmp_path):
    cfg = fp_config()
    cfg["learner"]["horizon"] = 3
    res = run_experiment(parse_config(cfg), str(tmp_path))
    with open(res.paths["trajectory_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_1", "x_2", "x_3", "y_1", "y_2", "y_3",
                       "energy", "support"]
    assert len(rows) == 1 + 3 + 2           # header, t=0..3, final dual row
    assert rows[1][0] == "0" and rows[1][-1] == "1"   # x^0 = e_1, mask bit 1
    final = rows[-1]
    assert final[0] == "4"
    assert final[1:4] == ["", "", ""] and final[-1] == ""
    assert final[4:7] != ["", "", ""]


def _csv_by_cell(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _run_csvs_by_cell(traj, tmp_path):
    """Per-cell csv.writer references of a run's trajectory, phases and ledger
    CSVs, which the bulk writers must reproduce byte for byte."""
    cell = _number_cell if traj.is_exact else format_value
    n, T = traj.n, traj.horizon
    rows = [[t] + [cell(v) for v in traj.x(t)] + [cell(v) for v in traj.y(t)]
            + [cell(traj.energy(t)), str(traj.support_mask(t))] for t in range(T + 1)]
    rows.append([T + 1] + [""] * n + [cell(v) for v in traj.y(T + 1)]
                + [cell(traj.energy(T + 1)), ""])
    refs = {"trajectory_csv": (["t"] + [f"x_{i}" for i in range(1, n + 1)]
                               + [f"y_{i}" for i in range(1, n + 1)] + ["energy", "support"],
                               rows)}
    try:
        ph = detect_phases(traj)
        rows = [[k, int(ph.t_start[k]), int(ph.length[k]), int(ph.vertex[k]) + 1,
                 cell(ph.start_energy[k]), 1 if ph.energy_increased[k] else 0]
                for k in range(ph.count)]
    except NoVertexReached:
        rows = []
    refs["phases_csv"] = (["k", "t_k", "tau_k", "vertex", "gamma_k", "c_k"], rows)
    led = energy_growth_ledger(traj)
    rows = []
    for t in range(led.cls.size):
        name = ("ambiguous:" if led.ambiguous[t] else "") + led.transition(t)
        bounds = ["", "", ""]
        if led.cls[t] > INITIAL:
            bounds = [cell(led.lo[t]), cell(led.hi[t]), "true" if led.ok[t] else "false"]
        rows.append([t, name, cell(led.delta[t])] + bounds)
    refs["ledger_csv"] = (["t", "class", "delta", "bound_lo", "bound_hi", "ok"], rows)
    for kind, (header, rows) in refs.items():
        _csv_by_cell(tmp_path / f"ref_{kind}", header, rows)
    return {kind: (tmp_path / f"ref_{kind}").read_bytes() for kind in refs}


_GD_UNIT_CYCLE = {"algorithm": "gd", "horizon": 3000, "eta": 1.0, "x0": [1.0, 0.0, 0.0]}

# Keyed by test id: "False" and "True" are a weighted 4-cycle in float
# (T crosses the 1024-row blocks several times) and exact arithmetic.
_PER_CELL_CONFIGS = {
    "False": {"name": "big", "weights": [1.0, 2.0, 1.0, 3.0],
              "learner": {"algorithm": "gd", "horizon": 9000, "eta": 1.5,
                          "x0": [0.1, 0.2, 0.3, 0.4]}},
    "True": {"name": "big", "weights": [1, 2, 1, 3],
             "learner": {"algorithm": "gd", "horizon": 120, "eta": "3/2",
                         "x0": ["1/10", "2/10", "3/10", "4/10"]}},
    # Its ledger has ambiguous and uncovered rows on both sides of a block edge.
    "unit_cycle": {"name": "unit", "weights": [1.0, 1.0, 1.0], "learner": _GD_UNIT_CYCLE},
    # Empty and string cells in the sweep CSV.
    "sweep": {"name": "sw", "weights": [1.0, 1.0, 1.0],
              "learner": dict(_GD_UNIT_CYCLE, horizon=200),
              "sweep": [["eta_schedule", [None, "inv_sqrt_t"]]]},
    # Vertex-regime GD (gd4_main's start): few distinct floats per column.
    "vertex_gd": {"name": "vx", "weights": [1.0] * 4,
                  "learner": {"algorithm": "gd", "horizon": 3000, "eta": 6.0,
                              "x0": [0.05, 0.35, 0.39, 0.21]}},
    # Float FP whose orbit closes after 8 steps: rows from t = 9 on are tiled.
    "closed_fp": {"name": "orbit", "weights": [1.0] * 4,
                  "learner": {"algorithm": "fp", "horizon": 3000, "x0": [1.0, 0.0, 0.0, 0.0],
                              "tiebreak": {"kind": "prefer_switch"}}},
    "exact_tournament": {"name": "tour", "weights": [1] * 5,
                         "learner": {"algorithm": "fp", "horizon": 1100, "x0": [1, 0, 0, 0, 0],
                                     "tiebreak": {"kind": "tournament"},
                                     "arithmetic": "rational"}},
    # Exact FP whose orbit (period 25) is tiled: cells repeat the very objects.
    "exact_tiled_fp": {"name": "tiled", "weights": [1] * 5,
                       "learner": {"algorithm": "fp", "horizon": 3000, "x0": [1, 0, 0, 0, 0],
                                   "tiebreak": {"kind": "tournament"},
                                   "arithmetic": "rational"}},
    # Exact GD whose ledger has blank bound cells past row 0 (uncovered steps).
    "exact_gd_blank": {"name": "blank", "weights": [1, 1, 1],
                       "learner": {"algorithm": "gd", "horizon": 400, "eta": 1, "x0": [1, 0, 0],
                                   "arithmetic": "rational"}},
}


@pytest.mark.parametrize("case", list(_PER_CELL_CONFIGS))
def test_trajectory_csv_matches_per_cell_writer(tmp_path, case):
    """Every CSV writer prints what a quoting csv.writer prints cell by cell."""
    spec = parse_config(_PER_CELL_CONFIGS[case])
    if not spec.sweep:
        results = [run_experiment(spec, str(tmp_path))]
    else:
        sw = run_sweep(spec, str(tmp_path))
        results = sw.results
        rows = []
        for res in results:
            failed = [v["check"] for v in res.verdicts if not v["pass"]]
            slope = res.report["slope"]
            rows.append([format_value(res.spec.learner.eta_schedule),
                         format_value(res.report["regret"]["regret_total"]),
                         "" if slope is None else format_value(slope["slope"]),
                         "fail:" + "+".join(failed) if failed else "ok"])
        assert [r[0] for r in rows] == ["", "inv_sqrt_t"]
        header = ["eta_schedule", "regret_total", "slope", "verdicts"]
        _csv_by_cell(tmp_path / "ref_sweep", header, rows)
        with open(sw.csv_path, "rb") as got:
            assert got.read() == (tmp_path / "ref_sweep").read_bytes()
    for res in results:
        refs = _run_csvs_by_cell(res.trajectory, tmp_path)
        for kind, ref in refs.items():
            with open(res.paths[kind], "rb") as got:
                assert got.read() == ref, kind
    if case == "unit_cycle":
        ledger = refs["ledger_csv"].decode()
        assert ledger.count("\n") > 2 * 1024
        assert "ambiguous:" in ledger and "uncovered:" in ledger
    traj = results[0].trajectory
    if case == "vertex_gd":  # the y columns take the formatted-once path
        assert [_numbers(col)[0] for col in traj.ys.T] == ["%s"] * 4
    if case == "closed_fp":
        assert np.array_equal(traj.ys[9:], traj.ys[1:-8])
    if case == "exact_tiled_fp":
        assert all(a is b for a, b in zip(traj.ys[26:].ravel().tolist(), traj.ys[1:-25].ravel().tolist()))
    if case == "exact_gd_blank":
        assert refs["ledger_csv"].decode().count(",,,\n") > 1


def _special_floats():
    """Floats whose text is easy to get wrong: signed zeros, one-ulp
    neighbours, non-finite values and both ends of the range."""
    return [-0.0, 0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), np.nan,
            np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
@pytest.mark.parametrize("column", ["few_floats", "all_floats", "exact"])
def test_column_cells_match_per_cell_formatting(rows, column):
    """A column's lines, across block edges, print each cell as
    ``format_value`` (floats) or ``_number_cell`` (exact values) does."""
    special = _special_floats()
    if column == "few_floats":
        values = np.resize(np.array(special), rows)
    elif column == "all_floats":
        values = np.concatenate([special, np.linspace(-3.0, 7.0, rows - len(special))])
    else:
        exact = [0, 1, -7, 10**30, Fraction(1, 3), Fraction(-22, 7), Fraction(5, 10**40), None]
        values = np.empty(rows, dtype=object)
        values[:] = [exact[t % len(exact)] for t in range(rows)]
    cell = _number_cell if column == "exact" else format_value
    cases = [(None, ["" if v is None else cell(v) for v in values.tolist()])]
    if column != "exact":  # blank rows print empty
        blank = np.arange(rows) % 5 == 3
        cases.append((blank, ["" if b else cell(v) for v, b in zip(values.tolist(), blank)]))
    for mask, cells in cases:
        spec, block = _numbers(values, mask)
        if column == "few_floats" or mask is not None:
            assert spec == "%s"  # each distinct float formatted once
        elif column == "all_floats":
            assert spec == "%.17g"
        lines = list(_lines(rows, [(spec, block)]))
        assert len(lines) == -(-rows // _CSV_BLOCK)
        assert "".join(lines).split("\n") == [f"{t},{c}" for t, c in enumerate(cells)] + [""]


def test_rational_csv_cells(tmp_path):
    cfg = fp_config()
    cfg["learner"]["horizon"] = 5
    cfg["learner"]["arithmetic"] = "rational"
    res = run_experiment(parse_config(cfg), str(tmp_path))
    with open(res.paths["trajectory_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    # Every numeric cell is explicit p/q, integers included.
    for cell in rows[1][1:8]:
        assert "/" in cell
    assert rows[1][1:4] == ["1/1", "0/1", "0/1"]


def test_phases_and_ledger_csv(tmp_path):
    res = run_experiment(parse_config(fp_config()), str(tmp_path))
    with open(res.paths["phases_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "t_k", "tau_k", "vertex", "gamma_k", "c_k"]
    # Reference run: phases at vertices 2, 3, 1 (1-based) with lengths 3, 5, 7.
    assert [r[3] for r in rows[1:4]] == ["2", "3", "1"]
    assert [r[2] for r in rows[1:4]] == ["3", "5", "7"]
    assert [r[5] for r in rows[1:4]] == ["0", "1", "0"]
    with open(res.paths["ledger_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "class", "delta", "bound_lo", "bound_hi", "ok"]
    assert rows[1][1] == "initial" and rows[1][5] == ""
    assert {r[1] for r in rows[2:]} == {"fp_same", "fp_switch"}
    assert all(r[5] == "true" for r in rows[2:])


def test_report_json_contents(tmp_path):
    res = run_experiment(parse_config(fp_config()), str(tmp_path))
    with open(res.paths["report_json"]) as fh:
        report = json.load(fh)
    assert report["config_hash"] == res.config_hash
    assert set(report) >= {"name", "config", "regret", "phases", "ledger", "verdicts"}
    assert report["ledger"]["violations"] == 0
    assert all(v["pass"] for v in report["verdicts"])
    assert res.all_passed


def test_runs_are_byte_reproducible(tmp_path):
    cfg = fp_config(seed=3)
    cfg["learner"]["tiebreak"] = {"kind": "random_seeded"}
    a = run_experiment(parse_config(cfg), str(tmp_path / "a"))
    b = run_experiment(parse_config(cfg), str(tmp_path / "b"))
    for kind in OUTPUT_KINDS:
        with open(a.paths[kind], "rb") as fa, open(b.paths[kind], "rb") as fb:
            assert fa.read() == fb.read(), kind


def test_seed_changes_random_tiebreak_run(tmp_path):
    cfg = fp_config(seed=1)
    cfg["learner"]["horizon"] = 60
    cfg["learner"]["tiebreak"] = {"kind": "random_seeded"}
    spec = parse_config(cfg)
    a = run_experiment(spec, str(tmp_path / "a"))
    b = run_experiment(with_seed(spec, 2), str(tmp_path / "b"))
    with open(a.paths["trajectory_csv"], "rb") as fa, \
         open(b.paths["trajectory_csv"], "rb") as fb:
        assert fa.read() != fb.read()


def test_run_sweep(tmp_path):
    cfg = {
        "name": "sw",
        "weights": [1.0, 1.0, 1.0],
        "learner": {
            "algorithm": "gd",
            "horizon": 40,
            "eta": 1.0,
            "x0": [0.2, 0.3, 0.5],
        },
        "sweep": [["eta", [0.5, 2.0]]],
        "outputs": ["report_json"],
    }
    sw = run_sweep(parse_config(cfg), str(tmp_path))
    assert len(sw.results) == 2
    assert [r.spec.learner.eta for r in sw.results] == [0.5, 2.0]
    with open(sw.csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eta", "regret_total", "slope", "verdicts"]
    assert len(rows) == 3
    assert [row[3] for row in rows[1:]] == ["ok", "ok"]


def test_rational_sweep_runs_rational(tmp_path):
    cfg = {
        "name": "sw",
        "weights": [1, 1, 1],
        "learner": {"algorithm": "gd", "eta": 1, "horizon": 5, "x0": [1, 0, 0]},
        "sweep": [["eta", ["1/2", 2]]],
        "outputs": ["report_json"],
    }
    sw = run_sweep(parse_config(cfg), str(tmp_path))
    assert [r.spec.learner.eta for r in sw.results] == [Fraction(1, 2), 2]
    for res in sw.results:
        assert res.trajectory.is_exact
        with open(res.paths["report_json"]) as fh:
            report = json.load(fh)
        assert report["config"]["learner"]["arithmetic"] == "rational"
    assert report["config"]["learner"]["eta"] == 2
    assert sw.all_passed


def test_run_sweep_requires_sweep():
    with pytest.raises(ConfigInvalid):
        run_sweep(parse_config(fp_config()), "unused")


# ---------------------------------------------------------------------------
# Presets


def test_preset_catalog():
    ids = [p.id for p in all_presets()]
    assert len(ids) == len(set(ids)) == 8
    assert {"fig1a", "fig1b", "fig1c", "fig_fp_regret"} <= set(ids)
    for p in all_presets():
        assert p.description
        assert p.specs
        for spec in p.specs:
            config_hash(spec)    # every preset is a valid, hashable spec


def test_preset_specs_round_trip_through_json():
    for p in all_presets():
        for spec in p.specs:
            again = parse_config(json.loads(json.dumps(spec.to_json())))
            assert config_hash(again) == config_hash(spec), spec.name


@pytest.mark.parametrize("cap", [QUICK_CAP, FULL_CAP])
def test_store_configs_round_trip_through_json(cap):
    store = TrajectoryStore(cap)
    assert store.catalog() == sorted(store.configs)
    for key, doc in store.configs.items():
        assert doc["name"] == key
        assert parse_config(json.loads(json.dumps(doc))) == parse_config(doc), key


# Specs covering both algorithms, every tiebreak kind, tie_tolerance set and
# unset, a non-default bit_budget, eta_schedule, and float and rational runs
# with and without a sweep.
_FP, _GD = Algorithm.FICTITIOUS_PLAY, Algorithm.GRADIENT_DESCENT
_RATIONAL = Arithmetic.EXACT_RATIONAL
_X3 = SimplexPoint((0.2, 0.3, 0.5))
_Q3 = SimplexPoint((Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)))
CODEC_SPECS = [
    ExperimentSpec("fp_plain", (1.0, 2.0, 3.0), LearnerConfig(_FP, 40, _X3)),
    *(
        ExperimentSpec(f"fp_{kind.value}", (1, 1, 1), LearnerConfig(
            _FP, 40, SimplexPoint.vertex(3, 0),
            tiebreak=TiebreakRule(kind, 7 if kind == TiebreakKind.RANDOM_SEEDED else None),
        ), seed=3)
        for kind in TiebreakKind
    ),
    ExperimentSpec("fp_tie_tolerance", (1.0, 1.0, 1.0),
                   LearnerConfig(_FP, 40, _X3, tie_tolerance=1e-6, bit_budget=64)),
    ExperimentSpec("fp_rational", (1, Fraction(2, 3), 3),
                   LearnerConfig(_FP, 40, _Q3, arithmetic=_RATIONAL, tie_tolerance=0,
                                 bit_budget=512),
                   sweep=(("horizon", (10, 20)),)),
    ExperimentSpec("gd_float", (1.0, 1.0, 1.0, 1.0),
                   LearnerConfig(_GD, 40, SimplexPoint((0.1, 0.2, 0.3, 0.4)), eta=0.5),
                   sweep=(("eta", (0.1, 10.0)), ("eta_schedule", (None, "inv_sqrt_t")))),
    ExperimentSpec("gd_schedule", (1.0, 1.0, 1.0),
                   LearnerConfig(_GD, 40, _X3, eta_schedule="inv_sqrt_t"),
                   outputs=("report_json",)),
    ExperimentSpec("gd_rational", (1, 2, 3),
                   LearnerConfig(_GD, 40, _Q3, eta=Fraction(3, 2), arithmetic=_RATIONAL),
                   sweep=(("eta", (Fraction(1, 2), 2)), ("bit_budget", (64, 128)))),
]


@pytest.mark.parametrize("spec", CODEC_SPECS, ids=lambda spec: spec.name)
def test_config_codec_round_trip(spec):
    doc = spec.to_json()
    assert set(doc["learner"]) == {f.name for f in dataclasses.fields(LearnerConfig)}
    again = parse_config(json.loads(json.dumps(doc)))
    assert again.to_json() == doc
    assert config_hash(again) == config_hash(spec)
    assert again.learner == spec.learner and again.weights == spec.weights


def test_get_preset_unknown():
    with pytest.raises(ConfigInvalid):
        get_preset("fig_nonexistent")


def test_preset_smallest_runs(tmp_path):
    preset = get_preset("fig1a")
    res = run_experiment(preset.specs[0], str(tmp_path))
    assert res.all_passed


# ---------------------------------------------------------------------------
# CLI


def test_cli_run(tmp_path, capsys):
    path = write_json(tmp_path, fp_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["t__ledger.csv", "t__phases.csv",
                     "t__report.json", "t__trajectory.csv"]
    text = capsys.readouterr().out
    assert "Reg(T)" in text and "[ok]" in text


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path)]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    assert main(["run", "--config", str(not_utf8), "--out", str(tmp_path)]) == 2
    for name in ("../escaped", "a/b"):
        path = write_json(tmp_path, fp_config(name=name), "named.json")
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.parent.glob("escaped__*"))
    assert not list(tmp_path.rglob("*__*"))
    floaty = write_json(tmp_path, fp_config(weights=[1.5, 1.0, 1.0]), "f.json")
    assert main(["run", "--config", floaty, "--arithmetic", "rational",
                 "--out", str(tmp_path)]) == 2
    # p/q weights make the run rational, where a tie tolerance of 0.0 is a float.
    tenths = fp_config(weights=["1/10", "2/10", "3/10"])
    tenths["learner"]["tie_tolerance"] = 0.0
    capsys.readouterr()
    assert main(["run", "--config", write_json(tmp_path, tenths, "tenths.json"),
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    vector_sweep = write_json(tmp_path, fp_config(sweep=[["x0", [1, 2]]]), "v.json")
    assert main(["sweep", "--config", vector_sweep, "--out", str(tmp_path)]) == 2
    # Sweeps whose points would share one set of artifact names.
    gd = fp_config()
    gd["learner"].update(algorithm="gd", eta=2.0)
    for sweep in ([["horizon", [5, 6]], ["horizon", [7]]], [["eta", [6, 6.0]]],
                  [["eta", [2.0, 2.0]]]):
        path = write_json(tmp_path, dict(gd, sweep=sweep), "dup.json")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "dup")]) == 2
    assert not (tmp_path / "dup").exists()
    with pytest.raises(SystemExit):
        main(["run"])                        # --config is required


def test_cli_run_float_overflow_exits_2(tmp_path, capsys):
    cfg = fp_config()
    cfg["learner"].update(algorithm="gd", horizon=50, eta=1e308)
    path = write_json(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "overflow" in capsys.readouterr().err


_WRONG_JSON_TYPES = {
    "weights": lambda cfg: cfg.update(weights=5),
    "learner": lambda cfg: cfg.update(learner=5),
    "x0": lambda cfg: cfg["learner"].update(x0=5),
    "sweep": lambda cfg: cfg.update(sweep=5),
    "sweep_values": lambda cfg: cfg.update(sweep=[["eta", 5]]),
    "outputs": lambda cfg: cfg.update(outputs=5),
    "note_with_pq": lambda cfg: cfg.update(note=5, weights=["1/1", 1, 1]),
}


@pytest.mark.parametrize("case", sorted(_WRONG_JSON_TYPES))
def test_cli_run_rejects_wrong_json_types(tmp_path, case):
    cfg = fp_config()
    _WRONG_JSON_TYPES[case](cfg)
    path = write_json(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", ['"inf"', "Infinity", "1e400"])
@pytest.mark.parametrize("field", ["eta", "weight"])
def test_cli_run_rejects_non_finite_numbers(tmp_path, field, text):
    eta, weight = (text, "1") if field == "eta" else ("1", text)
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"name": "t", "weights": [1, %s, 1], "learner": {"algorithm": "gd", '
        '"horizon": 5, "x0": [1, 0, 0], "eta": %s}}' % (weight, eta)
    )
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", ['"inf"', "1e400"])
def test_cli_run_rejects_infinite_tie_tolerance(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"name": "t", "weights": [1, 1, 1], "learner": {"algorithm": "fp", '
        '"horizon": 5, "x0": [1, 0, 0], "tie_tolerance": %s}}' % text
    )
    with pytest.raises(ConfigInvalid, match="tie_tolerance"):
        parse_config(json.loads(path.read_text()))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_cli_run_rejects_unknown_tiebreak_keys(tmp_path):
    cfg = fp_config()
    cfg["learner"]["tiebreak"] = {"kind": "lexicographic", "sead": 3}
    with pytest.raises(ConfigInvalid, match="sead"):
        parse_config(cfg)
    path = write_json(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("seed", ["abc", True, 1.0])
def test_tiebreak_seed_must_be_an_int(tmp_path, seed):
    with pytest.raises(ConfigInvalid, match="seed"):
        TiebreakRule(TiebreakKind.RANDOM_SEEDED, seed)
    cfg = fp_config()
    cfg["learner"]["tiebreak"] = {"kind": "random_seeded", "seed": seed}
    path = write_json(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_edge_horizons(tmp_path):
    """T = 0 and T = 1 runs, where the phase, slope, small-step and prefix
    regret audits have too little to go on."""
    gd = Algorithm.GRADIENT_DESCENT
    x0 = SimplexPoint.uniform(3)
    zero = run(LearnerConfig(gd, 0, x0, eta=1.0), make_rps((1.0,) * 3))
    with pytest.raises(NoVertexReached):
        detect_phases(zero)
    assert small_stepsize_energy_check(zero).reason == "single dual step; regret bound not evaluated"
    with pytest.raises(ValueError, match="outside"):
        regret_at(zero, 1)
    schedule = run(LearnerConfig(gd, 5, x0, eta_schedule="inv_sqrt_t"), make_rps((1.0,) * 3))
    with pytest.raises(ConfigInvalid, match="constant stepsize"):
        regret_at(schedule, 3)
    spec = ExperimentSpec("one", (1.0,) * 3, LearnerConfig(gd, 1, x0, eta=1.0),
                          sweep=(("eta", (1.0, 2.0)),), outputs=("report_json",))
    sweep = run_sweep(spec, str(tmp_path))
    for res in sweep.results:
        with open(res.paths["report_json"]) as fh:
            assert json.load(fh)["slope"] is None
    with open(sweep.csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["slope"] for row in rows] == ["", ""]


def test_cli_sweep(tmp_path):
    cfg = {
        "name": "sw",
        "weights": [1.0, 1.0, 1.0],
        "learner": {"algorithm": "gd", "horizon": 30, "eta": 1.0,
                    "x0": [0.2, 0.3, 0.5]},
        "sweep": [["eta", [0.5, 2.0]]],
        "outputs": ["report_json"],
    }
    path = write_json(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert (out / "sw__sweep.csv").exists()


def test_cli_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    text = capsys.readouterr().out
    for pid in ("fig1a", "fig1b", "fig_gd_regret"):
        assert pid in text


def test_cli_run_seed_override(tmp_path):
    cfg = fp_config(seed=1)
    cfg["learner"]["horizon"] = 60
    cfg["learner"]["tiebreak"] = {"kind": "random_seeded"}
    path = write_json(tmp_path, cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(a)]) == 0
    assert main(["run", "--config", path, "--out", str(b), "--seed", "2"]) == 0
    ta = (a / "t__trajectory.csv").read_bytes()
    tb = (b / "t__trajectory.csv").read_bytes()
    assert ta != tb


def test_cli_strict_passes_on_clean_run(tmp_path):
    path = write_json(tmp_path, fp_config())
    assert main(["run", "--config", path, "--out", str(tmp_path / "o"),
                 "--strict"]) == 0


def test_cli_verify_reports_store_build_apart(capsys):
    """The store is built once before the first check and timed on its own
    line; the check lines follow.  c14 fails by design, so the exit code is 1."""
    assert main(["verify", "--level", "quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"store: 17 trajectories built in \d+\.\d\ds", lines[0])
    assert lines[1].startswith("[PASS] c01-") and len(lines) == 16
