"""Spans around the package's public calls, recorded from outside the package.

A traced operation runs the same code as an untraced one.  For the duration of
one traced operation (:meth:`Tracer.op`), the public functions that the
package's own modules call each other through (``cli.run_experiment``,
``experiment.run``, ``experiment.write_trajectory_csv``,
``verification.run`` ...) are replaced by wrappers that record a span and call
the original, so the stages appear in ``run_experiment``'s order and the
artifacts are the ones the untraced operation writes.  Every original is put
back when the operation ends.

A span is a dict: ``id``, ``parent``, ``op``, ``name``, ``start``, ``end``
(seconds of the tracer's clock) and optional attributes.  Spans stay in memory
and are written out once, when the benchmark ends.
"""

import contextlib

import numpy as np

# (module, attribute, span name).  One entry per place a stage is looked up.
PATCHES = (
    ("rps_dynamics.cli", "main", "cli.main"),
    ("rps_dynamics.cli", "load_config", "experiment.load_config"),
    ("rps_dynamics.cli", "run_experiment", "experiment.run_experiment"),
    ("rps_dynamics.cli", "run_sweep", "experiment.run_sweep"),
    ("rps_dynamics.experiment", "run_experiment", "experiment.run_experiment"),
    ("rps_dynamics.experiment", "run", "dynamics.run"),
    ("rps_dynamics.experiment", "regret", "analysis.regret"),
    ("rps_dynamics.experiment", "detect_phases", "analysis.detect_phases"),
    ("rps_dynamics.experiment", "energy_growth_ledger", "analysis.ledger"),
    ("rps_dynamics.experiment", "ledger_summary", "analysis.ledger_summary"),
    ("rps_dynamics.experiment", "write_trajectory_csv", "experiment.write_trajectory_csv"),
    ("rps_dynamics.experiment", "write_phases_csv", "experiment.write_phases_csv"),
    ("rps_dynamics.experiment", "write_ledger_csv", "experiment.write_ledger_csv"),
    ("rps_dynamics.experiment", "write_report_json", "experiment.write_report_json"),
    ("rps_dynamics.oracle", "regret_direct", "oracle.regret_direct"),
    ("rps_dynamics.verification", "run", "dynamics.run"),
    ("rps_dynamics.verification", "regret", "analysis.regret"),
    ("rps_dynamics.verification", "detect_phases", "analysis.detect_phases"),
    ("rps_dynamics.verification", "energy_growth_ledger", "analysis.ledger"),
    ("rps_dynamics.verification", "ledger_summary", "analysis.ledger_summary"),
    ("rps_dynamics", "run", "dynamics.run"),
    ("rps_dynamics", "regret", "analysis.regret"),
)

# Spans that only group other spans; their self time is not attributed to a
# layer.
CONTAINERS = frozenset(
    {"bench.op", "cli.main", "experiment.run_experiment", "experiment.run_sweep"}
)


def _run_attrs(tracer, span, args, result):
    config = args[0]
    span["kind"] = "exact" if config.is_exact else config.algorithm.value
    span["steps"] = config.horizon + 1
    tracer.trajectories.append((span, result))


def _analysis_attrs(tracer, span, args, result):
    traj = args[0]
    span["algorithm"] = traj.config.algorithm.value
    span["traj"] = id(traj)
    span["horizon"] = traj.horizon
    if span["name"] == "analysis.detect_phases":
        span["phases"] = result.count


def _summary_attrs(tracer, span, args, result):
    for key in ("ambiguous", "uncovered", "violations"):
        span[key] = result[key]


ATTRS = {
    "dynamics.run": _run_attrs,
    "analysis.detect_phases": _analysis_attrs,
    "analysis.ledger": _analysis_attrs,
    "analysis.ledger_summary": _summary_attrs,
}


class Tracer:
    def __init__(self, modules, clock):
        self.modules = modules
        self.clock = clock
        self.spans = []
        self.trajectories = []
        self._stack = []
        self._op = None
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self._op,
            "name": name,
            "start": self.clock(),
        }
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = self.clock()
            self._stack.pop()

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                attrs(self, span, args, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name in PATCHES:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def op(self, op_id):
        """One traced operation, wrappers installed; yields its root span."""
        self._op = op_id
        self.trajectories = []
        self.install()
        try:
            with self.span("bench.op") as root:
                yield root
        finally:
            self.remove()
            self._op = None
        for span, traj in self.trajectories:
            span["primal_changes"] = primal_changes(traj)
            if not traj.is_exact:
                arrays = (traj.xs_array, traj.ys_array, traj.energies_array)
                span["traj_bytes"] = sum(a.nbytes for a in arrays)
        self.trajectories = []


def primal_changes(traj):
    """Number of t in 1..T with x^t != x^{t-1}."""
    if traj.is_exact:
        return sum(traj.x(t) != traj.x(t - 1) for t in range(1, traj.horizon + 1))
    xs = traj.xs_array
    return int(np.any(xs[1:] != xs[:-1], axis=1).sum())


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, artifact_bytes):
    """Per-layer figures of one traced operation, from its spans."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    total = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]

    def t(name):
        return total.get(name, 0.0)

    def spans_named(name):
        return [s for s in spans if s["name"] == name]

    runs = spans_named("dynamics.run")
    steps = sum(s["steps"] for s in runs)
    attempted = sum(s["steps"] - 1 for s in runs)
    changes = sum(s["primal_changes"] for s in runs)

    def run_time(kind):
        return sum(s["end"] - s["start"] for s in runs if s["kind"] == kind)

    gd_analysis = [
        s for s in spans_named("analysis.detect_phases") + spans_named("analysis.ledger")
        if s["algorithm"] == "gd"
    ]
    gd_vectors = sum(2 * h + 1 for h in {s["traj"]: s["horizon"] for s in gd_analysis}.values())
    gd_analysis_s = sum(s["end"] - s["start"] for s in gd_analysis)
    summaries = spans_named("analysis.ledger_summary")
    write_s = sum(v for n, v in total.items() if n.startswith("experiment.write_"))

    m = {
        ("dynamics.run_s", "s"): t("dynamics.run"),
        ("dynamics.step_us", "us"): 1e6 * t("dynamics.run") / steps if steps else 0.0,
        ("dynamics.steps", "count"): steps,
        ("dynamics.run_fp_s", "s"): run_time("fp"),
        ("dynamics.run_gd_s", "s"): run_time("gd"),
        ("dynamics.run_exact_s", "s"): run_time("exact"),
        ("dynamics.primal_changes", "count"): changes,
        ("dynamics.change_frac", "ratio"): changes / attempted if attempted else 0.0,
        ("dynamics.traj_mb", "MiB"): sum(s.get("traj_bytes", 0) for s in runs) / 2**20,
        ("analysis.detect_phases_s", "s"): t("analysis.detect_phases"),
        ("analysis.ledger_s", "s"): t("analysis.ledger"),
        ("analysis.region_us", "us"): 1e6 * gd_analysis_s / gd_vectors if gd_vectors else 0.0,
        ("analysis.regret_s", "s"): t("analysis.regret"),
        ("analysis.phases", "count"): sum(s["phases"] for s in spans_named("analysis.detect_phases")),
        ("analysis.ledger_ambiguous", "count"): sum(s["ambiguous"] for s in summaries),
        ("analysis.ledger_uncovered", "count"): sum(s["uncovered"] for s in summaries),
        ("analysis.ledger_violations", "count"): sum(s["violations"] for s in summaries),
        ("experiment.write_trajectory_csv_s", "s"): t("experiment.write_trajectory_csv"),
        ("experiment.write_ledger_csv_s", "s"): t("experiment.write_ledger_csv"),
        ("experiment.write_phases_csv_s", "s"): t("experiment.write_phases_csv"),
        ("experiment.write_report_json_s", "s"): t("experiment.write_report_json"),
        ("experiment.artifact_bytes", "bytes"): artifact_bytes,
        ("experiment.write_mb_per_s", "MiB/s"): artifact_bytes / 2**20 / write_s if write_s else 0.0,
        ("experiment.load_config_s", "s"): t("experiment.load_config"),
        ("experiment.residual_s", "s"): sum(
            own[s["id"]] for s in spans
            if s["name"] in ("experiment.run_experiment", "experiment.run_sweep")
        ),
        ("cli.overhead_s", "s"): t("cli.main") - sum(
            s["end"] - s["start"] for s in spans
            if s["name"] in ("experiment.run_experiment", "experiment.run_sweep")
            and s["parent"] is not None and by_id[s["parent"]]["name"] == "cli.main"
        ),
        ("oracle.regret_direct_s", "s"): t("oracle.regret_direct"),
        ("verification.store_build_s", "s"): t("verification.store_build"),
        ("verification.store_build_exact_s", "s"): t("verification.store_build_exact"),
    }
    for i in range(1, 15):
        m[(f"verification.c{i:02d}_s", "s")] = t(f"verification.c{i:02d}")
    covered = t("bench.op") - sum(own[s["id"]] for s in spans if s["name"] in CONTAINERS)
    m[("trace.covered_s", "s")] = covered
    m[("trace.wall_s", "s")] = t("bench.op")
    return m


# Figures that must repeat exactly between operations of the same code and
# seed.
EXACT_COUNTS = (
    "dynamics.steps",
    "dynamics.primal_changes",
    "analysis.phases",
    "analysis.ledger_ambiguous",
    "analysis.ledger_uncovered",
    "analysis.ledger_violations",
    "experiment.artifact_bytes",
    "verification.checks_passed",
)
