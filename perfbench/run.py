#!/usr/bin/env python3
"""Benchmark of the rps-dynamics package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  One process, one thread, operations run
serially as a closed loop: each starts when the previous one returns.  The
measuring loop repeats the workload's operation until the next one would end
after ``--seconds`` (at least one runs).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
processes that import the package and build the inputs), ``wall_s`` (median
operation time), ``steps_per_s`` (dual updates per second of operation time,
median) and ``peak_rss_mb``.  Times are scaled to a reference host speed (see
``HostClock``).  ``--trace 1`` alternates untraced and traced operations, and
prints the per-layer metrics taken from the spans.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every operation's
output is checked (see ``workloads.check_units``).  ``--smoke`` runs tiny
horizons and the quick suite, for tests.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120

# Host speed.  Other tenants of a shared host slow it by up to ~75%, in
# swings of seconds to tens of seconds, so neither the median nor the minimum
# of one run's operations repeats from run to run.  So the benchmark samples
# the host's speed while it times: a fixed pure-Python loop of about 5 ms
# runs every CALIBRATION_INTERVAL_S during an operation, or EDGE_SAMPLES
# times before and after a setup probe, which runs in another process.  A
# time is reported multiplied by CALIBRATION_REF_S over the median loop time,
# that is in seconds at the speed at which the loop takes CALIBRATION_REF_S
# (about the quiet speed of a 2-vCPU Xeon container).  The loop's own time is
# not counted in the call's.  Raw times are printed beside the scaled ones.
CALIBRATION_LOOPS = 50_000
CALIBRATION_REF_S = 0.005
CALIBRATION_INTERVAL_S = 0.1
EDGE_SAMPLES = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description="rps-dynamics benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny horizons, quick suite")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import rps_dynamics from this checkout's ``src``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rps_dynamics", "__init__.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rps_dynamics
    import rps_dynamics.cli

    where = os.path.dirname(os.path.abspath(rps_dynamics.__file__))
    if where != os.path.join(SRC, "rps_dynamics"):
        raise SystemExit(f"perfbench: rps_dynamics imported from {where}, not {SRC}")
    return rps_dynamics


def sizes_of(args):
    return workloads.SMOKE if args.smoke else workloads.FULL


def setup_probe(args):
    """Child of ``measure_setup``: build the inputs, report when ready."""
    pkg = import_package()
    workloads.setup(pkg, args.workload, sizes_of(args), args.seed, args.setup_probe)
    # perf_counter reads CLOCK_MONOTONIC, which every process on the host
    # shares, so the parent can subtract its own launch time from this.
    print(repr(time.perf_counter()))
    return 0


def calibration_s():
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def edge_samples():
    return [calibration_s() for _ in range(EDGE_SAMPLES)]


def host_speed(samples):
    """Factor that turns raw seconds into seconds at the reference speed."""
    return CALIBRATION_REF_S / statistics.median(samples)


class HostClock:
    """Samples the host's speed during timed calls.

    ``now`` is ``time.perf_counter`` minus the time the samples took, so that
    neither a timed call nor a span read from this clock holds loop time.
    """

    def __init__(self):
        self.paused = 0.0
        self.samples = []

    def now(self):
        # paused is read first: a sample taken between the two reads then
        # makes this reading late, never earlier than the one before.
        paused = self.paused
        return time.perf_counter() - paused

    def _sample(self, signum, frame):
        took = calibration_s()
        self.samples.append(took)
        self.paused += took

    def timed(self, fn):
        """Run ``fn()``; return (its result, seconds, host speed factor).

        The calibration loop runs from a SIGALRM handler every
        CALIBRATION_INTERVAL_S during the call, between two of its
        bytecodes; the seconds exclude those runs.  A call that ended before
        the first sample takes EDGE_SAMPLES after it.
        """
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        t0 = self.now()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = self.now() - t0
            signal.signal(signal.SIGALRM, previous)
        return result, wall, host_speed(self.samples or edge_samples())


def measure_setup(args, work):
    """Time from process launch to inputs ready, over fresh processes:
    (median at reference speed, median raw)."""
    repeats = 1 if args.smoke else SETUP_REPEATS
    samples = []
    for i in range(repeats):
        probe_dir = os.path.join(work, f"setup{i}")
        os.makedirs(probe_dir)
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--trace", "0", "--setup-probe", probe_dir,
        ] + (["--smoke"] if args.smoke else [])

        def probe():
            launched = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
            )
            return float(proc.stdout.split()[-1]) - launched

        before = edge_samples()
        ready = probe()
        speed = host_speed(before + edge_samples())
        samples.append((ready * speed, ready))
    return tuple(statistics.median(col) for col in zip(*samples))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_op(wl, out, clock, tracer=None, op_id=0):
    """One operation: returns (raw wall seconds, host speed factor,
    fingerprint units, artifact bytes).

    With a tracer the operation runs traced.  The fingerprint is taken after
    the tracer is removed, so the check's own calls into the package record
    no spans.
    """
    fresh_dir(out)

    def op():
        if tracer is None:
            wl.op(out)
            return
        with tracer.op(op_id):
            if hasattr(wl, "traced_op"):
                wl.traced_op(out, tracer)
            else:
                wl.op(out)

    _, wall, speed = clock.timed(op)
    units = wl.fingerprint(out)
    artifact_bytes = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
    return wall, speed, units, artifact_bytes


def load_reference(args):
    """Recorded meanings of this workload and seed, or None."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    size = "smoke" if args.smoke else "full"
    return ref["runs"][size].get(args.workload, {}).get(str(args.seed))


def src_digest():
    h = hashlib.sha256()
    pkg_dir = os.path.join(SRC, "rps_dynamics")
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, loadavg, reference):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "reference": "recorded" if reference is not None else (
            "expected verdicts" if args.workload == "verify_full" else "invariants"
        ),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(loadavg),
    }


class Checker:
    """Counts units that fail the correctness check or do not repeat."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, units, op_label):
        bad = set(workloads.check_units(self.workload, units, self.reference))
        for name in sorted(bad):
            self.messages.append(f"{op_label}: {name} disagrees with the reference")
        if self.first is None:
            self.first = units
        else:
            for name, unit in units.items():
                if self.first.get(name) != unit:
                    bad.add(name)
                    self.messages.append(f"{op_label}: {name} differs from the first operation")
        self.attempted += len(units)
        self.failed += len(bad)

    def fail(self, count, message):
        self.messages.append(message)
        self.failed += count


def measure(seconds, first_op, next_op):
    """Run operations until the next one would end after ``seconds``."""
    start = time.perf_counter()
    results = [first_op()]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results
        results.append(next_op(len(results)))


def at_reference_speed(metrics, speed):
    """Time-valued metrics scaled by a host speed factor."""
    scale = {"s": speed, "us": speed, "MiB/s": 1 / speed}
    return {key: value * scale.get(key[1], 1) for key, value in metrics.items()}


def end_to_end(args, wl, work, checker, clock):
    setup_s, setup_raw = measure_setup(args, work)
    out = os.path.join(work, "out")
    peak = {}

    def op(i=0):
        wall, speed, units, _ = run_op(wl, out, clock)
        checker.add(units, f"op {i}")
        if i == 0:
            # Peak memory of a process that has run the workload once; later
            # operations would add heap growth that depends on how many fit.
            peak["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return wall, speed

    results = measure(args.seconds, op, op)
    walls = [wall * speed for wall, speed in results]
    print(
        f"raw: setup_s = {setup_raw:.6g} s, wall_s = "
        f"{statistics.median(w for w, _ in results):.6g} s; host speed = "
        f"{statistics.median(s for _, s in results):.4g}; {len(results)} ops"
    )
    return {
        ("setup_s", "s"): setup_s,
        ("wall_s", "s"): statistics.median(walls),
        ("steps_per_s", "dual_steps/s"): statistics.median(wl.steps() / w for w in walls),
        ("peak_rss_mb", "MiB"): peak["rss"],
    }


def per_layer(args, wl, work, checker, clock):
    out = os.path.join(work, "out")
    untraced = {"walls": []}

    def plain_op(i=0):
        wall, speed, units, nbytes = run_op(wl, out, clock)
        checker.add(units, f"untraced op {i}")
        untraced["walls"].append(wall * speed)
        untraced.update(bytes=nbytes, steps=wl.steps(), passed=_passed(units))
        return None

    tracer = tracing.Tracer({name: sys.modules[name] for name, _, _ in tracing.PATCHES}, clock.now)

    def traced_op(i):
        _, speed, units, nbytes = run_op(wl, out, clock, tracer, i)
        checker.add(units, f"traced op {i}")
        spans = [s for s in tracer.spans if s["op"] == i]
        m = at_reference_speed(tracing.layer_metrics(spans, nbytes), speed)
        m[("verification.checks_passed", "count")] = _passed(units)
        expect = {
            "dynamics.steps": untraced["steps"],
            "experiment.artifact_bytes": untraced["bytes"],
            "verification.checks_passed": untraced["passed"],
        }
        for (name, _), value in m.items():
            if name in expect and value != expect[name]:
                checker.fail(len(units), f"traced op {i}: {name} = {value}, untraced {expect[name]}")
        return m

    # Untraced and traced operations alternate, so that the tracing overhead
    # compares operations that ran close together.
    def next_op(i):
        return traced_op(i) if i % 2 else plain_op(i)

    results = [m for m in measure(args.seconds, plain_op, next_op) if m is not None]
    if not results:
        results = [traced_op(1)]
    metrics = {}
    for key in results[0]:
        values = [r[key] for r in results]
        if key[0] in tracing.EXACT_COUNTS:
            if len(set(values)) != 1:
                checker.fail(1, f"{key[0]} does not repeat across traced ops: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    wall = metrics[("trace.wall_s", "s")]
    untraced_wall = statistics.median(untraced["walls"])
    metrics[("trace.untraced_wall_s", "s")] = untraced_wall
    metrics[("trace.overhead_s", "s")] = wall - untraced_wall
    metrics[("trace.coverage", "ratio")] = metrics[("trace.covered_s", "s")] / wall
    metrics[("failed_frac", "ratio")] = checker.failed / checker.attempted
    with open(os.path.join(WORK, f"spans-{_label(args)}.json"), "w") as fh:
        json.dump(tracer.spans, fh)
    return metrics


def _label(args):
    smoke = "-smoke" if args.smoke else ""
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}"


def _passed(units):
    return sum(1 for u in units.values() if u["meaning"].get("passed"))


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    loadavg = os.getloadavg()
    pkg = import_package()
    reference = load_reference(args)
    work = fresh_dir(os.path.join(WORK, f"{args.workload}-{os.getpid()}"))
    checker = Checker(args.workload, reference)
    try:
        wl = workloads.setup(pkg, args.workload, sizes_of(args), args.seed, work)
        measure_fn = per_layer if args.trace else end_to_end
        metrics = measure_fn(args, wl, work, checker, HostClock())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args, loadavg, reference)
    for message in checker.messages:
        print(f"perfbench: {message}", file=sys.stderr)
    for (name, unit), value in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"failed_frac = {checker.failed / checker.attempted:.6g} ratio")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for (name, unit), value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
