"""``rpsdyn`` command line.

Subcommands
-----------
run         one experiment from a JSON config; writes CSV/JSON artifacts
sweep       the config's parameter sweep; per-point artifacts + aggregate CSV
verify      the built-in verification suite (quick: T <= 1e3, full: 1e5)
preset      list pinned figure presets, or run one by id

Exit codes: 0 success; 1 verification failure (always for ``verify``, for
``run``/``sweep``/``preset run`` only under ``--strict``); 2 bad config or
arguments; 3 I/O failure.  ``RPSDYN_OUT`` sets the default output directory.
"""

import argparse
import sys
from typing import List, Optional

from .errors import ConfigInvalid, IoError, RpsDynamicsError
from .experiment import (
    OUT_ENV,
    default_out_dir,
    load_config,
    run_experiment,
    run_sweep,
    with_arithmetic,
    with_seed,
)
from .presets import all_presets, get_preset
from .verification import run_suite


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rpsdyn",
        description="Simulate and verify symmetric learning dynamics on "
        "weighted cyclic (rock-paper-scissors) games.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, config_required: bool):
        if config_required:
            sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument(
            "--out", default=None, help=f"output directory (default ${OUT_ENV} or ./rpsdyn_out)"
        )
        sp.add_argument("--seed", type=int, default=None, help="override the experiment seed")
        sp.add_argument(
            "--arithmetic",
            choices=["float", "rational"],
            default=None,
            help="override the arithmetic mode",
        )
        sp.add_argument(
            "--strict",
            action="store_true",
            help="exit 1 if any per-run invariant verdict fails",
        )

    add_common(sub.add_parser("run", help="run one experiment"), True)
    add_common(sub.add_parser("sweep", help="run the config's sweep"), True)

    vp = sub.add_parser("verify", help="run the verification suite")
    vp.add_argument("--level", choices=["quick", "full"], default="quick")

    pp = sub.add_parser("preset", help="pinned figure configurations")
    psub = pp.add_subparsers(dest="preset_command", required=True)
    psub.add_parser("list", help="list preset ids")
    prun = psub.add_parser("run", help="run a preset by id")
    prun.add_argument("preset_id")
    add_common(prun, False)

    return p


def _apply_overrides(spec, args):
    if args.arithmetic is not None:
        spec = with_arithmetic(spec, args.arithmetic)
    if args.seed is not None:
        spec = with_seed(spec, args.seed)
    return spec


def _report_run(res) -> None:
    print(f"{res.spec.name}  [{res.config_hash}]")
    reg = res.report["regret"]
    print(f"  Reg(T) = {reg['regret_total']}")
    for v in res.verdicts:
        tag = "ok" if v["pass"] else "FAIL"
        print(f"  [{tag}] {v['check']}: {v['details']}")
    for kind, path in sorted(res.paths.items()):
        print(f"  wrote {path}")


def _execute(spec, out: str, sweep: bool) -> bool:
    """Run one spec, or its sweep, print the report, and say whether every
    per-run verdict passed."""
    if not sweep:
        res = run_experiment(spec, out)
        _report_run(res)
        return res.all_passed
    sw = run_sweep(spec, out)
    for res in sw.results:
        _report_run(res)
    print(f"aggregate: {sw.csv_path}")
    return sw.all_passed


def _cmd_run(args) -> int:
    """``run`` and ``sweep``: one config file."""
    spec = _apply_overrides(load_config(args.config), args)
    ok = _execute(spec, args.out or default_out_dir(), sweep=args.command == "sweep")
    return 1 if args.strict and not ok else 0


def _cmd_verify(args) -> int:
    results = run_suite(level=args.level)
    return 0 if all(r.passed for r in results) else 1


def _cmd_preset(args) -> int:
    if args.preset_command == "list":
        for preset in all_presets():
            names = ", ".join(s.name for s in preset.specs)
            print(f"{preset.id:<22} {preset.description}")
            print(f"{'':<22} runs: {names}")
        return 0
    out = args.out or default_out_dir()
    passed = []
    for spec in get_preset(args.preset_id).specs:
        spec = _apply_overrides(spec, args)
        passed.append(_execute(spec, out, sweep=bool(spec.sweep)))
    return 1 if args.strict and not all(passed) else 0


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_run, "verify": _cmd_verify, "preset": _cmd_preset}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)  # its required subparsers admit only _COMMANDS
    try:
        return _COMMANDS[args.command](args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except RpsDynamicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
