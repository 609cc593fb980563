"""Pinned experiment presets for the standard figures.

Each preset is a list of config documents in the format ``rpsdyn run
--config`` reads, parsed by :func:`parse_config` like any other config; the
CLI can list them (``rpsdyn preset list``) and run them (``rpsdyn preset run
<id>``).  Parameters are pinned, not defaults — editing them changes the
figures they reproduce.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import ConfigInvalid
from .experiment import ExperimentSpec, config_document, parse_config


@dataclass(frozen=True)
class FigurePreset:
    id: str
    description: str
    specs: Tuple[ExperimentSpec, ...]


_LEX = {"kind": "lexicographic"}
# Pinned starting points, shared with the verification store's slots.
_X0_GD3 = (0.3, 0.4, 0.3)
_X0_GD4 = (0.05, 0.35, 0.39, 0.21)
_X0_GD4_COMPARE = (0.2, 0.2, 0.25, 0.35)
_doc = config_document

_FIGURES = (
    ("fig1a",
     "Fictitious play on the unit 3-cycle from a vertex: dual spiral, "
     "growing phases, staircase energy.",
     [_doc("fig1a", [1] * 3, "fp", 200, [1, 0, 0], tiebreak=_LEX)]),
    ("fig1b",
     "Gradient descent, eta=0.5, on the unit 3-cycle from a vertex: the "
     "same outward spiral with smooth edge segments.",
     [_doc("fig1b", [1] * 3, "gd", 200, [1, 0, 0], eta=0.5)]),
    ("fig1c",
     "Gradient descent, eta=1, on the unit 4-cycle from an interior "
     "point close to uniform.",
     [_doc("fig1c", [1] * 4, "gd", 200, _X0_GD4, eta=1,
          note="companion run: same weights with x0 cyclically "
          "permuted one step gives the same picture rotated")]),
    ("fig_gd_eta_compare",
     "Gradient descent on the unit 4-cycle, one interior start, three "
     "stepsizes: sublinear drift vs. fast lock-in to the cycling regime.",
     [_doc("fig_gd_eta_compare", [1] * 4, "gd", 100, _X0_GD4_COMPARE, eta=0.1,
          sweep=[["eta", [0.1, 0.3, 10]]])]),
    ("fig_fp_regret",
     "Fictitious play regret growth over T=1000 from a vertex, "
     "dimensions 3 and 4.",
     [_doc("fig_fp_regret_n3", [1] * 3, "fp", 1000, [1, 0, 0]),
      _doc("fig_fp_regret_n4", [1] * 4, "fp", 1000, [1, 0, 0, 0])]),
    ("fig_tournament",
     "Fictitious play on the unit 3-cycle under lexicographic vs. "
     "cyclic-successor tie breaking: the latter freezes the energy.",
     [_doc("fig_tournament_lex", [1] * 3, "fp", 1000, [1, 0, 0], tiebreak=_LEX),
      _doc("fig_tournament_cyclic", [1] * 3, "fp", 1000, [1, 0, 0],
          tiebreak={"kind": "tournament"})]),
    ("fig_gd_regret",
     "Gradient descent regret over T=1000 on the unit 3-cycle for a "
     "theory-scaled, a moderate, and a large constant stepsize.",
     [_doc("fig_gd_regret", [1] * 3, "gd", 1000, _X0_GD3, eta=0.3,
          sweep=[["eta", [1 / math.sqrt(1000), 0.3, 10]]])]),
    ("fig_decreasing",
     "Gradient descent on the unit 3-cycle over T=5000: the decreasing "
     "stepsize 1/sqrt(t+1) converges inward while constant eta=10 cycles.",
     [_doc("fig_decreasing_schedule", [1] * 3, "gd", 5000, _X0_GD3, eta=1,
          eta_schedule="inv_sqrt_t"),
      _doc("fig_decreasing_constant", [1] * 3, "gd", 5000, _X0_GD3, eta=10)]),
)

_PRESETS: Dict[str, FigurePreset] = {
    pid: FigurePreset(pid, description, tuple(map(parse_config, docs)))
    for pid, description, docs in _FIGURES
}


def all_presets() -> List[FigurePreset]:
    return list(_PRESETS.values())


def get_preset(preset_id: str) -> FigurePreset:
    try:
        return _PRESETS[preset_id]
    except KeyError:
        raise ConfigInvalid(
            f"unknown preset {preset_id!r}; available: {', '.join(_PRESETS)}"
        ) from None
