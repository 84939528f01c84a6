"""Chip diffusion on graphs and board-pile polyomino counting.

Chips flow synchronously from richer vertices to poorer ones; every
trajectory ends in a cycle of length 1 or 2.  On complete graphs the states
inside those cycles correspond one-to-one with board-pile polyominoes, which
this package enumerates and counts exactly.
"""

from .bijection import (
    NotAPeriodConfiguration,
    NotNormalized,
    check_fire_reflect,
    config_to_poly,
    poly_to_config,
)
from .counting import (
    asymptotic_constant,
    asymptotic_estimate,
    brute_force_labelled,
    brute_force_period_multisets,
    characteristic_roots,
    gf_coefficient,
    gf_coefficients,
    labelled_period_counts,
    recurrence_count,
    recurrence_counts,
)
from .diffusion import (
    NoRepeatWithinBudget,
    Orientation,
    PeriodNotOneOrTwo,
    PeriodReport,
    detect_period,
    fire,
    fire_complete,
    is_period_config,
    normalize,
    orientation_of,
    run,
)
from .graphs import Graph, complete, cycle, path, star
from .polyomino import (
    BoardPilePolyomino,
    InvalidPolyomino,
    enumerate_board_pile,
    layout,
    reflect,
    render_ascii,
)

__version__ = "0.1.0"

__all__ = [
    "BoardPilePolyomino",
    "Graph",
    "InvalidPolyomino",
    "NoRepeatWithinBudget",
    "NotAPeriodConfiguration",
    "NotNormalized",
    "Orientation",
    "PeriodNotOneOrTwo",
    "PeriodReport",
    "asymptotic_constant",
    "asymptotic_estimate",
    "brute_force_labelled",
    "brute_force_period_multisets",
    "characteristic_roots",
    "check_fire_reflect",
    "complete",
    "config_to_poly",
    "cycle",
    "detect_period",
    "enumerate_board_pile",
    "fire",
    "fire_complete",
    "gf_coefficient",
    "gf_coefficients",
    "is_period_config",
    "labelled_period_counts",
    "layout",
    "normalize",
    "orientation_of",
    "path",
    "poly_to_config",
    "recurrence_count",
    "recurrence_counts",
    "reflect",
    "render_ascii",
    "run",
    "star",
]
