"""Chip diffusion on graphs and board-pile polyomino counting.

Chips flow synchronously from richer vertices to poorer ones; every
trajectory ends in a cycle of length 1 or 2.  On complete graphs the states
inside those cycles correspond one-to-one with board-pile polyominoes, which
this package enumerates and counts exactly.

Each exported name loads its module on first use, so a CLI run imports only
the modules its subcommand runs.
"""

__version__ = "0.1.0"

# the exported names, under the module that defines each
_EXPORTS = {
    "bijection": (
        "NotAPeriodConfiguration",
        "NotNormalized",
        "check_fire_reflect",
        "config_to_poly",
        "poly_to_config",
    ),
    "counting": (
        "asymptotic_constant",
        "asymptotic_estimate",
        "brute_force_labelled",
        "brute_force_period_multisets",
        "characteristic_roots",
        "gf_coefficient",
        "gf_coefficients",
        "labelled_period_counts",
        "recurrence_count",
        "recurrence_counts",
    ),
    "diffusion": (
        "NoRepeatWithinBudget",
        "PeriodNotOneOrTwo",
        "PeriodReport",
        "detect_period",
        "fire",
        "fire_complete",
        "is_period_config",
        "normalize",
        "run",
    ),
    "graphs": ("Graph", "complete", "cycle", "path", "star"),
    "polyomino": (
        "BoardPilePolyomino",
        "InvalidPolyomino",
        "enumerate_board_pile",
        "layout",
        "reflect",
        "render_ascii",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    # a submodule by its name, or an exported name from its module, which is
    # then bound here so the next lookup skips this hook
    owner = name if name in _EXPORTS else _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it in this namespace
    __import__(f"{__name__}.{owner}")
    if owner == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[owner], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
