"""Chip diffusion on graphs and board-pile polyomino counting.

Chips flow synchronously from richer vertices to poorer ones; every
trajectory ends in a cycle of length 1 or 2.  On complete graphs the states
inside those cycles correspond one-to-one with board-pile polyominoes, which
this package enumerates and counts exactly.

Each module, and each exported name, loads on its first use as an
attribute of the package: the CLI reaches the library only this way, so a
run imports only the modules its subcommand runs.
"""

from operator import index as _index

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


def _integer(value, what: str, least: int | None = None) -> int:
    """operator.index(value), or a ValueError that names `what` and the value,
    or, given `least`, that says `what` must be at least that."""
    try:
        value = _index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}")
    return value


def _integer_tuple(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints, or a ValueError that names `values` if
    they are not iterable, or _integer's for the first that is not an int;
    held first, so a one-shot iterable can still name it."""
    try:
        values = iter(values)
    except TypeError:
        raise ValueError(f"{values!r} is not a sequence of {what}s") from None
    values = tuple(values)
    try:
        return tuple(map(_index, values))
    except TypeError:
        return tuple(_integer(value, what) for value in values)
