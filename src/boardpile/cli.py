"""Command-line front end, and the only reader and writer of the JSON documents.

Subcommands: simulate, period, enumerate, render, map, count, verify.
All documents are UTF-8 JSON objects:

* graph: {"n": N, "edges": [[u, v], ...]}, or a family
  {"family": "complete"|"cycle"|"path"|"star", "n": N};
* configuration: {"stacks": [s_0, ..., s_{N-1}]};
* polyomino: {"strips": [[d, length], ...]}, bottom strip first.

Integer fields take JSON integers only.  Counts are serialized as decimal
strings so arbitrary-precision values survive any JSON parser.  Exit codes:
0 success, 1 domain/engine error, 2 malformed or ambiguous input, an
unwritable output path or a closed stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import cycle, islice

from . import bijection, counting, diffusion, graphs, polyomino

# verify's fire-reflect check walks every polyomino up to this many cells
# (66,441 of them at 11, and about 3.2 times as many per cell beyond)
_REFLECT_CAP = 11

_FAMILIES = {
    "complete": graphs.complete,
    "cycle": graphs.cycle,
    "path": graphs.path,
    "star": graphs.star,
}


class InputError(Exception):
    """Malformed or inconsistent input document or flag value."""


def _read_document(path: str, name: str) -> dict:
    # bytes from either source, decoded here, so the locale's stdin error
    # handler cannot let undecodable bytes through
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {name} from {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{name} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON in {name}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # integer literals past the int->str digit limit, nesting past the stack
        raise InputError(f"invalid JSON in {name}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{name} must be a JSON object")
    return doc


def _integers(doc: dict, name: str, key: str, pair: str = "") -> list:
    """doc[key] as a list of JSON integers, or of [int, int] pairs named by `pair`."""
    if key not in doc:
        raise InputError(f"{name} missing field {key!r}")
    value = doc[key]
    # bool is a subclass of int, and neither true nor 2.9 nor "3" is an integer;
    # the pair test is spelled out because it runs once per edge
    if pair:
        expected = f"a list of [{pair}] integer pairs"
        bad = not isinstance(value, list) or any(
            type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int
            for e in value
        )
    else:
        expected = "a list of integers"
        bad = not isinstance(value, list) or any(type(s) is not int for s in value)
    if bad:
        raise InputError(f"{name}: field {key!r}: expected {expected}")
    return value


def _construct(name: str, make, *args):
    """make(*args), its validation's ValueError reported against the document."""
    try:
        return make(*args)
    except ValueError as exc:
        raise InputError(f"{name}: {exc}") from exc


def _load_graph(path: str) -> graphs.Graph:
    name = "graph document"
    doc = _read_document(path, name)
    if "family" in doc and "edges" in doc:
        raise InputError(f"{name} has both 'family' and 'edges': give one")
    if "n" not in doc:
        raise InputError(f"{name} missing field 'n'")
    n = doc["n"]
    if type(n) is not int:
        raise InputError(f"{name}: field 'n': expected an integer")
    if "family" not in doc:
        return _construct(name, graphs.Graph, n, _integers(doc, name, "edges", "u, v"))
    family = doc["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise InputError(
            f"{name}: field 'family': unknown value {family!r} "
            f"(expected one of {', '.join(_FAMILIES)})"
        )
    return _construct(name, _FAMILIES[family], n)


def _load_stacks(path: str, g: graphs.Graph) -> tuple[int, ...]:
    name = "configuration document"
    stacks = _integers(_read_document(path, name), name, "stacks")
    if len(stacks) != g.n:
        raise InputError(
            f"{name}: field 'stacks': expected {g.n} values for a graph on {g.n} vertices, "
            f"got {len(stacks)}"
        )
    return tuple(stacks)


def _polyomino(doc: dict) -> polyomino.BoardPilePolyomino:
    name = "polyomino document"
    strips = _integers(doc, name, "strips", "offset, length")
    return _construct(name, polyomino.BoardPilePolyomino, strips)


def _strips_doc(x: polyomino.BoardPilePolyomino) -> dict:
    # JSON writes the tuple of (d, length) tuples as [[d, length], ...]
    return {"strips": x.strips}


@contextlib.contextmanager
def _unlimited_int_digits():
    # Exact counts and stacks outgrow the interpreter's int->str digit limit
    # (4300 digits by default); lift it only while writing them, never while
    # parsing input.
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the chunks in order, each as soon as it is made."""
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        except OSError as exc:
            raise InputError(f"cannot write output to {out_path}: {exc}") from exc
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)


def _stacks_block(c: Sequence[int], indent: str) -> str:
    """{"stacks": c} as json.dumps(..., indent=2) lays it out at `indent`."""
    if not c:
        return f'{indent}{{\n{indent}  "stacks": []\n{indent}}}'
    inner = f",\n{indent}    ".join(map(str, c))
    return f'{indent}{{\n{indent}  "stacks": [\n{indent}    {inner}\n{indent}  ]\n{indent}}}'


# --- subcommand handlers ---------------------------------------------------


def _trajectory_text(g: graphs.Graph, stacks: tuple, steps: int, fmt: str) -> Iterator[str]:
    # "json" is json.dumps(..., indent=2) of the {"stacks": ...} list, laid out
    # here because json's indented encoder is pure Python.  Each row is written
    # as it is fired; once the cycle closes, the rest cycles through its rows.
    if fmt == "csv":
        head, sep, tail = "", "\n", "\n"
    else:
        head, sep, tail = "[\n", ",\n", "\n]\n"
    orbit = diffusion._orbit(g, stacks)
    texts: list[str] = []  # the last two rows
    gap = head
    try:
        for t in range(steps + 1):
            c = next(orbit)
            text = ",".join(map(str, c)) if fmt == "csv" else _stacks_block(c, "  ")
            texts = [*texts[-1:], text]
            yield gap + text
            gap = sep
    except StopIteration as closed:
        rows = [sep + text for text in texts[-len(closed.value) :]]
        yield from islice(cycle(rows), steps + 1 - t)
    yield tail


def _cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    stacks = _load_stacks(args.config, g)
    if args.steps < 0:
        raise InputError("--steps must be nonnegative")
    with _unlimited_int_digits():
        _emit(_trajectory_text(g, stacks, args.steps, args.format), args.out)
    return 0


def _cmd_period(args) -> int:
    g = _load_graph(args.graph)
    stacks = _load_stacks(args.config, g)
    if args.max_steps < 1:
        raise InputError("--max-steps must be at least 1")
    report = diffusion.detect_period(g, stacks, max_steps=args.max_steps)
    with _unlimited_int_digits():
        # json.dumps(..., indent=2) of {"preperiod", "period", "configs"}
        configs = ",\n".join(_stacks_block(c, "    ") for c in report.period_configs)
        text = (
            f'{{\n  "preperiod": {report.preperiod},\n  "period": {report.period},\n'
            f'  "configs": [\n{configs}\n  ]\n}}\n'
        )
        _emit([text], args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.n < 1:
        raise InputError("--n must be at least 1")
    stream = polyomino.enumerate_board_pile(args.n)
    if args.count_only:
        total = sum(1 for _ in stream)
        sys.stdout.write(f"{total}\n")
    elif args.ascii:
        # each block goes out as it is drawn: a blank line between blocks
        separator = ""
        for x in stream:
            sys.stdout.write(separator + polyomino.render_ascii(x))
            separator = "\n\n"
        sys.stdout.write("\n")
    else:
        for x in stream:
            sys.stdout.write(json.dumps(_strips_doc(x)) + "\n")
    return 0


def _cmd_render(args) -> int:
    doc = _read_document(args.polyomino, "polyomino document")
    # the strip check's message can name values past the digit limit
    with _unlimited_int_digits():
        x = _polyomino(doc)
    sys.stdout.write(polyomino.render_ascii(x) + "\n")
    return 0


def _cmd_map(args) -> int:
    name = "input document"
    doc = _read_document(args.document, name)
    if "strips" in doc and "stacks" in doc:
        raise InputError(f"{name} has both 'strips' and 'stacks': give one")
    # normalizing and mapping can outgrow the digit limit, in the output or
    # in an error message that names the values
    with _unlimited_int_digits():
        if "strips" in doc:
            x = _polyomino(doc)
            out = {"stacks": list(bijection.poly_to_config(x))}
        elif "stacks" in doc:
            stacks = _integers(doc, name, "stacks")
            if not stacks:
                raise InputError(f"{name}: field 'stacks': expected a nonempty list of integers")
            x = bijection.config_to_poly(diffusion.normalize(stacks))
            out = _strips_doc(x)
        else:
            raise InputError(f"{name} needs either 'strips' or 'stacks'")
        if args.check:
            out["fire_reflect"] = bijection.check_fire_reflect(x)
        _emit([json.dumps(out, indent=2) + "\n"], args.out)
    return 0 if out.get("fire_reflect", True) else 1


def _count_table(mode: str, upto: int) -> list[int]:
    # the recurrence, the series and the transfer matrix each build a whole table anyway
    if mode == "recurrence":
        return counting.recurrence_counts(upto)
    if mode == "gf":
        return counting.gf_coefficients(upto)
    if mode == "labelled":
        return counting.labelled_period_counts(upto)
    return [_count_one(mode, k) for k in range(1, upto + 1)]


def _count_one(mode: str, n: int) -> int:
    if n < 1:
        raise InputError("--n must be at least 1")
    if mode == "recurrence":
        return counting.recurrence_count(n)
    if mode == "gf":
        return counting.gf_coefficient(n)
    if mode == "labelled":
        return counting.labelled_period_counts(n)[-1]
    if mode == "enumerate":
        return sum(1 for _ in polyomino.enumerate_board_pile(n))
    if mode == "brute":
        if n > counting.UNLABELLED_CAP:
            raise InputError(f"--n for mode 'brute' is capped at {counting.UNLABELLED_CAP}")
        return len(counting.brute_force_period_multisets(n))
    raise InputError(f"unknown mode {mode!r}")


def _cmd_count(args) -> int:
    if (args.n is None) == (args.upto is None):
        raise InputError("give exactly one of --n or --upto")
    if args.n is not None:
        value = _count_one(args.mode, args.n)
        with _unlimited_int_digits():
            text = json.dumps({"n": args.n, "count": str(value)}) + "\n"
    else:
        if args.upto < 1:
            raise InputError("--upto must be at least 1")
        if args.mode == "brute" and args.upto > counting.UNLABELLED_CAP:
            raise InputError(f"--upto for mode 'brute' is capped at {counting.UNLABELLED_CAP}")
        table = _count_table(args.mode, args.upto)
        with _unlimited_int_digits():
            text = "n,count\n" + "".join(f"{k},{v}\n" for k, v in enumerate(table, start=1))
    _emit([text], args.out)
    return 0


# --- verify: the cross-checks, also run by the acceptance tests ---------------


def verify_count_agreement(n_max: int) -> tuple[bool, str]:
    """Recurrence, series, top-block count and enumeration agree with the
    reference table for n=1..n_max."""
    rec = counting.recurrence_counts(n_max)
    gf = counting.gf_coefficients(n_max)
    blocks = counting._top_block_counts(n_max, labelled=False)
    enum = [sum(1 for _ in polyomino.enumerate_board_pile(k)) for k in range(1, n_max + 1)]
    ok = rec == gf == blocks == enum and tuple(rec) == counting.REFERENCE_COUNTS[:n_max]
    detail = f"n=1..{n_max}: " + ", ".join(str(v) for v in rec)
    return ok, detail


def verify_image(n_max: int) -> tuple[bool, str]:
    """The strip images equal the fire-twice scan, as sets, for n=1..n_max."""
    for n in range(1, n_max + 1):
        oracle = set(counting.brute_force_period_multisets(n))
        image = {bijection.poly_to_config(x) for x in polyomino.enumerate_board_pile(n)}
        if oracle != image:
            return False, f"mismatch at n={n}"
    return True, f"strip images match the fire-twice scan for n=1..{n_max}"


def verify_fire_reflect(cells_max: int) -> tuple[bool, str]:
    """Firing each image equals reflecting its polyomino, up to cells_max cells."""
    checked = 0
    for n in range(1, cells_max + 1):
        for x in polyomino.enumerate_board_pile(n):
            if not bijection.check_fire_reflect(x):
                return False, f"firing does not match reflection for {x.strips}"
            checked += 1
    return True, f"{checked} polyominoes with up to {cells_max} cells"


def verify_labelled(n_max: int) -> tuple[bool, str]:
    """The labelled transfer-matrix count equals the labelled scan for n=1..n_max."""
    for n, formula in enumerate(counting.labelled_period_counts(n_max), start=1):
        oracle = counting.brute_force_labelled(n)
        if formula != oracle:
            return False, f"n={n}: formula {formula} vs scan {oracle}"
    return True, f"transfer-matrix count matches the labelled scan for n=1..{n_max}"


def _cmd_verify(args) -> int:
    if not 1 <= args.max_unlabelled <= counting.UNLABELLED_CAP:
        raise InputError(f"--max-unlabelled must be in 1..{counting.UNLABELLED_CAP}")
    if not 1 <= args.max_labelled <= counting.LABELLED_CAP:
        raise InputError(f"--max-labelled must be in 1..{counting.LABELLED_CAP}")
    if not 1 <= args.max_reflect <= _REFLECT_CAP:
        raise InputError(f"--max-reflect must be in 1..{_REFLECT_CAP}")
    reference_n = len(counting.REFERENCE_COUNTS)
    checks = [
        ("count-triple-agreement", lambda: verify_count_agreement(reference_n)),
        ("bijection-image", lambda: verify_image(args.max_unlabelled)),
        ("fire-reflect", lambda: verify_fire_reflect(args.max_reflect)),
        ("labelled-oracle", lambda: verify_labelled(args.max_labelled)),
    ]
    results = {}
    for name, check in checks:
        ok, detail = check()
        results[name] = ok
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    summary = {
        "checks": results,
        "params": {
            "max_unlabelled": args.max_unlabelled,
            "max_labelled": args.max_labelled,
            "max_reflect": args.max_reflect,
        },
        "ok": all(results.values()),
    }
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0 if summary["ok"] else 1


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boardpile",
        description="Chip diffusion on graphs and board-pile polyomino counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="fire a configuration for a number of steps")
    p.add_argument("graph", help="graph document (JSON file or '-')")
    p.add_argument("config", help="configuration document (JSON file or '-')")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("period", help="find the eventual cycle of a trajectory")
    p.add_argument("graph")
    p.add_argument("config")
    p.add_argument("--max-steps", type=int, default=diffusion.DEFAULT_MAX_STEPS)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_period)

    p = sub.add_parser("enumerate", help="stream every board-pile polyomino of a size")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="one JSON object per line (default)")
    mode.add_argument("--ascii", action="store_true")
    mode.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("render", help="draw a polyomino document as ASCII art")
    p.add_argument("polyomino")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("map", help="convert between polyominoes and stack multisets")
    p.add_argument("document", help="JSON with either 'strips' or 'stacks'")
    p.add_argument("--check", action="store_true", help="also verify fire/reflect agreement")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("count", help="count periodic states by several methods")
    p.add_argument(
        "--mode",
        choices=("recurrence", "gf", "enumerate", "brute", "labelled"),
        required=True,
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--upto", type=int, default=None, help="CSV table for n=1..UPTO")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", help="run the cross-check suite")
    p.add_argument("--max-unlabelled", type=int, default=7)
    p.add_argument("--max-labelled", type=int, default=5)
    p.add_argument("--max-reflect", type=int, default=9)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # whoever read stdout has closed it, so there is no one to tell
        return 2
    except (ValueError, RuntimeError) as exc:  # every domain and engine error subclasses one
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered to devnull: the interpreter's own flush
        # at exit would otherwise report the closed pipe on stderr.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 2
    raise SystemExit(code)
