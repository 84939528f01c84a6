"""Command-line front end.

Subcommands: simulate, period, enumerate, render, map, count, verify.
All documents are UTF-8 JSON; counts are serialized as decimal strings so
arbitrary-precision values survive any JSON parser.  Exit codes: 0 success,
1 domain/engine error, 2 malformed input or an unwritable output path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Sequence

from . import bijection, counting, diffusion, polyomino
from .graphs import Graph, graph_from_document

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


def _load_graph(path: str) -> Graph:
    doc = _read_document(path, "graph document")
    try:
        return graph_from_document(doc)
    except (ValueError, TypeError) as exc:
        raise InputError(f"graph document: {exc}") from exc


def _stacks_field(doc: dict) -> tuple[int, ...]:
    stacks = doc["stacks"]
    # bool is a subclass of int, but true/false are not chip counts
    if not isinstance(stacks, list) or not all(type(s) is int for s in stacks):
        raise InputError("field 'stacks': expected a list of integers")
    return tuple(stacks)


def _load_stacks(path: str, g: Graph) -> tuple[int, ...]:
    doc = _read_document(path, "configuration document")
    if "stacks" not in doc:
        raise InputError("configuration document missing field 'stacks'")
    stacks = _stacks_field(doc)
    if len(stacks) != g.n:
        raise InputError(
            f"field 'stacks': expected {g.n} values for a graph on {g.n} vertices, "
            f"got {len(stacks)}"
        )
    return stacks


def _parse_polyomino(doc: dict) -> polyomino.BoardPilePolyomino:
    try:
        return polyomino.poly_from_document(doc)
    except (ValueError, TypeError) as exc:
        raise InputError(f"polyomino document: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write output to {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# --- subcommand handlers ---------------------------------------------------


def _cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    stacks = _load_stacks(args.config, g)
    if args.steps < 0:
        raise InputError("--steps must be nonnegative")
    trajectory = diffusion.run(g, stacks, args.steps)
    if args.format == "csv":
        text = "\n".join(",".join(str(s) for s in c) for c in trajectory) + "\n"
    else:
        text = json.dumps([{"stacks": list(c)} for c in trajectory], indent=2) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_period(args) -> int:
    g = _load_graph(args.graph)
    stacks = _load_stacks(args.config, g)
    if args.max_steps < 1:
        raise InputError("--max-steps must be at least 1")
    report = diffusion.detect_period(g, stacks, max_steps=args.max_steps)
    doc = {
        "preperiod": report.preperiod,
        "period": report.period,
        "configs": [{"stacks": list(c)} for c in report.period_configs],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.n < 1:
        raise InputError("--n must be at least 1")
    stream = polyomino.enumerate_board_pile(args.n)
    if args.count_only:
        total = sum(1 for _ in stream)
        sys.stdout.write(f"{total}\n")
    elif args.ascii:
        blocks = [polyomino.render_ascii(x) for x in stream]
        sys.stdout.write("\n\n".join(blocks) + "\n")
    else:
        for x in stream:
            sys.stdout.write(json.dumps(polyomino.poly_to_document(x)) + "\n")
    return 0


def _cmd_render(args) -> int:
    x = _parse_polyomino(_read_document(args.polyomino, "polyomino document"))
    sys.stdout.write(polyomino.render_ascii(x) + "\n")
    return 0


def _cmd_map(args) -> int:
    doc = _read_document(args.document, "input document")
    if "strips" in doc:
        x = _parse_polyomino(doc)
        out = {"stacks": list(bijection.poly_to_config(x))}
    elif "stacks" in doc:
        stacks = _stacks_field(doc)
        if not stacks:
            raise InputError("field 'stacks': expected a nonempty list of integers")
        x = bijection.config_to_poly(diffusion.normalize(stacks))
        out = polyomino.poly_to_document(x)
    else:
        raise InputError("input document needs either 'strips' or 'stacks'")
    if args.check:
        out["fire_reflect"] = bijection.check_fire_reflect(x)
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0 if out.get("fire_reflect", True) else 1


@contextlib.contextmanager
def _unlimited_int_digits():
    # Exact counts outgrow the interpreter's int->str digit limit (4300 digits
    # by default); lift it only while formatting them, never while parsing input.
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


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
    if mode in ("recurrence", "gf"):
        return _count_table(mode, n)[-1]
    if mode == "enumerate":
        return sum(1 for _ in polyomino.enumerate_board_pile(n))
    if mode == "brute":
        if n > counting.UNLABELLED_CAP:
            raise InputError(f"--n for mode 'brute' is capped at {counting.UNLABELLED_CAP}")
        return counting.brute_force_unlabelled(n)
    if mode == "labelled":
        return counting.labelled_period_count(n)
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
        table = _count_table(args.mode, args.upto)
        with _unlimited_int_digits():
            text = "n,count\n" + "".join(f"{k},{v}\n" for k, v in enumerate(table, start=1))
    _emit(text, args.out)
    return 0


# --- verify: the cross-checks, also run by the acceptance tests ---------------


def verify_count_agreement(n_max: int) -> tuple[bool, str]:
    """Recurrence, series and enumeration agree with the reference table for n=1..n_max."""
    rec = counting.recurrence_counts(n_max)
    gf = counting.gf_coefficients(n_max)
    enum = [sum(1 for _ in polyomino.enumerate_board_pile(k)) for k in range(1, n_max + 1)]
    ok = rec == gf == enum and tuple(rec) == counting.REFERENCE_COUNTS[:n_max]
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
    for n in range(1, n_max + 1):
        formula = counting.labelled_period_count(n)
        oracle = counting.brute_force_labelled(n)
        if formula != oracle:
            return False, f"n={n}: formula {formula} vs scan {oracle}"
    return True, f"transfer-matrix count matches the labelled scan for n=1..{n_max}"


def _cmd_verify(args) -> int:
    if not 1 <= args.max_unlabelled <= counting.UNLABELLED_CAP:
        raise InputError(f"--max-unlabelled must be in 1..{counting.UNLABELLED_CAP}")
    if not 1 <= args.max_labelled <= counting.LABELLED_CAP:
        raise InputError(f"--max-labelled must be in 1..{counting.LABELLED_CAP}")
    if not 1 <= args.max_reflect <= 11:
        raise InputError("--max-reflect must be in 1..11")
    checks = [
        ("count-triple-agreement", lambda: verify_count_agreement(11)),
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
    except (ValueError, RuntimeError) as exc:  # every domain and engine error subclasses one
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
