"""Command-line front end, and the only reader and writer of the JSON documents.

Subcommands: simulate, period, enumerate, render, map, count, verify.
All documents are UTF-8 JSON objects:

* graph: {"n": N, "edges": [[u, v], ...]}, or a family
  {"family": "complete"|"cycle"|"path"|"star", "n": N}, whose N is checked
  against its configuration's stacks before the family graph is built;
* configuration: {"stacks": [s_0, ..., s_{N-1}]};
* polyomino: {"strips": [[d, length], ...]}, bottom strip first.

A key given twice in one object is malformed, whichever value would win.
Integer fields take JSON integers only, parsed under the int->str digit
limit main() was entered with; the rest runs with the limit lifted.  Counts
are serialized as decimal strings so arbitrary-precision values survive any
JSON parser.  Exit codes: 0 success, 1 domain/engine error, 2 malformed or
ambiguous input, a request past a named cap, an unwritable output path or a
closed stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from functools import cache, lru_cache
from itertools import chain, islice
from time import perf_counter

# The library is reached as attributes of the package, each module loading on
# its first use, so a run loads only the modules its subcommand runs.
import boardpile as bp

# verify's fire-reflect check walks every polyomino up to this many cells
# (66,441 of them at 11, and about 3.2 times as many per cell beyond)
_REFLECT_CAP = 11

# count's enumeration and enumerate --count-only walk every polyomino of each
# size asked for: 7,015,418 of them at 15, and about 3.2 times as many per
# cell beyond; enumerate --n 15 --count-only takes 1.8-2.1 s end to end at
# the cap, and count --upto 15 2.4-2.5 s
_ENUMERATE_CAP = 15

# render's drawing holds one character per cell and per blank left of a strip
# (0.1 s and 34 MB at the cap); map turns strips into one stack per cell, each
# an indented JSON line (0.15 s and 44 MB end to end at the cap for one strip,
# 0.22 s and 53 MB with --check).  The same cells in 500,000 strips take
# 0.6 s and 107 MB, 1.3 s and 180 MB with --check: the parsed document is
# dropped once the polyomino holds its strips (158 and 230 MB when kept).
_RENDER_CAP = 10**7
_MAP_CAP = 10**6

# count's labelled table a(1)..a(n), which --n builds too: 2.8 s and 18 MB
# end to end at the cap, 25 s and 31 MB at 2000
_LABELLED_TABLE_CAP = 1000

# graph families by their constructor's name in graphs
_FAMILIES = ("complete", "cycle", "path", "star")

# the int->str digit limit main() was entered with, which documents are parsed
# under: main() lifts it for the rest, since counts and stacks outgrow it
_document_digits = sys.get_int_max_str_digits()


class InputError(Exception):
    """Malformed or inconsistent input document or flag value."""


def _members(pairs: list) -> dict:
    """A JSON object's members as a dict, refusing a key given twice, whose
    last value json would otherwise keep without a word."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ValueError(f"duplicate key {key!r}")
        members[key] = value
    return members


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
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{name} is not UTF-8: {exc}") from exc
    del data  # only the text is parsed
    unlimited = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_document_digits)
    try:
        doc = json.loads(text, object_pairs_hook=_members)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON in {name}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # integer literals past the int->str digit limit, nesting past the
        # stack, a key given twice
        raise InputError(f"invalid JSON in {name}: {exc}") from exc
    finally:
        sys.set_int_max_str_digits(unlimited)
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


def _load_graph_and_stacks(args) -> tuple[bp.graphs.Graph, tuple[int, ...]]:
    if args.graph == args.config == "-":
        raise InputError("only one document can come from stdin: give the other as a file")
    name = "graph document"
    doc = _read_document(args.graph, name)
    if "family" in doc and "edges" in doc:
        raise InputError(f"{name} has both 'family' and 'edges': give one")
    if "n" not in doc:
        raise InputError(f"{name} missing field 'n'")
    n = doc["n"]
    if type(n) is not int:
        raise InputError(f"{name}: field 'n': expected an integer")
    if "family" not in doc:
        # the list iterator drops the parsed entries once Graph has checked
        # them all, before its sort: nothing else may hold them
        edges = iter(_integers(doc, name, "edges", "u, v"))
        del doc
        g = _construct(name, bp.graphs.Graph, n, edges)
        return g, _load_stacks(args.config, n)
    family = doc["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise InputError(
            f"{name}: field 'family': unknown value {family!r} "
            f"(expected one of {', '.join(_FAMILIES)})"
        )
    # a family document is about 30 bytes whatever n it names: its stacks,
    # read first, bound what the build costs
    stacks = _load_stacks(args.config, n)
    return _construct(name, getattr(bp.graphs, family), n), stacks


def _load_stacks(path: str, n: int) -> tuple[int, ...]:
    name = "configuration document"
    stacks = _integers(_read_document(path, name), name, "stacks")
    if len(stacks) != n:
        raise InputError(
            f"{name}: field 'stacks': expected {n} values for a graph on {n} vertices, "
            f"got {len(stacks)}"
        )
    return tuple(stacks)


def _polyomino(doc: dict) -> bp.polyomino.BoardPilePolyomino:
    name = "polyomino document"
    strips = _integers(doc, name, "strips", "offset, length")
    return _construct(name, bp.polyomino.BoardPilePolyomino, strips)


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


# Stacks are written as their decimal text joined by a separator: a comma in a
# CSV row, a comma, newline and the list's indent in json.dumps(..., indent=2)'s
# layout, whose indented encoder is pure Python.  json's C encoder, given that
# separator, writes the same text in one call: 10,000 stacks in 0.65 ms against
# 1.03 ms for str.join over map(str) (in-process, Python 3.11.7, 2-core host).
# Each call costs about 0.7 us more to set up, so a list under about 28 stacks
# takes that much longer than by str.join; one path serves every length.
@cache
def _encoder(sep: str) -> json.JSONEncoder:
    # no circularity check: a list of ints cannot contain itself
    return json.JSONEncoder(separators=(sep, ":"), check_circular=False)


def _stacks_text(c: Sequence[int], sep: str) -> str:
    """sep.join(map(str, c)): the decimal text of the stacks c, joined by sep."""
    return _encoder(sep).encode(c)[1:-1]


def _stacks_block(c: Sequence[int], indent: str, **members) -> str:
    """{"stacks": c, **members} as json.dumps(..., indent=2) lays it out at
    `indent`, the further members being scalars; the stacks' lines are one
    _stacks_text call."""
    inner, item = indent + "  ", indent + "    "
    sep = ",\n" + item
    stacks = f"[\n{item}{_stacks_text(c, sep)}\n{inner}]" if c else "[]"
    more = "".join(f",\n{inner}{json.dumps(k)}: {json.dumps(v)}" for k, v in members.items())
    return f'{indent}{{\n{inner}"stacks": {stacks}{more}\n{indent}}}'


# --- subcommand handlers ---------------------------------------------------


def _trajectory_text(g: bp.graphs.Graph, stacks: tuple, steps: int, fmt: str) -> Iterator[str]:
    # "json" is json.dumps(..., indent=2) of the {"stacks": ...} list, and each
    # row's stacks go through _stacks_text.  Each row is written as it is fired;
    # after the close the rows are the cycle's one or two tuples again, so the
    # text of the last two rows is kept.
    if fmt == "csv":
        head, sep, tail, row = "", "\n", "\n", lambda c: _stacks_text(c, ",")
    else:
        head, sep, tail, row = "[\n", ",\n", "\n]\n", lambda c: _stacks_block(c, "  ")
    text = lru_cache(maxsize=2)(row)
    gap = head
    for c in bp.diffusion._trajectory(g, stacks, steps):
        yield gap + text(c)
        gap = sep
    yield tail


def _cmd_simulate(args) -> int:
    if args.steps < 0:
        raise InputError("--steps must be nonnegative")
    if args.steps > sys.maxsize:
        raise InputError(f"--steps is capped at sys.maxsize = {sys.maxsize}")
    g, stacks = _load_graph_and_stacks(args)
    _emit(_trajectory_text(g, stacks, args.steps, args.format), args.out)
    return 0


def _cmd_period(args) -> int:
    max_steps = bp.diffusion.DEFAULT_MAX_STEPS if args.max_steps is None else args.max_steps
    if max_steps < 1:
        raise InputError("--max-steps must be at least 1")
    g, stacks = _load_graph_and_stacks(args)
    report = bp.diffusion.detect_period(g, stacks, max_steps=max_steps)
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
    if args.count_only:
        if args.n > _ENUMERATE_CAP:
            raise InputError(f"--n for --count-only is capped at {_ENUMERATE_CAP}")
        sys.stdout.write(f"{_walked_count(args.n)}\n")
        return 0
    stream = bp.polyomino.enumerate_board_pile(args.n)
    if args.ascii:
        # a blank line between drawings
        drawings = map(bp.polyomino.render_ascii, stream)
        chunks = chain(islice(drawings, 1), ("\n\n" + d for d in drawings), ["\n"])
    else:
        chunks = (json.dumps({"strips": x.strips}) + "\n" for x in stream)
    _emit(chunks, None)
    return 0


def _cmd_render(args) -> int:
    x = _polyomino(_read_document(args.polyomino, "polyomino document"))
    size = sum(start + length for start, length in bp.polyomino.layout(x))
    if size > _RENDER_CAP:
        raise InputError(
            f"polyomino document: field 'strips': the drawing would take {size} "
            f"characters, capped at {_RENDER_CAP}"
        )
    sys.stdout.write(bp.polyomino.render_ascii(x) + "\n")
    return 0


def _cmd_map(args) -> int:
    name = "input document"
    doc = _read_document(args.document, name)
    if "strips" in doc and "stacks" in doc:
        raise InputError(f"{name} has both 'strips' and 'stacks': give one")
    to_stacks = "strips" in doc
    if to_stacks:
        x = _polyomino(doc)
        if x.cells > _MAP_CAP:
            raise InputError(f"{name}: field 'strips': {x.cells} cells, capped at {_MAP_CAP}")
    elif "stacks" in doc:
        stacks = _integers(doc, name, "stacks")
        if not stacks:
            raise InputError(f"{name}: field 'stacks': expected a nonempty list of integers")
        x = bp.bijection.config_to_poly(bp.diffusion.normalize(stacks))
        del stacks
    else:
        raise InputError(f"{name} needs either 'strips' or 'stacks'")
    del doc  # x holds all that is left to do
    check = {"fire_reflect": bp.bijection.check_fire_reflect(x)} if args.check else {}
    if to_stacks:
        text = _stacks_block(bp.bijection.poly_to_config(x), "", **check)
    else:
        text = json.dumps({"strips": x.strips, **check}, indent=2)
    _emit([text, "\n"], args.out)
    return 0 if check.get("fire_reflect", True) else 1


def _count_method(mode: str) -> tuple:
    """mode's a(n) alone, its table a(1)..a(upto), and the largest n it counts
    or None.  The two walks, whose cost grows exponentially with n, are capped
    and build their table one size at a time; the others build a whole table
    anyway, and the labelled count, capped too, is its table's last row."""
    one, table, cap = {
        "recurrence": (bp.counting.recurrence_count, bp.counting.recurrence_counts, None),
        "gf": (bp.counting.gf_coefficient, bp.counting.gf_coefficients, None),
        "labelled": (None, bp.counting.labelled_period_counts, _LABELLED_TABLE_CAP),
        "enumerate": (_walked_count, None, _ENUMERATE_CAP),
        "brute": (_scanned_count, None, bp.counting.UNLABELLED_CAP),
    }[mode]
    return (
        one or (lambda n: table(n)[-1]),
        table or (lambda upto: [one(k) for k in range(1, upto + 1)]),
        cap,
    )


def _walked_count(n: int) -> int:
    return sum(1 for _ in bp.polyomino.enumerate_board_pile(n))


def _scanned_count(n: int) -> int:
    return len(bp.counting.brute_force_period_multisets(n))


def _cmd_count(args) -> int:
    if (args.n is None) == (args.upto is None):
        raise InputError("give exactly one of --n or --upto")
    flag, size = ("--n", args.n) if args.upto is None else ("--upto", args.upto)
    if size < 1:
        raise InputError(f"{flag} must be at least 1")
    one, table, cap = _count_method(args.mode)
    if cap is not None and size > cap:
        raise InputError(f"{flag} for mode {args.mode!r} is capped at {cap}")
    if args.upto is None:
        chunks = [json.dumps({"n": size, "count": str(one(size))}) + "\n"]
    else:
        # row by row: the whole text of a table would outweigh its counts
        rows = table(size)
        chunks = chain(["n,count\n"], (f"{k},{v}\n" for k, v in enumerate(rows, start=1)))
    _emit(chunks, args.out)
    return 0


# --- verify: the cross-checks, also run by the acceptance tests ---------------


def verify_count_agreement(n_max: int) -> tuple[bool, str]:
    """Recurrence, series, top-block count and enumeration agree with the
    reference table for n=1..n_max."""
    # the tables count --upto prints, beside the DP that count does not offer
    rec, gf, enum = (_count_method(mode)[1](n_max) for mode in ("recurrence", "gf", "enumerate"))
    blocks = bp.counting._top_block_counts(n_max, labelled=False)
    ok = rec == gf == blocks == enum and tuple(rec) == bp.counting.REFERENCE_COUNTS[:n_max]
    detail = f"n=1..{n_max}: " + ", ".join(str(v) for v in rec)
    return ok, detail


def verify_image(n_max: int) -> tuple[bool, str]:
    """The strip images equal the fire-twice scan, as sets, for n=1..n_max."""
    for n in range(1, n_max + 1):
        oracle = set(bp.counting.brute_force_period_multisets(n))
        image = {bp.bijection.poly_to_config(x) for x in bp.polyomino.enumerate_board_pile(n)}
        if oracle != image:
            return False, f"mismatch at n={n}"
    return True, f"strip images match the fire-twice scan for n=1..{n_max}"


def verify_fire_reflect(cells_max: int) -> tuple[bool, str]:
    """Firing each image equals reflecting its polyomino, up to cells_max cells."""
    checked = 0
    for n in range(1, cells_max + 1):
        for x in bp.polyomino.enumerate_board_pile(n):
            if not bp.bijection.check_fire_reflect(x):
                return False, f"firing does not match reflection for {x.strips}"
            checked += 1
    return True, f"{checked} polyominoes with up to {cells_max} cells"


def verify_labelled(n_max: int) -> tuple[bool, str]:
    """The labelled transfer-matrix count equals the labelled scan for n=1..n_max."""
    for n, formula in enumerate(bp.counting.labelled_period_counts(n_max), start=1):
        oracle = bp.counting.brute_force_labelled(n)
        if formula != oracle:
            return False, f"n={n}: formula {formula} vs scan {oracle}"
    return True, f"transfer-matrix count matches the labelled scan for n=1..{n_max}"


def _cmd_verify(args) -> int:
    if not 1 <= args.max_unlabelled <= bp.counting.UNLABELLED_CAP:
        raise InputError(f"--max-unlabelled must be in 1..{bp.counting.UNLABELLED_CAP}")
    if not 1 <= args.max_labelled <= bp.counting.LABELLED_CAP:
        raise InputError(f"--max-labelled must be in 1..{bp.counting.LABELLED_CAP}")
    if not 1 <= args.max_reflect <= _REFLECT_CAP:
        raise InputError(f"--max-reflect must be in 1..{_REFLECT_CAP}")
    reference_n = len(bp.counting.REFERENCE_COUNTS)
    checks = [
        ("count-triple-agreement", lambda: verify_count_agreement(reference_n)),
        ("bijection-image", lambda: verify_image(args.max_unlabelled)),
        ("fire-reflect", lambda: verify_fire_reflect(args.max_reflect)),
        ("labelled-oracle", lambda: verify_labelled(args.max_labelled)),
    ]
    results, elapsed = {}, {}
    for name, check in checks:
        started = perf_counter()
        ok, detail = check()
        elapsed[name] = round(perf_counter() - started, 4)
        results[name] = ok
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    summary = {
        "checks": results,
        "elapsed_s": elapsed,
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
    p.add_argument("--max-steps", type=int, default=None)
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
    global _document_digits
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _document_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
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
    finally:
        sys.set_int_max_str_digits(_document_digits)


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
