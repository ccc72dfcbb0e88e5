"""Batch command-line interface: counting sweeps, enumeration, Gram ranks,
statistics parameters, spectra and the self-verification suite.

Every run walks a parameter grid in lexicographic order and emits one row
per grid point, as CSV or JSON. Exact rationals render as "a/b" in CSV and
as {"num": a, "den": b} in JSON. Output is deterministic byte for byte;
the exit status is non-zero exactly when some oracle or identity check
disagreed. Grid points are independent of each other, so they may be
evaluated in any order or in parallel; rows are always emitted in grid
order.
"""

import csv
import io
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product
from types import SimpleNamespace

from .core import bose, fermi, quon
from .cs_model import Filling, energy, ground_energy, pseudomomenta
from .gram import orbit_size, sector_dimension
from .registry import COUNT_FAMILIES, PARAM_FAMILIES, RULES, VERIFY_KINDS, _default_m0
from .restrictions import (
    DEFAULT_CANDIDATE_CAP,
    CapacityExceededError,
    _allowed_states,
    _check_candidates,
    _check_listing,
    _check_sizes,
)

EPILOG = """Grids accept "4", "2..6" (inclusive) or "1,3,5"; rational lists
accept entries like "1/2". A JSON config file may predefine any long
option (dashes become underscores); explicit flags win."""


def parse_int_values(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _fraction(text: str) -> Fraction:
    """Fraction(text); a zero denominator is a ValueError, as bad text is."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_frac_values(text: str) -> list[Fraction]:
    text = text.strip()
    if ".." in text:
        return [Fraction(v) for v in parse_int_values(text)]
    return [_fraction(part) for part in text.split(",") if part.strip() != ""]


def parse_float_values(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def parse_int_set(text: str) -> list[tuple[int, ...]]:
    """A one-value grid: the sorted distinct entries of an integer list."""
    return [tuple(sorted(set(parse_int_values(text))))]


def parse_sides(text: str) -> list[str]:
    sides = text.split(",")
    for side in sides:
        if side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {side!r}")
    return sides


# How each cell type the commands emit is written into CSV; bool comes
# before int, because a bool is also an int.
_CELL_FORMATS = {
    bool: lambda v: "true" if v else "false",
    int: str,
    Fraction: str,
    tuple: lambda v: " ".join([str(x) for x in v]),
    float: repr,
    type(None): lambda v: "",
    str: str,
}


def format_cell(value) -> str:
    for kind, fmt in _CELL_FORMATS.items():
        if isinstance(value, kind):
            return fmt(value)
    return str(value)


def json_cell(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, tuple):
        return list(value)
    return value


def render(header: list[str], rows: list[tuple], fmt: str) -> str:
    """The rows as CSV under the header, or as json.dumps(list of row
    objects, indent=2) followed by a newline."""
    if fmt == "json":
        import json

        payload = [dict(zip(header, map(json_cell, row))) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    formats = _CELL_FORMATS
    writer.writerows([formats.get(type(v), format_cell)(v) for v in row] for row in rows)
    return buf.getvalue()


def _alg_from_spec(text: str):
    if text == "bose":
        return bose()
    if text == "fermi":
        return fermi()
    if text.startswith("quon:"):
        return quon(_fraction(text.split(":", 1)[1]))
    raise ValueError(f"algebra must be bose, fermi or quon:Q, got {text!r}")


def _rule_from_args(family: str, args):
    if family not in RULES:
        raise ValueError(f"no restriction rule for family {family!r}")
    options, build = RULES[family]
    return build(*[_single(args, name) for name in options])


def _single(args, name: str):
    values = getattr(args, name, None)
    flag = _flags(args.command)[name]
    if not values:
        raise ValueError(f"option --{flag} is required here")
    if len(values) > 1:
        raise ValueError(f"option --{flag} takes a single value here")
    return values[0]


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) in (None, []):
            scope = f"family {args.family!r}" if "family" in vars(args) else args.command
            raise ValueError(f"--{_flags(args.command)[name]} is required for {scope}")


# ---------------------------------------------------------------- count ---

# Output column of an option, where it differs from the option's name.
_COLUMNS = {"lam": "lambda", "x_set": "x"}


def _grid_points(args, names):
    """The product of the named grids, in order; each one is required."""
    _require(args, *names)
    return product(*[getattr(args, name) for name in names])


def _sweep(args, columns, points, closed, oracle, oracle_column, tail):
    """One row (family, *point, value, *tail cells[, check, agrees]) per
    grid point, in grid order; `tail` maps trailing columns to fixed cells.

    A point where the closed form raises ValueError gets empty value, check
    and agrees cells and a warning on stderr; a grid with no defined point
    is an error. The oracle (or None) is called on defined points only and
    may return None where it has no value; an error it raises aborts."""
    header = ["family", *columns, "value", *tail]
    rows: list[tuple] = []
    undefined: list[tuple[tuple, ValueError]] = []
    failures = 0
    for point in points:
        try:
            value = closed(*point)
        except ValueError as exc:
            undefined.append((point, exc))
            value = None
        row = [args.family, *point, value, *tail.values()]
        if args.oracle:
            check = None if value is None or oracle is None else oracle(*point)
            agrees = None if check is None else check == value
            failures += agrees is False
            row += [check, agrees]
        rows.append(tuple(row))
    if undefined and len(undefined) == len(rows):
        raise undefined[0][1]
    for point, exc in undefined:
        where = " ".join(f"{column}={format_cell(v)}" for column, v in zip(columns, point))
        print(f"warning: {where}: {exc}", file=sys.stderr)
    if args.oracle:
        header += [oracle_column, "agrees"]
    return header, rows, failures


def run_count(args) -> tuple[list[str], list[tuple], int]:
    options, closed, formula, oracle_rule, oracle_count = COUNT_FAMILIES[args.family]

    def oracle(m, n, *values):
        rule = oracle_rule(*values)
        return None if rule is None else oracle_count(m, n, rule, args.cap)

    columns = ["M", "N", *[_COLUMNS.get(name, name) for name in options]]
    points = _grid_points(args, ("M", "N", *options))
    return _sweep(args, columns, points, closed, oracle, "oracle", {"formula": formula})


# ------------------------------------------------------------ enumerate ---

def _csv_row_parts(family: str, m: int, n: int) -> tuple[str, str, str, str]:
    """The fixed text of one point's CSV rows; csv.writer quotes the prefix."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((family, m, n, ""))
    return buf.getvalue()[:-1], ",", " ", "\n"


def _json_row_parts(family: str, m: int, n: int) -> tuple[str, str, str, str]:
    """The fixed text of one point's JSON row objects, each led by ",\\n", in
    the layout of json.dumps(rows, indent=2)."""
    import json

    head = (f',\n  {{\n    "family": {json.dumps(family)},\n    "M": {m},\n    "N": {n},\n'
            '    "index": ')
    if n == 0:
        return head, ',\n    "state": []\n  }', "", ""
    return head, ',\n    "state": [\n      ', ",\n      ", "\n    ]\n  }"


def _point_rows(parts: tuple[str, str, str, str], m: int, n: int, rule) -> Iterator[str]:
    """The text of each row of one point, as its state is listed: head,
    index, open, the state's sites joined by sep, close. Each site's text
    is made once per point."""
    head, open_, sep, close = parts
    site = [str(j) for j in range(m + 1)]
    return (f"{head}{i}{open_}{sep.join([site[x] for x in w])}{close}"
            for i, w in enumerate(_allowed_states(m, n, rule)))


def _json_array(objects: Iterator[str]) -> Iterator[str]:
    """The "[\\n" ... "\\n]\\n" frame around objects that each start with
    ",\\n" (the first loses it), or "[]\\n" for none."""
    first = next(objects, None)
    if first is None:
        yield "[]\n"
        return
    yield "[\n" + first[2:]
    yield from objects
    yield "\n]\n"


def run_enumerate(args) -> tuple[list[str], Iterator[str], int]:
    """Every (M, N) point is checked first. The listing then comes as lazy
    text, the bytes render(header, rows, args.format) gives for the rows
    (family, M, N, index, state), each row made as its state is listed, so
    main writes each as it is made."""
    _require(args, "M", "N")
    rule = _rule_from_args(args.family, args)
    points = list(product(args.M, args.N))
    for m, n in points:
        _check_listing(m, n, rule, args.cap)
    header = ["family", "M", "N", "index", "state"]
    parts = _json_row_parts if args.format == "json" else _csv_row_parts
    rows = chain.from_iterable(_point_rows(parts(args.family, m, n), m, n, rule)
                               for m, n in points)
    if args.format == "json":
        return header, _json_array(rows), 0
    return header, chain([",".join(header) + "\n"], rows), 0


# ----------------------------------------------------------------- gram ---

def run_gram(args) -> tuple[list[str], list[tuple], int]:
    alg = _alg_from_spec(args.alg)
    rule = _rule_from_args(args.rule_family or "none", args)
    header = ["multiset", "algebra", "dimension", "rank"]
    rows = []
    if args.multiset:
        multisets = [tuple(sorted(args.multiset))]
    else:
        _require(args, "M", "N")
        multisets = []
        for m, n in product(args.M, args.N):
            _check_sizes(m, n, least=1)
            _check_candidates(m, n, args.cap)
            multisets += combinations_with_replacement(range(1, m + 1), n)
    for ms in multisets:
        rows.append((ms, args.alg, orbit_size(ms), sector_dimension(ms, alg, rule)))
    return header, rows, 0


# --------------------------------------------------------------- params ---

def _cs_average_points(args):
    """--M is the M0 grid; without it each point takes `_default_m0`."""
    _require(args, "N", "p", "q", "i1")
    for p, q, m0, n, i1 in product(args.p, args.q, args.M or [None], args.N, args.i1):
        yield p, q, _default_m0(p, q, n, i1) if m0 is None else m0, n, i1


def _pattern_points(args):
    """One point: the occupancy pattern on its own number of sites."""
    _require(args, "pattern")
    yield tuple(args.pattern), sum(args.pattern)


# params family -> its grid points, where they are not its columns' product.
_PARAM_POINTS = {"cs-average": _cs_average_points, "gentile-average": _pattern_points}


def run_params(args) -> tuple[list[str], list[tuple], int]:
    columns, closed, definitional = PARAM_FAMILIES[args.family]
    points = _PARAM_POINTS.get(args.family)
    grid = points(args) if points else _grid_points(args, columns)
    return _sweep(args, columns, grid, closed, definitional, "definitional", {})


# ------------------------------------------------------------- spectrum ---

def run_spectrum(args) -> tuple[list[str], list[tuple], int]:
    _require(args, "N", "lam", "L")
    header = ["N", "lambda", "L", "anchor", "filling", "energy",
              "ground_energy", "agrees"]
    rows = []
    failures = 0
    for n, lam, length in product(args.N, args.lam, args.L):
        shifts = tuple(args.filling) if args.filling else (0,) * n
        if len(shifts) != n:
            raise ValueError(
                f"filling has {len(shifts)} entries but N={n}"
            )
        filling = Filling(shifts, lam, length)
        e = energy(pseudomomenta(filling, anchor=args.anchor))
        if all(s == 0 for s in shifts) and args.anchor == "symmetric":
            e0 = ground_energy(n, lam, length)
            scale = max(abs(e0), 1.0)
            agrees = abs(e - e0) <= 1e-12 * scale
            if not agrees:
                failures += 1
            rows.append((n, lam, length, args.anchor, shifts, e, e0, agrees))
        else:
            rows.append((n, lam, length, args.anchor, shifts, e, None, None))
    return header, rows, failures


# --------------------------------------------------------------- verify ---

def run_verify(args) -> tuple[list[str], list[tuple], int]:
    kinds = sorted(VERIFY_KINDS) if args.all else args.kind
    if not kinds:
        raise ValueError("choose --all or --kind")
    for kind in kinds:
        if kind not in VERIFY_KINDS:
            raise ValueError(
                f"unknown verify kind {kind!r}; known: {', '.join(sorted(VERIFY_KINDS))}"
            )
    header = ["check", "params", "status", "detail"]
    rows = []
    failures = 0
    for kind in kinds:
        for params, ok, detail in VERIFY_KINDS[kind]():
            if ok is None:
                status = "info"
            elif ok:
                status = "pass"
            else:
                status = "fail"
                failures += 1
            rows.append((kind, params, status, detail))
    return header, rows, failures


# ----------------------------------------------------------------- main ---

# The add_argument keywords of options that several commands take.
_INTS = {"type": parse_int_values}
# argparse would upper-case these metavars, as it does those of --M and --N.
_LOWER_M = {**_INTS, "metavar": "m"}
_LOWER_N = {**_INTS, "metavar": "n"}
_X_SET = {"type": parse_int_set}
_LAMBDA = {"dest": "lam", "type": parse_frac_values}
# Read by the commands that walk index multisets.
_CAP = {"type": int, "default": DEFAULT_CANDIDATE_CAP,
        "help": "max index multisets per grid point"}

# The options every command takes, after its own.
_COMMON = {
    "config": {"help": "JSON file predefining options"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "out": {"help": "write output to this path"},
}

# command -> (help, options, runner), in the order `--help` lists them. Each
# option maps its long name to its add_argument keywords, in help order; a
# default there applies once the command line and config file are read.
COMMANDS = {
    "count": ("closed-form counting sweeps", {
        "family": {"choices": COUNT_FAMILIES, "required": True},
        "M": _INTS, "N": _INTS, "p": _INTS, "q": _INTS, "m": _LOWER_M,
        "g": {"type": parse_frac_values}, "lambda": _LAMBDA, "x-set": _X_SET,
        "oracle": {"action": "store_true",
                   "help": "compare each value against the enumerated count"},
        "cap": _CAP,
    }, run_count),
    "enumerate": ("list allowed canonical states", {
        "family": {"choices": RULES, "default": "none"},
        "M": _INTS, "N": _INTS, "p": _INTS, "q": _INTS, "m": _LOWER_M, "x-set": _X_SET,
        "cap": _CAP,
    }, run_enumerate),
    "gram": ("Gram dimensions and exact ranks", {
        "multiset": _INTS,
        "alg": {"default": "quon:0", "help": "bose, fermi or quon:Q (e.g. quon:1/2)"},
        "rule-family": {"choices": RULES},
        "M": _INTS, "N": _INTS, "p": _INTS, "q": _INTS, "m": _LOWER_M, "x-set": _X_SET,
        "cap": _CAP,
    }, run_gram),
    "params": ("exclusion-statistics parameters", {
        "family": {"choices": PARAM_FAMILIES, "required": True},
        "M": _INTS, "N": _INTS, "p": _INTS, "q": _INTS, "i1": _INTS, "n": _LOWER_N,
        "k": _INTS, "m": _LOWER_M, "nlast": _INTS, "pattern": _INTS,
        "side": {"type": parse_sides, "default": ["right"],
                 "help": "left, right or left,right"},
        "oracle": {"action": "store_true",
                   "help": "compare against the definitional dimension count"},
    }, run_params),
    "spectrum": ("ring-model pseudomomentum spectra", {
        "N": _INTS, "lambda": _LAMBDA, "L": {"type": parse_float_values},
        "filling": _INTS,
        "anchor": {"choices": ("symmetric", "literal"), "default": "symmetric"},
    }, run_spectrum),
    "verify": ("self-check identity suite", {
        "all": {"action": "store_true"},
        "kind": {"action": "append", "help": "run one named check (repeatable)"},
    }, run_verify),
}


def build_parser() -> "argparse.ArgumentParser":
    """The argument parser with a subparser for each command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fockcount",
        # one line at any width: argparse's own top-level usage wraps the
        # command choices and "..." onto lines of their own on a narrow
        # terminal (three lines at COLUMNS=40)
        usage="%(prog)s [-h] {" + ",".join(COMMANDS) + "} ...",
        description="Exact state counting for restricted oscillator algebras.",
        epilog=EPILOG,
    )
    subs = parser.add_subparsers(dest="command", required=True, prog="fockcount")
    for command, (help_text, options, _) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for name, spec in {**options, **_COMMON}.items():
            # None marks an option unset; _apply_config fills in its default
            sub.add_argument(f"--{name}", **{**spec, "default": None})
    return parser


def _config_value(spec: dict, key: str, raw):
    """A config file value, converted and checked by its option's type and
    choices as the same text on the command line would be. A list is its
    entries joined with ",", or one entry per use of a repeatable option; a
    flag takes only true or false."""
    action = spec.get("action")
    if action == "store_true":
        if not isinstance(raw, bool):
            raise ValueError(f"config key {key!r} must be true or false, got {raw!r}")
        return raw
    items = raw if isinstance(raw, list) else [raw]
    if not items or not all(isinstance(v, (str, int, float)) and not isinstance(v, bool)
                            for v in items):
        raise ValueError(
            f"config key {key!r} must be a string, a number or a list of them, got {raw!r}")
    repeated = action == "append"
    texts = [str(v) for v in items] if repeated else [",".join(map(str, items))]
    parse = spec.get("type", str)
    values = [parse(text) for text in texts]
    choices = spec.get("choices")
    for value in values:
        if choices is not None and value not in choices:
            raise ValueError(f"config key {key!r}: invalid choice {value!r} "
                             f"(choose from {', '.join(choices)})")
    return values if repeated else values[0]


def _flags(command: str) -> dict[str, str]:
    """Each argparse dest of the command, mapped to its long option name."""
    options = {**COMMANDS[command][1], **_COMMON}
    return {spec.get("dest", name.replace("-", "_")): name for name, spec in options.items()}


def _apply_config(args) -> None:
    """Fill unset options from the JSON config file, then from defaults.

    A config key is a long option name, with "-" or "_". A key that is an
    option of another command is skipped, so one file can serve several
    commands; a key that no command has is an error.
    """
    options = {**COMMANDS[args.command][1], **_COMMON}
    dests = {name: dest for dest, name in _flags(args.command).items()}
    if args.config:
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, raw in loaded.items():
            name = key.replace("_", "-")
            if name not in options:
                if not any(name in COMMANDS[command][1] for command in COMMANDS):
                    raise ValueError(f"unknown config key {key!r}")
                continue
            if getattr(args, dests[name]) is None:
                setattr(args, dests[name], _config_value(options[name], key, raw))
    for name, spec in options.items():
        if getattr(args, dests[name]) is None:
            setattr(args, dests[name], spec.get("default"))


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) gives, read off
    the option table where argv is a command and exact long options: each
    flag alone, each other option with one value, not starting with "-",
    that passes its type and choices; every required option given. Else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {**COMMANDS[argv[0]][1], **_COMMON}
    dests = {name: dest for dest, name in _flags(argv[0]).items()}
    values = dict.fromkeys(dests.values())
    tokens = iter(argv[1:])
    for token in tokens:
        name = token[2:] if token.startswith("--") else None
        if name not in options:
            return None
        spec, dest = options[name], dests[name]
        if spec.get("action") == "store_true":
            values[dest] = True
            continue
        text = next(tokens, "-")
        try:
            value = None if text.startswith("-") else spec.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if value is None or value not in spec.get("choices", (value,)):
            return None
        values[dest] = [*(values[dest] or ()), value] if spec.get("action") == "append" else value
    if any(spec.get("required") and values[dests[name]] is None
           for name, spec in options.items()):
        return None
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only help, usage errors and spellings the table does not read build a
    # parser.
    args = _parse_plain(argv) or build_parser().parse_args(argv)
    try:
        _apply_config(args)
        header, rows, failures = COMMANDS[args.command][2](args)
        # A runner's list is rendered and written at once; enumerate's lazy
        # lines are written as they are made.
        lines = [render(header, rows, args.format)] if isinstance(rows, list) else rows
        # opened once every refusal has passed, so a refused run makes no file
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    except (CapacityExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 1 if failures else 0
    try:
        if out is None:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        else:
            with out:
                out.writelines(lines)
    except OSError as exc:
        if out is None:
            # Point stdout at os.devnull, so that the flush at exit does not
            # raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return status  # the reader left early (`| head`)
        # a failed write (a full disk); a partly written --out file stays
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


def console_main() -> None:
    raise SystemExit(main())
