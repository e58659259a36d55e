"""Command-line surface: check, valuate, worlds, closure, gen3dm.

Exit codes: 0 every dependency satisfied (or witness found), 1 a dependency
violated or no witness exists, 2 usage, parse, model, or budget errors, and
any unexpected error (its traceback goes to stderr).  `check --cap N` sets
the valuation cap: lhs bindings per tuple for pfd and strong; for seamless
and weak, those of the lhs sets their pfd test reads and, past it, valuations
per tuple and search steps; both read the FD set's cover, so trivial and
implied FDs read no binding and link no tuples, and a standard table is
never searched.  For vertical, lhs bindings per vague tuple and the
valuations of each reported vague tuple; pairs compared for rm.
`worlds --cap N` bounds the valuations of the whole table, one product step
each.  The cap defaults to 1,000,000, and a cap below 1 is a usage error.
Input files are read as UTF-8, with or without a byte-order mark.  A command
imports the modules it runs when it runs, so `check` never loads `armstrong`
or `valuation`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .errors import FdlabError, PfdPreconditionError
from .formats import EXTENSION_MODELS, parse_fds, parse_table, serialize_fds, serialize_table
from .model import Table, enumerate_worlds
from .semantics import DEFAULT_VALUATION_CAP, Semantics, check

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2


def _positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _names(text: str) -> list:
    """An argparse type: comma-separated attribute names, stripped, none empty."""
    names = [name.strip() for name in text.split(",")]
    if not all(names):
        raise argparse.ArgumentTypeError(f"attribute names must not be empty, got {text!r}")
    return names


def _read(path: str) -> str:
    """The text of an input file: UTF-8, without a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise FdlabError(f"{path}: line {line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None


def _load_table(path: str) -> Table:
    return parse_table(_read(path), model=EXTENSION_MODELS.get(Path(path).suffix.lower()))


def _emit(out: Optional[str], text: str) -> None:
    """Write `text` to the file `out`, or to stdout when it is not given."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    table = _load_table(args.table)
    fds = parse_fds(_read(args.fds))
    report = check(table, fds, Semantics(args.semantics), valuation_cap=args.cap)
    if args.format == "text":
        _emit(args.out, report.to_text(args.timing))
    else:
        _emit(args.out, json.dumps(report.to_dict(args.timing), sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report.satisfied else EXIT_VIOLATED


def cmd_valuate(args) -> int:
    from .valuation import seamless_valuation_pfd

    table = _load_table(args.table)
    fds = parse_fds(_read(args.fds))
    try:
        world = seamless_valuation_pfd(table, fds, seed=args.seed)
    except PfdPreconditionError as exc:
        sys.stderr.write(f"fdlab: dependency not satisfied: {exc.fd}\n")
        return EXIT_VIOLATED
    _emit(args.out, serialize_table(world))
    return EXIT_OK


def cmd_worlds(args) -> int:
    table = _load_table(args.table)
    worlds = enumerate_worlds(table, limit=args.limit, cap=args.cap)
    chunks = []
    for i, world in enumerate(worlds, start=1):
        chunks.append(f"# world {i} of {len(worlds)}\n" + serialize_table(world))
    _emit(args.out, "\n".join(chunks))
    return EXIT_OK


def cmd_closure(args) -> int:
    from .armstrong import attribute_closure

    fds = parse_fds(_read(args.fds))
    closed = attribute_closure(fds, args.attrs)
    _emit(args.out, ",".join(sorted(closed)) + "\n")
    return EXIT_OK


def cmd_gen3dm(args) -> int:
    from .valuation import generate_3dm_reduction, parse_3dm

    inst = parse_3dm(_read(args.instance))
    reduction = generate_3dm_reduction(inst)
    table_text = serialize_table(reduction.table)
    fds_text = serialize_fds(reduction.fds)
    _emit(args.out_table, table_text)
    _emit(args.out_fds, fds_text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fdlab",
        description="Functional dependencies over vague and disjunctive tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, table=False, fds=False, cap=False):
        if table:
            p.add_argument("--table", required=True, help="table file (.stab/.vtab/.dtab)")
        if fds:
            p.add_argument("--fds", required=True, help="dependency file")
        if cap:
            p.add_argument("--cap", type=_positive, default=DEFAULT_VALUATION_CAP, help="valuation cap")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("check", help="check dependencies under a chosen semantics")
    add_common(p, table=True, fds=True, cap=True)
    p.add_argument(
        "--semantics",
        required=True,
        choices=[s.value for s in Semantics],
        help="seamless treats the dependency file as one set",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--timing", action="store_true", help="include elapsed time in the report")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("valuate", help="produce one world satisfying all pfds")
    add_common(p, table=True, fds=True)
    p.add_argument("--seed", type=int, default=0, help="value-picker seed")
    p.set_defaults(run=cmd_valuate)

    p = sub.add_parser("worlds", help="enumerate distinct possible worlds")
    add_common(p, table=True, cap=True)
    p.add_argument("--limit", type=_positive, help="fail once more distinct worlds exist")
    p.set_defaults(run=cmd_worlds)

    p = sub.add_parser("closure", help="attribute closure under a dependency set")
    add_common(p, fds=True)
    p.add_argument("--attrs", required=True, type=_names, help="comma-separated attribute names")
    p.set_defaults(run=cmd_closure)

    p = sub.add_parser("gen3dm", help="reduce a matching instance to a table plus FDs")
    p.add_argument("--instance", required=True, help="3DM instance file")
    p.add_argument("--out-table", help="write the generated table here")
    p.add_argument("--out-fds", help="write the generated dependencies here")
    p.set_defaults(run=cmd_gen3dm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (FdlabError, OSError) as exc:
        sys.stderr.write(f"fdlab: {exc}\n")
        return EXIT_ERROR
    except Exception:
        # A crash must not exit 1, which reads as "violated".  traceback is
        # imported here so that start-up does not pay for it.
        import traceback

        traceback.print_exc()
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
