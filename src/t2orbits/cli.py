"""Command-line front end.

Subcommands: validate, compare, localmodels, decompose, generate, enumerate.
Documents are read from a file path or from standard input when the path is
"-".  Data goes to standard output, diagnostics to standard error.  Exit
codes are a stable contract:

    0  success / affirmative verdict
    1  parse error, or a file that cannot be read or written
    2  illegal weight system or bad constructor parameters
    3  negative verdict (not isomorphic)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

from . import documents
from .constructors import EnumerationBounds, enumerate_legal, suspension_of_lens, \
    weighted_projective
from .core import WeightSystem, _int_text, classify_fixed_point, validate
from .equivalence import is_isomorphic, weak_witness
from .errors import DocumentError, WeightSystemError
from .localmodels import space_of_directions
from .surgery import decompose

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ILLEGAL = 2
EXIT_NEGATIVE = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def _load_or_exit(path: str) -> WeightSystem:
    try:
        return documents.parse(_read_text(path))
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise _Exit(EXIT_PARSE)
    except (DocumentError, UnicodeDecodeError) as err:
        print(f"parse error in {path}: {err}", file=sys.stderr)
        raise _Exit(EXIT_PARSE)


def _require_legal_or_exit(system: WeightSystem, label: str) -> None:
    report = validate(system)
    if not report.is_legal:
        for line in report.lines():
            print(f"{label}: {line}", file=sys.stderr)
        raise _Exit(EXIT_ILLEGAL)


def _cmd_validate(args) -> int:
    system = _load_or_exit(args.file)
    report = validate(system)
    if report.is_legal:
        print("legal")
        return EXIT_OK
    for line in report.lines():
        print(line, file=sys.stderr)
    return EXIT_ILLEGAL


def _cmd_compare(args) -> int:
    first = _load_or_exit(args.first)
    second = _load_or_exit(args.second)
    _require_legal_or_exit(first, args.first)
    _require_legal_or_exit(second, args.second)
    witness = None
    if args.mode == "weak":
        witness = weak_witness(first, second)
        isomorphic = witness is not None
    else:
        isomorphic = is_isomorphic(first, second)
    if not isomorphic:
        print("not isomorphic")
        return EXIT_NEGATIVE
    print("isomorphic")
    if witness is not None:
        (a, b), (c, d) = (map(_int_text, row) for row in witness.matrix)
        reversed_ = "yes" if witness.orientation_reversed else "no"
        print(f"witness: basis change [[{a},{b}],[{c},{d}]], "
              f"orientation reversed: {reversed_}")
    return EXIT_OK


def _cmd_localmodels(args) -> int:
    system = _load_or_exit(args.file)
    _require_legal_or_exit(system, args.file)
    for l, cycle in enumerate(system.fixed_cycles):
        for w, left, right, f in cycle.fixed_points():
            kind = classify_fixed_point(f)
            lens = space_of_directions(left, right)
            print(f"cycle {l} point {w}: {left}|{right} f={f} {kind} {lens}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    system = _load_or_exit(args.file)
    _require_legal_or_exit(system, args.file)
    result = decompose(system)
    files = {"manifold.json": documents.serialize(result.manifold_part)}
    for k, piece in enumerate(result.simple_pieces):
        files[f"piece_{k:03d}.json"] = documents.serialize(piece)
    piece_names = list(files)[1:]
    manifest = {
        "schema_version": documents.SCHEMA_VERSION,
        "manifold": "manifold.json",
        "pieces": piece_names,
        "gluings": [
            {
                "manifold_circle": sel_m.circle,
                "piece": piece_names[k],
                "piece_cycle": sel_p.cycle,
                "piece_arc": sel_p.arc,
                "isotropy": [
                    result.manifold_part.circle_boundaries[sel_m.circle].m,
                    result.manifold_part.circle_boundaries[sel_m.circle].n,
                ],
            }
            for k, (sel_m, sel_p) in enumerate(result.gluings)
        ],
    }
    files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write {out}: {err}", file=sys.stderr)
        return EXIT_PARSE
    print(f"manifold + {len(piece_names)} simple piece(s) written to {out}")
    return EXIT_OK


def _parse_pair(text: str) -> tuple:
    try:
        m, n = text.split(",")
        return (int(m), int(n))
    except ValueError:
        print(f"error: expected a pair like '2,5', got {text!r}", file=sys.stderr)
        raise _Exit(EXIT_ILLEGAL) from None


def _cmd_generate(args) -> int:
    try:
        if args.family == "suspension":
            system = suspension_of_lens(_parse_pair(args.params[0]),
                                        _parse_pair(args.params[1]),
                                        orientation=args.orientation)
        else:
            r1, r2, r3 = (int(x) for x in args.params)
            system = weighted_projective(r1, r2, r3,
                                         orientation=args.orientation)
        # A determinant past the int/str conversion limit raises ValueError.
        text = documents.serialize(system)
    except (WeightSystemError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ILLEGAL
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    try:
        bounds = EnumerationBounds(**{f.name: getattr(args, f.name)
                                      for f in dataclasses.fields(EnumerationBounds)})
    except WeightSystemError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ILLEGAL
    count = 0
    try:
        for system in enumerate_legal(bounds):
            sys.stdout.write(documents.serialize_compact(system) + "\n")
            count += 1
        sys.stdout.flush()  # so that a reader gone early is seen here
    except BrokenPipeError:
        # The reader has closed the pipe (``enumerate | head``).  Point stdout
        # at the null device so the interpreter's final flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    print(f"{count} systems", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t2orbits",
        description="Exact invariants of isometric torus actions on closed "
                    "orientable 4-dimensional Alexandrov spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the legality rules of a document")
    p.add_argument("file", help="document path, or - for standard input")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("compare", help="decide orbit-space isomorphism")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--mode", choices=("strict", "weak"), default="strict")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("localmodels",
                       help="orbit type and lens class of every fixed point")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_localmodels)

    p = sub.add_parser("decompose",
                       help="write the manifold part, simple pieces and manifest")
    p.add_argument("file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_decompose)

    # Pairs like "-1,0" must parse as positionals, not option flags.
    pair_or_negative = re.compile(r"^-\d+(,-?\d+)?$|^-\d*\.\d+$")

    p = sub.add_parser("generate", help="emit a document of a standard family")
    gen = p.add_subparsers(dest="family", required=True)
    s = gen.add_parser("suspension", help="suspension of a lens space")
    s._negative_number_matcher = pair_or_negative
    s.add_argument("params", nargs=2, metavar="PAIR",
                   help="two coprime pairs like 1,0 2,5")
    s.add_argument("--orientation", type=int, choices=(1, -1), default=1)
    s.set_defaults(handler=_cmd_generate)
    w = gen.add_parser("weighted-projective", help="weighted projective space")
    w._negative_number_matcher = pair_or_negative
    w.add_argument("params", nargs=3, metavar="R",
                   help="three pairwise coprime positive integers")
    w.add_argument("--orientation", type=int, choices=(1, -1), default=1)
    w.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("enumerate", help="stream the census within bounds")
    for f in dataclasses.fields(EnumerationBounds):
        p.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    p.set_defaults(handler=_cmd_enumerate)

    return parser


_parser = None  # built by the first call to main(), then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except _Exit as stop:
        return stop.code


if __name__ == "__main__":
    raise SystemExit(main())
