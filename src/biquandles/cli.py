"""Command-line front end.

Subcommands expose the library's main entry points: braid presentations,
the normalized two-variable polynomial, axiom checking of finite tables,
quaternionic mod-p certificates, randomized invariance testing, and word
conversions. Exit codes: 0 success, 1 parse error, 2 domain error. All
diagnostics go to stderr; stdout carries only canonical serializations.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import re
import sys

from .alexander import gap
from .braids import available_moves, free_reduce, parse_braid_word, render_braid_word
from .braids import ad_inversion, invert_braid, vertical_mirror
from .errors import DomainError, ParseError
from .finite import (
    check_axioms,
    finite_alexander_biquandle,
    finite_quaternionic_biquandle,
    parse_table_file,
)
from .laurent import format_poly
from .quaternion import kishino_certificate, module_is_trivial
from .terms import parse_presentation, presentation_from_braid, presentation_from_braid_down
from .terms import presentation_size_floor

# The most bytes ``present`` prints. A braid's presentation text grows
# exponentially in letters per strand while the term DAG behind it stays
# linear, so the size is counted on the DAG before anything is rendered.
MAX_PRESENT_BYTES = 1 << 26


# The word transformations of ``convert``, by --op name.
_CONVERSIONS = {"invert": invert_braid, "mirror": vertical_mirror, "ad": ad_inversion, "reduce": free_reduce}


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports bad command lines as parse errors."""

    def error(self, message):
        raise ParseError(message)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="biq", description="biquandle invariants of virtual braid closures")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("present", help="print the biquandle presentation of a braid closure")
    p.add_argument("--braid", required=True, metavar="W", help="braid word, e.g. 'n=2; v1 s1'")
    p.add_argument("--down", action="store_true", help="traverse the diagram downward instead")

    p = sub.add_parser("gap", help="print the normalized generalized Alexander polynomial")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--braid", metavar="W", help="braid word")
    src.add_argument("--presentation", metavar="FILE", help="presentation file")

    p = sub.add_parser("axioms", help="check the biquandle axioms of a finite table")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--alexander", metavar="M,S,T", help="linear tables on Z_M with parameters S, T")
    src.add_argument("--quaternionic", metavar="P", type=_ascii_int, help="quaternion tables over Z_P, P an odd prime")
    src.add_argument("--tables", metavar="FILE", help="table file")
    p.add_argument("--force", action="store_true", help="allow carriers larger than 100 elements")

    p = sub.add_parser("qcheck", help="quaternionic mod-p triviality check")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--presentation", metavar="FILE", help="presentation file")
    src.add_argument("--kishino", action="store_true", help="run the built-in composite test knot certificate")
    p.add_argument("--prime", metavar="P", type=_ascii_int, default=3, help="prime modulus below 2^31 (default 3)")

    p = sub.add_parser("invariance", help="random moves must not change the polynomial")
    p.add_argument("--braid", required=True, metavar="W", help="starting braid word")
    p.add_argument("--trials", required=True, metavar="N", type=_ascii_int, help="number of random moves")
    p.add_argument("--seed", required=True, metavar="S", type=_ascii_int, help="random seed")

    p = sub.add_parser("convert", help="transform a braid word")
    p.add_argument("--braid", required=True, metavar="W", help="braid word")
    p.add_argument("--op", required=True, choices=_CONVERSIONS, help="transformation")

    return parser


def _cmd_present(args) -> int:
    w = parse_braid_word(args.braid)
    floor = presentation_size_floor(w.strands)
    if floor > MAX_PRESENT_BYTES:
        raise DomainError(f"presentation text would be at least {floor} bytes, above the limit of 2^26")
    pres = presentation_from_braid_down(w) if args.down else presentation_from_braid(w)
    size = pres.render_size()
    if size > MAX_PRESENT_BYTES:
        raise DomainError(f"presentation text would be {size} bytes, above the limit of 2^26")
    sys.stdout.write(pres.render())
    return 0


def _cmd_gap(args) -> int:
    if args.braid is not None:
        source = parse_braid_word(args.braid)
    else:
        source = parse_presentation(_read_file(args.presentation))
    print(format_poly(gap(source)))
    return 0


# An integer flag or ``axioms --alexander`` field: ASCII digits with an optional minus.
_ASCII_INT_RE = re.compile(r"-?[0-9]+")


def _ascii_int(text: str) -> int:
    if _ASCII_INT_RE.fullmatch(text):
        with contextlib.suppress(ValueError):  # int() refuses more than 4300 digits
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_alexander_params(text: str) -> tuple[int, int, int]:
    fields = text.split(",")
    if len(fields) == 3:
        with contextlib.suppress(argparse.ArgumentTypeError):
            m, s, t = map(_ascii_int, fields)
            return m, s, t
    raise ParseError(f"expected m,s,t with three integers, got {text!r}")


def _cmd_axioms(args) -> int:
    if args.alexander is not None:
        table = finite_alexander_biquandle(*_parse_alexander_params(args.alexander))
    elif args.quaternionic is not None:
        table = finite_quaternionic_biquandle(args.quaternionic)
    else:
        table = parse_table_file(_read_file(args.tables))
    report = check_axioms(table, force=args.force)
    print(report.render())
    return 0


def _cmd_qcheck(args) -> int:
    if args.kishino:
        certificate = kishino_certificate(prime=args.prime)
        print(certificate.verdict_line())
        return 0
    pres = parse_presentation(_read_file(args.presentation))
    _, report = module_is_trivial(pres, args.prime)
    print(report.verdict_line())
    return 0


def _cmd_invariance(args) -> int:
    if args.trials < 0:
        raise ParseError(f"trials must be >= 0, got {args.trials}")
    word = free_reduce(parse_braid_word(args.braid))
    expected = gap(word)
    print(f"base gap: {format_poly(expected)}")
    rng = random.Random(args.seed)
    for trial in range(1, args.trials + 1):
        label, moved = rng.choice(available_moves(word))
        word = free_reduce(moved)
        got = gap(word)
        if got == expected:
            print(f"trial {trial}: {label}, gap unchanged")
        else:
            print(f"trial {trial}: {label}, gap changed")
            print(f"  word: {render_braid_word(word)}")
            print(f"  expected: {format_poly(expected)}")
            print(f"  got: {format_poly(got)}")
            print("FAIL")
            return 0
    print("PASS")
    return 0


def _cmd_convert(args) -> int:
    print(render_braid_word(_CONVERSIONS[args.op](parse_braid_word(args.braid))))
    return 0


_COMMANDS = {
    "present": _cmd_present,
    "gap": _cmd_gap,
    "axioms": _cmd_axioms,
    "qcheck": _cmd_qcheck,
    "invariance": _cmd_invariance,
    "convert": _cmd_convert,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (ParseError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, ParseError) else 2
    except BrokenPipeError as e:
        print(f"error: cannot write output: {e.strerror or e}", file=sys.stderr)
        sys.stdout = open(os.devnull, "w")  # the exit flush of the closed stream stays quiet
        return 1


def run(args: list[str]) -> int:
    """Programmatic entry point: run one command line, return its exit code."""
    return main(list(args))
