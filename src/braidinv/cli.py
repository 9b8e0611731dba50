"""Verification harness for the knots closing powers of the braid s1 s2^-1.

Builds tables that recompute, through independent routes, the Arf parity of
the family, the step recurrence of that parity, the determinant-Lucas
identity, the mod-8 and squareness corollaries for Lucas numbers, and the
classical Arf/determinant congruence; the exit code reports whether every
check passed.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import random
import sys

from .braids import (
    BraidWord,
    closure_components,
    parse_braid_word,
    power,
)
from .counting import C2_PATTERN, count_pattern
from .gauss import delete_arrows, from_braid_closure, isomorphic_unbased, writhe
from .polynomials import (
    ConwayPolynomial,
    LaurentPolynomial,
    alexander_of_closure,
    conway_from_alexander,
)
from .sequences import is_perfect_square, lucas, residue_mod8

__all__ = [
    "CorollaryRow",
    "MurasugiRow",
    "RecurrenceStep",
    "TheoremRow",
    "braid_invariants",
    "corollary_table",
    "family_exponents",
    "family_word",
    "last_block_arrows",
    "main",
    "murasugi_check",
    "random_knot_words",
    "recurrence_check",
    "theorem_table",
]

FAMILY_LETTERS = (1, -2)

# `invariants` refuses words longer than this after --power, before building
# them; family_word(1000) is the longest family power it accepts.
MAX_INVARIANT_LETTERS = 2000
# It also refuses more strands than this, given or inferred, before any closure
# walk: the Burau determinant costs cubic time in the strand count.
MAX_INVARIANT_STRANDS = 64


def family_word(n: int) -> BraidWord:
    """n-th power of s1 s2^-1 in the 3-strand braid group."""
    if n < 0:
        raise ValueError(f"power must be nonnegative, got {n}")
    return BraidWord(FAMILY_LETTERS * n, 3)


def family_exponents(n_max: int) -> list[int]:
    """Exponents up to n_max whose family closure is a knot (n not divisible by 3)."""
    return [n for n in range(1, n_max + 1) if n % 3 != 0]


def last_block_arrows(n: int) -> range:
    """Indices of the arrows of the final cube of the family braid in family_word(n)."""
    if n < 3:
        raise ValueError(f"need at least the third power, got {n}")
    return range(2 * n - 6, 2 * n)


def _lucas_values(indices):
    """Yield L(m) for each m of an increasing sequence of indices, in one pass.

    The tables read many Lucas values in increasing order; `lucas` walks the
    sequence from L(1) on every call, which would make them quadratic.
    """
    m, previous, value = 1, 2, 1
    for index in indices:
        while m < index:
            previous, value = value, previous + value
            m += 1
        yield value


def random_knot_words(
    rng: random.Random, count: int, max_len: int = 10, strands: int = 3
) -> list[BraidWord]:
    """Seeded random braid words whose closures are knots.

    A knot closure on k strands needs at least k - 1 letters, so `max_len`
    below that, or fewer than 2 strands, is refused before any sampling.
    """
    if strands < 2:
        raise ValueError(f"random knot words need at least 2 strands, got {strands}")
    if max_len < strands - 1:
        raise ValueError(
            f"no knot on {strands} strands has at most {max_len} letters;"
            f" it needs at least {strands - 1}"
        )
    alphabet = [g for i in range(1, strands) for g in (i, -i)]
    words = []
    while len(words) < count:
        length = rng.randint(1, max_len)
        w = BraidWord(tuple(rng.choice(alphabet) for _ in range(length)), strands)
        if closure_components(w) == 1:
            words.append(w)
    return words


@dataclasses.dataclass(frozen=True)
class _KnotRecord:
    """c2 and writhe from the Gauss diagram; det, Alexander and Conway from Burau."""

    c2: int
    writhe: int
    det: int
    alexander: LaurentPolynomial
    conway: ConwayPolynomial


def _knot_record(w: BraidWord) -> _KnotRecord:
    """Build the Gauss diagram, refuse a link by its circle count, then run the Burau route.

    Raises ValueError when the closure is not a knot.
    """
    diagram = from_braid_closure(w)
    components = diagram.circle_count
    if components != 1:
        raise ValueError(f"closure has {components} components; invariants need a knot")
    alexander = alexander_of_closure(w)
    return _KnotRecord(
        c2=count_pattern(diagram, C2_PATTERN).signed,
        writhe=writhe(diagram),
        det=abs(alexander.evaluate(-1)),
        alexander=alexander,
        conway=conway_from_alexander(alexander),
    )


@dataclasses.dataclass(frozen=True)
class TheoremRow:
    n: int
    word_length: int
    components: int
    arf_gauss: int
    arf_oracle: int
    c2: int
    det: int
    lucas_pred: int
    match_arf: bool
    match_det: bool


def theorem_table(n_max: int) -> list[TheoremRow]:
    """Arf parity and determinant-Lucas rows for the family, both routes.

    A row matches when the two Arf routes agree with each other and with the
    parity of the exponent, and when the determinant equals the Lucas value
    of twice the exponent minus 2.  Each row builds one Gauss diagram and
    one Alexander polynomial, which also gives the Conway coefficient.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    rows = []
    exponents = family_exponents(n_max)
    for n, lucas_2n in zip(exponents, _lucas_values(2 * n for n in exponents)):
        w = family_word(n)
        rec = _knot_record(w)
        arf_gauss = rec.c2 % 2
        arf_poly = rec.conway.coefficient(2) % 2
        pred = lucas_2n - 2
        expected_arf = 1 if n % 2 == 0 else 0
        rows.append(
            TheoremRow(
                n=n,
                word_length=len(w),
                components=1,
                arf_gauss=arf_gauss,
                arf_oracle=arf_poly,
                c2=rec.c2,
                det=rec.det,
                lucas_pred=pred,
                match_arf=(arf_gauss == arf_poly == expected_arf),
                match_det=(rec.det == pred),
            )
        )
    return rows


@dataclasses.dataclass(frozen=True)
class RecurrenceStep:
    n: int
    high_power: int
    low_power: int
    arf_high: int
    arf_low: int
    parity_ok: bool
    deletion_ok: bool


def recurrence_check(case: int, n_max: int) -> list[RecurrenceStep]:
    """Verify the Arf step law along one congruence class of exponents.

    Step n compares the family closures at exponents 3n + case and
    3(n-1) + case: the Arf bits must differ.  Each step also re-derives the
    structural fact behind the law: deleting the six arrows of the larger
    diagram's final cube block leaves a diagram isomorphic, up to base
    point, to the smaller one.  One diagram is built per exponent: step n's
    smaller diagram is step n-1's larger one, and the Arf bits and the block
    deletion are all read from those diagrams.
    """
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    steps = []
    low_diagram = from_braid_closure(family_word(case))
    arf_low = count_pattern(low_diagram, C2_PATTERN).signed % 2
    for n in range(1, n_max + 1):
        high = 3 * n + case
        low = high - 3
        high_diagram = from_braid_closure(family_word(high))
        arf_high = count_pattern(high_diagram, C2_PATTERN).signed % 2
        trimmed = delete_arrows(high_diagram, last_block_arrows(high))
        deletion_ok = isomorphic_unbased(trimmed, low_diagram)
        steps.append(
            RecurrenceStep(
                n=n,
                high_power=high,
                low_power=low,
                arf_high=arf_high,
                arf_low=arf_low,
                parity_ok=(arf_high == (arf_low + 1) % 2),
                deletion_ok=deletion_ok,
            )
        )
        low_diagram, arf_low = high_diagram, arf_high
    return steps


@dataclasses.dataclass(frozen=True)
class MurasugiRow:
    source: str
    word: str
    arf: int
    det: int
    residue8: int
    consistent: bool


def murasugi_check(n_max: int, samples: int = 200, seed: int = 0) -> list[MurasugiRow]:
    """Arf vanishes exactly when the determinant is +1 or -1 mod 8.

    The corpus is the family up to n_max plus `samples` seeded random
    3-strand knots.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    corpus = [(f"family^{n}", family_word(n)) for n in family_exponents(n_max)]
    rng = random.Random(seed)
    corpus += [
        (f"random{i}", w) for i, w in enumerate(random_knot_words(rng, samples))
    ]
    rows = []
    for source, w in corpus:
        rec = _knot_record(w)
        arf = rec.conway.coefficient(2) % 2
        res = residue_mod8(rec.det)
        rows.append(
            MurasugiRow(
                source=source,
                word=str(w),
                arf=arf,
                det=rec.det,
                residue8=res,
                consistent=((arf == 0) == (res in (1, 7))),
            )
        )
    return rows


@dataclasses.dataclass(frozen=True)
class CorollaryRow:
    n: int
    family: str
    lucas_value: int
    residue8: int
    residue8_minus2: int
    square_check: tuple[bool, int | None] | None
    ok: bool


_COROLLARY_FAMILIES = ((-4, "12n-4"), (-2, "12n-2"), (2, "12n+2"), (4, "12n+4"))


def corollary_table(n_max: int) -> list[CorollaryRow]:
    """Residue and squareness checks for Lucas numbers of index 12n +/- 2 and 12n +/- 4.

    For the +/-2 families the Lucas value must be 3 mod 8 and the value minus
    2 a perfect square; for +/-4 the residue must be 5 or 7.  The residue of
    value minus 2 is reported alongside because a plausible variant reading
    of the congruence attaches the "3 mod 8" to it, and that variant fails
    (the shifted values are odd squares, hence 1 mod 8); the table keeps both
    residues visible rather than resolving the ambiguity silently.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    rows = []
    values = _lucas_values(
        12 * n + offset for n in range(1, n_max + 1) for offset, _ in _COROLLARY_FAMILIES
    )
    for n in range(1, n_max + 1):
        for offset, label in _COROLLARY_FAMILIES:
            value = next(values)
            res = residue_mod8(value)
            res_minus2 = residue_mod8(value - 2)
            if abs(offset) == 2:
                square = is_perfect_square(value - 2)
                ok = res == 3 and square[0]
            else:
                square = None
                ok = res in (5, 7)
            rows.append(
                CorollaryRow(
                    n=n,
                    family=label,
                    lucas_value=value,
                    residue8=res,
                    residue8_minus2=res_minus2,
                    square_check=square,
                    ok=ok,
                )
            )
    return rows


def braid_invariants(w: BraidWord) -> dict:
    """Invariant bundle of a knot closure, cross-checking the two c2 routes.

    Raises ValueError when the closure is not a knot.
    """
    rec = _knot_record(w)
    return {
        "word": str(w),
        "strands": w.strands,
        "word_length": len(w),
        "components": 1,
        "writhe": rec.writhe,
        "c2": rec.c2,
        "arf": rec.c2 % 2,
        "det": rec.det,
        "alexander": str(rec.alexander),
        "conway": str(rec.conway),
        "oracle_match": rec.c2 == rec.conway.coefficient(2),
    }


def _cell(value, as_json: bool):
    if value is None:
        return None if as_json else ""
    if isinstance(value, bool):
        return value if as_json else ("true" if value else "false")
    if isinstance(value, tuple):
        flag, root = value
        if as_json:
            return {"is_square": flag, "root": root}
        return f"true:{root}" if flag else "false"
    return value if as_json else str(value)


def _emit(records: list[dict], fmt: str) -> None:
    stream = sys.stdout
    if fmt == "json":
        payload = [{k: _cell(v, True) for k, v in rec.items()} for rec in records]
        print(json.dumps(payload, indent=2), file=stream)
        return
    if not records:
        return
    header = list(records[0])
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            writer.writerow([_cell(rec[k], False) for k in header])
        return
    grid = [header] + [[_cell(rec[k], False) for k in header] for rec in records]
    widths = [max(len(row[i]) for row in grid) for i in range(len(header))]
    for row in grid:
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        print(line.rstrip(), file=stream)


CONVENTION_LINES = (
    f"c2 pattern: {C2_PATTERN} (first-met endpoints of the first- and second-met"
    " arrows of an interleaved pair, walking from the base point)",
    "alexander normalization: palindromic in t with value 1 at t=1;"
    " det = |alexander(-1)|",
    "burau convention: the 2-strand generator maps to (-t);"
    " alexander of the trefoil closure is t^-1 - 1 + t",
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default=argparse.SUPPRESS,
        help="output format (default table)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="seed for randomized corpora (default 0)",
    )
    parser.add_argument(
        "--print-convention",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print the frozen counting and normalization conventions first",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidinv",
        description="verify Arf, determinant, and Lucas identities for braid closures",
    )
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--print-convention", action="store_true", default=False)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("invariants", help="invariants of one braid closure")
    p.add_argument("--braid", required=True, help="braid word, e.g. '1 -2'")
    p.add_argument(
        "--power",
        type=int,
        default=1,
        help=f"repeat the word (default 1); the result may have at most"
        f" {MAX_INVARIANT_LETTERS} letters",
    )
    p.add_argument(
        "--strands",
        type=int,
        default=None,
        help=f"strand count (inferred if omitted); at most {MAX_INVARIANT_STRANDS}",
    )
    _add_common(p)

    p = sub.add_parser("theorem", help="Arf parity and determinant-Lucas table for the family")
    p.add_argument("--max", type=int, default=31, dest="n_max")
    _add_common(p)

    p = sub.add_parser("recurrence", help="Arf step law along one congruence class")
    p.add_argument("--case", type=int, choices=(1, 2), required=True)
    p.add_argument("--max", type=int, default=10, dest="n_max")
    _add_common(p)

    p = sub.add_parser("corollary", help="Lucas residue and squareness checks")
    p.add_argument("--max", type=int, default=40, dest="n_max")
    _add_common(p)

    p = sub.add_parser("murasugi", help="Arf/determinant congruence over a knot corpus")
    p.add_argument("--max", type=int, default=31, dest="n_max")
    _add_common(p)
    return parser


def _usage_error(message: str) -> int:
    print(f"braidinv: error: {message}", file=sys.stderr)
    return 2


def _invariants_word(ns: argparse.Namespace) -> BraidWord:
    """The word `invariants` runs on; ValueError with the usage message if refused."""
    if ns.power < 0:
        raise ValueError(f"--power must be nonnegative, got {ns.power}")
    if ns.strands is not None and ns.strands < 1:
        raise ValueError(f"--strands must be positive, got {ns.strands}")
    word = parse_braid_word(ns.braid, ns.strands)
    if word.strands > MAX_INVARIANT_STRANDS:
        raise ValueError(
            f"the word is on {word.strands} strands,"
            f" more than the cap of {MAX_INVARIANT_STRANDS}"
        )
    letters = len(word) * ns.power
    if letters > MAX_INVARIANT_LETTERS:
        # The count is named only while short: a --power of thousands of
        # digits makes it longer than the interpreter converts to text.
        count = f"{letters} letters" if letters < 10**18 else "at least 10^18 letters"
        raise ValueError(
            f"the word repeated --power times has {count},"
            f" more than the cap of {MAX_INVARIANT_LETTERS}"
        )
    return power(word, ns.power)


def _check_max(ns: argparse.Namespace) -> None:
    """Refuse --max below 1, or one whose largest Lucas value could not be printed.

    The theorem and murasugi tables print L(2n) - 2 and the corollary table
    L(12n + 4) for n up to --max; the interpreter refuses to convert an int
    of more than sys.get_int_max_str_digits() digits to text (0: no limit).
    """
    if ns.n_max < 1:
        raise ValueError(f"--max must be at least 1, got {ns.n_max}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if ns.command == "recurrence" or not limit:
        return
    # L(m) is the integer nearest phi^m, so it has about m log10(phi)
    # digits; only near the limit is it computed and compared exactly.  An
    # int compares with a float exactly, however large.
    m = 12 * ns.n_max + 4 if ns.command == "corollary" else 2 * ns.n_max
    per_index = math.log10((1 + math.sqrt(5)) / 2)
    if m > (limit + 1) / per_index or (m > (limit - 1) / per_index and lucas(m) >= 10**limit):
        raise ValueError(
            f"--max {ns.n_max} would print a Lucas number of more than"
            f" {limit} digits, the most this interpreter converts to text"
        )


def _cmd_invariants(word: BraidWord, fmt: str) -> int:
    try:
        record = braid_invariants(word)
    except ValueError as exc:
        print(f"braidinv: {exc}", file=sys.stderr)
        return 1
    if fmt == "json":
        print(json.dumps({k: _cell(v, True) for k, v in record.items()}, indent=2))
    else:
        _emit([record], fmt)
    return 0 if record["oracle_match"] else 1


def _rows_ok(rows, flags) -> bool:
    return all(all(getattr(row, flag) for flag in flags) for row in rows)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _dispatch(parser, ns)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Downstream closed the pipe early (cli | head); mute the flush that
        # happens at interpreter shutdown and bow out quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except RuntimeError as exc:
        print(f"braidinv: internal error: {exc}", file=sys.stderr)
        return 1


def _dispatch(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    # Every argument is checked before the first line is printed, so a usage
    # error (exit 2) leaves stdout empty.
    if ns.command is None and not ns.print_convention:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if ns.command == "invariants":
            word = _invariants_word(ns)
        elif ns.command is not None:
            _check_max(ns)
    except ValueError as exc:
        return _usage_error(str(exc))
    if ns.print_convention:
        for line in CONVENTION_LINES:
            print(line)
    if ns.command is None:
        return 0
    if ns.command == "invariants":
        return _cmd_invariants(word, ns.format)

    if ns.command == "theorem":
        rows = theorem_table(ns.n_max)
        flags = ("match_arf", "match_det")
    elif ns.command == "recurrence":
        rows = recurrence_check(ns.case, ns.n_max)
        flags = ("parity_ok", "deletion_ok")
    elif ns.command == "corollary":
        rows = corollary_table(ns.n_max)
        flags = ("ok",)
    else:
        rows = murasugi_check(ns.n_max, seed=ns.seed)
        flags = ("consistent",)

    _emit([dataclasses.asdict(row) for row in rows], ns.format)
    if ns.command == "corollary" and ns.format == "table":
        print(
            "note: the shifted values L(12n+/-2) - 2 sit at 1 mod 8 (they are odd"
            " squares); the congruence to 3 mod 8 holds for the Lucas values"
            " themselves, not for the shifted ones."
        )
    return 0 if _rows_ok(rows, flags) else 1
