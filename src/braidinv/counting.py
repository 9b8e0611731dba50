"""Signed counting of two-arrow patterns in based Gauss diagrams.

Walking a one-circle diagram from the base point, two arrows interleave when
their four endpoints alternate.  The pattern of such a pair records, for the
arrow seen first and the arrow seen second, whether each is met tail first
or head first, and a matching pair contributes the product of its two signs.
The count is one walk along the circle, reading the endpoints and signs of
the diagram: when an arrow's second endpoint is reached, two Python ints used
as bitsets hold the signs of the arrows already closed that may fill the
first slot, each stored as one bit at its first endpoint, one int for each
sign.  A query is a shift or a mask and a popcount (`int.bit_count`), which
run in C over 30-bit digits, so the walk costs O(n) Python steps plus
O(n^2 / 30) digit operations for n arrows.

Only a pattern whose signed count is independent of the base point can
define a knot invariant.  `calibrate_pattern` pins the convention against
knots with known degree-2 Conway coefficients instead of hard-coding it: two
mirror-dual patterns survive the stock corpus, and the lexicographically
first is frozen below as C2_PATTERN.  Its signed count is the degree-2
Conway coefficient of the closure knot, and the parity of that count is the
Arf invariant (the Polyak-Viro counting formula).
"""

import dataclasses
import warnings
from collections.abc import Sequence

from .braids import BraidWord
from .gauss import GaussDiagram, from_braid_closure, gap_count, rebase

__all__ = [
    "ALL_PATTERNS",
    "ArrowPattern",
    "C2_PATTERN",
    "CalibrationError",
    "HEAD_FIRST",
    "PatternCount",
    "TAIL_FIRST",
    "arf_of_braid_closure",
    "c2_of_braid_closure",
    "calibrate_pattern",
    "count_pattern",
    "default_calibration_corpus",
]

TAIL_FIRST = "tail"
HEAD_FIRST = "head"


class CalibrationError(RuntimeError):
    """No pattern reproduces the calibration corpus; a convention bug upstream."""


@dataclasses.dataclass(frozen=True, order=True)
class ArrowPattern:
    """Directions in which the two arrows of an interleaved pair are first met."""

    first: str
    second: str

    def __post_init__(self):
        for value in (self.first, self.second):
            if value not in (TAIL_FIRST, HEAD_FIRST):
                raise ValueError(
                    f"direction must be {TAIL_FIRST!r} or {HEAD_FIRST!r}, got {value!r}"
                )

    def __str__(self) -> str:
        return f"{self.first}-{self.second}"


ALL_PATTERNS = (
    ArrowPattern(HEAD_FIRST, HEAD_FIRST),
    ArrowPattern(HEAD_FIRST, TAIL_FIRST),
    ArrowPattern(TAIL_FIRST, HEAD_FIRST),
    ArrowPattern(TAIL_FIRST, TAIL_FIRST),
)

# Pinned by calibrate_pattern(default_calibration_corpus()): the first-seen
# arrow of a counted pair is met head first, the second tail first.  Rerun
# the calibration before touching this; a regression test guards it.
C2_PATTERN = ArrowPattern(HEAD_FIRST, TAIL_FIRST)


@dataclasses.dataclass(frozen=True)
class PatternCount:
    """Signed count of the interleaved arrow pairs matching a pattern."""

    signed: int


def count_pattern(g: GaussDiagram, pattern: ArrowPattern) -> PatternCount:
    """Signed count of interleaved arrow pairs matching `pattern`, read from the base.

    One walk along the circle opens each arrow's span at its first endpoint
    a and closes it at its second b.  An arrow met `pattern.first` first
    stores its sign at a when it closes: bit a is set in `plus` for sign +1
    and in `minus` for sign -1.  An arrow met `pattern.second` first notes
    at a the sum of the signs stored so far, all of them before a; at b it
    adds its sign times the stored signs before a less that note.  Those
    are exactly the earlier-opened arrows that closed inside (a, b).

    The signs stored before a are the popcounts of the bits below a, or the
    total less the popcounts of the bits from a up, whichever of the two
    pieces is shorter: a mask or a shift then touches at most half of the
    stored bits.  Each store and query costs O(n / 30) digit operations in
    C, so a diagram of n arrows takes O(n^2 / 30) of them in all.  On the
    few thousand arrows that the tables build, that is faster than the
    O(n log n) Python steps of a Fenwick tree; from about ten thousand
    arrows on it can be slower.
    """
    if g.circle_count != 1:
        raise ValueError("pattern counting needs a one-circle diagram")
    # An arrow met tail first closes at its head, and one met head first at
    # its tail, so the closing endpoint tells the direction.
    first_tail = pattern.first == TAIL_FIRST
    second_tail = pattern.second == TAIL_FIRST
    signs = g.signs
    start = [-1] * len(signs)
    before = [0] * len(signs)
    # top is the highest position stored so far.
    plus = minus = stored = signed = top = 0
    for b, (idx, is_head) in enumerate(g.endpoints[0]):
        a = start[idx]
        if a < 0:
            start[idx] = b
            before[idx] = stored
            continue
        sign = signs[idx]
        if is_head == second_tail:
            if a + a < top:
                below = (1 << a) - 1
                inside = (plus & below).bit_count() - (minus & below).bit_count()
            else:
                inside = stored - (plus >> a).bit_count() + (minus >> a).bit_count()
            signed += sign * (inside - before[idx])
        if is_head == first_tail:
            stored += sign
            if a > top:
                top = a
            if sign > 0:
                plus |= 1 << a
            else:
                minus |= 1 << a
    return PatternCount(signed)


def default_calibration_corpus() -> list[tuple[BraidWord, int]]:
    """Knots with known degree-2 Conway coefficients.

    The unknot, the right trefoil, the figure-eight knot, and the closure of
    the fourth power of s1 s2^-1 (coefficient +1, so Arf parity 1).
    """
    return [
        (BraidWord((), 1), 0),
        (BraidWord((1, 1, 1), 2), 1),
        (BraidWord((1, -2, 1, -2), 3), -1),
        (BraidWord((1, -2, 1, -2, 1, -2, 1, -2), 3), 1),
    ]


def calibrate_pattern(corpus: Sequence[tuple[BraidWord, int]]) -> ArrowPattern:
    """Pick the first pattern that reproduces `corpus` and survives every rebase.

    `corpus` holds (braid word, expected signed count) pairs whose closures
    are knots.  More than two survivors means the corpus is too weak to pin a
    convention; a warning is emitted and the first survivor returned anyway.

    Raises:
        CalibrationError: when no pattern survives.
        ValueError: when a corpus word does not close to a knot.
    """
    diagrams = []
    for word, expected in corpus:
        diagram = from_braid_closure(word)
        if diagram.circle_count != 1:
            raise ValueError(f"calibration word '{word}' does not close to a knot")
        diagrams.append((diagram, expected))
    survivors = []
    for pattern in ALL_PATTERNS:
        ok = True
        for diagram, expected in diagrams:
            counts = {
                count_pattern(rebase(diagram, gap), pattern).signed
                for gap in range(gap_count(diagram))
            }
            if counts != {expected}:
                ok = False
                break
        if ok:
            survivors.append(pattern)
    if not survivors:
        raise CalibrationError("no arrow pattern reproduces the calibration corpus")
    if len(survivors) > 2:
        warnings.warn(
            f"{len(survivors)} patterns survive calibration;"
            " the corpus is too weak to pin a convention",
            stacklevel=2,
        )
    return survivors[0]


def c2_of_braid_closure(w: BraidWord) -> int:
    """Degree-2 Conway coefficient of the closure knot, by signed pattern count."""
    diagram = from_braid_closure(w)
    if diagram.circle_count != 1:
        raise ValueError(f"closure has {diagram.circle_count} components, not a knot")
    return count_pattern(diagram, C2_PATTERN).signed


def arf_of_braid_closure(w: BraidWord) -> int:
    """Arf invariant of the closure knot: the degree-2 coefficient mod 2."""
    return c2_of_braid_closure(w) % 2
