"""Based Gauss diagrams of braid closures.

The closure is traversed starting at the top of position 1: walk down the
braid, swapping position at every crossing the strand enters, and follow the
closure arc from the bottom of each position back to its top; when the walk
returns to its starting point one circle is complete, and the next circle
starts at the lowest unvisited top position.  The circles come from the
cycle join in `braids` that closure_components counts, so a diagram's
circle count is the closure's component count.  Every crossing becomes one
arrow pointing from its over-passage to its under-passage and carrying the
crossing sign.  The base point sits in the gap just before the first
endpoint met on circle 0, so position 0 is immediately after it.

A diagram is stored as its endpoints, circle by circle, plus one sign per
arrow, and nothing else.  Rebasing rotates circle 0 and shares the signs,
and the pattern count, canonical codes, writhe and arrow deletion read the
endpoints and signs directly.  A diagram built from outside data (the
constructor, the closure of a braid word, unpickling or copying) is checked
by one walk over its endpoints that stops at the first fault.  A rotation
of circle 0 or an arrow deletion of a checked diagram is valid by
construction, so `rebase` and `delete_arrows` skip that walk.

Canonical codes label arrows in order of first visit from the base point and
list one label/sign/T-or-H triple per endpoint.  The strings are stable
across releases and appear as golden values in the test suite.
"""

import dataclasses
from collections.abc import Iterable

from .braids import BraidWord, _closure_cycles

__all__ = [
    "EMPTY_CODE",
    "GaussDiagram",
    "canonical_code",
    "delete_arrows",
    "from_braid_closure",
    "gap_count",
    "isomorphic_unbased",
    "rebase",
    "writhe",
]

EMPTY_CODE = ""


@dataclasses.dataclass(frozen=True)
class GaussDiagram:
    """Signed directed chords on one or more based oriented circles.

    A diagram is its circles plus its signs.  `endpoints[c][p]` is the
    endpoint at position p of circle c, stored as an (arrow index, is_head)
    pair, and `signs[i]` is the sign of arrow i.  Circle 0 carries the base
    point in the gap before position 0.

    The constructor turns both fields into tuples and checks them: each
    arrow index is in range, each arrow has exactly one tail and one head
    endpoint, and each sign is +1 or -1.  `rebase` and `delete_arrows`
    build their results from a checked diagram without the check, since a
    rotation of circle 0 or an arrow deletion keeps one tail and one head
    per arrow.  Diagrams are immutable, and equal when their circles and
    signs are equal.
    """

    endpoints: tuple[tuple[tuple[int, bool], ...], ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        endpoints = tuple(map(tuple, self.endpoints))
        signs = tuple(self.signs)
        _check(endpoints, signs)
        object.__setattr__(self, "endpoints", endpoints)
        object.__setattr__(self, "signs", signs)

    @property
    def circle_count(self) -> int:
        return len(self.endpoints)

    @property
    def arrow_count(self) -> int:
        return len(self.signs)

    def __reduce__(self):
        # Unpickling and copying go through the checking constructor.
        return GaussDiagram, (self.endpoints, self.signs)


def _derived(endpoints, signs) -> GaussDiagram:
    # A diagram that takes ownership of the tuples `endpoints` (of tuples)
    # and `signs`, unchecked: the caller derives them from a checked diagram
    # in a way that keeps one tail and one head per arrow.
    g = object.__new__(GaussDiagram)
    object.__setattr__(g, "endpoints", endpoints)
    object.__setattr__(g, "signs", signs)
    return g


def _check(endpoints, signs) -> None:
    """Walk the endpoints once and raise ValueError at the first fault.

    Every arrow index must be in range, every arrow must have exactly one
    tail and one head endpoint, and every sign must be +1 or -1.
    """
    n = len(signs)
    total = sum(map(len, endpoints))
    # met[2 * idx + is_head] flags the endpoints seen so far.  An is_head
    # that is not a bool flags no slot, so its arrow lacks an end.
    met = [False] * (2 * n)
    for circle in endpoints:
        for idx, is_head in circle:
            if not 0 <= idx < n:
                raise ValueError(f"endpoint references arrow {idx}, out of range")
            if is_head in (False, True):
                slot = 2 * idx + 1 if is_head else 2 * idx
                if met[slot]:
                    kind = "head" if is_head else "tail"
                    raise ValueError(f"arrow {idx} has two {kind} endpoints")
                met[slot] = True
    if total != 2 * n:
        raise ValueError(f"{total} endpoints for {n} arrows; need exactly two each")
    for i, (sign, tail, head) in enumerate(zip(signs, met[::2], met[1::2])):
        if sign not in (-1, 1):
            raise ValueError(f"arrow {i} has sign {sign}, expected +1 or -1")
        if not (tail and head):
            raise ValueError(f"arrow {i} endpoints disagree with the circle data")


def from_braid_closure(w: BraidWord) -> GaussDiagram:
    """Gauss diagram of the standard closure of `w`, one circle per component.

    For letter +i the strand in position i+1 is the overpass (arrow tail) and
    the sign is +1; for letter -i the strand in position i is the overpass
    and the sign is -1.  One walk down the word records the run of endpoints
    each strand meets, keyed by its top position; each circle of the
    closure, as joined in `braids`, then strings its runs together, in
    O(L + k) for L letters on k strands.
    """
    runs: list[list[tuple[int, bool]]] = [[] for _ in range(w.strands)]
    # top[c] is the top position (0-based) of the strand now in position c.
    top = list(range(w.strands))
    for j, letter in enumerate(w.letters):
        i = abs(letter)
        left, right = top[i - 1], top[i]
        runs[left].append((j, letter > 0))
        runs[right].append((j, letter < 0))
        top[i - 1], top[i] = right, left
    circles = []
    for cycle in _closure_cycles(top):
        seq = []
        for p in cycle:
            seq += runs[p]
        circles.append(seq)
    # The constructor turns these lists into tuples.
    return GaussDiagram(circles, [1 if letter > 0 else -1 for letter in w.letters])


def writhe(g: GaussDiagram) -> int:
    """Sum of the arrow signs."""
    return sum(g.signs)


def delete_arrows(g: GaussDiagram, which: Iterable[int]) -> GaussDiagram:
    """Remove the named arrows, keeping cyclic order, base point, and arrow order."""
    doomed = set(which)
    for idx in doomed:
        if not 0 <= idx < g.arrow_count:
            raise ValueError(f"arrow index {idx} out of range 0..{g.arrow_count - 1}")
    kept = [i for i in range(g.arrow_count) if i not in doomed]
    relabel = {old: new for new, old in enumerate(kept)}
    # Both ends of each doomed arrow go and the kept arrows are renumbered
    # densely, so each still has one tail and one head: no check needed.
    circles = tuple(
        tuple((relabel[idx], is_head) for idx, is_head in circle if idx not in doomed)
        for circle in g.endpoints
    )
    signs = tuple(g.signs[old] for old in kept)
    return _derived(circles, signs)


def gap_count(g: GaussDiagram) -> int:
    """Number of base gaps on circle 0 (one per endpoint, or 1 on a bare circle)."""
    if g.circle_count < 1:
        raise ValueError("diagram has no circles")
    return max(1, len(g.endpoints[0]))


def rebase(g: GaussDiagram, gap: int) -> GaussDiagram:
    """Move the base to the gap before current position `gap` on circle 0.

    Gap 0 is today's base, so rebase(g, 0) returns an identical diagram.
    Any other gap rotates circle 0 and shares the signs of `g`.
    """
    gaps = gap_count(g)
    if not 0 <= gap < gaps:
        raise ValueError(f"gap {gap} out of range 0..{gaps - 1}")
    if gap == 0:
        return g
    circle = g.endpoints[0]
    return _derived((circle[gap:] + circle[:gap],) + g.endpoints[1:], g.signs)


def canonical_code(g: GaussDiagram) -> str:
    """Base-anchored encoding of a one-circle diagram.

    Equal codes mean equal based diagrams.  The empty diagram encodes as
    EMPTY_CODE.
    """
    if g.circle_count != 1:
        raise ValueError("canonical codes are defined for one-circle diagrams only")
    labels: dict[int, int] = {}
    parts = []
    for idx, is_head in g.endpoints[0]:
        label = labels.setdefault(idx, len(labels) + 1)
        sign = "+" if g.signs[idx] > 0 else "-"
        parts.append(f"{label}{sign}{'H' if is_head else 'T'}")
    return ",".join(parts)


def isomorphic_unbased(g1: GaussDiagram, g2: GaussDiagram) -> bool:
    """Whether some rebasing of g1 matches g2 as based diagrams.

    Implemented for one-circle diagrams by trying every base gap of g1
    against the canonical code of g2.
    """
    if g1.circle_count != 1 or g2.circle_count != 1:
        raise ValueError("unbased comparison is defined for one-circle diagrams only")
    if g1.arrow_count != g2.arrow_count:
        return False
    target = canonical_code(g2)
    return any(
        canonical_code(rebase(g1, gap)) == target for gap in range(gap_count(g1))
    )
