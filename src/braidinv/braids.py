"""Braid words in the Artin generators and the circles of their closures.

Letters are nonzero integers: +i crosses the strands in positions i and i+1
with the strand arriving in position i+1 passing over the one in position i,
and -i is the inverse crossing (the position-i strand on top).  Words act top
to bottom, letters left to right.  All values are immutable.

The closure's strand permutation is kept as one 0-based list, `top`, where
top[c] is the top position of the strand leaving the bottom of position c.
One private helper joins it into circles; closure_components counts them and
gauss.from_braid_closure strings each circle's crossings along them.
"""

import dataclasses
import operator

__all__ = [
    "BraidParseError",
    "BraidWord",
    "closure_components",
    "mirror",
    "parse_braid_word",
    "power",
]


class BraidParseError(ValueError):
    """Malformed braid-word text; `token` and `position` (1-based) name the culprit."""

    def __init__(self, message: str, token: str | None = None, position: int | None = None):
        super().__init__(message)
        self.token = token
        self.position = position


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on `strands` strands."""

    letters: tuple[int, ...]
    strands: int

    def __post_init__(self):
        # Through a list, so the tuple is allocated at its exact size: one
        # grown from a bare map keeps its over-allocated block.
        object.__setattr__(self, "letters", tuple(list(map(operator.index, self.letters))))
        object.__setattr__(self, "strands", operator.index(self.strands))
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise ValueError(
                    f"letter {letter} is not a generator index for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(letter) for letter in self.letters)


def parse_braid_word(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated signed generator indices into a braid word.

    A `#` starts a comment running to the end of its line.  With `strands`
    omitted the count is inferred as max|letter| + 1 (1 for the empty word).

    Raises:
        BraidParseError: on a non-integer token, a zero, or a generator index
            needing more strands than declared; the error names the offending
            token and its 1-based position.
    """
    if strands is not None and strands < 1:
        raise ValueError(f"strand count must be positive, got {strands}")
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    letters = []
    for position, token in enumerate(stripped.split(), start=1):
        try:
            letter = int(token)
        except ValueError:
            raise BraidParseError(
                f"token {token!r} at position {position} is not an integer",
                token,
                position,
            ) from None
        if letter == 0:
            raise BraidParseError(
                f"token '0' at position {position}: zero is not a generator index",
                token,
                position,
            )
        if strands is not None and abs(letter) > strands - 1:
            raise BraidParseError(
                f"token {token!r} at position {position}: generator index {abs(letter)}"
                f" needs at least {abs(letter) + 1} strands, have {strands}",
                token,
                position,
            )
        letters.append(letter)
    if strands is None:
        strands = max((abs(letter) for letter in letters), default=0) + 1
    return BraidWord(tuple(letters), strands)


def power(w: BraidWord, n: int) -> BraidWord:
    """The word repeated n times (n = 0 gives the empty word on the same strands)."""
    if n < 0:
        raise ValueError(f"power must be nonnegative, got {n}")
    # Repeating () past sys.maxsize times overflows; the power is () anyway.
    return BraidWord(w.letters * n if w.letters else (), w.strands)


def mirror(w: BraidWord) -> BraidWord:
    """Every letter negated in place; the closure becomes its mirror image."""
    return BraidWord(tuple(-letter for letter in w.letters), w.strands)


def _closure_cycles(top: list[int]) -> list[list[int]]:
    """The circles of the closure, each as its top positions in walk order.

    The strand leaving the bottom of position c goes on from the top of c.
    Each circle starts at the lowest top position not yet on a circle, so
    the walk is O(k) for k strands.
    """
    # after[p] is the position where the strand from the top of p leaves the
    # bottom, or -1 once p is on a circle.
    after = [0] * len(top)
    for c, start in enumerate(top):
        after[start] = c
    cycles = []
    for start in range(len(top)):
        if after[start] < 0:
            continue
        p, cycle = start, []
        while after[p] >= 0:
            cycle.append(p)
            after[p], p = -1, after[p]
        cycles.append(cycle)
    return cycles


def closure_components(w: BraidWord) -> int:
    """Number of circles in the closure of `w` (a knot exactly when this is 1)."""
    # top[c] is the top position (0-based) of the strand now in position c.
    top = list(range(w.strands))
    for letter in w.letters:
        i = abs(letter)
        top[i - 1], top[i] = top[i], top[i - 1]
    return len(_closure_cycles(top))
