"""Seeded inputs and per-item output checks for the benchmark's workloads.

An item is one unit of traffic: it is computed through braidinv's public
functions and its outputs are checked before the next item starts.  Each
check belongs to the route whose output it validates: `gauss` (the
Gauss-diagram pattern count), `burau` (reduced Burau matrices), `skein` (the
skein recursion) or `sequences` (the Lucas and wheel-graph sequences).

Inputs are drawn from a `random.Random(seed)` before timing starts.  Sizes
are drawn one per stratum, so two seeds give passes of the same shape and
cost while no item is repeated.  Pass lengths are set so that a pass takes
about `seconds` at the baseline on a 2-core x86-64 box with CPython 3.11.
"""

import dataclasses
import itertools
import random
from collections.abc import Callable

import braidinv as bi
from braidinv import cli


@dataclasses.dataclass(frozen=True)
class Item:
    """One unit of traffic: `check(*args)` computes it and returns route -> ok."""

    check: Callable[..., dict[str, bool]]
    args: tuple
    words: tuple[bi.BraidWord, ...]

    def run(self) -> dict[str, bool]:
        return self.check(*self.args)

    @property
    def size(self) -> int:
        return sum(len(w) for w in self.words)


@dataclasses.dataclass(frozen=True)
class Workload:
    make: Callable  # (rng, seconds) -> list[Item], drawn from the seed
    warmup: Callable[[], Item]  # one small item, the same for every seed


def stratified(rng, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of `count` equal strata of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def stratified_choice(rng, candidates: list, count: int) -> list:
    """One draw from each of `count` equal runs of the sorted `candidates`, so none repeats."""
    size = len(candidates)
    if not 0 < count <= size:
        raise ValueError(f"cannot draw {count} of {size} candidates without repeats")
    runs = (candidates[i * size // count : (i + 1) * size // count] for i in range(count))
    return [rng.choice(run) for run in runs]


def knot_exponents(lo: int, hi: int) -> list[int]:
    """Family exponents in [lo, hi] whose closure is a knot (not divisible by 3)."""
    return [n for n in range(lo, hi + 1) if n % 3]


def knot_length(strands: int, value: float) -> int:
    """A length near `value` with the parity a knot on `strands` strands needs.

    A knot closure needs a permutation that is one strands-cycle, whose sign
    fixes the parity of the letter count to that of strands - 1.
    """
    n = round(value)
    return n + (n - strands + 1) % 2


def random_knot(rng, strands: int, length: int) -> bi.BraidWord:
    """Uniform random word of exactly `length` letters whose closure is a knot."""
    if (length - strands + 1) % 2:
        raise ValueError(f"no {strands}-strand knot word has {length} letters")
    alphabet = [g for i in range(1, strands) for g in (i, -i)]
    while True:
        w = bi.BraidWord(tuple(rng.choice(alphabet) for _ in range(length)), strands)
        if bi.closure_components(w) == 1:
            return w


def family_c2(n: int) -> int:
    """Degree-2 Conway coefficient of the closure of family_word(n).

    Matches the Burau route for every knot exponent up to 60 and the pattern
    count up to 400; for n = 3m + 1 it is m, for n = 3m + 2 it is -(m + 1).
    """
    return (n - 1) // 3 if n % 3 == 1 else -(n + 1) // 3


# --- oracle_sweep: criterion 4 of the acceptance gate ----------------------

SHORT_WORDS_S = 2.7  # all 3,026 words of length <= 7
LENGTH8_WORD_S = 0.0041  # mean over 3-strand knot words of length 8
ORACLE_ALPHABETS = ((2, (1, -1)), (3, (1, -1, 2, -2)))


def oracle_check(w):
    c2 = bi.c2_of_braid_closure(w)
    nabla = bi.conway_of_closure(w)
    skein = bi.conway_skein(w)
    return {
        "gauss": c2 == nabla.coefficient(2),
        "burau": nabla.coefficient(0) == 1,
        "skein": skein == nabla,
    }


def oracle_item(w):
    return Item(oracle_check, (w,), (w,))


def oracle_items(rng, seconds):
    words = [
        w
        for strands, alphabet in ORACLE_ALPHABETS
        for length in range(8)
        for w in (
            bi.BraidWord(letters, strands)
            for letters in itertools.product(alphabet, repeat=length)
        )
        if bi.closure_components(w) == 1
    ]
    # Length-8 words are decoded from a seeded permutation of their indices,
    # so the sample is drawn without replacement and without building all
    # 65,536 words.
    wanted = max(0, round((seconds - SHORT_WORDS_S) / LENGTH8_WORD_S))
    alphabet = ORACLE_ALPHABETS[1][1]
    indices = list(range(4**8))
    rng.shuffle(indices)
    for index in indices:
        if wanted == 0:
            break
        letters = tuple(alphabet[(index >> (2 * k)) & 3] for k in range(8))
        w = bi.BraidWord(letters, 3)
        if bi.closure_components(w) == 1:
            words.append(w)
            wanted -= 1
    rng.shuffle(words)
    return [oracle_item(w) for w in words]


# --- family_long: `invariants` and `theorem` traffic on long words ----------

# Most items come from one band of exponents, so that many items sit near the
# median and item_p50_ms does not hang on one or two items; a few short
# items carry the wheel-graph check, which is only run for n <= 100.
FAMILY_BAND = (150, 210)
FAMILY_BAND_ITEM_S = 0.8  # braid_invariants at a uniform n in FAMILY_BAND
WHEEL_BAND = (60, 100)
WHEEL_ITEMS = 4


def family_check(n, w):
    rec = cli.braid_invariants(w)
    predicted = bi.lucas(2 * n) - 2
    checks = {
        "gauss": rec["oracle_match"] and rec["arf"] == (1 if n % 2 == 0 else 0),
        "burau": rec["det"] == predicted,
    }
    if n <= WHEEL_BAND[1]:
        checks["sequences"] = bi.wheel_spanning_trees(n) == predicted
    return checks


def family_item(n):
    w = cli.family_word(n)
    return Item(family_check, (n, w), (w,))


def family_items(rng, seconds):
    band = knot_exponents(*FAMILY_BAND)
    count = min(len(band), max(1, round(seconds / FAMILY_BAND_ITEM_S)))
    draws = stratified_choice(rng, band, count)
    draws += stratified_choice(rng, knot_exponents(*WHEEL_BAND), WHEEL_ITEMS)
    items = [family_item(n) for n in draws]
    rng.shuffle(items)
    return items


# --- wide_strands: the cofactor determinant on 7 and 8 strands --------------

# One letter count per strand count: random words of one shape vary in cost
# by about 30%, so the pass needs many items of a shape to be steady.
WIDE_SHAPES = (
    # strands, letters, items per second of pass
    (7, 80, 5.3),
    (8, 81, 0.4),
)


def wide_check(w):
    rec = cli.braid_invariants(w)
    # Murasugi: Arf vanishes exactly when the determinant is +-1 mod 8.
    murasugi = (rec["arf"] == 0) == (rec["det"] % 8 in (1, 7))
    return {"gauss": rec["oracle_match"], "burau": murasugi}


def wide_item(w):
    return Item(wide_check, (w,), (w,))


def wide_items(rng, seconds):
    items = [
        wide_item(random_knot(rng, strands, letters))
        for strands, letters, rate in WIDE_SHAPES
        for _ in range(max(1, round(rate * seconds)))
    ]
    rng.shuffle(items)
    return items


# --- combinatorial: the Gauss-diagram route alone ---------------------------

C2_RANGE = (1000, 2000)
C2_ITEM_S = 1.02  # c2 and Arf at a uniform n in C2_RANGE
RECURRENCE_MAX = 60
RECURRENCE_STEP_S = 0.008  # mean over both cases, n = 1..60
BASEPOINT_STRANDS = (3, 4, 5)
BASEPOINT_LETTERS = (20, 40)
BASEPOINT_ITEM_S = 0.0126
BASEPOINT_SHARE = 0.3  # of the pass time, the rest goes to c2 items


def c2_check(n, w):
    c2 = bi.c2_of_braid_closure(w)
    arf = bi.arf_of_braid_closure(w)
    return {"gauss": c2 == family_c2(n) and arf == c2 % 2 == (1 if n % 2 == 0 else 0)}


def c2_item(n):
    w = cli.family_word(n)
    return Item(c2_check, (n, w), (w,))


def recurrence_check(n, high, low, block):
    # One step of cli.recurrence_check, computed from its public parts.
    arf_high = bi.arf_of_braid_closure(high)
    arf_low = bi.arf_of_braid_closure(low)
    trimmed = bi.delete_arrows(bi.from_braid_closure(high), block)
    deletion_ok = bi.isomorphic_unbased(trimmed, bi.from_braid_closure(low))
    # As in criterion 3, the deletion law is asserted from the second step on.
    return {"gauss": arf_high == (arf_low + 1) % 2 and (deletion_ok or n == 1)}


def recurrence_item(case, n):
    high, low = 3 * n + case, 3 * (n - 1) + case
    words = (cli.family_word(high), cli.family_word(low))
    return Item(recurrence_check, (n, *words, cli.last_block_arrows(high)), words)


def basepoint_check(w):
    g = bi.from_braid_closure(w)
    counts = {
        bi.count_pattern(bi.rebase(g, gap), bi.C2_PATTERN).signed
        for gap in range(bi.gap_count(g))
    }
    return {"gauss": len(counts) == 1}


def combinatorial_items(rng, seconds):
    budget = seconds - 2 * RECURRENCE_MAX * RECURRENCE_STEP_S
    c2_count = max(1, round(budget * (1 - BASEPOINT_SHARE) / C2_ITEM_S))
    items = [c2_item(n) for n in stratified_choice(rng, knot_exponents(*C2_RANGE), c2_count)]
    items += [
        recurrence_item(case, n) for case in (1, 2) for n in range(1, RECURRENCE_MAX + 1)
    ]
    per_strand = max(1, round(budget * BASEPOINT_SHARE / BASEPOINT_ITEM_S / 3))
    for strands in BASEPOINT_STRANDS:
        for value in stratified(rng, *BASEPOINT_LETTERS, per_strand):
            w = random_knot(rng, strands, knot_length(strands, value))
            items.append(Item(basepoint_check, (w,), (w,)))
    rng.shuffle(items)
    return items


# Warm-up items are fixed and small, so set-up time does not depend on the seed.
WORKLOADS = {
    "oracle_sweep": Workload(oracle_items, lambda: oracle_item(cli.family_word(4))),
    "family_long": Workload(family_items, lambda: family_item(WHEEL_BAND[1])),
    "wide_strands": Workload(
        wide_items, lambda: wide_item(random_knot(random.Random(0), *WIDE_SHAPES[0][:2]))
    ),
    "combinatorial": Workload(combinatorial_items, lambda: recurrence_item(1, 30)),
}
