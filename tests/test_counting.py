import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidinv import (
    ALL_PATTERNS,
    C2_PATTERN,
    ArrowPattern,
    BraidWord,
    CalibrationError,
    HEAD_FIRST,
    TAIL_FIRST,
    alexander_of_closure,
    calibrate_pattern,
    arf_of_braid_closure,
    c2_of_braid_closure,
    closure_components,
    conway_of_closure,
    conway_skein,
    count_pattern,
    default_calibration_corpus,
    from_braid_closure,
    gap_count,
    mirror,
    power,
    rebase,
)
from braidinv.cli import family_exponents, family_word

FAMILY = BraidWord((1, -2), 3)


def pair_count(g, pattern):
    """Test oracle: the signed pattern count by checking every pair of arrows."""
    tails, heads = {}, {}
    for p, (idx, is_head) in enumerate(g.endpoints[0]):
        (heads if is_head else tails)[idx] = p
    spans = []
    for i, sign in enumerate(g.signs):
        t, h = tails[i], heads[i]
        if t < h:
            spans.append((t, h, TAIL_FIRST, sign))
        else:
            spans.append((h, t, HEAD_FIRST, sign))
    signed = 0
    for i in range(len(spans)):
        ai, bi, di, si = spans[i]
        for j in range(i + 1, len(spans)):
            aj, bj, dj, sj = spans[j]
            if ai < aj:
                if not aj < bi < bj:
                    continue
                first, second = di, dj
            else:
                if not ai < bj < bi:
                    continue
                first, second = dj, di
            if first == pattern.first and second == pattern.second:
                signed += si * sj
    return signed


def test_pattern_validation_and_order():
    assert len(ALL_PATTERNS) == 4
    assert ALL_PATTERNS[0] == ArrowPattern(HEAD_FIRST, HEAD_FIRST)
    assert str(ArrowPattern(HEAD_FIRST, TAIL_FIRST)) == "head-tail"
    with pytest.raises(ValueError):
        ArrowPattern("sideways", TAIL_FIRST)


def test_calibration_selects_frozen_pattern():
    assert calibrate_pattern(default_calibration_corpus()) == C2_PATTERN
    assert C2_PATTERN == ArrowPattern(HEAD_FIRST, TAIL_FIRST)


def test_calibration_fails_on_impossible_corpus():
    corpus = [(BraidWord((), 1), 5)]
    with pytest.raises(CalibrationError):
        calibrate_pattern(corpus)


def test_count_pattern_on_trefoil():
    g = from_braid_closure(BraidWord((1, 1, 1), 2))
    assert count_pattern(g, C2_PATTERN).signed == 1


def test_c2_golden_values():
    assert c2_of_braid_closure(BraidWord((), 1)) == 0
    assert c2_of_braid_closure(BraidWord((1, 1, 1), 2)) == 1
    assert c2_of_braid_closure(power(FAMILY, 2)) == -1
    assert c2_of_braid_closure(power(FAMILY, 4)) == 1
    assert c2_of_braid_closure(power(FAMILY, 5)) == -2


def test_arf_is_c2_mod_2():
    for n in (1, 2, 4, 5, 7, 8):
        w = power(FAMILY, n)
        assert arf_of_braid_closure(w) == c2_of_braid_closure(w) % 2


def test_arf_is_mirror_invariant():
    rng = random.Random(23)
    words = [power(FAMILY, n) for n in (1, 2, 4, 5, 7)]
    while len(words) < 25:
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 9)))
        w = BraidWord(letters, 3)
        if closure_components(w) == 1:
            words.append(w)
    for w in words:
        assert arf_of_braid_closure(mirror(w)) == arf_of_braid_closure(w)


def test_c2_requires_knot():
    link = BraidWord((1,), 3)
    for route in (c2_of_braid_closure, arf_of_braid_closure):
        with pytest.raises(ValueError, match="^closure has 2 components, not a knot$"):
            route(link)
    corpus = default_calibration_corpus() + [(link, 0)]
    with pytest.raises(ValueError, match="^calibration word '1' does not close to a knot$"):
        calibrate_pattern(corpus)


def test_count_is_base_point_invariant():
    rng = random.Random(11)
    words = [power(FAMILY, n) for n in (2, 4, 5)]
    while len(words) < 13:
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 8)))
        w = BraidWord(letters, 3)
        if closure_components(w) == 1:
            words.append(w)
    for w in words:
        g = from_braid_closure(w)
        counts = {
            count_pattern(rebase(g, gap), C2_PATTERN).signed
            for gap in range(gap_count(g))
        }
        assert len(counts) == 1


def test_uncalibrated_patterns_vary_with_base_point():
    # The two discarded single-orientation patterns depend on the gap choice,
    # which is what the calibration screens out.
    g = from_braid_closure(power(FAMILY, 2))
    for pattern in (
        ArrowPattern(HEAD_FIRST, HEAD_FIRST),
        ArrowPattern(TAIL_FIRST, TAIL_FIRST),
    ):
        counts = {
            count_pattern(rebase(g, gap), pattern).signed
            for gap in range(gap_count(g))
        }
        assert len(counts) > 1


def _close_to_a_knot(w, pick):
    """Append pick(i), one of +/-i, for i = 1 .. strands - 1 wherever it joins two circles.

    Appending a generator at positions in two different circles joins them,
    so after step i the positions 1..i+1 lie on one circle.
    """
    for i in range(1, w.strands):
        joined = BraidWord(w.letters + (pick(i),), w.strands)
        if closure_components(joined) < closure_components(w):
            w = joined
    assert closure_components(w) == 1
    return w


@st.composite
def knot_words(draw, strands=(2, 6), max_letters=40):
    """Words of up to `max_letters` letters on the given range of strands, closed up to a knot."""
    strands = draw(st.integers(*strands))
    size = draw(st.integers(0, max_letters - (strands - 1)))
    letters = draw(
        st.lists(
            st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i))),
            min_size=size,
            max_size=size,
        )
    )
    return _close_to_a_knot(
        BraidWord(tuple(letters), strands), lambda i: draw(st.sampled_from((i, -i)))
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(knot_words())
def test_count_pattern_matches_the_pair_oracle(w):
    g = from_braid_closure(w)
    for gap in range(gap_count(g)):
        based = rebase(g, gap)
        for pattern in ALL_PATTERNS:
            assert count_pattern(based, pattern).signed == pair_count(based, pattern)


def test_count_pattern_matches_the_pair_oracle_on_the_family():
    for n in family_exponents(59):
        g = from_braid_closure(family_word(n))
        gaps = gap_count(g)
        for gap in range(0, gaps, gaps // 6 + 1):
            based = rebase(g, gap)
            for pattern in ALL_PATTERNS:
                assert count_pattern(based, pattern).signed == pair_count(based, pattern)


def test_count_pattern_matches_the_pair_oracle_on_long_words():
    # Up to 800 endpoints: the sign bitsets span many 30-bit digits, and
    # both the mask and the shift query run on multi-digit ints.
    rng = random.Random(2611)
    for strands in range(3, 9):
        size = rng.randint(100, 400) - (strands - 1)
        letters = tuple(rng.choice((i, -i)) for i in rng.choices(range(1, strands), k=size))
        w = _close_to_a_knot(BraidWord(letters, strands), lambda i: rng.choice((i, -i)))
        g = from_braid_closure(w)
        for gap in [0, *rng.sample(range(1, gap_count(g)), 2)]:
            based = rebase(g, gap)
            for pattern in ALL_PATTERNS:
                assert count_pattern(based, pattern).signed == pair_count(based, pattern), (
                    strands,
                    gap,
                    pattern,
                )


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(knot_words(strands=(4, 8), max_letters=20))
def test_three_routes_agree_on_wide_knots(w):
    # The acceptance gate's exhaustive agreement covers 2 and 3 strands only.
    nabla = conway_of_closure(w)
    assert c2_of_braid_closure(w) == nabla.coefficient(2)
    assert conway_skein(w, max_letters=len(w)) == nabla


def _inverse(letters):
    return tuple(-x for x in reversed(letters))


def _gauss_route(w):
    return count_pattern(from_braid_closure(w), C2_PATTERN).signed, alexander_of_closure(w)


MOVES = ("braid relation", "far commutation", "conjugation", "stabilization", "mirror")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    knot_words(strands=(3, 5), max_letters=20),
    st.lists(st.sampled_from(MOVES), min_size=1, max_size=3),
    st.data(),
)
def test_gauss_route_is_invariant_under_braid_and_markov_moves(w, moves, data):
    # A braid relation or far commutation X = Y goes in as a . Y . X^-1 . b,
    # which is a . b in the braid group only through that relation; the
    # Gauss diagram keeps every letter as an arrow, so nothing cancels there.
    # A mirror image keeps c2 and Δ because a knot's ∇ has only even powers
    # of z; the skein route must give the starting word's Burau ∇ throughout.
    expected = _gauss_route(w)
    conway = conway_of_closure(w)
    for move in moves:
        k, letters = w.strands, w.letters
        if move == "far commutation" and k < 4:
            continue
        if move in ("braid relation", "far commutation"):
            if move == "braid relation":
                e = data.draw(st.sampled_from((1, -1)))
                i = data.draw(st.integers(1, k - 2))
                x, y = (e * i, e * (i + 1), e * i), (e * (i + 1), e * i, e * (i + 1))
            else:
                i = data.draw(st.integers(1, k - 3))
                j = data.draw(st.integers(i + 2, k - 1))
                x = tuple(g * data.draw(st.sampled_from((1, -1))) for g in (i, j))
                y = x[::-1]
            if data.draw(st.booleans()):
                x, y = y, x
            p = data.draw(st.integers(0, len(letters)))
            w = BraidWord(letters[:p] + y + _inverse(x) + letters[p:], k)
        elif move == "conjugation":
            g = data.draw(st.integers(1, k - 1)) * data.draw(st.sampled_from((1, -1)))
            w = BraidWord((g,) + letters + (-g,), k)
        elif move == "mirror":
            w = mirror(w)
        else:
            w = BraidWord(letters + (k * data.draw(st.sampled_from((1, -1))),), k + 1)
        assert _gauss_route(w) == expected, (move, w)
        assert conway_skein(w, max_letters=len(w)) == conway, (move, w)
