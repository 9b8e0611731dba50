import itertools
import math
import random
import subprocess
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from braidinv import (
    BraidWord,
    ConwayPolynomial,
    LaurentPolynomial,
    SkeinLimitError,
    alexander_of_closure,
    arf_oracle,
    c2_oracle,
    closure_components,
    conway_from_alexander,
    conway_of_closure,
    conway_skein,
    determinant,
    determinant_fraction_free,
    lucas,
    mirror,
    power,
    reduced_burau,
)
import braidinv
from braidinv import gauss, polynomials
from braidinv.cli import braid_invariants

FAMILY = BraidWord((1, -2), 3)
TREFOIL = BraidWord((1, 1, 1), 2)

T = LaurentPolynomial({1: 1})
ONE = LaurentPolynomial({0: 1})


def test_laurent_construction_merges_terms():
    p = LaurentPolynomial([(1, 2), (1, -2), (0, 3)])
    assert p == LaurentPolynomial({0: 3})
    assert LaurentPolynomial().is_zero()


def test_laurent_construction_takes_integers_only():
    # One TypeError at construction, whatever the arithmetic would do later.
    for build in (
        lambda: LaurentPolynomial({0: 1.5}),
        lambda: LaurentPolynomial({1.0: 2}),
        lambda: LaurentPolynomial([(0, 1), (3, 2.0)]),
        lambda: ConwayPolynomial((1, 0.5)),
        lambda: ConwayPolynomial((1, "2")),
    ):
        with pytest.raises(TypeError):
            build()
    assert LaurentPolynomial({True: True}) == T
    assert ConwayPolynomial((True, 0, -1)) == ConwayPolynomial((1, 0, -1))
    assert type(LaurentPolynomial({0: True}).coefficient(0)) is int


def test_laurent_constants_hash_as_the_ints_they_equal():
    # Equal objects must hash alike, so sets and dicts find either one.
    for value in (0, 1, -7, 2**80):
        p = LaurentPolynomial({0: value})
        assert p == value and hash(p) == hash(value)
        assert value in {p} and p in {value}
        assert {p: "p"}[value] == "p" and {value: "v"}[p] == "v"
    assert T + 1 not in {1, T} and T in {LaurentPolynomial({1: 1})}
    assert hash(ConwayPolynomial((1,))) == hash(ConwayPolynomial((1,)))


def test_laurent_arithmetic():
    p = T + 1
    assert p * p == T ** 2 + 2 * T + 1
    assert (p - T) == ONE
    assert -p == LaurentPolynomial({1: -1, 0: -1})
    assert (T ** 3).coefficient(3) == 1
    with pytest.raises(ValueError):
        T ** -1


def test_laurent_formatting():
    assert str(LaurentPolynomial()) == "0"
    assert str(T - 1 + T.mirror()) == "t^-1 - 1 + t"
    assert str(3 * T ** 2 - 2) == "-2 + 3*t^2"


def test_laurent_exponent_range():
    p = LaurentPolynomial({-2: 1, 5: 4})
    assert (p.min_exp, p.max_exp) == (-2, 5)
    with pytest.raises(ValueError):
        LaurentPolynomial().min_exp


def test_laurent_mirror_and_palindromic():
    p = T + T.mirror() - 1
    assert p.is_palindromic()
    assert not (T + 1).is_palindromic()
    assert (T ** 2).mirror() == LaurentPolynomial({-2: 1})


def test_laurent_shifted():
    assert (T + 1).shifted(2) == T ** 3 + T ** 2


def test_laurent_evaluate():
    p = T + T.mirror()
    assert p.evaluate(-1) == -2
    with pytest.raises(ValueError):
        p.evaluate(2)  # 2 + 1/2 is not an integer
    with pytest.raises(ValueError):
        (3 * T.mirror() ** 2 + 1).evaluate(-2)  # 3/4 + 1
    assert (4 * T.mirror() ** 2 - T).evaluate(-2) == 3
    assert (T ** 2 - 1).evaluate(3) == 8
    with pytest.raises(ZeroDivisionError, match="pole at t=0"):
        p.evaluate(0)
    assert (T ** 2 + 5).evaluate(0) == 5
    assert LaurentPolynomial().evaluate(0) == 0
    # Golden Alexander polynomials: value 1 at t = 1, +-det at t = -1.
    golden = {
        TREFOIL: 3, power(FAMILY, 2): 5, power(FAMILY, 4): 45, power(FAMILY, 5): 121,
    }
    for w, det in golden.items():
        alexander = alexander_of_closure(w)
        assert alexander.evaluate(1) == 1
        assert abs(alexander.evaluate(-1)) == det


def test_laurent_exact_div():
    ladder = ONE + T + T ** 2
    product = ladder * (T.mirror() - 3)
    assert product.exact_div(ladder) == T.mirror() - 3
    with pytest.raises(ValueError):
        (T + 1).exact_div(ladder)
    with pytest.raises(ZeroDivisionError):
        T.exact_div(LaurentPolynomial())


def test_exact_div_falls_back_when_a_quotient_digit_is_too_large():
    # The tent 1, 2, ..., h, ..., 2, 1 times (1 - t)^2 is 1 - 2 t^h + t^(2h):
    # quotient digits up to h come out of a dividend whose digits are at
    # most 2.
    d = (ONE - T) ** 2
    for height in (1023, 1024):
        width = 2 * height - 1
        tent = LaurentPolynomial({i: min(i + 1, width - i) for i in range(width)})
        n = tent * d
        assert n == ONE - 2 * T ** height + T ** (2 * height)
        assert n // d == tent


def test_exact_div_refuses_the_other_class():
    for p, q in (
        (ConwayPolynomial((0, 2)), LaurentPolynomial({0: 2})),
        (LaurentPolynomial({1: 2}), ConwayPolynomial((2,))),
    ):
        with pytest.raises(TypeError):
            p // q
        with pytest.raises(TypeError):
            p.exact_div(q)
    # Division within one class still serves the ladder and Bareiss's `//`.
    ladder = ONE + T + T ** 2
    assert (ladder * (T.mirror() - 3)).exact_div(ladder) == T.mirror() - 3
    assert (2 * T) // 2 == T
    matrix = [[T, ONE, ONE], [ONE, T, ONE], [ONE, ONE, T]]
    assert determinant_fraction_free(matrix) == (T - 1) ** 2 * (T + 2)


def division_message(p, q):
    # The ValueError message of p.exact_div(q), which must raise.
    with pytest.raises(ValueError) as raised:
        p.exact_div(q)
    return str(raised.value)


@st.composite
def word_sized(draw):
    # 1-40 terms of up to 30 bits at a random lowest exponent.
    coeffs = draw(st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=40))
    low = draw(st.integers(-20, 20))
    return LaurentPolynomial({low + i: c for i, c in enumerate(coeffs)})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(word_sized(), word_sized(), st.integers(0, 10**6))
def test_exact_div_returns_the_quotient_and_refuses_a_changed_dividend(q, d, where):
    assume(not d.is_zero())
    n = q * d
    assert n.exact_div(d) == q
    assert n // d == q
    if n.is_zero():
        return
    # One coefficient changed leaves no quotient, with the same message.
    changed = n + LaurentPolynomial({n.min_exp + where % len(n._coeffs): 1})
    assume(len(d._coeffs) > 1 or abs(d._coeffs[0]) > 1)
    with pytest.raises(ValueError) as raised:
        changed // d
    assert str(raised.value) == division_message(changed, d)


def test_exact_div_by_a_signed_monomial_is_a_shift():
    p = LaurentPolynomial({-3: 4, 0: -1, 2: 7})
    assert p // T ** 3 == p.shifted(-3)
    assert p.exact_div(-T.mirror() ** 2) == -p.shifted(2)
    assert p // 1 == p and p // -1 == -p
    z = ConwayPolynomial((0, 1))
    c = ConwayPolynomial((0, 0, 5, -1))
    assert c.exact_div(z) == ConwayPolynomial((0, 5, -1))
    assert c.exact_div(-z * z) == ConwayPolynomial((-5, 1))
    message = "^a Conway polynomial has no negative powers of z$"
    with pytest.raises(ValueError, match=message):
        c.exact_div(z ** 3)
    # A long quotient that reaches z^-1 raises as well.
    quotient = ConwayPolynomial(tuple(range(1, 11)))
    divisor = ConwayPolynomial((2, 3, 1))
    product = quotient * divisor
    with pytest.raises(ValueError, match=message):
        product.exact_div(divisor.shifted(1))
    assert product.exact_div(divisor) == quotient


def dict_product(p, q):
    # The double loop over nonzero terms, summed in a dict.
    product = {}
    for e1, c1 in p.terms():
        for e2, c2 in q.terms():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    return tuple(sorted((e, c) for e, c in product.items() if c))


@st.composite
def laurent_operands(draw):
    # Up to 60 terms, so products of 1-term operands and of long ones both
    # occur; length 0 is the zero polynomial.
    bits = draw(st.sampled_from((1, 12, 64, 200, 1400, 2000)))
    coeffs = draw(st.lists(st.integers(-(2**bits), 2**bits), max_size=60))
    low = draw(st.integers(-50, 50))
    return LaurentPolynomial({low + i: c for i, c in enumerate(coeffs)})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(laurent_operands(), laurent_operands())
def test_product_matches_the_double_loop(p, q):
    assert (p * q).terms() == dict_product(p, q)


def test_product_at_the_slot_bound():
    # Every coefficient -2^b: the middle product coefficient is exactly
    # min(len) * 4^b, the bound the slot width is computed from.  With a
    # power-of-two min(len), some b puts the bound's top bit on a byte
    # boundary, where a slot one bit narrower overflows.  1-term operands
    # pack too, at a slot as wide as the one product coefficient needs.
    shapes = [(1, 1), (1, 9), (9, 1), (5, 7), (32, 45), (128, 128), (20, 60)]
    for b in list(range(0, 9)) + [61, 62, 63, 64, 1997, 1998, 1999, 2000]:
        for n, m in shapes:
            p = LaurentPolynomial({i - n: -(2**b) for i in range(n)})
            q = LaurentPolynomial({i: -(2**b) for i in range(m)})
            product = p * q
            assert product.terms() == dict_product(p, q)
            assert max(c for _, c in product.terms()) == min(n, m) * 4**b


# The word-slot ring that carries the Bareiss determinant of knots on 4 or
# more strands.  An operation it keeps returns word slots, one it hands to
# LaurentPolynomial returns a LaurentPolynomial; either must decode to what
# LaurentPolynomial arithmetic gives.
WordSlots = polynomials._WordSlots
plain = polynomials._plain


def in_slots(p: LaurentPolynomial) -> WordSlots:
    s = polynomials._in_slots(p)
    assert isinstance(s, WordSlots)
    return s


def top(p: LaurentPolynomial) -> int:
    return max((abs(c) for _, c in p.terms()), default=0)


@st.composite
def slot_sized(draw):
    # 1-40 terms of up to 1, 8, 20 or 40 bits at a random lowest exponent.
    bits = draw(st.sampled_from((1, 8, 20, 40)))
    coeffs = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=40))
    low = draw(st.integers(-20, 20))
    return LaurentPolynomial({low + i: c for i, c in enumerate(coeffs)})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(slot_sized(), slot_sized(), st.integers(0, 10**6))
def test_word_slots_decode_to_the_laurent_results(p, q, where):
    a, b = in_slots(p), in_slots(q)
    assert plain(a) == p and plain(b) == q
    product = a * b
    assert plain(product) == p * q
    fits = top(p) * top(q) * min(len(p._coeffs), len(q._coeffs)) < 2**63
    assert isinstance(product, WordSlots) is (fits or p.is_zero() or q.is_zero())
    for difference, expected in ((a - b, p - q), (b - a, q - p), (a - q, p - q), (p - b, p - q),
                                 (a - 7, p - 7), (7 - a, 7 - p)):
        assert plain(difference) == expected
        assert difference == expected
    assert isinstance(a - b, WordSlots)
    assert plain(-1 * a) == -p and plain(b * 3) == 3 * q and bool(a) is bool(p)
    if q.is_zero():
        return
    n = p * q
    if top(n) >= 2**63:
        return
    quotient = in_slots(n) // b
    assert plain(quotient) == p
    proven = top(n) + top(p) * sum(abs(c) for _, c in q.terms()) < 2**63
    assert isinstance(quotient, WordSlots) is (proven or p.is_zero())
    assert plain(in_slots(n) // q) == p == n // b
    if n.is_zero() or (len(q._coeffs) == 1 and abs(q._coeffs[0]) == 1):
        return
    # One coefficient changed leaves no quotient, with the same message.
    changed = n + LaurentPolynomial({n.min_exp + where % len(n._coeffs): 1})
    with pytest.raises(ValueError) as raised:
        in_slots(changed) // b
    assert str(raised.value) == division_message(changed, q)


def test_word_slot_bounds_at_2_to_the_63():
    # Each bound is hit exactly by a coefficient of the result: one below
    # 2^63 stays in word slots, 2^63 goes to LaurentPolynomial.
    for n, y, fits in ((7, (2**63 - 1) // 7, True), (8, 2**63 // 8, False)):
        # A product: n ones against 10 slots of y, so the middle is n * y.
        p = LaurentPolynomial({i: 1 for i in range(n)})
        q = LaurentPolynomial({i - 3: -y for i in range(10)})
        product = in_slots(p) * in_slots(q)
        assert isinstance(product, WordSlots) is fits
        assert plain(product) == p * q and top(p * q) == n * y
    for gap, fits in ((1, True), (0, False)):
        # A difference: tops 2^62 + 5 and 2^62 - 5 - gap, placed so that
        # the two coefficients meet at t^2 with opposite signs.
        p = LaurentPolynomial({-1: 3, 2: 2**62 + 5})
        q = LaurentPolynomial({2: -(2**62 - 5 - gap), 4: 1})
        difference = in_slots(p) - in_slots(q)
        assert isinstance(difference, WordSlots) is fits
        assert plain(difference) == p - q and top(p - q) == 2**63 - gap
    # A quotient N / D with N = A - B = q (1 + t), D = 1 + t: the difference
    # carries the bound q + 2s, so the certificate reads 3q + 2s, which is
    # 2^63 - 1 for the odd q and 2^63 for the even one.
    d = ONE + T
    for q, fits in ((2**40 + 1, True), (2**40, False)):
        s = (2**63 - fits - 3 * q) // 2
        assert 3 * q + 2 * s == 2**63 - fits
        a = in_slots((q + s) * d)
        n = a - in_slots(s * d)
        assert isinstance(n, WordSlots) and n.top == q + 2 * s
        quotient = n // in_slots(d)
        assert isinstance(quotient, WordSlots) is fits
        assert plain(quotient) == q * ONE


def test_word_slot_quotient_needs_the_divisor_norm():
    # N = 4 - 5t and D = 2^62 - 1 + t are no multiple of each other, but
    # N(2^64) = -4 D(2^64).  The digit -4 is small; the certificate refuses
    # it only through |D|_1 = 2^62, and long division then finds the remainder.
    n = LaurentPolynomial({0: 4, 1: -5})
    d = LaurentPolynomial({0: 2**62 - 1, 1: 1})
    assert n.evaluate(2**64) == -4 * d.evaluate(2**64)
    with pytest.raises(ValueError, match="^not exactly divisible"):
        in_slots(n) // in_slots(d)


def test_word_slot_quotient_without_signed_64_bit_digits_falls_back():
    # N = 1 + (2^62 + 1) t and D = (1 - 2^63) + t: N(2^64) = (2^63 + 1)
    # D(2^64) with no remainder, but 2^63 + 1 is no signed 64-bit digit, so
    # long division takes over and finds that D does not divide N.
    n = LaurentPolynomial({0: 1, 1: 2**62 + 1})
    d = LaurentPolynomial({0: 1 - 2**63, 1: 1})
    assert n.evaluate(2**64) == (2**63 + 1) * d.evaluate(2**64)
    with pytest.raises(ValueError, match="^not exactly divisible$"):
        in_slots(n) // in_slots(d)
    # A difference whose top slots cancel still counts them: a 1-slot N over
    # a 3-slot D holding 1 reads back no digits and falls back.
    one = in_slots(ONE + T + T * T) - in_slots(T + T * T)
    assert one.slots == 3
    assert in_slots(2 * ONE) // one == 2 * ONE


@pytest.mark.parametrize("width", [*range(1, 10), 37])
def test_codec_round_trip_at_the_ends_of_each_slot(width):
    # Widths 1, 2, 4 and 8 take the `array` conversion, the others one bytes
    # slice per slot; the digits span [-half, half) at every width.
    half = 2 ** (8 * width - 1)
    digits = [-half, half - 1, 0, 0, -half, 7, half - 1, -half]
    value = polynomials._pack(digits, width)
    assert value == sum(c << 8 * width * i for i, c in enumerate(digits))
    assert polynomials._unbytes(value, width, len(digits)) == digits
    for size in (1, 3):
        lowest = -half * sum(1 << 8 * width * i for i in range(size))
        highest = (half - 1) * sum(1 << 8 * width * i for i in range(size))
        assert polynomials._unbytes(lowest, width, size) == [-half] * size
        assert polynomials._unbytes(highest, width, size) == [half - 1] * size
        for past in (lowest - 1, highest + 1):
            with pytest.raises(OverflowError):
                polynomials._unbytes(past, width, size)
    for past in (-half - 1, half):
        with pytest.raises(OverflowError):
            polynomials._pack([0, past], width)


def cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = LaurentPolynomial()
    for j, lead in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * lead * cofactor_det(minor)
    return total


def slot_det(m):
    # The determinant as _det_minus_identity takes it, before decoding.
    return determinant_fraction_free([[polynomials._in_slots(e) for e in row] for row in m])


# Small entries, and entries with a coefficient near 2^62 or past 2^63.
ring_entries = st.one_of(
    st.just(LaurentPolynomial()),
    st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), min_size=1, max_size=3).map(
        LaurentPolynomial
    ),
    st.builds(
        lambda exp, size, sign, rest: LaurentPolynomial({exp: sign * size, exp + 1: rest}),
        st.integers(-2, 2),
        st.sampled_from((2**62 - 3, 2**62, 3 * 2**61, 2**63 - 1, 2**63, 2**64 + 5)),
        st.sampled_from((1, -1)),
        st.integers(-3, 3),
    ),
)


@st.composite
def ring_matrices(draw):
    # Zero masks leave rows behind for several steps and force swaps; a
    # zero corner swaps at once; a last row built from the others is
    # singular.
    size = draw(st.integers(1, 5))
    m = [[draw(ring_entries) if draw(st.integers(0, 3)) else LaurentPolynomial()
          for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        m[0][0] = LaurentPolynomial()
    if size > 1 and draw(st.integers(0, 3)) == 0:
        factors = [draw(ring_entries) for _ in range(size - 1)]
        m[-1] = [sum((f * row[j] for f, row in zip(factors, m)), LaurentPolynomial())
                 for j in range(size)]
    return m


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ring_matrices())
@example([[T, ONE, ONE], [ONE, T, ONE], [ONE, ONE, T]])
@example([[LaurentPolynomial(), T], [ONE + T, 2**62 * T]])
def test_word_slot_determinant_matches_cofactors_and_plain_bareiss(m):
    det = plain(slot_det(m))
    assert isinstance(det, LaurentPolynomial)
    assert det == cofactor_det(m) == determinant_fraction_free(m)


def test_word_slot_determinant_falls_back_mid_elimination():
    # Small entries run in word slots until the 2^62 entry in the corner
    # meets the pivots; the products there fall back.
    rng = random.Random(20)
    for _ in range(20):
        m = [[LaurentPolynomial({e: rng.randint(-9, 9) for e in range(-1, 2)})
              for _ in range(5)] for _ in range(5)]
        m[4][4] = m[4][4] + 2**62 * T
        det = slot_det(m)
        assert isinstance(det, LaurentPolynomial)
        assert det == cofactor_det(m) == determinant_fraction_free(m)


def test_word_slot_pivot_with_a_zero_lowest_slot_stays_in_slots():
    # Step 0 leaves (1 + t)(1 + 2t) - 1 (1 + t) = 2t + 2t^2 at (1, 1), a
    # difference whose lowest slot is zero; its quotient by the first
    # divisor, 1, drops that slot before it divides the step-2 cross
    # products as pivot.  These reach down to the lowest slot the pivot
    # times the quotient has, so an untrimmed pivot leaves a remainder.
    u = T.mirror()
    m = [
        [ONE + T, ONE + T, -2 * ONE, ONE],
        [ONE, ONE + 2 * T, -T, u - 2 + T],
        [2 * u - 3, -T, 3 - 3 * u, -u - T],
        [3 - T, 3 - 3 * T, -2 * ONE, 3 - 2 * u],
    ]
    det = slot_det(m)
    assert isinstance(det, WordSlots)
    assert plain(det) == cofactor_det(m)


def test_wide_knots_keep_the_determinant_in_word_slots():
    rng = random.Random(23)
    for strands, letters in ((5, 40), (7, 80), (8, 81)):
        for _ in range(5):
            w = _random_knot(rng, strands, letters)
            m = reduced_burau(w)
            shifted = [[e - 1 if i == j else e for j, e in enumerate(row)]
                       for i, row in enumerate(m)]
            det = slot_det(shifted)
            assert isinstance(det, WordSlots)
            assert plain(det) == polynomials._det_minus_identity(w, m)
            assert plain(det) == determinant_fraction_free(shifted)


def test_two_and_three_strand_words_never_enter_the_word_slots(monkeypatch):
    made = []
    init = WordSlots.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(WordSlots, "__init__", counted)
    for strands, alphabet in ((2, (1, -1)), (3, (1, -1, 2, -2))):
        for length in range(7):
            for letters in itertools.product(alphabet, repeat=length):
                w = BraidWord(letters, strands)
                if closure_components(w) == 1:
                    conway_of_closure(w)
    assert made == []
    conway_of_closure(BraidWord((1, 2, 3), 4))
    assert made


def test_conway_polynomial_basics():
    p = ConwayPolynomial((1, 0, -2))
    assert p.degree() == 2
    assert ConwayPolynomial().degree() == -1
    assert p.coefficients == (1, 0, -2)
    assert p.coefficient(2) == -2
    assert p.coefficient(7) == 0
    assert str(p) == "1 - 2*z^2"
    assert ConwayPolynomial((0, 0)).is_zero()
    assert p.shifted(1) == ConwayPolynomial((0, 1, 0, -2))


def test_conway_polynomial_arithmetic():
    p = ConwayPolynomial((1, 1))
    q = ConwayPolynomial((0, 1))
    assert p + q == ConwayPolynomial((1, 2))
    assert p - p == ConwayPolynomial()
    assert -q == ConwayPolynomial((0, -1))
    assert p * q == ConwayPolynomial((0, 1, 1))
    assert p * ConwayPolynomial() == ConwayPolynomial()


def test_conway_polynomials_refuse_negative_powers_of_z():
    z = ConwayPolynomial((0, 1))
    message = "^a Conway polynomial has no negative powers of z$"
    with pytest.raises(ValueError, match=message):
        z.shifted(-3)
    with pytest.raises(ValueError, match=message):
        ConwayPolynomial((1, 0, -2)).mirror()
    with pytest.raises(ValueError, match=message):
        z.exact_div(ConwayPolynomial((0, 0, 1)))
    with pytest.raises(ValueError, match=message):
        z // ConwayPolynomial((0, 0, 1))
    shifted = z.shifted(1)
    assert type(shifted) is ConwayPolynomial and shifted.coefficients == (0, 0, 1)
    quotient = ConwayPolynomial((0, 1, 0, -1)).exact_div(z)
    assert type(quotient) is ConwayPolynomial and quotient.coefficients == (1, 0, -1)
    assert ConwayPolynomial((0, 0, 3)).shifted(-2) == ConwayPolynomial((3,))
    assert ConwayPolynomial((5,)).mirror() == ConwayPolynomial((5,))


class TupleConway:
    """Test oracle: a Conway polynomial as a tuple indexed by the power of z."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        values = list(coeffs)
        while values and values[-1] == 0:
            values.pop()
        object.__setattr__(self, "_coeffs", tuple(values))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return 0

    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def times_z(self):
        if not self._coeffs:
            return self
        return TupleConway((0,) + self._coeffs)

    def __add__(self, other):
        if not isinstance(other, TupleConway):
            return NotImplemented
        longer, shorter = self._coeffs, other._coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        total = list(longer)
        for i, c in enumerate(shorter):
            total[i] += c
        return TupleConway(total)

    def __sub__(self, other):
        if not isinstance(other, TupleConway):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return TupleConway(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if not isinstance(other, TupleConway):
            return NotImplemented
        product = [0] * max(len(self._coeffs) + len(other._coeffs) - 1, 0)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                product[i + j] += a * b
        return TupleConway(product)

    def __eq__(self, other):
        if not isinstance(other, TupleConway):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def __str__(self):
        return polynomials._format_terms(
            ((i, c) for i, c in enumerate(self._coeffs) if c), "z"
        )

    def __repr__(self):
        return f"ConwayPolynomial({self._coeffs!r})"


# Coefficient tuples with zeros at either end, the zero polynomial among them.
conway_coefficients = st.tuples(
    st.integers(0, 3),
    st.lists(st.integers(-3, 3) | st.integers(-(10**30), 10**30), max_size=6),
    st.integers(0, 3),
).map(lambda parts: (0,) * parts[0] + tuple(parts[1]) + (0,) * parts[2])


def agree(p: ConwayPolynomial, oracle: TupleConway) -> None:
    assert type(p) is ConwayPolynomial
    assert p.coefficients == oracle.coefficients
    assert p.degree() == oracle.degree()
    for power in range(-2, len(oracle.coefficients) + 2):
        assert p.coefficient(power) == oracle.coefficient(power)
    assert p.is_zero() == oracle.is_zero()
    assert bool(p) == bool(oracle)
    assert str(p) == str(oracle)
    assert repr(p) == repr(oracle)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conway_coefficients, conway_coefficients)
def test_conway_arithmetic_matches_the_tuple_oracle(a, b):
    p, q = ConwayPolynomial(a), ConwayPolynomial(b)
    tp, tq = TupleConway(a), TupleConway(b)
    agree(p, tp)
    agree(q, tq)
    agree(p + q, tp + tq)
    agree(p - q, tp - tq)
    agree(-p, -tp)
    agree(p * q, tp * tq)
    agree(p.shifted(1), tp.times_z())
    assert (p == q) == (tp == tq)
    if p == q:
        assert hash(p) == hash(q)
    assert p == ConwayPolynomial(a) and hash(p) == hash(ConwayPolynomial(a))


def test_conway_polynomials_mix_with_nothing_else():
    p = ConwayPolynomial((1, 0, -2))
    same_terms = LaurentPolynomial({0: 1, 2: -2})
    one = ConwayPolynomial((1,))
    assert p != same_terms and same_terms != p
    assert one != 1 and 1 != one
    for other in (same_terms, 1):
        for op in (
            lambda x, y: x + y,
            lambda x, y: x - y,
            lambda x, y: x * y,
        ):
            with pytest.raises(TypeError):
                op(p, other)
            with pytest.raises(TypeError):
                op(other, p)


def burau_generator(index: int, strands: int, inverted: bool = False):
    """Test oracle: reduced Burau matrix of one generator, in closed form.

    The (k-1) x (k-1) convention used here sends the single generator of the
    2-strand group to the 1 x 1 matrix (-t).
    """
    size = strands - 1
    m = [[ONE if i == j else LaurentPolynomial() for j in range(size)] for i in range(size)]
    if inverted:
        if index >= 2:
            m[index - 2][index - 1] = ONE
        m[index - 1][index - 1] = LaurentPolynomial({-1: -1})
        if index <= size - 1:
            m[index][index - 1] = LaurentPolynomial({-1: 1})
    else:
        if index >= 2:
            m[index - 2][index - 1] = T
        m[index - 1][index - 1] = -T
        if index <= size - 1:
            m[index][index - 1] = ONE
    return m


def test_burau_generator_matrices():
    def rows(m):
        return [[str(e) for e in row] for row in m]

    assert rows(burau_generator(1, 3)) == [["-t", "0"], ["1", "1"]]
    assert rows(burau_generator(2, 3)) == [["1", "t"], ["0", "-t"]]
    assert rows(burau_generator(1, 3, inverted=True)) == [["-t^-1", "0"], ["t^-1", "1"]]
    assert rows(burau_generator(1, 2)) == [["-t"]]


def test_burau_generator_inverse_is_inverse():
    for strands in (2, 3, 4, 5):
        for index in range(1, strands):
            w = BraidWord((index, -index), strands)
            m = reduced_burau(w)
            for i, row in enumerate(m):
                for j, entry in enumerate(row):
                    assert entry == (ONE if i == j else LaurentPolynomial())


def _mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), LaurentPolynomial())
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@st.composite
def braid_words(draw):
    strands = draw(st.integers(2, 6))
    letters = draw(
        st.lists(
            st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i))),
            max_size=12,
        )
    )
    return BraidWord(tuple(letters), strands)


def generator_product(w: BraidWord):
    """Test oracle: the product of the generator matrices of the word's letters."""
    size = w.strands - 1
    product = [[ONE if i == j else LaurentPolynomial() for j in range(size)]
               for i in range(size)]
    for letter in w.letters:
        product = _mat_mul(product, burau_generator(abs(letter), w.strands, letter < 0))
    return product


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(braid_words())
def test_reduced_burau_is_the_product_of_generators(w):
    assert reduced_burau(w) == tuple(map(tuple, generator_product(w)))


def test_burau_generator_products_have_determinant_a_signed_monomial():
    # Each generator matrix has determinant -t and each inverse -1/t, so a
    # word of L letters and exponent sum e gives (-1)^L t^e; the 3-strand
    # closed form of det(B - I) rests on this sign convention.
    rng = random.Random(11)
    for strands in (2, 3, 4):
        for length in range(9):
            letters = tuple(
                rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
            )
            exponent_sum = sum(1 if letter > 0 else -1 for letter in letters)
            expected = LaurentPolynomial({exponent_sum: (-1) ** length})
            product = generator_product(BraidWord(letters, strands))
            assert determinant_fraction_free(product) == expected, (strands, letters)


def test_reduced_burau_on_the_boundary_columns():
    # sigma_1 updates the first column and sigma_(k-1)^-1 the last, where a
    # neighbour column is missing; every short word of those letters and
    # their inverses, against the product of generator matrices.
    for strands in (2, 3, 4):
        alphabet = sorted({1, -1, strands - 1, 1 - strands})
        for length in range(5):
            for letters in itertools.product(alphabet, repeat=length):
                w = BraidWord(letters, strands)
                assert reduced_burau(w) == tuple(map(tuple, generator_product(w))), w


@st.composite
def wide_braid_words(draw):
    # Letters from a run of adjacent generators only, so that the columns of
    # the others stay identity columns and most entries stay zero.
    strands = draw(st.integers(2, 9))
    first = draw(st.integers(1, strands - 1))
    last = draw(st.integers(first, strands - 1))
    letters = draw(
        st.lists(
            st.integers(first, last).flatmap(lambda i: st.sampled_from((i, -i))),
            max_size=40,
        )
    )
    return BraidWord(tuple(letters), strands)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(wide_braid_words())
@example(BraidWord((), 9))
@example(BraidWord((1,) * 40, 2))  # one row per stacked column
@example(BraidWord((-1,) * 39, 2))
@example(BraidWord((8, -8) * 20, 9))  # returns to the identity
@example(BraidWord((-4,) * 40, 9))  # one column, far negative powers of t
def test_reduced_burau_reads_every_entry_back_out_of_the_stacked_columns(w):
    assert reduced_burau(w) == tuple(map(tuple, generator_product(w)))


def l1_bounds(w: BraidWord):
    # The largest column l1 bound after each letter: a new column's bound is
    # the sum of its own and its neighbours', from 1 for the identity.
    norms = [1] * (w.strands - 1)
    for letter in w.letters:
        j = abs(letter) - 1
        norms[j] = sum(norms[max(j - 1, 0) : j + 2])
        yield max(norms)


def test_packed_burau_at_byte_boundaries_of_the_slot_width():
    # W = 8 ceil((bits + 1) / 8) for a bound of `bits` bits: bits = 8m - 1
    # fills the slots to their sign bit, bits = 8m leaves a byte to spare.
    rows = {7: [], 0: []}
    for n in range(6, 50):
        bits = max(l1_bounds(power(FAMILY, n))).bit_length()
        if bits % 8 in rows and bits > 8:
            rows[bits % 8].append(n)
    assert all(len(ns) >= 2 for ns in rows.values()), rows
    for n in rows[7][:2] + rows[0][:2] + rows[7][-1:] + rows[0][-1:]:
        w = power(FAMILY, n)
        assert reduced_burau(w) == tuple(map(tuple, generator_product(w))), n
    # A re-packed segment sizes its slots the same way: with a first cap of
    # 12 bits the second segment ends at a bound of 13 to 24 bits.
    later = {7: [], 0: []}
    for n in range(6, 50):
        bits = max(l1_bounds(power(FAMILY, n))).bit_length()
        if 12 < bits <= 24 and bits % 8 in later:
            later[bits % 8].append((n, bits))
    assert all(later.values()), later
    for n, bits in later[7] + later[0]:
        assert repacked_widths(power(FAMILY, n), 12) == [bits // 8 + 1] * 2, n


def test_packed_burau_on_long_random_words():
    rng = random.Random(29)
    for strands, length, count in ((3, 150, 12), (8, 80, 4)):
        for _ in range(count):
            letters = tuple(
                rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
            )
            w = BraidWord(letters, strands)
            assert reduced_burau(w) == tuple(map(tuple, generator_product(w))), w


def repacked_widths(w: BraidWord, cap: int):
    # reduced_burau's result with a first cap of `cap` bits, checked against
    # the product of generator matrices, and the slot width of every column
    # it re-packs, in order.
    # The oracle's own products pack too, so it runs outside the spy.
    widths = []
    pack = polynomials._pack
    expected = tuple(map(tuple, generator_product(w)))

    def spy(coeffs, width):
        widths.append(width)
        return pack(coeffs, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_PACKED_MAX_BITS", cap)
        patch.setattr(polynomials, "_pack", spy)
        assert reduced_burau(w) == expected, (w, cap)
    return widths


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(braid_words(), wide_braid_words()), st.integers(1, 12))
@example(BraidWord((1, -2) * 20, 3), 1)  # an empty first segment, then four re-packs
@example(BraidWord((8, -8) * 20, 9), 3)
def test_reduced_burau_repacks_its_columns_at_doubled_caps(w, cap):
    # A segment runs letters while the bound stays within the cap; the letter
    # that would pass it starts the next segment, at double the cap, whose
    # columns are re-packed at W = 8 ceil((b + 1) / 8) for the bound of b
    # bits at that segment's end.  A first segment with no letters leaves
    # identity columns, which need no re-pack.
    bounds = [1, *l1_bounds(w)]
    expected = []
    stop, segment_cap = 0, cap
    while True:
        start = stop
        while stop < len(w.letters) and bounds[stop + 1].bit_length() <= segment_cap:
            stop += 1
        if start:
            expected += [(bounds[stop].bit_length() + 8) // 8] * (w.strands - 1)
        if stop == len(w.letters):
            break
        segment_cap *= 2
    assert repacked_widths(w, cap) == expected


def test_reduced_burau_repacks_on_edge_words():
    # No letters: nothing to re-pack.
    assert repacked_widths(BraidWord((), 3), 1) == []
    # The first letter passes a 1-bit cap, so the first segment is empty and
    # the whole word runs at the doubled cap of 2 bits.
    assert repacked_widths(FAMILY, 1) == []
    # family^20 reaches 28 bits: segments within 8, 16 and 32 bits, the last
    # two each re-packing both columns.
    assert max(l1_bounds(power(FAMILY, 20))).bit_length() == 28
    assert repacked_widths(power(FAMILY, 20), 8) == [3, 3, 4, 4]


def test_reduced_burau_respects_braid_relations():
    # adjacent: sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2
    lhs = reduced_burau(BraidWord((1, 2, 1), 3))
    rhs = reduced_burau(BraidWord((2, 1, 2), 3))
    assert lhs == rhs
    # distant generators commute
    lhs = reduced_burau(BraidWord((1, 3), 4))
    rhs = reduced_burau(BraidWord((3, 1), 4))
    assert lhs == rhs


def test_alexander_golden_values():
    assert str(alexander_of_closure(BraidWord((), 1))) == "1"
    assert str(alexander_of_closure(BraidWord((1,), 2))) == "1"
    assert str(alexander_of_closure(TREFOIL)) == "t^-1 - 1 + t"
    assert str(alexander_of_closure(power(FAMILY, 2))) == "-t^-1 + 3 - t"
    assert (
        str(alexander_of_closure(power(FAMILY, 4)))
        == "-t^-3 + 5*t^-2 - 10*t^-1 + 13 - 10*t + 5*t^2 - t^3"
    )
    assert (
        str(alexander_of_closure(power(FAMILY, 5)))
        == "t^-4 - 6*t^-3 + 15*t^-2 - 24*t^-1 + 29 - 24*t + 15*t^2 - 6*t^3 + t^4"
    )


def test_alexander_is_normalized():
    rng = random.Random(23)
    seen = 0
    while seen < 12:
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 9)))
        w = BraidWord(letters, 3)
        if closure_components(w) != 1:
            continue
        seen += 1
        p = alexander_of_closure(w)
        assert p.is_palindromic()
        assert p.evaluate(1) == 1


def _random_knot(rng, strands, length):
    # A k-cycle is a product of k - 1 transpositions, so no other parity works.
    if (length - strands + 1) % 2:
        raise ValueError(f"no knot on {strands} strands has {length} letters")
    alphabet = tuple(range(-strands + 1, 0)) + tuple(range(1, strands))
    while True:
        w = BraidWord(tuple(rng.choice(alphabet) for _ in range(length)), strands)
        if closure_components(w) == 1:
            return w


def test_alexander_on_wide_knots():
    # A determinant of factorial cost in the strand count would hang here.
    rng = random.Random(41)
    for strands in (10, 12):
        w = _random_knot(rng, strands, 201)
        p = alexander_of_closure(w)
        assert p.is_palindromic()
        assert p.evaluate(1) == 1
        assert braid_invariants(w)["oracle_match"]


def closed_form_and_bareiss(w: BraidWord):
    """det(B - I) of the word's reduced Burau matrix B, by the library's 3-strand
    closed form and by Bareiss elimination."""
    m = reduced_burau(w)
    shifted = [[e - 1 if i == j else e for j, e in enumerate(row)] for i, row in enumerate(m)]
    return polynomials._det_minus_identity(w, m), determinant_fraction_free(shifted)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=30))
@example(())  # exponent sum 0 in each of these three
@example([1, -1])
@example([1, -2, 2, -1])
@example([1, -2] * 3)  # a 3-component link
@example([1, -2] * 14)  # a knot, family^14
def test_three_strand_closed_form_matches_bareiss(letters):
    closed_form, bareiss = closed_form_and_bareiss(BraidWord(tuple(letters), 3))
    assert closed_form == bareiss


def test_alexander_on_the_family_gives_the_lucas_determinant():
    # At t = -1 the family's Alexander polynomial is +-(L(2n) - 2).
    for n in range(1, 61):
        if n % 3:
            value = alexander_of_closure(power(FAMILY, n)).evaluate(-1)
            assert abs(value) == lucas(2 * n) - 2, n


def test_alexander_rejects_links():
    with pytest.raises(ValueError, match="^closure has 2 components, not a knot$"):
        alexander_of_closure(BraidWord((1,), 3))
    with pytest.raises(ValueError, match="^closure has 3 components, not a knot$"):
        alexander_of_closure(power(FAMILY, 3))


LADDER_MESSAGE = "^det\\(burau - identity\\) is not divisible by 1 \\+ t \\+ \\.\\.\\. \\+ t\\^\\(k-1\\)$"


def test_ladder_division_recovers_the_quotient():
    # Q of 1-120 terms, some shorter than the ladder, with coefficients of
    # 2 to 70 bits, times 1 + t + ... + t^(k-1); one changed coefficient of
    # the product leaves no quotient.
    rng = random.Random(67)
    for _ in range(400):
        k = rng.randint(2, 64)
        bits = rng.choice((2, 8, 30, 62, 63, 64, 70))
        size = rng.randint(1, 120)
        coeffs = [rng.randint(-(2**bits), 2**bits) for _ in range(size)]
        coeffs[0] = coeffs[-1] = rng.choice((-1, 1)) << (bits - 1)
        q = LaurentPolynomial({i - 40: c for i, c in enumerate(coeffs)})
        n = q * LaurentPolynomial({i: 1 for i in range(k)})
        assert polynomials._divide_by_ladder(n, k) == q
        where = n.min_exp + rng.randrange(n.max_exp - n.min_exp + 1)
        changed = n + LaurentPolynomial({where: rng.choice((-1, 1, 2**bits))})
        with pytest.raises(RuntimeError, match=LADDER_MESSAGE):
            polynomials._divide_by_ladder(changed, k)


def test_ladder_division_refuses_what_the_ladder_cannot_divide():
    # Shorter than the ladder (so no quotient at all), or a multiple of the
    # wrong ladder.
    for p, k in ((ONE, 2), (3 * ONE, 3), (T - 1, 5), (-ONE, 64), (T + 1, 3),
                 (T ** 5 - T ** 3, 3)):
        with pytest.raises(RuntimeError, match=LADDER_MESSAGE):
            polynomials._divide_by_ladder(p, k)
    assert polynomials._divide_by_ladder(LaurentPolynomial(), 3).is_zero()


def test_a_vanishing_determinant_is_refused_after_the_ladder(monkeypatch):
    monkeypatch.setattr(polynomials, "_det_minus_identity", lambda w, m: LaurentPolynomial())
    for w in (TREFOIL, power(FAMILY, 2), BraidWord((1, 2, 3), 4)):
        with pytest.raises(RuntimeError, match="^vanishing determinant for a knot closure$"):
            alexander_of_closure(w)


def test_alexander_of_mirror_is_unchanged():
    for w in (TREFOIL, power(FAMILY, 2), power(FAMILY, 4)):
        assert alexander_of_closure(mirror(w)) == alexander_of_closure(w)


def test_conway_golden_values():
    assert str(conway_of_closure(TREFOIL)) == "1 + z^2"
    assert str(conway_of_closure(power(FAMILY, 2))) == "1 - z^2"
    assert str(conway_of_closure(power(FAMILY, 4))) == "1 + z^2 - z^4 - z^6"
    assert (
        str(conway_of_closure(power(FAMILY, 5)))
        == "1 - 2*z^2 - z^4 + 2*z^6 + z^8"
    )


def test_conway_from_alexander_validates_input():
    with pytest.raises(ValueError):
        conway_from_alexander(T + 1)
    with pytest.raises(ValueError):
        conway_from_alexander(T + T.mirror())


def conway_by_peeling(alexander):
    # Peel the top term a_d t^d off with a_d (t - 2 + 1/t)^d, one degree at a time.
    base = LaurentPolynomial({1: 1, 0: -2, -1: 1})
    coeffs = []
    residue = alexander
    while not residue.is_zero() and residue.max_exp > 0:
        d = residue.max_exp
        c = residue.coefficient(d)
        coeffs += [0] * (2 * d + 1 - len(coeffs))
        coeffs[2 * d] = c
        residue = residue - base**d * c
    if not coeffs:
        coeffs = [0]
    coeffs[0] = residue.coefficient(0)
    return ConwayPolynomial(coeffs)


def conway_by_clenshaw(alexander):
    # Delta = a_0 + sum_j a_j V_j with V_j = t^j + t^-j, and V_(j+1) =
    # (y + 2) V_j - V_(j-1) in y = z^2, V_0 = 2, V_1 = y + 2.  Clenshaw:
    # b_j = a_j + (y + 2) b_(j+1) - b_(j+2) down to j = 1, then
    # Delta = a_0 + (y + 2) b_1 - 2 b_2.  Each b is a coefficient list in y.
    a = [alexander.coefficient(j) for j in range(alexander.max_exp + 1)]
    b1: list[int] = []
    b2: list[int] = []
    for aj in reversed(a[1:]):
        b = [x + 2 * u - v for x, u, v in zip([0] + b1, b1 + [0], b2 + [0, 0])]
        b[0] += aj
        b1, b2 = b, b1
    y = [x + 2 * u - 2 * v for x, u, v in zip([0] + b1, b1 + [0], b2 + [0, 0])]
    y[0] += a[0]
    coeffs = [0] * (2 * len(y) - 1)
    coeffs[::2] = y
    return ConwayPolynomial(coeffs)


@st.composite
def normalized_alexander(draw, max_size=40):
    # a_0 + sum_j a_j (t^j + t^-j) with a_0 = 1 - 2 sum_j a_j, so value 1 at t=1.
    bits = draw(st.sampled_from((2, 30, 300)))
    a = draw(st.lists(st.integers(-(2**bits), 2**bits), max_size=max_size))
    terms = {0: 1 - 2 * sum(a)}
    for j, c in enumerate(a, 1):
        terms[j] = terms[-j] = c
    return LaurentPolynomial(terms)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(normalized_alexander())
def test_conway_from_alexander_matches_peeling(alexander):
    nabla = conway_from_alexander(alexander)
    assert nabla == conway_by_peeling(alexander)
    assert nabla.to_alexander() == alexander


def test_conway_from_alexander_matches_peeling_on_the_family():
    for n in range(1, 60):
        w = power(FAMILY, n)
        if closure_components(w) == 1:
            alexander = alexander_of_closure(w)
            assert conway_from_alexander(alexander) == conway_by_peeling(alexander)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(normalized_alexander(max_size=200))
def test_conway_from_alexander_matches_clenshaw(alexander):
    nabla = conway_from_alexander(alexander)
    assert nabla == conway_by_clenshaw(alexander)
    assert nabla.to_alexander() == alexander


def test_conway_from_alexander_matches_clenshaw_on_the_family():
    # Here the Conway coefficients are far smaller than the Alexander ones,
    # 154 against 273 bits at n = 200.
    for n in range(1, 401, 7):
        w = power(FAMILY, n)
        if closure_components(w) == 1:
            alexander = alexander_of_closure(w)
            nabla = conway_from_alexander(alexander)
            assert nabla == conway_by_clenshaw(alexander), n
            assert nabla.to_alexander() == alexander, n


def test_conway_substitution_on_torus_knots_matches_the_closed_form():
    # s1^(2m+1) closes to the torus knot T(2, 2m+1): Delta = sum_(|k| <= m)
    # (-1)^(m-|k|) t^k and nabla = sum_i C(m+i, 2i) z^(2i).  Here nabla dwarfs
    # Delta: at m = 999 its coefficients reach 1,382 bits from a Delta of +-1.
    for m in (1, 2, 10, 100, 999):
        w = BraidWord((1,) * (2 * m + 1), 2)
        alexander = LaurentPolynomial({k: (-1) ** (m - abs(k)) for k in range(-m, m + 1)})
        coeffs = [0] * (2 * m + 1)
        coeffs[::2] = [math.comb(m + i, 2 * i) for i in range(m + 1)]
        nabla = ConwayPolynomial(coeffs)
        closed = alexander_of_closure(w)
        assert closed == alexander, m
        assert conway_from_alexander(closed) == nabla, m
        assert nabla.to_alexander() == alexander, m
    assert max(map(abs, nabla.coefficients)).bit_length() == 1382


def test_conway_substitution_round_trip():
    # z^2 = t - 2 + 1/t turns the Conway coefficients back into alexander.
    for w in (TREFOIL, power(FAMILY, 2), power(FAMILY, 5)):
        alexander = alexander_of_closure(w)
        assert conway_from_alexander(alexander).to_alexander() == alexander


def test_to_alexander_rejects_odd_powers():
    with pytest.raises(ValueError):
        ConwayPolynomial((0, 1)).to_alexander()


def test_skein_matches_burau_route():
    assert conway_skein(TREFOIL) == conway_of_closure(TREFOIL)
    for n in (1, 2, 4, 5):
        w = power(FAMILY, n)
        assert conway_skein(w) == conway_of_closure(w)


def test_skein_handles_links():
    assert str(conway_skein(BraidWord((1, 1), 2))) == "z"
    assert str(conway_skein(BraidWord((), 2))) == "0"
    assert str(conway_skein(BraidWord((1,), 3))) == "0"


def test_skein_limit():
    with pytest.raises(SkeinLimitError):
        conway_skein(power(FAMILY, 7))
    assert conway_skein(power(FAMILY, 7), max_letters=14).coefficient(2) == 2


def test_skein_on_random_words():
    rng = random.Random(5)
    seen = 0
    while seen < 25:
        strands = rng.choice((2, 3))
        letters = tuple(
            rng.choice(tuple(range(-strands + 1, 0)) + tuple(range(1, strands)))
            for _ in range(rng.randint(1, 9))
        )
        w = BraidWord(letters, strands)
        if closure_components(w) != 1:
            continue
        seen += 1
        assert conway_skein(w) == conway_of_closure(w)


@st.composite
def skein_triples(draw):
    strands = draw(st.integers(2, 4))
    letters = st.lists(
        st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        max_size=5,
    )
    return strands, tuple(draw(letters)), draw(st.integers(1, strands - 1)), tuple(draw(letters))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(skein_triples())
def test_skein_relation(triple):
    # The three closures may be knots or links, each independently.
    strands, before, i, after = triple

    def nabla(letters):
        return conway_skein(BraidWord(letters, strands))

    switched = nabla(before + (i,) + after) - nabla(before + (-i,) + after)
    assert switched == nabla(before + after).shifted(1)


def test_skein_on_permutation_braids():
    assert conway_skein(BraidWord((), 1)) == ConwayPolynomial((1,))
    for strands in range(2, polynomials.MAX_SKEIN_STRANDS + 1):
        # An unlink of `strands` circles, then a single unknot.
        assert conway_skein(BraidWord((), strands)).is_zero()
        cycle = BraidWord(tuple(range(1, strands)), strands)
        assert conway_skein(cycle) == ConwayPolynomial((1,))
    # The positive half twist on 3 strands closes to the positive Hopf link.
    assert str(conway_skein(BraidWord((1, 2, 1), 3))) == "z"


def test_skein_matches_burau_route_on_wide_knots():
    rng = random.Random(43)
    cases = [(strands, strands + extra) for strands in (4, 5, 6, 7) for extra in (5, 11)]
    for strands, length in cases + [(7, 66)]:
        w = _random_knot(rng, strands, length)
        assert conway_skein(w, max_letters=length) == conway_of_closure(w)


def test_skein_matches_the_torus_link_closed_form_at_and_past_64_bit_slots():
    # The closure of s1^n is the (2, n) torus link, with Conway polynomial
    # sum_k C(n-1-k, k) z^(n-1-2k); its mirror s1^-n has nabla(-z).  From n =
    # 56 on, the skein route's slots are wider than 64 bits.
    for n in range(1, 81):
        coeffs = [0] * n
        for k in range((n - 1) // 2 + 1):
            coeffs[n - 1 - 2 * k] = math.comb(n - 1 - k, k)
        nabla = ConwayPolynomial(coeffs)
        assert conway_skein(BraidWord((1,) * n, 2), max_letters=n) == nabla, n
        mirrored = ConwayPolynomial([(-1) ** d * c for d, c in enumerate(coeffs)])
        assert conway_skein(BraidWord((-1,) * n, 2), max_letters=n) == mirrored, n


def test_skein_gives_zero_on_split_links_and_no_constant_term_on_links():
    rng = random.Random(61)
    for _ in range(40):
        # No s2 on 4 strands: strands {0, 1} and {2, 3} close apart.
        letters = tuple(rng.choice((1, -1, 3, -3)) for _ in range(rng.randint(0, 10)))
        assert conway_skein(BraidWord(letters, 4)).is_zero(), letters
    links = 0
    while links < 40:
        strands = rng.choice((2, 3, 4))
        alphabet = [g for i in range(1, strands) for g in (i, -i)]
        w = BraidWord(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10))), strands)
        components = closure_components(w)
        if components == 1:
            continue
        links += 1
        nabla = conway_skein(w)
        assert nabla.coefficient(0) == 0, w
        # Every power of z present has the parity of components - 1.
        assert all(d % 2 == (components - 1) % 2 for d, _ in nabla.terms()), w


def test_skein_is_fast_on_long_two_strand_knots():
    for letters in ((-1, 1) * 8 + (-1, -1, -1), (1,) * 21):
        w = BraidWord(letters, 2)
        start = time.process_time()
        nabla = conway_skein(w, max_letters=len(letters))
        elapsed = time.process_time() - start
        assert nabla == conway_of_closure(w)
        assert elapsed < 0.01, f"{len(letters)} letters took {elapsed:.4f} s"


def test_skein_strand_cap():
    assert polynomials.MAX_SKEIN_STRANDS == 8
    assert conway_skein(BraidWord((1, 2, 3, 4, 5, 6, 7, 1), 8)) == ConwayPolynomial((0, 1))
    with pytest.raises(SkeinLimitError, match="9 strands"):
        conway_skein(BraidWord((1, 2, 3, 4, 5, 6, 7, 8), 9))


def test_skein_does_not_read_the_gauss_diagram(monkeypatch):
    def refuse(w):
        raise AssertionError("the skein route built a Gauss diagram")

    for namespace in (braidinv, gauss, polynomials):
        monkeypatch.setattr(namespace, "from_braid_closure", refuse, raising=False)
    assert str(conway_skein(TREFOIL)) == "1 + z^2"
    assert str(conway_skein(power(FAMILY, 5))) == "1 - 2*z^2 - z^4 + 2*z^6 + z^8"


def test_conway_shape_and_determinant_parity_on_knots():
    # For a knot the Conway polynomial holds only even powers of z, starts at
    # 1, and evaluates to an odd determinant.
    rng = random.Random(29)
    words = [power(FAMILY, n) for n in (1, 2, 4, 5, 7, 8)]
    while len(words) < 30:
        strands = rng.choice((2, 3))
        letters = tuple(
            rng.choice(tuple(range(-strands + 1, 0)) + tuple(range(1, strands)))
            for _ in range(rng.randint(1, 9))
        )
        w = BraidWord(letters, strands)
        if closure_components(w) == 1:
            words.append(w)
    for w in words:
        nabla = conway_of_closure(w)
        coeffs = nabla.coefficients
        assert coeffs[0] == 1
        assert all(c == 0 for c in coeffs[1::2])
        assert determinant(w) % 2 == 1


def test_markov_stabilization_invariance():
    rng = random.Random(17)
    seen = 0
    while seen < 10:
        letters = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 7)))
        w = BraidWord(letters, 2)
        if closure_components(w) != 1:
            continue
        seen += 1
        for extra in (2, -2):
            stabilized = BraidWord(letters + (extra,), 3)
            assert alexander_of_closure(stabilized) == alexander_of_closure(w)
            assert conway_skein(stabilized) == conway_skein(w)


def test_oracle_helpers():
    assert c2_oracle(TREFOIL) == 1
    assert c2_oracle(power(FAMILY, 2)) == -1
    assert arf_oracle(power(FAMILY, 2)) == 1
    assert arf_oracle(power(FAMILY, 5)) == 0


def test_determinant_golden_values():
    assert determinant(BraidWord((), 1)) == 1
    assert determinant(TREFOIL) == 3
    assert determinant(power(FAMILY, 2)) == 5
    assert determinant(power(FAMILY, 5)) == 121


MEMORY_SCRIPT = """
import random, tracemalloc
from braidinv import BraidWord, closure_components
from braidinv.cli import braid_invariants

rng = random.Random(47)
alphabet = tuple(range(-6, 0)) + tuple(range(1, 7))
words = []
while len(words) < 40:
    w = BraidWord(tuple(rng.choice(alphabet) for _ in range(80)), 7)
    if closure_components(w) == 1:
        words.append(w)
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
for w in words:
    braid_invariants(w)
print(tracemalloc.get_traced_memory()[0] - before)
"""


def test_polynomial_work_retains_no_memory():
    # A fresh process: freed tuples that earlier tests left on the
    # interpreter's free lists would hide what this loop keeps.
    done = subprocess.run(
        [sys.executable, "-c", MEMORY_SCRIPT],
        capture_output=True, text=True, timeout=120, check=True,
    )
    retained = int(done.stdout)
    assert retained < 512 * 1024, f"{retained} bytes still traced after the loop"
