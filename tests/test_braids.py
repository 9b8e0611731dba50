import pathlib
import random

import pytest

from braidinv import (
    BraidParseError,
    BraidWord,
    LaurentPolynomial,
    Permutation,
    closure_components,
    inverse,
    mirror,
    parse_braid_word,
    permutation,
    power,
    reduced_burau,
)

DATA = pathlib.Path(__file__).parent / "data"


def random_words(seed, count, strands=3, max_len=9):
    rng = random.Random(seed)
    alphabet = tuple(range(-strands + 1, 0)) + tuple(range(1, strands))
    return [
        BraidWord(
            tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))),
            strands,
        )
        for _ in range(count)
    ]


def test_parse_simple_word():
    w = parse_braid_word("1 -2 1 -2")
    assert w.letters == (1, -2, 1, -2)
    assert w.strands == 3


def test_parse_infers_strand_count():
    assert parse_braid_word("1").strands == 2
    assert parse_braid_word("3 -1").strands == 4
    assert parse_braid_word("").strands == 1


def test_parse_explicit_strand_count():
    w = parse_braid_word("1 1", strands=4)
    assert w.strands == 4


def test_parse_strips_comments():
    w = parse_braid_word("1 -2  # a comment\n1 -2")
    assert w.letters == (1, -2, 1, -2)


def test_parse_rejects_bad_token():
    with pytest.raises(BraidParseError) as info:
        parse_braid_word("1 x 2")
    assert info.value.token == "x"
    assert info.value.position == 2


def test_parse_rejects_zero():
    with pytest.raises(BraidParseError) as info:
        parse_braid_word("1 0")
    assert info.value.position == 2


def test_parse_rejects_letter_out_of_range():
    with pytest.raises(BraidParseError):
        parse_braid_word("3", strands=3)


def test_parse_fixture_file():
    lines = (DATA / "words.txt").read_text().splitlines()
    words = [
        parse_braid_word(line)
        for line in lines
        if line.split("#", 1)[0].strip()
    ]
    assert [w.letters for w in words] == [
        (1, 1, 1),
        (1, -2, 1, -2),
        (1, -2, 1, -2, 1, -2, 1, -2),
        (2, -1, 2, -1),
    ]


def test_braid_word_validates_letters():
    with pytest.raises(ValueError):
        BraidWord((2,), 2)
    with pytest.raises(ValueError):
        BraidWord((0,), 2)
    with pytest.raises(ValueError):
        BraidWord((), 0)


def test_braid_word_str_round_trip():
    w = BraidWord((1, -2, 1), 3)
    assert str(w) == "1 -2 1"
    assert parse_braid_word(str(w)) == w


def test_permutation_validates_images():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_permutation_cycle_count():
    assert Permutation.identity(4).cycle_count() == 4
    assert Permutation((2, 3, 1)).cycle_count() == 1
    assert Permutation((2, 1, 3)).cycle_count() == 2


def test_permutation_of_family_word():
    w = BraidWord((1, -2), 3)
    assert permutation(w).images == (3, 1, 2)


def test_permutation_of_family_powers():
    b = BraidWord((1, -2), 3)
    assert permutation(power(b, 5)).images == (2, 3, 1)
    assert permutation(power(b, 3)) == Permutation.identity(3)


def test_closure_components():
    assert closure_components(BraidWord((), 1)) == 1
    assert closure_components(BraidWord((1, 1, 1), 2)) == 1
    assert closure_components(BraidWord((1,), 3)) == 2
    assert closure_components(power(BraidWord((1, -2), 3), 3)) == 3


def test_power():
    b = BraidWord((1, -2), 3)
    assert power(b, 0).letters == ()
    assert power(b, 3).letters == (1, -2) * 3
    with pytest.raises(ValueError):
        power(b, -1)


def test_inverse_cancels():
    w = BraidWord((1, -2, 2, 1), 3)
    assert inverse(w).letters == (-1, -2, 2, -1)
    product = BraidWord(w.letters + inverse(w).letters, 3)
    assert permutation(product) == Permutation.identity(3)
    one, zero = LaurentPolynomial({0: 1}), LaurentPolynomial()
    assert reduced_burau(product) == ((one, zero), (zero, one))


def test_mirror_negates_letters():
    w = BraidWord((1, -2, 1), 3)
    assert mirror(w).letters == (-1, 2, -1)


def test_permutation_of_power_is_power_of_permutation():
    def then(p, q):
        # Apply p first, then q.
        return Permutation(tuple(q.images[i - 1] for i in p.images))

    for w in random_words(13, 25, max_len=6):
        p = permutation(w)
        expected = Permutation.identity(w.strands)
        for n in range(13):
            assert permutation(power(w, n)) == expected
            expected = then(expected, p)


def test_family_closure_component_rule():
    # The family permutation is a 3-cycle, so the closure of the n-th power
    # is a knot exactly when n is not a multiple of 3.
    b = BraidWord((1, -2), 3)
    for n in range(61):
        expected = 1 if n % 3 else 3
        assert closure_components(power(b, n)) == expected
