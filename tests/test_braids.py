import pathlib

import pytest

from braidinv import (
    BraidParseError,
    BraidWord,
    LaurentPolynomial,
    closure_components,
    mirror,
    parse_braid_word,
    power,
    reduced_burau,
)

DATA = pathlib.Path(__file__).parent / "data"


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


def test_braid_word_takes_only_integer_letters_and_strands():
    # A float or a string fails at construction, not later in the closure
    # walk; a bool is an integer and becomes a plain int.
    for letters, strands in (((1.0,), 2), (("1",), 2), ((1,), 2.0), ((1, -2), 3.5)):
        with pytest.raises(TypeError):
            BraidWord(letters, strands)
    w = BraidWord((True,), 2)
    assert w.letters == (1,)
    assert type(w.letters[0]) is int
    assert str(w) == "1"


def test_braid_word_str_round_trip():
    w = BraidWord((1, -2, 1), 3)
    assert str(w) == "1 -2 1"
    assert parse_braid_word(str(w)) == w


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
    # The inverse of 1 -2 2 1 is the reversed word with every letter negated.
    product = BraidWord((1, -2, 2, 1) + (-1, -2, 2, -1), 3)
    assert closure_components(product) == 3
    one, zero = LaurentPolynomial({0: 1}), LaurentPolynomial()
    assert reduced_burau(product) == ((one, zero), (zero, one))


def test_mirror_negates_letters():
    w = BraidWord((1, -2, 1), 3)
    assert mirror(w).letters == (-1, 2, -1)


def test_family_closure_component_rule():
    # The family permutation is a 3-cycle, so the closure of the n-th power
    # is a knot exactly when n is not a multiple of 3.
    b = BraidWord((1, -2), 3)
    for n in range(61):
        expected = 1 if n % 3 else 3
        assert closure_components(power(b, n)) == expected
