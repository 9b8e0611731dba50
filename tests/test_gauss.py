import copy
import dataclasses
import itertools
import pickle
import random
import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidinv import (
    EMPTY_CODE,
    BraidWord,
    GaussDiagram,
    canonical_code,
    closure_components,
    delete_arrows,
    from_braid_closure,
    gap_count,
    isomorphic_unbased,
    power,
    rebase,
    writhe,
)
from braidinv import gauss

TREFOIL = BraidWord((1, 1, 1), 2)
FAMILY = BraidWord((1, -2), 3)


def test_unknot_diagram_is_empty():
    g = from_braid_closure(BraidWord((), 1))
    assert g.circle_count == 1
    assert g.arrow_count == 0
    assert canonical_code(g) == EMPTY_CODE


def test_trefoil_diagram_shape():
    g = from_braid_closure(TREFOIL)
    assert g.circle_count == 1
    assert g.arrow_count == 3
    assert writhe(g) == 3
    assert gap_count(g) == 6


def test_trefoil_canonical_code():
    g = from_braid_closure(TREFOIL)
    assert canonical_code(g) == "1+H,2+T,3+H,1+T,2+H,3+T"


def test_figure_eight_canonical_code():
    g = from_braid_closure(power(FAMILY, 2))
    assert canonical_code(g) == "1+H,2-T,3-H,1+T,4+H,3-T,2-H,4+T"


def test_writhe_of_family_powers():
    # One positive and one negative crossing per block.
    for n in (1, 2, 4, 5):
        assert writhe(from_braid_closure(power(FAMILY, n))) == 0


def test_circle_count_matches_components():
    # closure_components and from_braid_closure share one cycle join; the
    # strand-by-strand scan shares no code with it.
    def every_short_word():
        for k in (2, 3, 4):
            alphabet = [g for i in range(1, k) for g in (i, -i)]
            for n in range(7):
                for letters in itertools.product(alphabet, repeat=n):
                    yield BraidWord(letters, k)

    def random_wide_words(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            k = rng.randint(2, 64)
            alphabet = [g for i in range(1, k) for g in (i, -i)]
            yield BraidWord(
                tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4 * k))), k
            )

    assert from_braid_closure(power(FAMILY, 3)).circle_count == 3
    assert from_braid_closure(BraidWord((1,), 3)).circle_count == 2
    for w in itertools.chain(every_short_word(), random_wide_words(2016, 150)):
        assert (
            closure_components(w)
            == len(scanned_circles(w))
            == from_braid_closure(w).circle_count
        )


def test_arrow_count_matches_word_length():
    for n in range(6):
        g = from_braid_closure(power(FAMILY, n))
        assert g.arrow_count == 2 * n


def test_counts_on_random_words():
    rng = random.Random(17)
    for _ in range(60):
        letters = tuple(
            rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 9))
        )
        w = BraidWord(letters, 3)
        g = from_braid_closure(w)
        assert g.arrow_count == len(letters)
        assert g.circle_count == closure_components(w)
        assert writhe(g) == sum(1 if x > 0 else -1 for x in letters)


# One case per check of the constructor, each with its message.
INVALID_DIAGRAMS = [
    ((((0, False), (1, True)),), (1,), "endpoint references arrow 1, out of range"),
    ((((0, True), (0, True)),), (1,), "arrow 0 has two head endpoints"),
    ((((0, False),),), (1,), "1 endpoints for 1 arrows; need exactly two each"),
    ((((0, False), (0, True)),), (2,), "arrow 0 has sign 2, expected +1 or -1"),
    ((((0, False), (0, 2)),), (1,), "arrow 0 endpoints disagree with the circle data"),
]


def test_diagram_validation():
    for endpoints, signs, message in INVALID_DIAGRAMS:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaussDiagram(endpoints=endpoints, signs=signs)


def test_rebase_keeps_shape():
    g = from_braid_closure(TREFOIL)
    for gap in range(gap_count(g)):
        moved = rebase(g, gap)
        assert moved.arrow_count == g.arrow_count
        assert writhe(moved) == writhe(g)
    assert rebase(g, 0) is g


def test_rebase_rotates_code():
    g = from_braid_closure(TREFOIL)
    assert canonical_code(rebase(g, 1)) == "1+T,2+H,3+T,1+H,2+T,3+H"


def test_rebase_rejects_bad_gap():
    g = from_braid_closure(TREFOIL)
    with pytest.raises(ValueError):
        rebase(g, 6)


def test_canonical_code_needs_one_circle():
    g = from_braid_closure(BraidWord((1,), 3))
    with pytest.raises(ValueError):
        canonical_code(g)


def test_delete_arrows():
    g = from_braid_closure(TREFOIL)
    trimmed = delete_arrows(g, (2,))
    assert trimmed.arrow_count == 2
    assert canonical_code(trimmed) == "1+H,2+T,1+T,2+H"
    with pytest.raises(ValueError):
        delete_arrows(g, (3,))


def test_delete_arrows_is_order_independent():
    def sequential_delete(g, order):
        pending = list(order)
        while pending:
            x = pending.pop(0)
            g = delete_arrows(g, (x,))
            pending = [y - 1 if y > x else y for y in pending]
        return g

    g = from_braid_closure(power(FAMILY, 4))
    targets = (1, 4, 6)
    one_shot = delete_arrows(g, targets)
    for order in itertools.permutations(targets):
        assert sequential_delete(g, order) == one_shot


def test_delete_all_arrows_leaves_bare_circle():
    g = from_braid_closure(TREFOIL)
    bare = delete_arrows(g, (0, 1, 2))
    assert bare.arrow_count == 0
    assert bare.circle_count == 1
    assert canonical_code(bare) == EMPTY_CODE


def test_isomorphic_unbased_spots_rotations():
    g = from_braid_closure(TREFOIL)
    for gap in range(gap_count(g)):
        assert isomorphic_unbased(rebase(g, gap), g)


def test_isomorphic_unbased_distinguishes_mirror():
    g = from_braid_closure(TREFOIL)
    m = from_braid_closure(BraidWord((-1, -1, -1), 2))
    assert not isomorphic_unbased(g, m)


def test_isomorphic_unbased_distinguishes_sizes():
    g = from_braid_closure(TREFOIL)
    assert not isomorphic_unbased(g, from_braid_closure(BraidWord((), 1)))


def test_block_deletion_recovers_smaller_family_diagram():
    # Dropping the arrows of the last three blocks of the n+3rd family power
    # leaves the diagram of the nth power, up to base point.
    for n in (1, 2, 5):
        big = from_braid_closure(power(FAMILY, n + 3))
        trimmed = delete_arrows(big, range(2 * n, 2 * n + 6))
        small = from_braid_closure(power(FAMILY, n))
        assert isomorphic_unbased(trimmed, small)


class Arrow(NamedTuple):
    """Where one arrow's tail and head sit, as (circle, position) pairs, and its sign."""

    tail: tuple[int, int]
    head: tuple[int, int]
    sign: int


def tails_and_heads(endpoints, signs):
    """Test oracle: the arrows of a diagram, located by one dict pass over its circles."""
    tails, heads = {}, {}
    for c, circle in enumerate(endpoints):
        for p, (idx, is_head) in enumerate(circle):
            (heads if is_head else tails)[idx] = (c, p)
    return tuple(Arrow(tails[i], heads[i], signs[i]) for i in range(len(signs)))


def scanned_circles(w):
    """Test oracle: the closure walked strand by strand, scanning the whole word per pass."""
    circles = []
    visited = set()
    for start in range(1, w.strands + 1):
        if start in visited:
            continue
        seq = []
        col = start
        while True:
            visited.add(col)
            for j, letter in enumerate(w.letters):
                i = abs(letter)
                if col == i or col == i + 1:
                    over_col = i + 1 if letter > 0 else i
                    seq.append((j, col != over_col))
                    col = 2 * i + 1 - col
            if col == start:
                break
        circles.append(tuple(seq))
    return tuple(circles)


@st.composite
def closure_words(draw):
    """Words of up to 30 letters on 1-6 strands; about half are closed up to a knot.

    Appending a generator at positions in two different circles joins them,
    so after step i the positions 1..i+1 lie on one circle.
    """
    strands = draw(st.integers(1, 6))
    letters = draw(
        st.lists(
            st.integers(1, max(1, strands - 1)).flatmap(lambda i: st.sampled_from((i, -i))),
            max_size=30 if strands > 1 else 0,
        )
    )
    w = BraidWord(tuple(letters), strands)
    if draw(st.booleans()):
        for i in range(1, strands):
            joined = BraidWord(w.letters + (draw(st.sampled_from((i, -i))),), strands)
            if closure_components(joined) < closure_components(w):
                w = joined
        assert closure_components(w) == 1
    return w


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(closure_words(), st.data())
def test_built_diagrams_match_the_tails_and_heads_oracle(w, data):
    word_signs = tuple(1 if letter > 0 else -1 for letter in w.letters)
    g = from_braid_closure(w)
    assert g.endpoints == scanned_circles(w)
    built = [(g, word_signs)]
    circle = g.endpoints[0]
    arrows = tails_and_heads(g.endpoints, word_signs)

    def moved_back(end, gap):
        c, p = end
        return (c, (p - gap) % len(circle)) if c == 0 else end

    for gap in range(gap_count(g)):
        moved = rebase(g, gap)
        assert moved.endpoints == (circle[gap:] + circle[:gap],) + g.endpoints[1:]
        assert moved.signs is g.signs
        # Every arrow keeps its ends; only the positions on circle 0 move back by `gap`.
        assert tails_and_heads(moved.endpoints, moved.signs) == tuple(
            Arrow(moved_back(a.tail, gap), moved_back(a.head, gap), a.sign) for a in arrows
        )
        built.append((moved, word_signs))
    doomed = data.draw(st.sets(st.integers(0, len(w) - 1)) if len(w) else st.just(set()))
    kept = [i for i in range(len(w)) if i not in doomed]
    trimmed = delete_arrows(g, doomed)
    assert trimmed.endpoints == tuple(
        tuple((kept.index(idx), is_head) for idx, is_head in c if idx not in doomed)
        for c in g.endpoints
    )
    built.append((trimmed, tuple(word_signs[i] for i in kept)))
    for d, signs in built:
        assert d.signs == signs
        again = GaussDiagram(list(map(list, d.endpoints)), list(d.signs))
        assert again == d and hash(again) == hash(d)
        assert type(again.endpoints[0]) is tuple and type(again.signs) is tuple
        for name in ("endpoints", "signs", "arrows"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(d, name, ())


def test_one_pass_build_matches_the_scan_on_family_and_wide_words():
    rng = random.Random(64)
    alphabet = [g for i in range(1, 64) for g in (i, -i)]
    wide = BraidWord(tuple(rng.choice(alphabet) for _ in range(1961)), 64)
    for w in [power(FAMILY, n) for n in range(60)] + [wide]:
        assert from_braid_closure(w).endpoints == scanned_circles(w)


def test_internal_construction_rejects_corrupt_circles():
    g = from_braid_closure(power(FAMILY, 4))
    circle = list(g.endpoints[0])
    duplicated = circle[:1] + circle[:1] + circle[2:]
    idx, is_head = circle[0]
    kind = "head" if is_head else "tail"
    with pytest.raises(ValueError, match=f"^arrow {idx} has two {kind} endpoints$"):
        GaussDiagram((tuple(duplicated),), g.signs)
    out_of_range = [(g.arrow_count, False)] + circle[1:]
    with pytest.raises(ValueError, match=f"^endpoint references arrow {g.arrow_count}, out"):
        GaussDiagram((tuple(out_of_range),), g.signs)


def test_diagrams_keep_repr_pickle_and_equality():
    g = from_braid_closure(TREFOIL)
    assert repr(g) == (
        "GaussDiagram(endpoints=(((0, True), (1, False), (2, True), (0, False),"
        " (1, True), (2, False)),), signs=(1, 1, 1))"
    )
    assert pickle.loads(pickle.dumps(g)) == g
    assert copy.copy(g) == g and copy.deepcopy(g) == g
    # Unpickling runs the checking constructor, so a corrupted diagram cannot load.
    corrupt = copy.copy(g)
    object.__setattr__(corrupt, "signs", (1, 2, 1))
    data = pickle.dumps(corrupt)
    with pytest.raises(ValueError, match="^arrow 1 has sign 2, expected"):
        pickle.loads(data)
    assert g != from_braid_closure(BraidWord((-1, -1, -1), 2))
    assert g != g.endpoints
    assert len({g, rebase(g, 0), from_braid_closure(TREFOIL)}) == 1


def test_only_diagrams_from_outside_data_run_the_check(monkeypatch):
    # Rotations and arrow deletions of a checked diagram are valid by
    # construction; test_built_diagrams_match_the_tails_and_heads_oracle
    # rebuilds them through the checking constructor.
    g = from_braid_closure(power(FAMILY, 3))
    data = pickle.dumps(g)

    def refuse(endpoints, signs):
        raise AssertionError("checked")

    monkeypatch.setattr(gauss, "_check", refuse)
    assert rebase(g, 3).endpoints[0] == g.endpoints[0][3:] + g.endpoints[0][:3]
    assert delete_arrows(g, {0, 1}).arrow_count == g.arrow_count - 2
    for build in (
        lambda: GaussDiagram(g.endpoints, g.signs),
        lambda: from_braid_closure(FAMILY),
        lambda: pickle.loads(data),
        lambda: copy.copy(g),
    ):
        with pytest.raises(AssertionError, match="^checked$"):
            build()


def locate_oracle(endpoints, signs) -> None:
    """Test oracle: walk the endpoints through a dict and raise ValueError at the first fault."""
    located: dict[tuple[int, bool], tuple[int, int]] = {}
    total = 0
    for c, circle in enumerate(endpoints):
        for p, (idx, is_head) in enumerate(circle):
            total += 1
            if not 0 <= idx < len(signs):
                raise ValueError(f"endpoint references arrow {idx}, out of range")
            key = (idx, is_head)
            if key in located:
                kind = "head" if is_head else "tail"
                raise ValueError(f"arrow {idx} has two {kind} endpoints")
            located[key] = (c, p)
    if total != 2 * len(signs):
        raise ValueError(
            f"{total} endpoints for {len(signs)} arrows; need exactly two each"
        )
    for i, sign in enumerate(signs):
        if sign not in (-1, 1):
            raise ValueError(f"arrow {i} has sign {sign}, expected +1 or -1")
        if (i, False) not in located or (i, True) not in located:
            raise ValueError(f"arrow {i} endpoints disagree with the circle data")


FAULTS = ("duplicate", "out of range", "drop", "extra", "sign", "is_head")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(closure_words().filter(len), st.sampled_from(FAULTS), st.data())
def test_validation_names_the_fault_the_oracle_names(w, fault, data):
    g = from_braid_closure(w)
    n = g.arrow_count
    circles = [list(circle) for circle in g.endpoints]
    signs = list(g.signs)
    spots = [(c, p) for c, circle in enumerate(circles) for p in range(len(circle))]
    c, p = data.draw(st.sampled_from(spots))
    i = data.draw(st.integers(0, n - 1))
    if fault == "duplicate":
        c2, p2 = data.draw(st.sampled_from([s for s in spots if s != (c, p)]))
        circles[c][p] = circles[c2][p2]
    elif fault == "out of range":
        circles[c][p] = (data.draw(st.sampled_from((-1, n, n + 7))), circles[c][p][1])
    elif fault == "drop":
        del circles[c][p]
    elif fault == "extra":
        circles[c].insert(p + data.draw(st.integers(0, 1)), (i, data.draw(st.booleans())))
    elif fault == "sign":
        signs[i] = data.draw(st.sampled_from((0, 2)))
    else:
        circles[c][p] = (circles[c][p][0], data.draw(st.sampled_from((2, None))))
    endpoints = tuple(map(tuple, circles))
    with pytest.raises(ValueError) as expected:
        locate_oracle(endpoints, tuple(signs))
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        GaussDiagram(endpoints, signs)
