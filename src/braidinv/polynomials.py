"""Alexander and Conway polynomials of braid closures, exactly.

Two independent routes are implemented.  The primary one builds the reduced
Burau matrix of the word over Z[t, 1/t] one column update per letter, takes
det(M - I) by fraction-free elimination, strips the exact factor
1 + t + ... + t^(k-1), and normalizes by a unit to the palindromic
representative with value 1 at t = 1; substituting z^2 = t - 2 + 1/t out of
that gives the Conway polynomial.  The secondary route resolves crossings
with the skein relation directly on the Gauss diagram of the closure and
never sees a matrix.  Both routes use exact integer arithmetic throughout.
"""

from .braids import BraidWord, closure_components
from .gauss import from_braid_closure
from .sequences import determinant_fraction_free

__all__ = [
    "ConwayPolynomial",
    "LaurentPolynomial",
    "SkeinLimitError",
    "alexander_of_closure",
    "arf_oracle",
    "burau_generator",
    "c2_oracle",
    "conway_from_alexander",
    "conway_of_closure",
    "conway_skein",
    "determinant",
    "reduced_burau",
]


def _format_terms(coeffs: dict[int, int], var: str) -> str:
    if not coeffs:
        return "0"
    parts = []
    for exp in sorted(coeffs):
        c = coeffs[exp]
        if exp == 0:
            body = str(abs(c))
        else:
            symbol = var if exp == 1 else f"{var}^{exp}"
            body = symbol if abs(c) == 1 else f"{abs(c)}*{symbol}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


class LaurentPolynomial:
    """Immutable integer Laurent polynomial in one variable t."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        if hasattr(coeffs, "items"):
            # A mapping's exponents are distinct: only zero terms are dropped.
            items = {exp: coeff for exp, coeff in coeffs.items() if coeff}
        else:
            merged: dict[int, int] = {}
            for exp, coeff in coeffs or ():
                merged[exp] = merged.get(exp, 0) + coeff
            items = {exp: coeff for exp, coeff in merged.items() if coeff}
        object.__setattr__(self, "_coeffs", items)

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        return cls({exponent: coefficient})

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return tuple(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponent range")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponent range")
        return max(self._coeffs)

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, int):
            return LaurentPolynomial({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._coeffs)
        for exp, coeff in other._coeffs.items():
            merged[exp] = merged.get(exp, 0) + coeff
        return LaurentPolynomial(merged)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial({exp: -c for exp, c in self._coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        product: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(product)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError(f"power must be nonnegative, got {n}")
        result = LaurentPolynomial({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    def __bool__(self):
        return bool(self._coeffs)

    def shifted(self, offset: int) -> "LaurentPolynomial":
        """Multiply by t^offset."""
        return LaurentPolynomial({exp + offset: c for exp, c in self._coeffs.items()})

    def mirror(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        return LaurentPolynomial({-exp: c for exp, c in self._coeffs.items()})

    def is_palindromic(self) -> bool:
        return self._coeffs == {-exp: c for exp, c in self._coeffs.items()}

    def evaluate(self, value: int) -> int:
        """Exact value at an integer t; raises when it is not an integer."""
        low = min(min(self._coeffs, default=0), 0)
        if low and value == 0:
            raise ZeroDivisionError("negative powers of t have a pole at t=0")
        # Scale by value^-low so every power is nonnegative, then divide back.
        scaled = sum(c * value ** (exp - low) for exp, c in self._coeffs.items())
        total, rest = divmod(scaled, value ** -low)
        if rest:
            raise ValueError(f"value at t={value} is not an integer")
        return total

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient; raises ValueError when a remainder is left."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial()
        num_lo = self.min_exp
        div_lo = divisor.min_exp
        num = [self.coefficient(e) for e in range(num_lo, self.max_exp + 1)]
        div = [divisor.coefficient(e) for e in range(div_lo, divisor.max_exp + 1)]
        if len(num) < len(div):
            raise ValueError("not exactly divisible: quotient would be shorter than 1")
        quotient = [0] * (len(num) - len(div) + 1)
        lead = div[-1]
        for pos in range(len(quotient) - 1, -1, -1):
            q, r = divmod(num[pos + len(div) - 1], lead)
            if r:
                raise ValueError("not exactly divisible")
            quotient[pos] = q
            if q:
                for k, d in enumerate(div):
                    num[pos + k] -= q * d
        if any(num):
            raise ValueError("not exactly divisible")
        shift = num_lo - div_lo
        return LaurentPolynomial(
            {shift + i: c for i, c in enumerate(quotient) if c}
        )

    def __floordiv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.exact_div(other)

    def __str__(self):
        return _format_terms(self._coeffs, "t")

    def __repr__(self):
        return f"LaurentPolynomial({dict(sorted(self._coeffs.items()))!r})"


class ConwayPolynomial:
    """Immutable integer polynomial in z; the index is the power of z."""

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
        """Degree in z, or -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def times_z(self) -> "ConwayPolynomial":
        if not self._coeffs:
            return self
        return ConwayPolynomial((0,) + self._coeffs)

    def __add__(self, other):
        if not isinstance(other, ConwayPolynomial):
            return NotImplemented
        size = max(len(self._coeffs), len(other._coeffs))
        return ConwayPolynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(size))
        )

    def __sub__(self, other):
        if not isinstance(other, ConwayPolynomial):
            return NotImplemented
        size = max(len(self._coeffs), len(other._coeffs))
        return ConwayPolynomial(
            tuple(self.coefficient(i) - other.coefficient(i) for i in range(size))
        )

    def __neg__(self):
        return ConwayPolynomial(tuple(-c for c in self._coeffs))

    def __eq__(self, other):
        if not isinstance(other, ConwayPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self):
        return bool(self._coeffs)

    def to_alexander(self) -> LaurentPolynomial:
        """Substitute z^2 = t - 2 + 1/t; defined when odd powers are absent."""
        if any(self._coeffs[i] for i in range(1, len(self._coeffs), 2)):
            raise ValueError("odd powers of z have no Laurent image under z^2 = t - 2 + 1/t")
        base = LaurentPolynomial({1: 1, 0: -2, -1: 1})
        total = LaurentPolynomial()
        for i in range(0, len(self._coeffs), 2):
            if self._coeffs[i]:
                total = total + base ** (i // 2) * self._coeffs[i]
        return total

    def __str__(self):
        return _format_terms(
            {i: c for i, c in enumerate(self._coeffs) if c}, "z"
        )

    def __repr__(self):
        return f"ConwayPolynomial({self._coeffs!r})"


def _identity(size: int) -> list[list[LaurentPolynomial]]:
    one = LaurentPolynomial({0: 1})
    zero = LaurentPolynomial()
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


def burau_generator(index: int, strands: int, inverted: bool = False):
    """Reduced Burau matrix of one generator, in closed form.

    The (k-1) x (k-1) convention used here sends the single generator of the
    2-strand group to the 1 x 1 matrix (-t).
    """
    if strands < 2:
        raise ValueError("the reduced Burau representation needs at least 2 strands")
    size = strands - 1
    if not 1 <= index <= size:
        raise ValueError(f"generator index {index} out of range for {strands} strands")
    m = _identity(size)
    if inverted:
        if index >= 2:
            m[index - 2][index - 1] = LaurentPolynomial({0: 1})
        m[index - 1][index - 1] = LaurentPolynomial({-1: -1})
        if index <= size - 1:
            m[index][index - 1] = LaurentPolynomial({-1: 1})
    else:
        if index >= 2:
            m[index - 2][index - 1] = LaurentPolynomial({1: 1})
        m[index - 1][index - 1] = LaurentPolynomial({1: -1})
        if index <= size - 1:
            m[index][index - 1] = LaurentPolynomial({0: 1})
    return m


def reduced_burau(w: BraidWord):
    """Product of reduced Burau generator matrices over the word.

    Right multiplication by the generator of letter +-i changes only column
    i-1 of the running product, so each letter costs O(k) polynomial
    operations.  Returns a (k-1) x (k-1) grid of LaurentPolynomial as a tuple
    of tuples.
    """
    if w.strands < 2:
        raise ValueError("the reduced Burau representation needs at least 2 strands")
    size = w.strands - 1
    zero = LaurentPolynomial()
    m = _identity(size)
    for letter in w.letters:
        j = abs(letter) - 1
        for row in m:
            left = row[j - 1] if j else zero
            right = row[j + 1] if j + 1 < size else zero
            if letter > 0:
                # s_i:    t col(i-2) - t col(i-1) + col(i)
                row[j] = (left - row[j]).shifted(1) + right
            else:
                # s_i^-1: col(i-2) - t^-1 col(i-1) + t^-1 col(i)
                row[j] = left + (right - row[j]).shifted(-1)
    return tuple(tuple(row) for row in m)


def _normalize_alexander(p: LaurentPolynomial) -> LaurentPolynomial:
    if p.is_zero():
        raise RuntimeError("vanishing determinant for a knot closure")
    span = p.min_exp + p.max_exp
    if span % 2:
        raise RuntimeError("exponent range cannot be centred by a unit")
    p = p.shifted(-span // 2)
    at_one = p.evaluate(1)
    if at_one == -1:
        p = -p
    elif at_one != 1:
        raise RuntimeError(f"value at t=1 is {at_one}, expected +1 or -1")
    if not p.is_palindromic():
        raise RuntimeError("centred polynomial is not palindromic")
    return p


def alexander_of_closure(w: BraidWord) -> LaurentPolynomial:
    """Alexander polynomial of the closure knot, palindromic with value 1 at t=1."""
    components = closure_components(w)
    if components != 1:
        raise ValueError(f"closure has {components} components, not a knot")
    if w.strands == 1:
        return LaurentPolynomial({0: 1})
    shifted = [
        [entry - 1 if i == j else entry for j, entry in enumerate(row)]
        for i, row in enumerate(reduced_burau(w))
    ]
    det = determinant_fraction_free(shifted)
    ladder = LaurentPolynomial({e: 1 for e in range(w.strands)})
    try:
        quotient = det.exact_div(ladder)
    except ValueError as exc:
        raise RuntimeError(
            "det(burau - identity) is not divisible by 1 + t + ... + t^(k-1)"
        ) from exc
    return _normalize_alexander(quotient)


def conway_from_alexander(alexander: LaurentPolynomial) -> ConwayPolynomial:
    """Conway polynomial obtained by substituting z^2 = t - 2 + 1/t out of `alexander`.

    The input must be palindromic with value 1 at t=1, as produced by
    alexander_of_closure; only even powers of z appear in the result.
    """
    if not alexander.is_palindromic():
        raise ValueError("input must be palindromic in t and 1/t")
    if alexander.evaluate(1) != 1:
        raise ValueError("input must take value 1 at t=1")
    base = LaurentPolynomial({1: 1, 0: -2, -1: 1})
    powers = [LaurentPolynomial({0: 1})]
    residue = alexander
    out: dict[int, int] = {}
    while not residue.is_zero() and residue.max_exp > 0:
        d = residue.max_exp
        while len(powers) <= d:
            powers.append(powers[-1] * base)
        c = residue.coefficient(d)
        out[2 * d] = c
        residue = residue - powers[d] * c
    constant = residue.coefficient(0)
    if constant:
        out[0] = constant
    size = max(out) + 1 if out else 0
    coeffs = [0] * size
    for power, value in out.items():
        coeffs[power] = value
    return ConwayPolynomial(coeffs)


def conway_of_closure(w: BraidWord) -> ConwayPolynomial:
    """Conway polynomial of the closure knot via the Burau route."""
    return conway_from_alexander(alexander_of_closure(w))


class SkeinLimitError(RuntimeError):
    """Word too long for the skein recursion's configured bound."""


def _poly_add(a, b):
    # Coefficient tuples in ascending powers of z, trailing zeros stripped.
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, value in enumerate(b):
        out[i] += value
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, value in enumerate(b):
        out[i] -= value
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# The skein recursion packs each endpoint into a small integer so that
# states are tuples of int tuples: aid << 2 | (2 if head else 0) | (1 if
# the crossing sign is positive else 0).  Both endpoints of an arrow carry
# the same aid and sign bit and differ exactly in the head bit, so every
# packed value is unique within a state, the partner of endpoint e is the
# value e ^ 2, and switching a crossing is e ^ 3 at both ends.


def _flip_entry(circle, position):
    return circle[:position] + (circle[position] ^ 3,) + circle[position + 1 :]


def _trim_circle(circle):
    # An arrow whose two endpoints sit next to each other on a circle bounds
    # a simple loop; untwisting it leaves the polynomial unchanged, so such
    # arrows are deleted, cascading until the circle is kink free.
    changed = True
    while changed and len(circle) > 1:
        changed = False
        previous = circle[-1]
        for entry in circle:
            if previous >> 2 == entry >> 2:
                kink = entry >> 2
                circle = tuple(e for e in circle if e >> 2 != kink)
                changed = True
                break
            previous = entry
    return circle


def _other_end(circles, ci, pi, partner):
    # The partner endpoint always lies strictly later in the walk.
    try:
        return ci, circles[ci].index(partner, pi + 1)
    except ValueError:
        pass
    for cj in range(ci + 1, len(circles)):
        try:
            return cj, circles[cj].index(partner)
        except ValueError:
            continue
    raise AssertionError(f"endpoint {partner} not found")


def _smooth(circles, ci, pi, cj, pj):
    # New circles are trimmed on the spot; untouched circles stay kink free.
    if ci == cj:
        circle = circles[ci]
        inner = _trim_circle(circle[pi + 1 : pj])
        outer = _trim_circle(circle[pj + 1 :] + circle[:pi])
        return circles[:ci] + (inner, outer) + circles[ci + 1 :]
    merged = _trim_circle(
        circles[ci][pi + 1 :]
        + circles[ci][:pi]
        + circles[cj][pj + 1 :]
        + circles[cj][:pj]
    )
    return circles[:ci] + (merged,) + circles[ci + 1 : cj] + circles[cj + 1 :]


# Skein results are shared across calls.  The recursion tests arrow ids only
# for equality, and a resumed scan visits a state exactly as a fresh scan
# would, so a state's polynomial depends only on its structure: the key
# relabels arrow ids in order of first appearance and records each circle's
# length.  Up to 64 arrows every packed value fits one byte and the key is
# bytes; beyond that it is a tuple, which never equals a bytes key.  The
# memo lives as long as the process and is emptied whenever it holds
# _SKEIN_MEMO_LIMIT entries, so its size stays bounded.
_SKEIN_MEMO_LIMIT = 16384
_skein_memo: dict = {}


def _memo_key(circles):
    labels: dict[int, int] = {}
    out = []
    for circle in circles:
        out.append(len(circle))
        for entry in circle:
            out.append(labels.setdefault(entry >> 2, len(labels)) << 2 | entry & 3)
    return bytes(out) if len(labels) <= 64 else tuple(out)


def _skein(circles, start_circle, start_pos, seen):
    # Circles are kink free; the walk up to (start_circle, start_pos) is
    # known to meet every arrow tail first, with those arrows in `seen`.
    key = _memo_key(circles)
    cached = _skein_memo.get(key)
    if cached is not None:
        return cached
    branch = None
    for ci in range(start_circle, len(circles)):
        circle = circles[ci]
        for pi in range(start_pos if ci == start_circle else 0, len(circle)):
            entry = circle[pi]
            aid = entry >> 2
            if aid in seen:
                continue
            seen.add(aid)
            if entry & 2:
                branch = (ci, pi, entry)
                break
        if branch:
            break
    if branch is None:
        result = (1,) if len(circles) == 1 else ()
    else:
        ci, pi, entry = branch
        cj, pj = _other_end(circles, ci, pi, entry ^ 2)
        if ci == cj:
            flipped = _flip_entry(_flip_entry(circles[ci], pi), pj)
            switched = circles[:ci] + (flipped,) + circles[ci + 1 :]
        else:
            switched = (
                circles[:ci]
                + (_flip_entry(circles[ci], pi),)
                + circles[ci + 1 : cj]
                + (_flip_entry(circles[cj], pj),)
                + circles[cj + 1 :]
            )
        smoothed = _smooth(circles, ci, pi, cj, pj)
        # Switching cannot create a kink or disturb the scanned prefix, so
        # that branch resumes the scan in place; smoothing rebuilds circles
        # and starts over.
        with_switch = _skein(switched, ci, pi + 1, seen)
        with_smooth = (0,) + _skein(smoothed, 0, 0, set())
        result = (
            _poly_add(with_switch, with_smooth)
            if entry & 1
            else _poly_sub(with_switch, with_smooth)
        )
    if len(_skein_memo) >= _SKEIN_MEMO_LIMIT:
        _skein_memo.clear()
    _skein_memo[key] = result
    return result


def conway_skein(w: BraidWord, max_letters: int = 12) -> ConwayPolynomial:
    """Conway polynomial of the closure by skein resolution on its Gauss diagram.

    Walking all circles from the base point, the first arrow met at its head
    is either switched (which extends the walk's descending prefix) or
    smoothed (which drops one arrow), so the recursion terminates.  A diagram
    met tail first everywhere is a descending diagram of an unlink: its
    polynomial is 1 for one circle and 0 otherwise.  Works for links as well
    as knots.

    States are memoized in one table shared by every call in the process,
    keyed on the state with its arrows relabelled in order of first
    appearance.  The table holds at most 16384 states and is emptied when
    it is full.  A state's polynomial depends only on that key, so results
    do not depend on what is already cached.

    Raises:
        SkeinLimitError: when the word has more than `max_letters` letters.
    """
    if len(w.letters) > max_letters:
        raise SkeinLimitError(
            f"word has {len(w.letters)} letters, the configured bound is {max_letters}"
        )
    diagram = from_braid_closure(w)
    state = tuple(
        _trim_circle(
            tuple(
                idx << 2
                | (2 if is_head else 0)
                | (1 if diagram.arrows[idx].sign > 0 else 0)
                for idx, is_head in circle
            )
        )
        for circle in diagram.endpoints
    )
    return ConwayPolynomial(_skein(state, 0, 0, set()))


def c2_oracle(w: BraidWord) -> int:
    """Degree-2 Conway coefficient of the closure knot, via the Burau route."""
    return conway_of_closure(w).coefficient(2)


def arf_oracle(w: BraidWord) -> int:
    """Arf invariant of the closure knot, via the Burau route."""
    return c2_oracle(w) % 2


def determinant(w: BraidWord) -> int:
    """Knot determinant of the closure: |alexander(-1)|."""
    return abs(alexander_of_closure(w).evaluate(-1))
