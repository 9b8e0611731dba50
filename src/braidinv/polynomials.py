"""Alexander and Conway polynomials of braid closures, exactly.

Two independent routes are implemented.  The primary one builds the reduced
Burau matrix of the word over Z[t, 1/t] one column update per letter, takes
det(M - I) by fraction-free elimination, strips the exact factor
1 + t + ... + t^(k-1), and normalizes by a unit to the palindromic
representative with value 1 at t = 1; substituting z^2 = t - 2 + 1/t out of
that gives the Conway polynomial.  The secondary route multiplies the word
out in the Hecke algebra over Z[z], where the Conway skein relation reads
g - 1/g = z, and takes the Conway trace of the product; it never sees a
matrix or a Gauss diagram.  Both routes use exact integer arithmetic
throughout.
"""

from .braids import BraidWord, closure_components
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
        longer, shorter = self._coeffs, other._coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        total = list(longer)
        for i, c in enumerate(shorter):
            total[i] += c
        return ConwayPolynomial(total)

    def __sub__(self, other):
        if not isinstance(other, ConwayPolynomial):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return ConwayPolynomial(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if not isinstance(other, ConwayPolynomial):
            return NotImplemented
        product = [0] * max(len(self._coeffs) + len(other._coeffs) - 1, 0)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                product[i + j] += a * b
        return ConwayPolynomial(product)

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
    """Word too long, or on too many strands, for the skein route's bounds."""


# The skein route keeps one coefficient per permutation, up to k! of them.
MAX_SKEIN_STRANDS = 8

_ONE = ConwayPolynomial((1,))


def _accumulate(element, perm, coeff):
    total = element.get(perm)
    if total is not None:
        coeff = total + coeff
    if coeff:
        element[perm] = coeff
    else:
        element.pop(perm, None)


def _times_generator(element, i, positive):
    # Right multiplication by g_(i+1), or by its inverse, swaps positions i
    # and i+1 (0-based) of each permutation.  By g - 1/g = z, T_w g gains
    # z T_w when that swap puts the smaller value first, and T_w / g gains
    # -z T_w when it puts the larger value first.
    out: dict = {}
    for perm, coeff in element.items():
        _accumulate(out, perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :], coeff)
        if (perm[i] > perm[i + 1]) == positive:
            extra = coeff.times_z()
            _accumulate(out, perm, extra if positive else -extra)
    return out


def _trace(element, memo):
    # Conway trace, memoized per permutation.  With the largest value k-1 at
    # position p (0-based), T_w = T_u g_(k-1) g_(k-2) ... g_(p+1), where u is
    # w without that value; moving g_(k-2) ... g_(p+1) to the front and
    # removing g_(k-1) by a Markov move leaves T_u g_(k-2) ... g_(p+1) on
    # k-1 strands.  With the largest value last, the last strand closes to
    # an unknot split from the rest.
    total = ConwayPolynomial()
    for perm, coeff in element.items():
        value = memo.get(perm)
        if value is None:
            k = len(perm)
            p = perm.index(k - 1)
            if k == 1:
                value = _ONE
            elif p == k - 1:
                value = ConwayPolynomial()
            else:
                reduced = {perm[:p] + perm[p + 1 :]: _ONE}
                for i in range(k - 3, p - 1, -1):
                    reduced = _times_generator(reduced, i, True)
                value = _trace(reduced, memo)
            memo[perm] = value
        if value:
            total = total + coeff * value
    return total


def conway_skein(w: BraidWord, max_letters: int = 12) -> ConwayPolynomial:
    """Conway polynomial of the closure by the skein relation in the Hecke algebra.

    Letter +-i maps to g_i or 1/g_i in the Hecke algebra over Z[z] with the
    Conway skein relation g_i - 1/g_i = z, whose basis elements T_w are
    indexed by permutations w of the strands in one-line notation.  The
    word is multiplied out letter by letter, and the Conway trace of the
    product is the polynomial of the closure: 1 on T_id of one strand, 0
    when a strand closes to a split unknot, and otherwise reduced to one
    strand fewer by a Markov move.  The trace is memoized per permutation
    for the duration of the call.  Works for links as well as knots, and
    reads neither the Gauss diagram nor the Burau matrix.

    Raises:
        SkeinLimitError: when the word has more than `max_letters` letters or
            more than MAX_SKEIN_STRANDS strands, before any work is done.
    """
    if len(w.letters) > max_letters:
        raise SkeinLimitError(
            f"word has {len(w.letters)} letters, the configured bound is {max_letters}"
        )
    if w.strands > MAX_SKEIN_STRANDS:
        raise SkeinLimitError(
            f"word has {w.strands} strands, the skein route allows at most"
            f" {MAX_SKEIN_STRANDS}"
        )
    element = {tuple(range(w.strands)): _ONE}
    for letter in w.letters:
        element = _times_generator(element, abs(letter) - 1, letter > 0)
    return _trace(element, {})


def c2_oracle(w: BraidWord) -> int:
    """Degree-2 Conway coefficient of the closure knot, via the Burau route."""
    return conway_of_closure(w).coefficient(2)


def arf_oracle(w: BraidWord) -> int:
    """Arf invariant of the closure knot, via the Burau route."""
    return c2_oracle(w) % 2


def determinant(w: BraidWord) -> int:
    """Knot determinant of the closure: |alexander(-1)|."""
    return abs(alexander_of_closure(w).evaluate(-1))
