"""Alexander and Conway polynomials of braid closures, exactly.

Two independent routes are implemented.  The primary one builds the reduced
Burau matrix of the word over Z[t, 1/t] one column update per letter, each
column one polynomial with its rows stacked (t = u^(k-1)) held as its value
at u = 2^W, takes det(M - I), strips the exact factor 1 + t + ... +
t^(k-1), and normalizes by a unit to the palindromic representative with
value 1 at t = 1.  On 3 strands det(M - I) is det M - tr M + 1 in closed
form, det M being the signed monomial (-1)^L t^e of a word of L letters and
exponent sum e; any other strand count takes it by fraction-free
elimination.  Repeated suffix sums of the Alexander coefficients, additions
alone, substitute z^2 = t - 2 + 1/t to give the Conway polynomial, and
differences run them backwards.  The secondary route multiplies the word
out in the Hecke algebra, where the Conway skein relation reads g - 1/g =
z, and takes the Conway trace of the product over the integers at z = 2^W,
decoded once; it never sees a matrix or a Gauss diagram.  Both routes use
exact integer arithmetic throughout.

A Laurent polynomial is dense: its lowest exponent and a list of integer
coefficients.  Sums, shifts and evaluation are single passes over those
lists.  A product packs each operand into one integer, its value at
u = 2^W for slots of W/8 bytes wide enough for every product coefficient,
multiplies the two once, and reads the coefficients back from the bytes of
the result (Kronecker substitution; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", 2009).  One codec
packs every such value in this module and reads it back: slots of 1, 2, 4
or 8 bytes go through one `array` conversion, wider slots through one bytes
slice per coefficient.

The Burau product runs over the integers the same way, one integer per
stacked column, with W set by an l1 bound on the columns.  The letters run
in segments, each ending before the letter whose bound would pass its cap;
the next segment doubles the cap, and the columns are decoded once and
packed again at the W that segment needs.

Word slots hold a polynomial whose coefficients stay below 2^63 in size as
its value at u = 2^64, one signed 64-bit digit per coefficient.  The Bareiss
determinant of a knot on 4 or more strands runs on a private ring of such
values, `_WordSlots`: each entry of B - I is packed once, and every product,
difference and exact quotient of the elimination is one integer operation
on the packed values, with a bound on the coefficients carried alongside.
A product's bound is max|a| max|b| times the fewer slots, a difference's
the sum of the two bounds.  A quotient N / D takes one `divmod`, and its
digits Q are read back; it is accepted when there is no remainder and
max|N| + max|Q| |D|_1 < 2^63, since R = N - Q D then has every coefficient
below 2^63 in size and R(2^64) = 0, which forces R = 0: Q is exact without
multiplying back.  An operation whose bound reaches 2^63, or whose
quotient is not accepted, decodes its operands and continues on
LaurentPolynomial, so entries that outgrow 64 bits leave the ring one by
one and the result is decoded once.  On 7 or 8 strands and 80 letters the
whole elimination stays in the ring.

LaurentPolynomial's exact quotient is long division, and a divisor +-t^e
is a shift.  The ladder 1 + t + ... + t^(k-1) is stripped from det(M - I)
by a recurrence of additions alone, read from (1 - t) N = (1 - t^k) Q.  A
Conway polynomial is a Laurent polynomial in z with the same storage and
arithmetic, kept apart from polynomials in t by its class.
"""

import operator
import sys
from array import array
from itertools import accumulate
from operator import add, sub

from .braids import BraidWord, closure_components
from .sequences import determinant_fraction_free

__all__ = [
    "ConwayPolynomial",
    "LaurentPolynomial",
    "SkeinLimitError",
    "alexander_of_closure",
    "arf_oracle",
    "c2_oracle",
    "conway_from_alexander",
    "conway_of_closure",
    "conway_skein",
    "determinant",
    "reduced_burau",
]

# reduced_burau's first segment of letters keeps the columns' l1 bound
# within this many bits, and each later segment doubles the cap and re-packs
# the columns at the wider slots it needs: every slot of a segment is as wide
# as its largest bound, so a short word never pays for a long one's slots.
# Measured on the same machine against Laurent columns throughout, family^n
# ran 2.0x as fast at n = 350 with this cap; against Laurent columns past
# it, re-packing ran family^600 in about 0.8x the time and family^369-400
# and family^1000 within the run-to-run spread.
_PACKED_MAX_BITS = 512


def _format_terms(terms, var: str) -> str:
    parts = []
    for exp, c in terms:
        if exp == 0:
            body = str(abs(c))
        else:
            symbol = var if exp == 1 else f"{var}^{exp}"
            body = symbol if abs(c) == 1 else f"{abs(c)}*{symbol}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) or "0"


def _laurent(cls, low: int, coeffs: list) -> "LaurentPolynomial":
    # A `cls` instance that takes ownership of `coeffs`, which has no zero at
    # either end; the zero polynomial is (0, []).  No instance ever mutates
    # its list, so shifted copies may share one.
    p = object.__new__(cls)
    p._low = low
    p._coeffs = coeffs
    return p


def _trimmed(cls, low: int, coeffs: list) -> "LaurentPolynomial":
    # `coeffs` starts at exponent `low` and may have zeros at either end.
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    start = 0
    while start < end and not coeffs[start]:
        start += 1
    if start or end < len(coeffs):
        coeffs = coeffs[start:end]
    return _laurent(cls, low + start if coeffs else 0, coeffs)


def _combine(a: "LaurentPolynomial", b: "LaurentPolynomial", op) -> "LaurentPolynomial":
    # a + b or a - b, one aligned pass over both coefficient lists.
    low = min(a._low, b._low)
    out = [0] * (max(a._low + len(a._coeffs), b._low + len(b._coeffs)) - low)
    i = a._low - low
    out[i : i + len(a._coeffs)] = a._coeffs
    i = b._low - low
    out[i : i + len(b._coeffs)] = map(op, out[i : i + len(b._coeffs)], b._coeffs)
    return _trimmed(a.__class__, low, out)


# `array` items are in the machine's byte order, slots little-endian.
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(coeffs: list, width: int) -> int:
    # sum(c_i * 2^(8 width i)) for coefficients in [-half, half), half being
    # 2^(8 width - 1).  The slots are the two's-complement bytes of the c_i,
    # from one `array` conversion at 1, 2, 4 or 8 bytes; flipping each top
    # bit adds half to each slot, which one subtraction takes off again.
    if width in (1, 2, 4, 8):
        slots = array("bhiq"[width.bit_length() - 1], coeffs)
        if _BIG_ENDIAN:
            slots.byteswap()
        data = slots.tobytes()
    else:
        data = b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs])
    bias = int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * len(coeffs), "little")
    return (int.from_bytes(data, "little") ^ bias) - bias


def _unbytes(value: int, width: int, size: int) -> list:
    # The `size` signed digits of `value` in slots of `width` bytes, each in
    # [-half, half), lowest first; OverflowError when `value` has no such
    # digits.  Adding half to every digit makes every slot nonnegative, and
    # flipping each top bit again leaves the digits' two's-complement bytes.
    bias = int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * size, "little")
    data = ((value + bias) ^ bias).to_bytes(size * width, "little")
    if width in (1, 2, 4, 8):
        slots = array("bhiq"[width.bit_length() - 1], data)
        if _BIG_ENDIAN:
            slots.byteswap()
        return slots.tolist()
    return [
        int.from_bytes(data[i : i + width], "little", signed=True)
        for i in range(0, size * width, width)
    ]


def _product(a: list, b: list) -> list:
    # Coefficient list of the product of two nonzero coefficient lists.  A
    # product coefficient is a sum of at most min(len) products, so its
    # absolute value is at most `bound`, and a slot of `width` bytes holds
    # that, and every operand coefficient, with a sign bit to spare.
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    return _unbytes(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1)


class LaurentPolynomial:
    """Immutable integer Laurent polynomial in one variable t.

    Stored densely: the lowest exponent and the list of coefficients from
    there to the highest exponent, with no zero at either end (an empty list
    for 0).  Memory and time therefore grow with the exponent range, not the
    number of nonzero terms.  Every product runs on byte slots.  Exponents
    and coefficients must be integers: anything else raises TypeError.
    """

    __slots__ = ("_low", "_coeffs")

    def __init__(self, coeffs=None):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs or ()
        merged: dict[int, int] = {}
        for exp, coeff in items:
            exp = operator.index(exp)
            merged[exp] = merged.get(exp, 0) + operator.index(coeff)
        nonzero = {exp: coeff for exp, coeff in merged.items() if coeff}
        low = min(nonzero, default=0)
        dense = [0] * (max(nonzero, default=low - 1) - low + 1)
        for exp, coeff in nonzero.items():
            dense[exp - low] = coeff
        self._low = low
        self._coeffs = dense

    def coefficient(self, exponent: int) -> int:
        index = exponent - self._low
        if 0 <= index < len(self._coeffs):
            return self._coeffs[index]
        return 0

    def terms(self) -> tuple[tuple[int, int], ...]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return tuple((exp, c) for exp, c in enumerate(self._coeffs, self._low) if c)

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponent range")
        return self._low

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no exponent range")
        return self._low + len(self._coeffs) - 1

    def _coerce(self, other):
        # Operands mix only with their own class; plain Laurent polynomials
        # also take ints.
        if other.__class__ is self.__class__:
            return other
        if isinstance(other, int) and self.__class__ is LaurentPolynomial:
            return _laurent(LaurentPolynomial, 0, [other] if other else [])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        return _combine(self, other, add)

    __radd__ = __add__

    def __neg__(self):
        return _laurent(self.__class__, self._low, [-c for c in self._coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return -other
        return _combine(self, other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return _laurent(self.__class__, 0, [])
        return _trimmed(
            self.__class__, self._low + other._low, _product(self._coeffs, other._coeffs)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError(f"power must be nonnegative, got {n}")
        result = _laurent(self.__class__, 0, [1])
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._low == other._low and self._coeffs == other._coeffs

    def __hash__(self):
        # A plain constant equals the int it holds, so it hashes as that int.
        if self.__class__ is LaurentPolynomial and self._low == 0 and len(self._coeffs) < 2:
            return hash(self._coeffs[0] if self._coeffs else 0)
        return hash(self.terms())

    def __bool__(self):
        return bool(self._coeffs)

    def shifted(self, offset: int) -> "LaurentPolynomial":
        """Multiply by t^offset."""
        if not self._coeffs:
            return self
        return _laurent(self.__class__, self._low + offset, self._coeffs)

    def mirror(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        if not self._coeffs:
            return self
        return _laurent(self.__class__, -self.max_exp, self._coeffs[::-1])

    def is_palindromic(self) -> bool:
        coeffs = self._coeffs
        return not coeffs or (self._low == -self.max_exp and coeffs == coeffs[::-1])

    def evaluate(self, value: int) -> int:
        """Exact value at an integer t; raises when it is not an integer."""
        low = self._low
        if low < 0 and value == 0:
            raise ZeroDivisionError("negative powers of t have a pole at t=0")
        # Horner on t^-low times the polynomial, then scale back exactly.
        total = 0
        for c in reversed(self._coeffs):
            total = total * value + c
        if low >= 0:
            return total * value**low
        total, rest = divmod(total, value**-low)
        if rest:
            raise ValueError(f"value at t={value} is not an integer")
        return total

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient; raises ValueError when a remainder is left.

        The divisor must be of this polynomial's class, as for `//`.
        """
        if divisor.__class__ is not self.__class__:
            raise TypeError(
                "unsupported operand type(s) for exact_div:"
                f" {type(self).__name__!r} and {type(divisor).__name__!r}"
            )
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        div = divisor._coeffs
        width = len(div)
        size = len(self._coeffs) - width + 1
        if size < 1:
            raise ValueError("not exactly divisible: quotient would be shorter than 1")
        low = self._low - divisor._low
        if width == 1 and abs(div[0]) == 1:
            # Division by +-t^e is a shift.
            coeffs = self._coeffs if div[0] == 1 else [-c for c in self._coeffs]
            return _laurent(self.__class__, low, coeffs)
        num = self._coeffs[:]
        quotient = [0] * size
        lead = div[-1]
        for pos in range(len(quotient) - 1, -1, -1):
            q, r = divmod(num[pos + width - 1], lead)
            if r:
                raise ValueError("not exactly divisible")
            if q:
                quotient[pos] = q
                window = num[pos : pos + width]
                num[pos : pos + width] = [n - q * d for n, d in zip(window, div)]
        if any(num):
            raise ValueError("not exactly divisible")
        return _trimmed(self.__class__, low, quotient)

    def __floordiv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.exact_div(other)

    def __str__(self):
        return _format_terms(self.terms(), "t")

    def __repr__(self):
        return f"LaurentPolynomial({dict(self.terms())!r})"


class ConwayPolynomial(LaurentPolynomial):
    """Immutable integer polynomial in z: a LaurentPolynomial in z with no negative powers.

    Built from coefficients indexed by the power of z.  All arithmetic is
    LaurentPolynomial's, on the same dense storage, and its results are
    Conway polynomials again; a shift, mirror image or quotient that would
    reach a negative power of z raises ValueError instead.  A Conway
    polynomial never mixes with a LaurentPolynomial or an int: `==` is False
    and `+` a TypeError.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(enumerate(coeffs))

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Coefficients from z^0 up to the degree; () for the zero polynomial."""
        return (0,) * self._low + tuple(self._coeffs)

    def degree(self) -> int:
        """Degree in z, or -1 for the zero polynomial."""
        return self._low + len(self._coeffs) - 1

    def shifted(self, offset: int) -> "ConwayPolynomial":
        return _in_z(super().shifted(offset))

    def mirror(self) -> "ConwayPolynomial":
        return _in_z(super().mirror())

    def exact_div(self, divisor: "ConwayPolynomial") -> "ConwayPolynomial":
        return _in_z(super().exact_div(divisor))

    def to_alexander(self) -> LaurentPolynomial:
        """Substitute z^2 = t - 2 + 1/t; defined when odd powers are absent."""
        coeffs = self.coefficients
        if any(coeffs[1::2]):
            raise ValueError("odd powers of z have no Laurent image under z^2 = t - 2 + 1/t")
        # conway_from_alexander's suffix sums run backwards with differences,
        # (S^-1 x)_j = x_j - x_(j+1), on a list x highest index first.  Going
        # down from i = d, x holds S^(2i+2) a on indices >= i + 1; one
        # difference makes it S^(2i+1) a, T_i = c_i - T_(i+1) extends it to
        # index i, and one more difference leaves S^(2i) a on indices >= i.
        # At i = 0 that is a, and Delta = a_0 + sum_j a_j (t^j + t^-j).
        x: list[int] = []
        for c in reversed(coeffs[::2]):
            x = list(map(sub, x, [0] + x))
            x.append(c - sum(x[-1:]))
            x = list(map(sub, x, [0] + x))
        return _trimmed(LaurentPolynomial, 1 - len(x), x + x[-2::-1])

    def __str__(self):
        return _format_terms(self.terms(), "z")

    def __repr__(self):
        return f"ConwayPolynomial({self.coefficients!r})"


def _in_z(p: ConwayPolynomial) -> ConwayPolynomial:
    if p._low < 0:
        raise ValueError("a Conway polynomial has no negative powers of z")
    return p


def _aligned(a: int, a_low: int, b: int, b_low: int, op, shift: int):
    # op(a, b) on values at u = 2^shift whose lowest exponents are a_low and
    # b_low: the operand with the higher one is moved up to the other's.
    if a_low > b_low:
        return op(a << shift * (a_low - b_low), b), b_low
    return op(a, b << shift * (b_low - a_low)), a_low


def reduced_burau(w: BraidWord):
    """Product of reduced Burau generator matrices over the word.

    Each column of the running product is one polynomial in u = t^(1/h),
    h = k - 1 being the matrix size, with its rows stacked: the t^e term of
    row r sits at u^(r + h e), so column j of the identity is u^j.  Right
    multiplication by the generator of letter +-i changes only column i-1,
    to a signed sum of it and its neighbours, shifted by t^(+-1) = u^(+-h).

    A column c is held as one integer, the value of c / u^low at u = 2^W,
    low being a lower bound on its lowest exponent: a letter is then an
    alignment shift and one subtraction, plus one addition where both
    neighbours exist, and t^(+-1) only moves low.  Evaluation at 2^W is a
    ring map, so only the coefficients read back need to fit.

    The letters run in segments.  A pass over a segment's letters first
    bounds the l1 norm of every column: a new column is a signed sum of at
    most three, so its norm is at most the sum of theirs, from 1 for the
    identity.  With W = 8 ceil((b + 1) / 8) for a bound of b bits every
    coefficient is a signed W-bit digit.  The first segment's bound stays
    within _PACKED_MAX_BITS bits, and a segment ends before the letter
    whose bound would pass its cap, so a short word never pays for the
    slots of a long one.  The next segment doubles the cap: its columns
    are decoded by their bytes and packed again at its own W.  A letter
    at most triples a norm, adding under 2 bits to the bound, so every
    segment after the first runs at least one letter.

    The rows are read back out of every column's bytes at the end.
    Returns an h x h grid of LaurentPolynomial in t as a tuple of tuples.
    """
    if w.strands < 2:
        raise ValueError("the reduced Burau representation needs at least 2 strands")
    size = w.strands - 1
    letters = w.letters
    norms = [1] * size
    values = [1] * size
    lows = list(range(size))
    cap, start = _PACKED_MAX_BITS, 0
    while True:
        stop = start
        for letter in letters[start:]:
            j = abs(letter) - 1
            norm = norms[j] + (norms[j - 1] if j else 0) + (norms[j + 1] if j + 1 < size else 0)
            if norm.bit_length() > cap:
                break
            norms[j] = norm
            stop += 1
        width = (max(norms).bit_length() + 8) // 8
        shift = 8 * width
        if start:
            values = [_pack(coeffs, width) for coeffs in columns]
            # glibc maps each block past its mmap threshold afresh, faulting
            # its pages in, and raises the threshold only to the largest
            # block freed (mallopt(3)); columns that outgrow every earlier
            # block at each letter would be mapped anew at each letter, in
            # 1.5x the time on family^1000.  A segment at most doubles the
            # bound's bits and, on the family, a column's length, so freeing
            # one block of 8 bytes per byte of the widest column lifts the
            # threshold past the segment.  calloc maps it without touching it.
            bytes(max(map(int.bit_length, values)))
        for letter in letters[start:stop]:
            j = abs(letter) - 1
            # s_i:    (col(i-2) - col(i-1)) t + col(i)
            # s_i^-1: (col(i) - col(i-1)) t^-1 + col(i-2)
            # A missing neighbour column is zero.
            if letter > 0:
                near, far, step = j - 1, j + 1, size
            else:
                near, far, step = j + 1, j - 1, -size
            value, low = values[j], lows[j]
            if 0 <= near < size:
                value, low = _aligned(values[near], lows[near], value, low, sub, shift)
                low += step
                if 0 <= far < size:
                    value, low = _aligned(value, low, values[far], lows[far], add, shift)
            elif 0 <= far < size:
                value, low = _aligned(values[far], lows[far], value, low + step, sub, shift)
            else:
                value, low = -value, low + step
            values[j], lows[j] = value, low
        columns = [_unbytes(value, width, value.bit_length() // shift + 1) for value in values]
        if stop == len(letters):
            break
        start, cap = stop, 2 * cap
    zero = _laurent(LaurentPolynomial, 0, [])
    grid = [[zero] * size for _ in range(size)]
    for j, (coeffs, low) in enumerate(zip(columns, lows)):
        for r in range(size):
            # Row r's first term, at u^(low + first) = u^(r + size * e).
            first = (r - low) % size
            grid[r][j] = _trimmed(LaurentPolynomial, (low + first) // size, coeffs[first::size])
    return tuple(map(tuple, grid))


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


_SLOT_LIMIT = 1 << 63


class _WordSlots:
    # A Laurent polynomial held as its value at u = 2^64: `value` is
    # sum(c_i 2^(64 i)) over the coefficients c_i of t^(low + i), i < slots,
    # and every |c_i| is at most `top` < 2^63, so the c_i are the signed
    # 64-bit digits of `value`.  Products, differences and exact quotients
    # are one integer operation each; the digits are read only to prove a
    # quotient.  An operation whose bound reaches 2^63, or whose quotient is
    # not proven, decodes its operands and returns a LaurentPolynomial,
    # whose exact division then raises for a non-multiple.  A divisor with
    # a zero lowest slot can leave a remainder at u = 2^64 although the
    # polynomials divide, so quotients drop their zero low slots: Bareiss's
    # pivots are quotients or entries of the input, and stay in the ring.
    # `slots` may overcount a difference's top slots; the bounds still hold.

    __slots__ = ("low", "value", "slots", "top", "_poly", "_norm")

    def __init__(self, low, value, slots, top):
        self.low = low
        self.value = value
        self.slots = slots
        self.top = top
        self._poly = None
        self._norm = None

    def polynomial(self) -> LaurentPolynomial:
        if self._poly is None:
            self._poly = _trimmed(LaurentPolynomial, self.low, _unbytes(self.value, 8, self.slots))
        return self._poly

    def norm(self) -> int:
        # sum |c_i|, the most a quotient digit can be multiplied into any
        # coefficient of Q * self.
        if self._norm is None:
            self._norm = sum(map(abs, self.polynomial()._coeffs))
        return self._norm

    def _operand(self, other):
        # `other` in word slots, or None when it has to be decoded.
        if other.__class__ is _WordSlots:
            return other
        if other.__class__ is int and -_SLOT_LIMIT < other < _SLOT_LIMIT:
            constant = _WordSlots(0, other, 1, abs(other))
            constant._norm = constant.top
            return constant
        return None

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        return self.polynomial() == _plain(other)

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return self.polynomial() * other
        if not (self.value and b.value):
            return _WordSlots(0, 0, 0, 0)
        # A product coefficient sums at most min(slots) products of digits.
        top = self.top * b.top * min(self.slots, b.slots)
        if top >= _SLOT_LIMIT:
            return self.polynomial() * b.polynomial()
        return _WordSlots(self.low + b.low, self.value * b.value, self.slots + b.slots - 1, top)

    __rmul__ = __mul__

    def __sub__(self, other):
        b = self._operand(other)
        return self.polynomial() - other if b is None else _difference(self, b)

    def __rsub__(self, other):
        a = self._operand(other)
        return other - self.polynomial() if a is None else _difference(a, self)

    def __floordiv__(self, other):
        d = self._operand(other)
        if d is not None and d.value:
            if not self.value:
                return self
            quotient, rest = divmod(self.value, d.value)
            try:
                # D may count top slots that cancelled, and so more than N.
                digits = [] if rest else _unbytes(quotient, 8, max(self.slots - d.slots + 1, 0))
            except OverflowError:
                digits = []
            if digits:
                top = max(max(digits), -min(digits))
                # R = N - Q D then has every coefficient below 2^63 in size
                # and R(2^64) = 0, which forces R = 0.
                if self.top + top * d.norm() < _SLOT_LIMIT:
                    start = 0
                    while not digits[start]:
                        start += 1
                    end = len(digits)
                    while not digits[end - 1]:
                        end -= 1
                    return _WordSlots(
                        self.low - d.low + start, quotient >> 64 * start, end - start, top
                    )
        return self.polynomial() // _plain(other)

    def __rfloordiv__(self, other):
        n = self._operand(other)
        return other // self.polynomial() if n is None else n // self


def _difference(a: _WordSlots, b: _WordSlots):
    # a - b, the operand with the higher lowest exponent moved to the other's.
    if not b.value:
        return a
    if not a.value:
        return _WordSlots(b.low, -b.value, b.slots, b.top)
    top = a.top + b.top
    if top >= _SLOT_LIMIT:
        return a.polynomial() - b.polynomial()
    value, low = _aligned(a.value, a.low, b.value, b.low, sub, 64)
    return _WordSlots(low, value, max(a.low + a.slots, b.low + b.slots) - low, top)


def _in_slots(p: LaurentPolynomial):
    # p in word slots when its coefficients fit below 2^63, else p itself.
    coeffs = p._coeffs
    if not coeffs:
        return _WordSlots(0, 0, 0, 0)
    top = max(max(coeffs), -min(coeffs))
    if top >= _SLOT_LIMIT:
        return p
    return _WordSlots(p._low, _pack(coeffs, 8), len(coeffs), top)


def _plain(x):
    # A LaurentPolynomial (or int) for x, decoding word slots.
    return x.polynomial() if x.__class__ is _WordSlots else x


def _det_minus_identity(w: BraidWord, m) -> LaurentPolynomial:
    # det(M - I) for the reduced Burau matrix M of w.  On 3 strands this is
    # det M - (M00 + M11) + 1 with det M = (-1)^L t^e for L letters of
    # exponent sum e, since each generator matrix has determinant -t and
    # each inverse -1/t.  On 2 strands it is the one entry.  On 4 or more
    # the entries go into word slots and the Bareiss determinant runs on
    # them, falling back to LaurentPolynomial entry by entry where the
    # coefficients outgrow 2^63; the result is decoded once.
    if w.strands == 3:
        letters = w.letters
        exponent_sum = 2 * sum(letter > 0 for letter in letters) - len(letters)
        det_m = _laurent(LaurentPolynomial, exponent_sum, [-1 if len(letters) % 2 else 1])
        return det_m - (m[0][0] + m[1][1]) + 1
    if w.strands == 2:
        return m[0][0] - 1
    rows = [[entry - 1 if i == j else entry for j, entry in enumerate(row)]
            for i, row in enumerate(m)]
    return _plain(determinant_fraction_free([list(map(_in_slots, row)) for row in rows]))


def _divide_by_ladder(p: LaurentPolynomial, k: int) -> LaurentPolynomial:
    # p / (1 + t + ... + t^(k-1)) from (1 - t) p = (1 - t^k) q: with m the
    # coefficients of (1 - t) p, q_i = m_i + q_(i-k), a running sum along
    # each residue class mod k, and the top k entries of m must cancel
    # q's top k.  Zero comes back as zero, for _normalize_alexander to refuse.
    coeffs = p._coeffs
    m = list(map(sub, coeffs + [0], [0] + coeffs))
    # A nonzero p shorter than the ladder leaves no q, and its m no zero tail.
    size = max(len(coeffs) - k + 1, 0)
    q = m[:size]
    for r in range(k):
        q[r::k] = accumulate(q[r::k])
    # m_i + q_(i-k) for i >= size, with q_j = 0 for j < 0.
    if any(map(add, m[size:], ([0] * k + q)[size:])):
        raise RuntimeError("det(burau - identity) is not divisible by 1 + t + ... + t^(k-1)")
    return _laurent(LaurentPolynomial, p._low, q)


def alexander_of_closure(w: BraidWord) -> LaurentPolynomial:
    """Alexander polynomial of the closure knot, palindromic with value 1 at t=1.

    det(B - I) of the reduced Burau matrix B is taken in closed form on 3
    strands and by fraction-free elimination on any other count; it is then
    divided exactly by 1 + t + ... + t^(k-1), by running sums of the
    coefficients of (1 - t) det(B - I) that take no multiplication, and
    normalized by a unit.
    """
    components = closure_components(w)
    if components != 1:
        raise ValueError(f"closure has {components} components, not a knot")
    if w.strands == 1:
        return LaurentPolynomial({0: 1})
    det = _det_minus_identity(w, reduced_burau(w))
    return _normalize_alexander(_divide_by_ladder(det, w.strands))


def conway_from_alexander(alexander: LaurentPolynomial) -> ConwayPolynomial:
    """Conway polynomial obtained by substituting z^2 = t - 2 + 1/t out of `alexander`.

    The input must be palindromic with value 1 at t=1, as produced by
    alexander_of_closure; only even powers of z appear in the result.  For
    degree d it takes repeated suffix sums of the coefficients: about d^2
    integer additions and no multiplication.
    """
    if not alexander.is_palindromic():
        raise ValueError("input must be palindromic in t and 1/t")
    if alexander.evaluate(1) != 1:
        raise ValueError("input must take value 1 at t=1")
    # Delta = a_0 + sum_j a_j (t^j + t^-j), whose z^(2i) coefficient is c_i =
    # sum_j a_j (C(j+i, 2i) + C(j+i-1, 2i)).  With S the suffix sum, (S x)_j =
    # sum_(k >= j) x_k, that is T_i + T_(i+1) for T = S^(2i+1) a.  S on
    # indices >= i reads only indices >= i, so one list x, highest index
    # first, serves every i: read c_i off its two lowest indices, drop the
    # lowest, and take two more suffix sums, each one running sum in C.
    x = list(accumulate(reversed(alexander._coeffs[len(alexander._coeffs) // 2 :])))
    coeffs = []
    while x:
        coeffs += (sum(x[-2:]), 0)
        x.pop()
        x = list(accumulate(accumulate(x)))
    return _trimmed(ConwayPolynomial, 0, coeffs)


def conway_of_closure(w: BraidWord) -> ConwayPolynomial:
    """Conway polynomial of the closure knot via the Burau route."""
    return conway_from_alexander(alexander_of_closure(w))


class SkeinLimitError(RuntimeError):
    """Word too long, or on too many strands, for the skein route's bounds."""


# The skein route keeps one coefficient per permutation, up to k! of them.
MAX_SKEIN_STRANDS = 8


def _times_generator(element, i, positive, shift):
    # Right multiplication by g_(i+1), or by its inverse, swaps positions i
    # and i+1 (0-based) of each permutation.  By g - 1/g = z, T_w g gains
    # z T_w when that swap puts the smaller value first, and T_w / g gains
    # -z T_w when it puts the larger value first; z is 2^shift.
    out: dict = {}
    for perm, coeff in element.items():
        swapped = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :]
        out[swapped] = out.get(swapped, 0) + coeff
        if (perm[i] > perm[i + 1]) == positive:
            out[perm] = out.get(perm, 0) + ((coeff if positive else -coeff) << shift)
    return out


def _trace(element, memo, shift):
    # Conway trace at z = 2^shift, memoized per permutation.  With the
    # largest value k-1 at position p (0-based), T_w = T_u g_(k-1) g_(k-2)
    # ... g_(p+1), where u is w without that value; moving g_(k-2) ...
    # g_(p+1) to the front and removing g_(k-1) by a Markov move leaves T_u
    # g_(k-2) ... g_(p+1) on k-1 strands.  With the largest value last, the
    # last strand closes to an unknot split from the rest.
    total = 0
    for perm, coeff in element.items():
        value = memo.get(perm)
        if value is None:
            k = len(perm)
            p = perm.index(k - 1)
            if p == k - 1:
                value = int(k == 1)
            else:
                reduced = {perm[:p] + perm[p + 1 :]: 1}
                for i in range(k - 3, p - 1, -1):
                    reduced = _times_generator(reduced, i, True, shift)
                value = _trace(reduced, memo, shift)
            memo[perm] = value
        total += coeff * value
    return total


def conway_skein(w: BraidWord, max_letters: int = 12) -> ConwayPolynomial:
    """Conway polynomial of the closure by the skein relation in the Hecke algebra.

    Letter +-i maps to g_i or 1/g_i in the Hecke algebra over Z[z] with the
    Conway skein relation g_i - 1/g_i = z, whose basis elements T_w are
    indexed by permutations w of the strands in one-line notation.  The
    word is multiplied out letter by letter, and the Conway trace of the
    product is the polynomial of the closure: 1 on T_id of one strand, 0
    when a strand closes to a split unknot, and otherwise reduced to one
    strand fewer by a Markov move.  It all runs over the integers at z =
    2^W, decoded once from the signed W-bit digits of the trace, W set by
    the word's length and strand count.  The trace is memoized per
    permutation for the duration of the call.  Works for links as well as
    knots, and reads neither the Gauss diagram nor the Burau matrix.

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
    # Evaluation at z = 2^shift is a ring map.  A letter sends a coefficient c
    # to c and +-z c, at most doubling the sum of absolute coefficients in z,
    # and the trace of a basis element on k strands (at most k - 2 letters
    # traced on k - 1 strands) sums to at most 2^((k-1)(k-2)/2).  So with L
    # letters each coefficient of the result is at most 2^(L + (k-1)(k-2)/2),
    # below half a slot; a top digit at 2^(shift d) puts |value| >= 2^(shift d - 1).
    width = (len(w.letters) + (w.strands - 1) * (w.strands - 2) // 2 + 9) // 8
    shift = 8 * width
    element = {tuple(range(w.strands)): 1}
    for letter in w.letters:
        element = _times_generator(element, abs(letter) - 1, letter > 0, shift)
    value = _trace(element, {}, shift)
    return _trimmed(ConwayPolynomial, 0, _unbytes(value, width, value.bit_length() // shift + 1))


def c2_oracle(w: BraidWord) -> int:
    """Degree-2 Conway coefficient of the closure knot, via the Burau route."""
    return conway_of_closure(w).coefficient(2)


def arf_oracle(w: BraidWord) -> int:
    """Arf invariant of the closure knot, via the Burau route."""
    return c2_oracle(w) % 2


def determinant(w: BraidWord) -> int:
    """Knot determinant of the closure: |alexander(-1)|."""
    return abs(alexander_of_closure(w).evaluate(-1))
