"""Exact scalar arithmetic in Q(w), w a primitive cube root of unity.

A scalar is stored as (p + q*w)/d with integer p, q and positive integer d,
gcd(p, q, d) = 1.  Multiplication reduces by w**2 = -1 - w.  Keeping a single
shared denominator (instead of two stock Fractions) roughly halves the cost
of the hot linear-algebra loops.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class DivisionByZero(ZeroDivisionError):
    pass


class Scalar:
    """Element of Q(w): (p + q*w)/d in lowest terms, d > 0.

    Scalars are immutable values: p, q and d are set once, in __init__, and
    every operation returns a new Scalar.  So one object may be shared by any
    number of tables and vectors, and equality is by value, never identity.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int = 0, q: int = 0, d: int = 1):
        if d == 0:
            raise DivisionByZero("zero denominator")
        if d < 0:
            p, q, d = -p, -q, -d
        g = gcd(gcd(p, q), d)
        if g > 1:
            p //= g
            q //= g
            d //= g
        self.p = p
        self.q = q
        self.d = d

    # ---- constructors -------------------------------------------------

    @staticmethod
    def from_fractions(a: Fraction, b: Fraction = Fraction(0)) -> "Scalar":
        d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        return Scalar(a.numerator * (d // a.denominator),
                      b.numerator * (d // b.denominator), d)

    # ---- views ---------------------------------------------------------

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """Coefficient of w."""
        return Fraction(self.q, self.d)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return Scalar(self.p + other.p, self.q + other.q, d1)
        return Scalar(self.p * d2 + other.p * d1, self.q * d2 + other.q * d1, d1 * d2)

    def __sub__(self, other: "Scalar") -> "Scalar":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return Scalar(self.p - other.p, self.q - other.q, d1)
        return Scalar(self.p * d2 - other.p * d1, self.q * d2 - other.q * d1, d1 * d2)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.p, -self.q, self.d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        p1, q1 = self.p, self.q
        p2, q2 = other.p, other.q
        if q1 == 0 and q2 == 0:
            return Scalar(p1 * p2, 0, self.d * other.d)
        # (p1 + q1 w)(p2 + q2 w), w^2 = -1 - w
        t = q1 * q2
        return Scalar(p1 * p2 - t, p1 * q2 + q1 * p2 - t, self.d * other.d)

    def inv(self) -> "Scalar":
        n = self.p * self.p - self.p * self.q + self.q * self.q
        if n == 0:
            raise DivisionByZero("inverse of zero")
        return Scalar(self.d * (self.p - self.q), -self.d * self.q, n)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __repr__(self):
        return "Scalar(%r)" % (format_scalar(self),)

    def __str__(self):
        return format_scalar(self)


ZERO = Scalar(0)
ONE = Scalar(1)
TWO = Scalar(2)
HALF = Scalar(1, 0, 2)
MINUS_ONE = Scalar(-1)
OMEGA = Scalar(0, 1)
OMEGA2 = Scalar(-1, -1)  # w^2 = -1 - w


def sc(value) -> Scalar:
    """Coerce an int, Fraction or Scalar to a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return Scalar(value)
    if isinstance(value, Fraction):
        return Scalar(value.numerator, 0, value.denominator)
    raise TypeError("cannot coerce %r to Scalar" % (value,))


# ---- text form ---------------------------------------------------------

def _format_rat(num: int, den: int) -> str:
    return "%d" % num if den == 1 else "%d/%d" % (num, den)


def format_scalar(x: Scalar) -> str:
    """Serialize as "a" or "a+b*w" (or "a-b*w"), rationals as "p/q"."""
    a, b = x.a, x.b
    if b == 0:
        return _format_rat(a.numerator, a.denominator)
    bs = _format_rat(abs(b.numerator), b.denominator) + "*w"
    if a == 0:
        return bs if b > 0 else "-" + bs
    head = _format_rat(a.numerator, a.denominator)
    return head + ("+" if b > 0 else "-") + bs


def parse_int(token: str, line: str, what: str = "line") -> int:
    """int(token) for ASCII [+-]?[0-9]+ only, spaces around it allowed as
    int() allows them; a bad token names the malformed line it came from.
    ASCII without "_" leaves int() no non-ASCII digit or underscore."""
    try:
        if token.isascii() and "_" not in token:
            return int(token)
    except ValueError:
        pass
    raise ValueError("malformed %s %r" % (what, line)) from None


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar; exact round-trip.  ValueError on bad text,
    a zero denominator included."""
    try:
        return _parse_scalar(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in scalar %r" % text) from None


# what format_scalar writes: rational parts [+-]?[0-9]+(/[0-9]+)? in ASCII
_RATIONAL = r"[0-9]+(?:/[0-9]+)?"
_SCALAR = re.compile(r"[+-]?%s(?:(?:[+-]%s)?\*w)?" % (_RATIONAL, _RATIONAL))


def _fraction(part: str) -> Fraction:
    """Fraction(part), with Fraction's errors.  A part with an exponent
    gets only the grammar check, on its digits zeroed so that no power of
    ten is built, and reads as 0: _parse_scalar rejects it afterwards."""
    if "/" in part or not re.search("[eE]", part):
        return Fraction(part)
    try:
        Fraction(re.sub(r"\d", "0", part))
    except ValueError:
        raise ValueError("Invalid literal for Fraction: %r" % part) from None
    return Fraction(0)


def _parse_scalar(text: str) -> Scalar:
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    # split off the w-term, if any
    if "w" in s:
        body = s[:-2] if s.endswith("*w") else None
        if body is None:
            raise ValueError("malformed scalar %r" % text)
        # find the sign separating a from b (not the leading sign)
        cut = -1
        depth_start = 1 if body and body[0] in "+-" else 0
        for i in range(depth_start, len(body)):
            if body[i] in "+-":
                cut = i
        if cut == -1:
            x = Scalar.from_fractions(Fraction(0), _fraction(body))
        else:
            a = _fraction(body[:cut])
            b = _fraction(body[cut + 1:])
            x = Scalar.from_fractions(a, b if body[cut] == "+" else -b)
    else:
        x = Scalar.from_fractions(_fraction(s))
    # Fraction's errors come first, in their old order; then what Fraction
    # accepts but format_scalar never writes (1e5, 1.5, 1_0, non-ASCII digits)
    if not _SCALAR.fullmatch(s):
        raise ValueError("malformed scalar %r" % text)
    return x


# ---- polynomials --------------------------------------------------------

class BothZero(ValueError):
    pass


class ZeroPolynomial(ValueError):
    pass


class Polynomial:
    """Univariate polynomial over Q(w), coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [sc(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def x(power: int = 1, coeff=1) -> "Polynomial":
        return Polynomial([ZERO] * power + [sc(coeff)])

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial([sc(c)])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        c = sc(c)
        return Polynomial([c * ci for ci in self.coeffs])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.leading().inv())

    def divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial([]), self
        quot = [ZERO] * (dq + 1)
        inv_lead = other.leading().inv()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lead
            quot[k] = c
            if not c.is_zero():
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * oc
        return Polynomial(quot), Polynomial(rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial([sc(i) * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x: Scalar) -> Scalar:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(format_scalar(c))
            else:
                xs = "X" if i == 1 else "X^%d" % i
                if c == ONE:
                    parts.append(xs)
                elif c == MINUS_ONE:
                    parts.append("-" + xs)
                else:
                    cs = format_scalar(c)
                    if "+" in cs[1:] or "-" in cs[1:]:
                        cs = "(%s)" % cs
                    parts.append("%s*%s" % (cs, xs))
        out = parts[0]
        for t in parts[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    __repr__ = __str__


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over Q(w)."""
    if p.is_zero() and q.is_zero():
        raise BothZero("gcd(0, 0) undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero() or q.is_zero():
        return Polynomial([])
    g = poly_gcd(p, q)
    return (p * q.divmod(g)[0]).monic()


# primes l = 1 (mod 3), each with a root r of X^2 + X + 1 mod l, the image of w
_SQUAREFREE_PRIMES = ((2147483647, 1513477735), (2147483629, 1264980374),
                      (2147483587, 197193579))


def _gcd_degree_mod(a: list, b: list, l: int) -> int:
    """Degree of gcd(a, b) in F_l[X]; coefficient lists, lowest degree
    first, with nonzero last entries.  Consumes both lists."""
    while b:
        inv = pow(b[-1], -1, l)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % l, len(a) - len(b)
            for i, v in enumerate(b):
                a[shift + i] = (a[shift + i] - c * v) % l
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def is_squarefree(p: Polynomial) -> bool:
    """True iff gcd(p, p') is a nonzero constant (characteristic 0).

    First a one-sided modular certificate.  Take the first listed prime l
    with l > deg p that divides no coefficient denominator and whose map
    w -> r to F_l keeps the leading coefficient nonzero.  That map is a ring
    homomorphism on the coefficients (the denominators are units mod l); it
    keeps deg p and deg p' (l > deg p), so it maps the Sylvester matrix of
    (p, p') to that of (p mod l, p' mod l) and Res(p, p') to their
    resultant.  So gcd(p mod l, p' mod l) = 1 gives Res(p, p') != 0: p and
    p' are coprime and p is squarefree.  Otherwise (p not squarefree, or l
    unlucky) the exact Euclidean gcd over Q(w) decides.
    """
    if p.is_zero():
        raise ZeroPolynomial("squarefreeness of the zero polynomial")
    n = p.degree()
    if n == 0:
        return True
    for l, r in _SQUAREFREE_PRIMES:
        if l <= n or any(c.d % l == 0 for c in p.coeffs):
            continue
        bar = [(c.p + c.q * r) * pow(c.d, -1, l) % l for c in p.coeffs]
        if not bar[-1]:
            continue
        der = [i * v % l for i, v in enumerate(bar)][1:]
        if _gcd_degree_mod(bar, der, l) == 0:
            return True
        break
    return poly_gcd(p, p.derivative()).degree() == 0
