import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from forge import exact
from forge.exact import (MINUS_ONE, OMEGA, OMEGA2, ONE, ZERO, BothZero,
                         DivisionByZero, Polynomial, Scalar, ZeroPolynomial,
                         format_scalar, is_squarefree, parse_scalar, poly_gcd,
                         poly_lcm, sc)

X = Polynomial.x
C = Polynomial.constant

# numerators of up to 80 bits (1009^8), far beyond the small structure
# constants, as exact eliminations and polynomial remainders produce
BIG = 1009 ** 8
ints = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG),
                 st.sampled_from([1009 ** 7, -(1009 ** 7)]))
scalars = st.builds(Scalar, ints, ints, st.integers(1, 1009 ** 7))
small = st.builds(Scalar, st.integers(-5, 5), st.integers(-5, 5),
                  st.integers(1, 4))
polys = st.lists(small, max_size=4).map(Polynomial)


def test_omega_relations():
    assert OMEGA * OMEGA == Scalar(-1, -1)
    assert OMEGA * OMEGA * OMEGA == ONE
    assert ONE + OMEGA + OMEGA * OMEGA == ZERO
    # (1 + w) + (-w) == 1
    assert (ONE + OMEGA) + (-OMEGA) == ONE


def test_scalar_reduction_and_equality():
    assert Scalar(2, 4, 6) == Scalar(1, 2, 3)
    assert Scalar(1, 0, -2) == Scalar(-1, 0, 2)
    assert Scalar(3, 0, 3) == ONE
    assert hash(Scalar(2, 4, 6)) == hash(Scalar(1, 2, 3))


def test_division():
    a = Scalar(3, 2, 7)
    assert a * a.inv() == ONE
    assert (a / a) == ONE
    with pytest.raises(DivisionByZero):
        ZERO.inv()
    assert OMEGA.inv() == OMEGA2


def test_field_axioms_sampled():
    rng = random.Random(11)
    xs = [Scalar(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
          for _ in range(12)]
    for x in xs:
        for y in xs:
            assert x + y == y + x
            assert x * y == y * x
            for z in xs[:4]:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inv() == ONE


def test_scalar_text_round_trip():
    rng = random.Random(5)
    cases = [ZERO, ONE, MINUS_ONE, OMEGA, -OMEGA, OMEGA2, Scalar(1, -1, 2),
             Scalar(-3, 5, 7), Scalar(0, -2, 3)]
    cases += [Scalar(rng.randint(-20, 20), rng.randint(-20, 20),
                     rng.randint(1, 20)) for _ in range(40)]
    for x in cases:
        assert parse_scalar(format_scalar(x)) == x
    assert format_scalar(Scalar(1, 0, 2)) == "1/2"
    assert format_scalar(OMEGA) == "1*w"
    assert format_scalar(Scalar(1, -1, 2)) == "1/2-1/2*w"


@pytest.mark.parametrize("text", ["1/0", "1/0*w", "1+1/0*w", "0/0"])
def test_parse_scalar_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text)


@pytest.mark.parametrize("text", [
    "1e5", "1.5", "1_0", "\u0661", "1e9999999", "1+1e9999999*w", "1E2*w",
    "1/2_0", "1/\u0662", "2.5-1*w", "1+\t2*w", "+1.0"])
def test_parse_scalar_accepts_only_what_format_scalar_writes(text):
    with pytest.raises(ValueError, match="malformed scalar"):
        parse_scalar(text)


@pytest.mark.parametrize("text, part", [
    ("abc", "abc"), ("1e5+x*w", "x"), (".48+*w", ""), ("1.5/2", "1.5/2"),
    ("1e5e5", "1e5e5"), ("1e", "1e")])
def test_parse_scalar_keeps_the_fraction_message(text, part):
    with pytest.raises(ValueError) as want:
        Fraction(part)
    with pytest.raises(ValueError) as got:
        parse_scalar(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("token", ["1_0", "\u0661", "1.0", "1e1", "1 1", ""])
def test_parse_int_accepts_only_ascii_digits(token):
    with pytest.raises(ValueError, match="malformed line 'L'"):
        exact.parse_int(token, "L")
    assert exact.parse_int("-12", "L") == -12 and exact.parse_int(" +3", "L") == 3


def test_squarefree_primes_carry_a_cube_root_of_unity():
    for l, r in exact._SQUAREFREE_PRIMES:
        assert l % 3 == 1 and all(l % q for q in range(2, math.isqrt(l) + 1))
        assert (r * r + r + 1) % l == 0


def _counting_gcd(monkeypatch):
    calls, intact = [], exact.poly_gcd
    monkeypatch.setattr(exact, "poly_gcd",
                        lambda a, b: calls.append(1) or intact(a, b))
    return calls


def test_squarefree_falls_back_to_euclid_on_repeated_factors(monkeypatch):
    calls = _counting_gcd(monkeypatch)
    p, q = X(3) - C(5), X() + Polynomial([OMEGA])
    cases = [p * q * q] + [X(k) for k in range(2, 7)]
    for f in cases:
        assert not is_squarefree(f)
    assert len(calls) == len(cases)


def test_squarefree_falls_back_on_an_unlucky_prime(monkeypatch):
    calls = _counting_gcd(monkeypatch)
    l = exact._SQUAREFREE_PRIMES[0][0]
    # X^2 - l is squarefree, X^2 mod l is not
    assert is_squarefree(X(2) - C(l)) and calls == [1]
    # X - l^2 is squarefree mod l too
    assert is_squarefree(X(1) - C(l * l)) and calls == [1]


_PRIMES = [l for l, _ in exact._SQUAREFREE_PRIMES]
# some denominators skip a listed prime, some skip all; some coefficients
# vanish mod a listed prime, so it cannot keep the leading coefficient
_coeffs = st.one_of(
    st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3),
              st.sampled_from([1, 2, 3, _PRIMES[0], 5 * _PRIMES[1],
                               _PRIMES[0] * _PRIMES[1],
                               math.prod(_PRIMES)])),
    st.sampled_from([Scalar(l) for l in _PRIMES]
                    + [Scalar(-r, 1) for _, r in exact._SQUAREFREE_PRIMES]))
_nonzero_polys = st.lists(_coeffs, min_size=1, max_size=4).map(
    Polynomial).filter(lambda p: not p.is_zero())


@settings(max_examples=200, deadline=None)
@given(_nonzero_polys, _nonzero_polys, st.booleans())
def test_squarefree_agrees_with_euclid(f, g, square):
    p = f * g * g if square else f * g
    assert is_squarefree(p) == oracles.squarefree_euclid(p)


def test_poly_gcd_examples():
    assert poly_gcd(X(2) - C(1), X() - C(1)) == X() - C(1)
    assert poly_gcd(X(3) - C(1), X(2).scale(3)) == C(1)
    p = (X() - C(1)) * (X() - C(1)) * (X() + C(2))
    q = (X() - C(1)) * (X() + C(3))
    assert poly_gcd(p, q) == X() - C(1)
    with pytest.raises(BothZero):
        poly_gcd(Polynomial([]), Polynomial([]))


def test_poly_division_invariant():
    rng = random.Random(3)
    for _ in range(25):
        p = Polynomial([sc(rng.randint(-4, 4)) for _ in range(rng.randint(0, 6))])
        q = Polynomial([sc(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
        if q.is_zero():
            continue
        quot, rem = p.divmod(q)
        assert quot * q + rem == p
        assert rem.degree() < q.degree()


def test_squarefree():
    assert is_squarefree(X(3) - C(5))
    assert not is_squarefree((X() - C(1)) * (X() - C(1)))
    assert is_squarefree(X(6) - C(1))  # (X^3+1)(X^3-1)
    with pytest.raises(ZeroPolynomial):
        is_squarefree(Polynomial([]))


def test_squarefree_of_square_always_fails():
    rng = random.Random(9)
    for _ in range(10):
        p = Polynomial([sc(rng.randint(-3, 3)) for _ in range(3)] + [ONE])
        assert not is_squarefree(p * p)


def test_lcm():
    a = (X() - C(1)) * (X() + C(1))
    b = (X() - C(1)) * X()
    assert poly_lcm(a, b) == (X() - C(1)) * (X() + C(1)) * X()


def test_poly_str():
    assert str(X(3) - C(1)) == "X^3-1"
    assert str(X(6) - C(1)) == "X^6-1"
    assert str(Polynomial([])) == "0"


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms_property(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x and x + (-x) == ZERO
    assert x - y == x + (-y)
    if not x.is_zero():
        assert x * x.inv() == ONE
        assert (y / x) * x == y
    assert x.conj().conj() == x and (x * y).conj() == x.conj() * y.conj()


@settings(max_examples=100, deadline=None)
@given(polys, polys, polys)
def test_gcd_divides_both_and_lcm_times_gcd_is_the_product(f, a, b):
    # a common factor f makes a nontrivial gcd likely
    a, b = f * a, f * b
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert g.leading() == ONE
    assert (a % g).is_zero() and (b % g).is_zero()
    if not f.is_zero():
        assert (g % f).is_zero()
    assert poly_lcm(a, b) * g == (a * b).monic()
