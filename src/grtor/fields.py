"""Exact coefficient fields: the rationals and prime fields F_p.

Field elements are plain Python values (Fraction for QQ, ints in 0..p-1
for F_p); a Field object bundles the arithmetic.  No floating point
anywhere.

The inner loops of the Groebner, echelon and spectral code call a field
once per entry, so the operations are bound once per field instead of
testing the characteristic on every call: `add`, `sub`, `mul`, `neg`,
`inv` and `div`, the multiply-accumulate `submul(a, f, b)` = a - f*b,
and the row updates `axpy` and `scale`; `zero` and `one` are constants.
A field pickles as its characteristic.

Over QQ every operation works on numerators and denominators as
integers (Knuth, TAOCP vol. 2, 4.5.1) and builds its result in one
private constructor, `_fraction(n, d)`, inlined in the row loops of
`axpy` and `scale`: one `math.gcd`, then a `Fraction` made with
`object.__new__` and its two slots set directly.  No operation pays for
the public `Fraction(n, d)` constructor, the `numerator`/`denominator`
properties or the operator dispatch of `Fraction.__add__` and its kin.
Operands must be `Fraction`s: an `int` goes through `Field.of` first.
Each result is still exactly one new `Fraction`, zeros and unchanged
entries included, so an operation leaves as many live objects behind as
the plain operators did.  With fewer, the garbage collector would run
less often, and an in-process benchmark whose dropped module graphs are
freed only by a full collection would read a higher peak memory.

Characteristics are decided prime by Miller-Rabin on the first 13 prime
bases, which is exact below 3.3 * 10^24; larger ones are rejected.
"""

from fractions import Fraction
from math import gcd


class GrtorError(ValueError):
    """Every error grtor raises is one of two outcomes.  A `GrtorError`
    itself means bad input or a failed check: the command line prints
    one `error:` line and exits with code 1.  Its one subclass,
    `CapExceededError`, means the cap, which is the validity window, is
    too small for the question: one `window exhausted:` line, exit
    code 3."""


class CapExceededError(GrtorError):
    """The cap is too small for the question; raise it."""


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on _BASES has no strong pseudoprime below this bound
# (Sorenson-Webster, Strong pseudoprimes to twelve prime bases, 2017)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(n):
    """Exact primality for n < MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_new = object.__new__


def _fraction(n, d):
    """The Fraction n/d, for integers n and d > 0, in lowest terms."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    x = _new(Fraction)
    x._numerator, x._denominator = n, d
    return x


def _rational_add(a, b):
    ad, bd = a._denominator, b._denominator
    return _fraction(a._numerator * bd + b._numerator * ad, ad * bd)


def _rational_sub(a, b):
    ad, bd = a._denominator, b._denominator
    return _fraction(a._numerator * bd - b._numerator * ad, ad * bd)


def _rational_mul(a, b):
    return _fraction(a._numerator * b._numerator, a._denominator * b._denominator)


def _rational_neg(a):
    return _fraction(-a._numerator, a._denominator)


def _rational_submul(a, f, b):
    ad, d = a._denominator, f._denominator * b._denominator
    return _fraction(a._numerator * d - f._numerator * b._numerator * ad, ad * d)


def _rational_axpy(xs, f, ys):
    fn, fd = f._numerator, f._denominator
    out = []
    for x, y in zip(xs, ys):
        xd, d = x._denominator, fd * y._denominator
        n, d = x._numerator * d - fn * y._numerator * xd, xd * d
        g = gcd(n, d)
        z = _new(Fraction)
        z._numerator, z._denominator = n // g, d // g
        out.append(z)
    return out


def _rational_scale(f, xs):
    fn, fd = f._numerator, f._denominator
    out = []
    for x in xs:
        n, d = fn * x._numerator, fd * x._denominator
        g = gcd(n, d)
        z = _new(Fraction)
        z._numerator, z._denominator = n // g, d // g
        out.append(z)
    return out


def _rational_inv(a):
    n, d = a._denominator, a._numerator
    if not d:
        raise ZeroDivisionError("field inverse of zero")
    return _fraction(n, d) if d > 0 else _fraction(-n, -d)


def _rational_div(a, b):
    n, d = a._numerator * b._denominator, a._denominator * b._numerator
    if not d:
        raise ZeroDivisionError("field inverse of zero")
    return _fraction(n, d) if d > 0 else _fraction(-n, -d)


def _prime_ops(p):
    """add, sub, mul, neg, inv, div, submul, axpy and scale of F_p."""

    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def mul(a, b):
        return a * b % p

    def neg(a):
        return -a % p

    def inv(a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        return pow(a, p - 2, p)

    def div(a, b):
        return a * inv(b) % p

    def submul(a, f, b):
        return (a - f * b) % p

    def axpy(xs, f, ys):
        return [(x - f * y) % p for x, y in zip(xs, ys)]

    def scale(f, xs):
        return [f * x % p for x in xs]

    return add, sub, mul, neg, inv, div, submul, axpy, scale


class Field:
    """Exact field of characteristic 0 (QQ) or p (F_p, p prime).

    `submul(a, f, b)` is the scalar a - f*b, `axpy(xs, f, ys)` the row
    xs - f*ys and `scale(f, xs)` the row f*xs.
    """

    def __init__(self, characteristic=0):
        if characteristic == 0:
            self.zero, self.one = Fraction(0), Fraction(1)
            self.add, self.sub = _rational_add, _rational_sub
            self.mul, self.neg = _rational_mul, _rational_neg
            self.inv, self.div, self.submul = _rational_inv, _rational_div, _rational_submul
            self.axpy, self.scale = _rational_axpy, _rational_scale
        elif characteristic >= MAX_CHARACTERISTIC:
            raise GrtorError("characteristic %d is too large: primality is decided "
                             "exactly only below %d" % (characteristic, MAX_CHARACTERISTIC))
        elif _is_prime(characteristic):
            self.zero, self.one = 0, 1
            (self.add, self.sub, self.mul, self.neg, self.inv, self.div,
             self.submul, self.axpy, self.scale) = _prime_ops(characteristic)
        else:
            raise GrtorError("characteristic must be 0 or prime, got %r" % (characteristic,))
        self.char = characteristic

    def __reduce__(self):
        return (Field, (self.char,))

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else "F%d" % self.char

    # element constructors -------------------------------------------------

    def of(self, n):
        """Image of an integer (or Fraction, over QQ) in the field."""
        if self.char == 0:
            return Fraction(n)
        if isinstance(n, Fraction):
            num = n.numerator % self.char
            den = n.denominator % self.char
            return self.div(num, den)
        return n % self.char

    # parsing / printing ----------------------------------------------------

    def parse(self, text):
        """Parse 'n' or 'n/d' into a field element."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(self.of(int(num)), self.of(int(den)))
        return self.of(int(text))

    def format(self, a):
        if self.char == 0 and a.denominator != 1:
            return "%d/%d" % (a.numerator, a.denominator)
        return str(int(a))


QQ = Field(0)


def field_from_name(name):
    """Field named 'QQ' or 'Fp <prime>' / 'F<prime>'."""
    parts = name.split()
    token = parts[0] if parts else ""
    if token in ("QQ", "Q"):
        return QQ
    if token in ("Fp", "F") and len(parts) == 2 and parts[1].isdigit():
        return Field(int(parts[1]))
    if token.startswith("F") and token[1:].isdigit():
        return Field(int(token[1:]))
    raise GrtorError("unknown field %r" % (name,))
