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

Over QQ, `submul`, `axpy`, `scale`, `inv` and `div` work on numerators
and denominators as integers (Knuth, TAOCP vol. 2, 4.5.1): an updated
entry is one cross-multiplication and one `Fraction(n, d)`, which
normalises by a single gcd, instead of a `Fraction` product, a
`Fraction` difference and the operator dispatch of each.  Every written
entry is still one new `Fraction`, zeros and unchanged entries included,
so a row update leaves as many live objects behind as the plain
operators did.

Characteristics are decided prime by Miller-Rabin on the first 13 prime
bases, which is exact below 3.3 * 10^24; larger ones are rejected.
"""

import operator
from fractions import Fraction


class GrtorError(ValueError):
    """Base of every error grtor raises on bad input, an exhausted validity
    window or a failed internal check; the command line turns each into a
    one-line message."""


class FieldError(GrtorError):
    pass


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


def _rational_submul(a, f, b):
    ad, d = a.denominator, f.denominator * b.denominator
    return Fraction(a.numerator * d - f.numerator * b.numerator * ad, ad * d)


def _rational_axpy(xs, f, ys):
    fn, fd = f.numerator, f.denominator
    out = []
    for x, y in zip(xs, ys):
        xd, d = x.denominator, fd * y.denominator
        out.append(Fraction(x.numerator * d - fn * y.numerator * xd, xd * d))
    return out


def _rational_scale(f, xs):
    fn, fd = f.numerator, f.denominator
    return [Fraction(fn * x.numerator, fd * x.denominator) for x in xs]


def _rational_inv(a):
    if not a:
        raise ZeroDivisionError("field inverse of zero")
    return Fraction(a.denominator, a.numerator)


def _rational_div(a, b):
    if not b:
        raise ZeroDivisionError("field inverse of zero")
    return Fraction(a.numerator * b.denominator, a.denominator * b.numerator)


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
            self.kind = "rational"
            self.zero, self.one = Fraction(0), Fraction(1)
            self.add, self.sub = operator.add, operator.sub
            self.mul, self.neg = operator.mul, operator.neg
            self.inv, self.div, self.submul = _rational_inv, _rational_div, _rational_submul
            self.axpy, self.scale = _rational_axpy, _rational_scale
        elif characteristic >= MAX_CHARACTERISTIC:
            raise FieldError("characteristic %d is too large: primality is decided "
                             "exactly only below %d" % (characteristic, MAX_CHARACTERISTIC))
        elif _is_prime(characteristic):
            self.kind = "prime-field"
            self.zero, self.one = 0, 1
            (self.add, self.sub, self.mul, self.neg, self.inv, self.div,
             self.submul, self.axpy, self.scale) = _prime_ops(characteristic)
        else:
            raise FieldError("characteristic must be 0 or prime, got %r" % (characteristic,))
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
    if parts[0] in ("QQ", "Q"):
        return QQ
    token = parts[0]
    if token in ("Fp", "F") and len(parts) == 2:
        return Field(int(parts[1]))
    if token.startswith("F") and token[1:].isdigit():
        return Field(int(token[1:]))
    raise FieldError("unknown field %r" % (name,))
