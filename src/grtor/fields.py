"""Exact coefficient fields: the rationals and prime fields F_p.

Field elements are plain Python values (Fraction for QQ, ints in 0..p-1
for F_p); a Field object bundles the arithmetic.  No floating point
anywhere.
"""

from fractions import Fraction


class GrtorError(ValueError):
    """Base of every error grtor raises on bad input, an exhausted validity
    window or a failed internal check; the command line turns each into a
    one-line message."""


class FieldError(GrtorError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Exact field of characteristic 0 (QQ) or p (F_p, p prime)."""

    def __init__(self, characteristic=0):
        if characteristic == 0:
            self.kind = "rational"
        elif _is_prime(characteristic):
            self.kind = "prime-field"
        else:
            raise FieldError("characteristic must be 0 or prime, got %r" % (characteristic,))
        self.char = characteristic

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else "F%d" % self.char

    # element constructors -------------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def of(self, n):
        """Image of an integer (or Fraction, over QQ) in the field."""
        if self.char == 0:
            return Fraction(n)
        if isinstance(n, Fraction):
            num = n.numerator % self.char
            den = n.denominator % self.char
            return self.div(num, den)
        return n % self.char

    # arithmetic ------------------------------------------------------------

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        if self.char == 0:
            return Fraction(1) / a
        return pow(a, self.char - 2, self.char)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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
