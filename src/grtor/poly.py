"""Sparse exact multivariate polynomials and ring descriptions.

A Ring fixes the coefficient field, the ordered variable names, a
setting (graded or local) and, in the local setting, a truncation cap:
local elements stand for power series known up to degree `cap`, and
every arithmetic operation re-truncates.  Polynomials are immutable
term maps {exponent tuple: nonzero coefficient}.
"""

import re

from .fields import QQ, Field, GrtorError
from .orders import DEGREVLEX, LOCAL_DEGREE, MonomialOrder

GRADED = "graded"
LOCAL = "local"


class Ring:
    """Polynomial ring data: k[x1..xn] (graded) or k[x]_(x) with cap (local).

    `quotient` (optional, graded setting) holds homogeneous generators
    cutting out G = k[x]/J; arithmetic is on representatives, reduction
    modulo the quotient is explicit (see groebner.normal_form).
    """

    def __init__(self, variables, field=QQ, setting=GRADED, cap=None, quotient=(),
                 order=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise GrtorError("variable names must be distinct: %r" % (variables,))
        if setting not in (GRADED, LOCAL):
            raise GrtorError("setting must be graded or local")
        if setting == LOCAL and cap is None:
            raise GrtorError("local ring needs a truncation cap")
        if not isinstance(field, Field):
            raise GrtorError("field must be a Field instance")
        self.variables = variables
        self.field = field
        self.setting = setting
        self.cap = cap
        if order is None:
            order = LOCAL_DEGREE if setting == LOCAL else DEGREVLEX
        if (order == LOCAL_DEGREE) != (setting == LOCAL):
            raise GrtorError("order %r does not fit the %s setting" % (order, setting))
        self.order = MonomialOrder(order)
        self.quotient = ()
        if quotient:
            self.quotient = tuple(self.parse(q) if isinstance(q, str) else q for q in quotient)
            for q in self.quotient:
                if setting == GRADED and not q.is_homogeneous():
                    raise GrtorError("graded quotient generator %s is not homogeneous" % q)
        self._quotient_gb_cache = None  # set by groebner.quotient_groebner

    @property
    def nvars(self):
        return len(self.variables)

    def compatible(self, other):
        return (self.field == other.field and self.variables == other.variables
                and self.setting == other.setting and self.cap == other.cap)

    def __repr__(self):
        base = "%s[%s]" % (self.field, ",".join(self.variables))
        if self.setting == LOCAL:
            base += "_loc(cap=%d)" % self.cap
        if self.quotient:
            base += "/(%s)" % ", ".join(str(q) for q in self.quotient)
        return base

    # constructors ----------------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.of(c)
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name):
        i = self.variables.index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def monomial(self, exps, coeff=1):
        coeff = self.field.of(coeff)
        if not coeff:
            return self.zero()
        return Polynomial(self, {tuple(exps): coeff})

    def gens(self):
        return [self.var(v) for v in self.variables]

    def parse(self, text):
        return parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial over a Ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        # terms must already be normalized: no zeros, cap respected
        self.ring = ring
        self.terms = terms

    # predicates / views ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Maximal total degree (-1 for 0)."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order_degree(self):
        """Minimal total degree, i.e. the order of vanishing (-1 for 0)."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        """Terms sorted descending in the ring order."""
        key = self.ring.order.key
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]), reverse=True)

    def leading_monomial(self):
        if not self.terms:
            raise GrtorError("leading monomial of zero")
        return max(self.terms, key=self.ring.order.key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def homogeneous_component(self, d):
        terms = {e: c for e, c in self.terms.items() if sum(e) == d}
        return Polynomial(self.ring, terms)

    def initial_form(self):
        """Lowest-degree homogeneous component; errors on the zero polynomial."""
        if not self.terms:
            raise GrtorError("the zero polynomial has no initial form")
        return self.homogeneous_component(self.order_degree())

    def truncate(self, j_max):
        """Drop all terms of total degree > j_max."""
        if j_max < 0:
            raise GrtorError("truncation degree must be nonnegative")
        terms = {e: c for e, c in self.terms.items() if sum(e) <= j_max}
        if len(terms) == len(self.terms):
            return self
        return Polynomial(self.ring, terms)

    # arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not self.ring.compatible(other.ring):
            raise GrtorError("polynomials over incompatible rings: %r vs %r" % (self.ring, other.ring))

    def __add__(self, other):
        self._check(other)
        fld = self.ring.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = fld.add(terms.get(e, fld.zero), c)
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.ring, terms)

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        fld = self.ring.field
        cap = self.ring.cap
        terms = {}
        submul, zero = fld.submul, fld.zero
        for e1, c1 in self.terms.items():
            c1 = fld.neg(c1)
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if cap is not None and sum(e) > cap:
                    continue
                s = submul(terms.get(e, zero), c1, c2)
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Polynomial(self.ring, terms)

    def scale(self, c):
        fld = self.ring.field
        c = fld.of(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {e: fld.mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise GrtorError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.ring.field.inv(self.leading_coefficient()))

    # equality / printing ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring.compatible(other.ring)
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return "Polynomial(%s)" % format_polynomial(self)


# --- text grammar -----------------------------------------------------------
#
# terms joined by + / -, integer coefficients, '*' optional between two factors,
# '^' for powers, variable names alphanumeric; whitespace-insensitive.

_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z][A-Za-z0-9_]*|\^|\*|\+|\-|\(|\))")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise GrtorError("bad character at %r" % text[pos:pos + 10])
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_polynomial(ring, text):
    """Parse the polynomial text grammar, e.g. 'x^2 - y^3' or '2x*y+1'."""
    toks = _tokenize(text)
    if not toks:
        raise GrtorError("empty polynomial text")
    result = ring.zero()
    i = 0
    n = len(toks)
    while i < n:
        sign = 1
        while i < n and toks[i] in "+-":
            if toks[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise GrtorError("dangling sign in %r" % text)
        coeff = sign
        exps = [0] * ring.nvars
        saw_factor = False
        while i < n:
            t = toks[i]
            if t == "*":
                if not saw_factor or i + 1 >= n or toks[i + 1] in "+-*":
                    raise GrtorError("'*' must stand between two factors in %r" % text)
                i += 1
                continue
            if t in "+-":
                break
            if t.isdigit():
                base = int(t)
                i += 1
                power = 1
                if i < n and toks[i] == "^":
                    if i + 1 >= n or not toks[i + 1].isdigit():
                        raise GrtorError("expected integer exponent after ^")
                    power = int(toks[i + 1])
                    i += 2
                coeff *= base ** power
                saw_factor = True
            else:
                if t not in ring.variables:
                    raise GrtorError("unknown variable %r (ring has %s)" % (t, ", ".join(ring.variables)))
                vi = ring.variables.index(t)
                i += 1
                power = 1
                if i < n and toks[i] == "^":
                    if i + 1 >= n or not toks[i + 1].isdigit():
                        raise GrtorError("expected integer exponent after ^")
                    power = int(toks[i + 1])
                    i += 2
                exps[vi] += power
                saw_factor = True
        if not saw_factor:
            raise GrtorError("empty term in %r" % text)
        result = result + ring.monomial(exps, coeff)
    if ring.cap is not None:
        result = result.truncate(ring.cap)
    return result


def format_monomial(ring, exps):
    parts = []
    for name, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def format_polynomial(p):
    if not p.terms:
        return "0"
    ring = p.ring
    fld = ring.field
    chunks = []
    for exps, coeff in p.sorted_terms():
        mono = format_monomial(ring, exps)
        cstr = fld.format(coeff)
        negative = cstr.startswith("-")
        mag = cstr[1:] if negative else cstr
        if mono and mag == "1":
            body = mono
        elif mono:
            body = "%s*%s" % (mag, mono)
        else:
            body = mag
        if not chunks:
            chunks.append("-" + body if negative else body)
        else:
            chunks.append(("- " if negative else "+ ") + body)
    return " ".join(chunks)


def parse_ideal(ring, text):
    """Comma-separated list of polynomials."""
    gens = []
    for part in text.split(","):
        part = part.strip()
        if part:
            gens.append(ring.parse(part))
    return gens
