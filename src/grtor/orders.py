"""Monomial orders on exponent vectors.

Three orders: degrevlex and deglex (global, 1 minimal) and local-degree
(total degree ascending, ties by degrevlex reversed; 1 maximal).  The
local-degree order makes the leading monomial of a power-series element
pick out its lowest-degree part, which is what standard-basis
computation of tangent cones needs.
"""

import operator

from .fields import GrtorError

DEGREVLEX = "degrevlex"
DEGLEX = "deglex"
LOCAL_DEGREE = "local-degree"

_KINDS = (DEGREVLEX, DEGLEX, LOCAL_DEGREE)


def _degrevlex_key(expvec):
    return (sum(expvec), tuple(map(operator.neg, reversed(expvec))))


def _deglex_key(expvec):
    return (sum(expvec), tuple(expvec))


def _deglex_descending_key(expvec):
    return (-sum(expvec), tuple(map(operator.neg, expvec)))


def _local_degree_key(expvec):
    # lower total degree is larger, ties by degrevlex reversed
    return (-sum(expvec), tuple(reversed(expvec)))


# kind -> (key, descending key); the local-degree key is the negated
# degrevlex key and the other way round
_KEYS = {
    DEGREVLEX: (_degrevlex_key, _local_degree_key),
    DEGLEX: (_deglex_key, _deglex_descending_key),
    LOCAL_DEGREE: (_local_degree_key, _degrevlex_key),
}


class MonomialOrder:
    """A monomial order, as two sort keys bound once per kind: m1 > m2 iff
    key(m1) > key(m2) iff descending_key(m1) < descending_key(m2)."""

    def __init__(self, kind):
        if kind not in _KINDS:
            raise GrtorError("unknown order kind %r" % (kind,))
        self.kind = kind
        self.key, self.descending_key = _KEYS[kind]

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(("MonomialOrder", self.kind))

    def __repr__(self):
        return "MonomialOrder(%r)" % self.kind
