"""Polynomial oracle for the unit stripping of `grtor.resolution`.

A second code path, kept apart from `resolution._strip_units` (which
eliminates on relation columns in normal form mod the quotient): the
Gaussian elimination runs on the polynomial entries of the presentation
and nothing is reduced mod the quotient.  Tests only.
"""

from grtor.groebner import ModulePresentation


def minimize_presentation(module):
    """Strip unit entries from a presentation (Gaussian reduction), so that
    the free cover is minimal: while some relation has a nonzero constant
    entry, the first such relation and its first such column, the
    multiples of that relation clear the column from the others, and the
    relation and the column go.  Zero relations are dropped at the end."""
    ring = module.ring
    field = ring.field
    degs = list(module.column_degrees)
    rels = [list(r) for r in module.relations]
    changed = True
    while changed:
        changed = False
        for ri, rel in enumerate(rels):
            unit_col = None
            for a, p in enumerate(rel):
                if not p.is_zero() and p.degree() == 0:
                    unit_col = a
                    break
            if unit_col is None:
                continue
            pivot = rel[unit_col]
            inv = field.inv(pivot.coefficient((0,) * ring.nvars))
            new_rels = []
            for rj, other in enumerate(rels):
                if rj == ri:
                    continue
                q = other[unit_col]
                if q.is_zero():
                    new_rels.append([p for a, p in enumerate(other) if a != unit_col])
                    continue
                factor = q.scale(inv)
                adjusted = [other[a] - factor * rel[a] for a in range(len(rel))]
                new_rels.append([p for a, p in enumerate(adjusted) if a != unit_col])
            rels = new_rels
            degs = [dg for a, dg in enumerate(degs) if a != unit_col]
            changed = True
            break
    rels = [r for r in rels if any(not p.is_zero() for p in r)]
    return ModulePresentation(ring, len(degs), degs, rels)
