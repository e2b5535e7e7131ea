"""Dual norms and symmetric convex hull membership, exactly.

For a finite norming set H the dual unit ball is conv(+-H).  The gauge of
that body at g,

    dual_norm(g, H) = min { sum |c_h| : g = sum c_h h },

is computed by an exact LP with the coefficients split into positive and
negative parts.  Membership in conv(+-H) is the test dual_norm <= 1.
Every gauge LP over one H poses the same rows, so `dual_norm` also hands
back a reader of the LP's optimal basis, which writes any other vector over
H with no LP.

`polar_support(g, H)` solves the dual program
max { <y, g> : |<y, h>| <= 1 for all h in H }; by LP duality its value equals
dual_norm(g, H) and the maximizer is a unit vector of the primal norm that
attains the gauge, which is what the basis-constant witness needs.

Only the LPs live here: the integer kernels live in `kernels`, which imports
no LP code, and `norming_max` stays bound here only for the `TIMED` table
of `perfbench/tracing.py`, which times it as `hull.norming_max`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInSpanError
from .kernels import norming_max, proportional_member
from .simplex import EQ, GE, LE, LinearConstraint, simplex_solve
from .vectors import SparseVector


def _positions(vectors):
    positions = set()
    for v in vectors:
        positions.update(v.support)
    return sorted(positions)


def _split(v: SparseVector, index):
    """v on the positions of `index` (position -> place), each signed value
    written as a (plus, minus) pair of nonnegative columns.  Only v's
    nonzero entries are visited; every other column is the int 0."""
    row = [0] * (2 * len(index))
    for p, value in v._entries.items():
        i = 2 * index[p]
        row[i] = value
        row[i + 1] = -value
    return row


def _merge(columns):
    """Read signed values back from (plus, minus) column pairs."""
    return [plus - minus for plus, minus in zip(columns[::2], columns[1::2])]


def _on(positions, values):
    """The vector with values[i] at positions[i]."""
    return SparseVector((p, v) for p, v in zip(positions, values) if v != 0)


def dual_norm(g: SparseVector, H):
    """Minimal total coefficient mass expressing g over H, as (value,
    coefficients, decompose).  coefficients maps the index of each used
    functional to its (signed) coefficient.  Raises NotInSpanError when g is
    not a linear combination of H; the attached certificate is a vector y
    with <y, h> = 0 for every h in H but <y, g> > 0.

    decompose(v) reads signed coefficients c with sum c_i H[i] == v off the
    LP's optimal basis, with no LP: every gauge LP over H poses the same
    rows and only the right-hand side changes.  It returns None when no
    such c sits on that basis, which holds for every v outside the span of
    H.  The mass sum |c_i| bounds dual_norm(v, H) from above, and equals it
    when the point read off is nonnegative.  decompose is None when no LP
    was solved: g is zero.
    """
    H = list(H)
    if g.is_zero():
        return Fraction(0), {}, None
    if not H:
        raise NotInSpanError("empty norming set cannot express a nonzero vector",
                             certificate=g)
    positions = _positions(H + [g])
    # one row per position, one (plus, minus) column pair per member: the
    # transpose of the members split on the positions
    index = {p: i for i, p in enumerate(positions)}
    rows = [[0] * (2 * len(H)) for _ in positions]
    for k, h in enumerate(H):
        for p, v in h._entries.items():
            row = rows[index[p]]
            row[2 * k] = v
            row[2 * k + 1] = -v
    objective = [Fraction(1)] * (2 * len(H))
    constraints = [LinearConstraint(tuple(row), EQ, g[p])
                   for row, p in zip(rows, positions)]
    sol = simplex_solve(objective, constraints, sense="min")
    if sol.status != "optimal":
        raise NotInSpanError("vector lies outside the span of the norming set",
                             certificate=_on(positions, sol.certificate["farkas"]))
    basis = sol.basis

    def decompose(v: SparseVector):
        entries = v._entries
        if not entries.keys() <= index.keys():  # no member is nonzero there
            return None
        point = basis.solve([entries.get(p, 0) for p in positions])
        return None if point is None else _coefficients(point)

    return sol.objective, _coefficients(sol.primal), decompose


def _coefficients(columns):
    """{member index: signed coefficient} of the nonzero (plus, minus) pairs."""
    return {i: c for i, c in enumerate(_merge(columns)) if c != 0}


@dataclass
class HullCertificate:
    member: bool
    mass: Fraction | None
    coefficients: dict | None
    outside_witness: SparseVector | None = None
    method: str = "lp"


def in_symmetric_hull(f: SparseVector, H) -> HullCertificate:
    """Is f in conv(+-H)?  Always returns a checkable certificate.

    The direct path catches f proportional to a single member (the common
    case for coherent families); otherwise the gauge LP decides.
    """
    H = list(H)
    if f.is_zero():
        return HullCertificate(True, Fraction(0), {}, method="direct")
    found = proportional_member(f, H, 1)
    if found is not None:
        i, ratio = found
        return HullCertificate(True, abs(ratio), {i: ratio}, method="direct")
    try:
        value, coeffs, _ = dual_norm(f, H)
    except NotInSpanError as err:
        return HullCertificate(False, None, None,
                               outside_witness=err.certificate, method="lp")
    return HullCertificate(value <= 1, value, coeffs, method="lp")


def polar_support(g: SparseVector, H):
    """max <y, g> over the polar body {y : |<y,h>| <= 1 for all h in H}.

    Returns (value, y) with y a SparseVector on the union of supports.
    Requires g in span(H) so the program is bounded; otherwise raises
    NotInSpanError whose certificate is the program's ray, a SparseVector y
    with <y, h> = 0 for every h in H but <y, g> > 0.
    """
    H = list(H)
    positions = _positions(H + [g])
    index = {p: i for i, p in enumerate(positions)}
    objective = _split(g, index)
    constraints = []
    for h in H:
        row = tuple(_split(h, index))
        constraints.append(LinearConstraint(row, LE, Fraction(1)))
        constraints.append(LinearConstraint(row, GE, Fraction(-1)))
    sol = simplex_solve(objective, constraints, sense="max")
    if sol.status != "optimal":
        raise NotInSpanError("polar program unbounded: vector outside span",
                             certificate=_on(positions, _merge(sol.certificate["ray"])))
    return sol.objective, _on(positions, _merge(sol.primal))
