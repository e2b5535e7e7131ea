"""Dual norms and symmetric convex hull membership, exactly.

For a finite norming set H the dual unit ball is conv(+-H).  The gauge of
that body at g,

    dual_norm(g, H) = min { sum |c_h| : g = sum c_h h },

is computed by an exact LP with the coefficients split into positive and
negative parts.  Membership in conv(+-H) is the test dual_norm <= 1.

`polar_support(g, H)` solves the dual program
max { <y, g> : |<y, h>| <= 1 for all h in H }; by LP duality its value equals
dual_norm(g, H) and the maximizer is a unit vector of the primal norm that
attains the gauge, which is what the basis-constant witness needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import NotInSpanError
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
    """Minimal total coefficient mass expressing g over H.

    Returns (value, coefficients) where coefficients maps the index of each
    used functional to its (signed) coefficient.  Raises NotInSpanError when
    g is not a linear combination of H; the attached certificate is a vector
    y with <y, h> = 0 for every h in H but <y, g> > 0.
    """
    H = list(H)
    if g.is_zero():
        return Fraction(0), {}
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
    coeffs = {i: c for i, c in enumerate(_merge(sol.primal)) if c != 0}
    return sol.objective, coeffs


def proportional_member(f: SparseVector, H, bound):
    """The first (i, c) with f == c * H[i] and |c| <= bound, else None.

    f must be nonzero.  A hit writes f with mass |c|, so it bounds
    dual_norm(f, H) by |c| without an LP.

    Integers throughout: supports are compared as entry-dict key sets, and
    with f[lead] = A/B and h[lead] = C/D the ratio is (A D)/(B C), so
    |ratio| <= bound is one cross-multiplication and f[p] == ratio * h[p],
    for f[p] = a/b and h[p] = c/d, is a B C d == A D c b.  The one Fraction
    built is the ratio of a hit, so the result equals the Fraction scan by
    sorted support and h.scale(ratio), first index included.
    """
    entries = f._entries
    size, keys = len(entries), entries.keys()
    lead = next(iter(keys))
    lead_value = entries[lead]
    bound_n, bound_d = bound.numerator, bound.denominator
    for i, h in enumerate(H):
        values = h._entries
        if len(values) != size or values.keys() != keys:
            continue
        scale = values[lead]
        rn = lead_value.numerator * scale.denominator
        rd = lead_value.denominator * scale.numerator
        if abs(rn) * bound_d > bound_n * abs(rd):
            continue
        for p, v in entries.items():
            w = values[p]
            if v.numerator * rd * w.denominator != rn * w.numerator * v.denominator:
                break
        else:
            return i, Fraction(rn, rd)
    return None


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
        value, coeffs = dual_norm(f, H)
    except NotInSpanError as err:
        return HullCertificate(False, None, None,
                               outside_witness=err.certificate, method="lp")
    return HullCertificate(value <= 1, value, coeffs, method="lp")


def verify_decomposition(f: SparseVector, H, coefficients) -> bool:
    """Exact check that sum c_i H[i] == f and sum |c_i| <= 1; False if None.

    Integers throughout: the coefficients are brought to one denominator C,
    their lcm, as a_i = c_i C, so the mass test is sum |a_i| <= C.  V is the
    lcm of the denominators of the used members' values, grown only when a
    new one appears, so v V is an int for every member value v.  One pass
    sums a_i (v V) per position in a dict, the int C V (sum c_i H[i])[p].
    The check holds when the nonzero totals are as many as f's entries and
    each entry f[p] = n/d has n C V == d total[p].  No Fraction and no
    vector is built, so the result equals the Fraction sum's comparison.
    """
    if coefficients is None:
        return False
    C = lcm(*(c.denominator for c in coefficients.values()))
    V = 1
    mass = 0
    terms = []
    for i, c in coefficients.items():
        a = c.numerator * (C // c.denominator)
        mass += abs(a)
        values = H[i]._entries
        terms.append((values, a))
        for v in values.values():
            b = v.denominator
            if V % b:
                V *= b // gcd(V, b)
    if mass > C:
        return False
    total = {}
    for values, a in terms:
        for p, v in values.items():
            total[p] = total.get(p, 0) + a * v.numerator * (V // v.denominator)
    entries = f._entries
    CV = C * V
    return (len(total) - [*total.values()].count(0) == len(entries)
            and all(v.numerator * CV == v.denominator * total.get(p, 0)
                    for p, v in entries.items()))


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


def norming_max(x: SparseVector, H) -> Fraction:
    """max |<h, x>| over the finite norming set H.

    Integers throughout: x is scaled once to X = D x, D the lcm of its
    denominators.  Each <h, X> is summed as n/d over the common positions
    (a dict-view intersection, which walks the smaller support as `pair`
    does), with d the lcm of the denominators of h's values seen so far,
    grown only when a new one appears.  Candidates are compared by
    cross-multiplying, and the one Fraction built is the best n/(d D), so
    the result equals max |pair(h, x)| in Fractions.
    """
    xs = x._entries
    if not xs:
        return Fraction(0)
    D = lcm(*(v.denominator for v in xs.values()))
    X = {p: v.numerator * (D // v.denominator) for p, v in xs.items()}
    positions = X.keys()
    best_n, best_d = 0, 1
    for h in H:
        values = h._entries
        n, d = 0, 1
        for p in values.keys() & positions:
            v = values[p]
            b = v.denominator
            if d % b:
                m = b // gcd(d, b)
                n *= m
                d *= m
            n += v.numerator * X[p] * (d // b)
        if abs(n) * best_d > best_n * d:
            best_n, best_d = abs(n), d
    return Fraction(best_n, best_d * D)
