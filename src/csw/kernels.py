"""Integer kernels over finite norming sets, with no LP import, so loading a
family and evaluating a norm never load the solver.

`norming_max` evaluates a norm; `proportional_member` is the direct path of
hull membership and the basis constant; `verify_decomposition` checks a
decomposition against a mass bound, 1 for a hull certificate.  Each
computes in scaled integers and returns what its `Fraction` definition
returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .vectors import SparseVector


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


def verify_decomposition(f: SparseVector, H, coefficients, bound) -> bool:
    """Exact check: sum c_i H[i] == f and sum |c_i| <= bound; False for None.

    Integers throughout: the coefficients are brought to one denominator C,
    their lcm, as a_i = c_i C, so for bound = p/q the mass test is
    q sum |a_i| <= p C.  V is the lcm of the denominators of the used
    members' values, grown only when a new one appears, so v V is an int
    for every member value v.  One pass sums a_i (v V) per position in a
    dict, the int C V (sum c_i H[i])[p].  The check holds when the nonzero
    totals are as many as f's entries and each entry f[p] = n/d has
    n C V == d total[p].  No Fraction and no vector is built, so the result
    equals the Fraction sum's comparison.
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
    if bound.denominator * mass > bound.numerator * C:
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
