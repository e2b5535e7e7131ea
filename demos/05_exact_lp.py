"""Exact rational LP under the hood: dual norms, hull membership, polar
support points, and certificates for every outcome.

The dual norm of g over a finite set H is the least total coefficient mass
writing g as a signed combination of H; it is the gauge of conv(+-H).  Its
LP dual maximizes <y, g> over the polar body, and both sides agree exactly.
The LP's optimal basis also writes any other vector over the same H, with
no second LP.
"""

from fractions import Fraction

from csw import (
    SparseVector,
    dual_norm,
    in_symmetric_hull,
    polar_support,
    simplex_solve,
)
from csw.simplex import constraint
from csw.errors import NotInSpanError

e0, e1 = SparseVector.unit(0), SparseVector.unit(1)

value, coeffs, _ = dual_norm(e0 + e1, [e0, e1])
print("dual_norm(e0+e1 | {e0, e1}) =", value, "via", coeffs)

value, coeffs, decompose = dual_norm(e1, [e0 + e1, e0])
print("dual_norm(e1 | {e0+e1, e0}) =", value, "via", coeffs)
print("e0+2e1 read off the same basis:", decompose(e0 + e1.scale(2)))

support_value, point = polar_support(e1, [e0 + e1, e0])
print("polar support value:", support_value, "attained at", point)

cert = in_symmetric_hull(e0.scale(Fraction(1, 2)), [e0])
print("is e0/2 in conv(+-{e0})?", cert.member, "coefficients", cert.coefficients)

cert = in_symmetric_hull(e0.scale(2), [e0])
print("is 2 e0 in the hull?", cert.member, "(needs mass", cert.mass, ")")

try:
    dual_norm(SparseVector.unit(7), [e0, e1])
except NotInSpanError as err:
    print("out of span, separating witness:", err.certificate)

sol = simplex_solve([1], [constraint([1], "<=", 0), constraint([1], ">=", 1)])
print("infeasible toy system, Farkas multipliers:", sol.certificate["farkas"])

sol = simplex_solve([3, 5], [constraint([1, 0], "<=", 4),
                             constraint([0, 2], "<=", 12),
                             constraint([3, 2], "<=", 18)])
print("textbook LP optimum:", sol.objective, "at", sol.primal)
