"""The alternating norming family: one functional per position, recursively
amalgamated with alternating signs scaled by eps.

On the width-6 scheme the whole family is small enough to print.  The
functionals are biorthogonal up to eps: value 1 on their own index, at most
eps in absolute value elsewhere, and zero below their index.
"""

from fractions import Fraction

from csw import (
    build_eps_family,
    build_scheme,
    check_biorthogonality,
    global_dual,
    norm,
    parse_vector,
    validate_type,
)

scheme = build_scheme(validate_type([1, 6], [6], [0]))
family = build_eps_family(scheme, Fraction(1, 2))

print("family at the top set:")
for f in family.functionals_for(scheme.top):
    print(f"  {f.label():24s} {f.vector}")

report = check_biorthogonality(family)
print("\nbiorthogonality sweep:", "pass" if report.passed else "FAIL")
print("off-diagonal maximum:", report.meta["offdiagonal_max"])

print("\nglobal dual at 0:", global_dual(family, 0))

# the cancellation vector: transported unit patterns, alternating weights
w = parse_vector("0:1,1:-1,2:-1/2,3:1/2,4:-1/2,5:1/2")
print("\nw =", w)
print("norm (local, default):", norm(w, family))
print("norm (all functionals):", norm(w, family, mode="all"))
print("the two modes disagree on w by design; 'local' is what the capture")
print("cancellations are about, 'all' also sees the rank-0 unit functionals")
