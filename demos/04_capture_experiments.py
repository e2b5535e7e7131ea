"""The two capture experiments, end to end.

Both experiments engineer an aligned family of transported patterns inside
one decomposition, build the contrast vector the argument calls for, and
verify each exact pairing claim.

Alternating variant: with m = 2 n eps, the vector
w = (x_0 - x_1) - (1/m) sum (x_{2i} - x_{2i+1}) pairs to exactly zero
against three of the four amalgamation forms, and to at most 1/m against
the copies, so its norm collapses to 1/m.

Scaled-cut variant: with 1/K + 1/n < 1/L, the block sum v keeps norm n while
the balanced difference w stays at most n/K + 1, so v beats L * w strictly.
"""

import json
from fractions import Fraction

from csw import (
    EpsExperimentConfig,
    KExperimentConfig,
    build_K_family,
    build_eps_family,
    build_scheme,
    run_K_experiment,
    run_eps_experiment,
    validate_type,
)


def show(title, report):
    print(f"--- {title} ---")
    for claim in report.claims:
        flag = "pass" if claim.passed else "FAIL"
        extra = " (vacuous)" if claim.vacuous else ""
        print(f"  [{flag}] {claim.name}: {claim.lhs} {claim.relation} {claim.rhs}{extra}")
    print("  norms:", json.dumps(report.to_json()["norms"]))
    print()


scheme6 = build_scheme(validate_type([1, 6], [6], [0]))
eps_family = build_eps_family(scheme6, Fraction(1, 2))
report = run_eps_experiment(eps_family, EpsExperimentConfig(n=2))  # m = 2 n eps = 2
show("alternating capture, eps=1/2, n=2, m=2", report)
print("pairing table:")
for label, value in sorted(report.pairings.items()):
    print(f"  <{label}, w> = {value}")
print()

scheme8 = build_scheme(validate_type([1, 8], [8], [0]))
k_family = build_K_family(scheme8, 2, scale_cap=1)
report = run_K_experiment(k_family, KExperimentConfig(n=4, L=Fraction(5, 4)))
show("scaled-cut capture, K=2, n=4, L=5/4", report)
