"""Build a construction scheme and poke at its pieces.

A type triple (m, n, r) fixes all the geometry: set sizes m_k per rank,
decomposition widths n_k, root sizes r_k, tied by
m_k = n_k (m_{k-1} - r_k) + r_k.  The builder realizes one deterministic
scheme over the integer universe [0, m_depth) and the axiom checker
re-verifies every property by brute force.
"""

from csw import (
    build_scheme,
    check_axioms,
    find_capture,
    is_delta_system,
    scheme_dumps,
    validate_type,
)

ts = validate_type([1, 2, 4, 10], [2, 3, 4], [0, 1, 2])
print(f"type: m={ts.m} n={ts.n} r={ts.r}  universe=[0,{ts.universe_size})")

scheme = build_scheme(ts)
for rank, level in enumerate(scheme.levels):
    print(f"rank {rank}: {[list(s.elements) for s in level]}")

children = scheme.decomposition[scheme.top]
print(f"top root {list(scheme.top.root)}, pieces {[list(c.elements) for c in children]}")

report = check_axioms(scheme)
print("axioms:", "all pass" if report.passed else report.failures())

# engineer a family of aligned sets, then rediscover where it is captured
family = is_delta_system([[pm[p] for p in (2, 3)] for pm in scheme.piece_maps(scheme.top)[:3]])
print("aligned family:", [list(m) for m in family.members], "root", list(family.root))
capture = find_capture(scheme, family, 3)
print("captured by:", capture.site, "using members", capture.member_indices)

# a delta-system whose members skip a piece is not captured at all
print("capture of {(2,), (6,)}:", find_capture(scheme, is_delta_system([{2}, {6}]), 2))

print("\nserialized form (first 300 chars):")
print(scheme_dumps(scheme)[:300], "...")
