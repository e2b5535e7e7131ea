"""Acceptance suite: one test per release criterion, every tolerance exact.

Each test prints a single PASS line (visible with `pytest -s`) after its
assertions, so the suite doubles as a checklist.
"""

import random
import time
from fractions import Fraction

from csw.analysis import (
    EpsExperimentConfig,
    KExperimentConfig,
    basis_constant,
    check_biorthogonality,
    coherence_report,
    random_rational_vector,
    run_K_experiment,
    run_eps_experiment,
    well_definedness_report,
)
from csw.cli import main
from csw.norming import build_K_family, build_eps_family, norm
from csw.schemes import build_scheme, check_axioms, position_map, validate_type
from csw.vectors import parse_vector

from oracles import gauge_oracle, random_norming_set, random_span_member
from csw.hull import dual_norm

HALF = Fraction(1, 2)

AXIOM_SUITE_TYPES = [
    ([1, 2, 4, 10], [2, 3, 4], [0, 1, 2]),          # depth 3, nonconstant roots
    ([1, 6], [6], [0]),                             # depth 1, wide
    ([1, 2, 4, 10, 46], [2, 3, 4, 5], [0, 1, 2, 1]),  # depth 4, roots go up and down
    ([1, 4, 16, 64, 1024], [4, 4, 4, 16], [0, 0, 0, 0]),  # depth 4, universe 1024
]


def test_criterion_1_scheme_axiom_suite():
    started = time.monotonic()
    nonconstant_seen = False
    for m, n, r in AXIOM_SUITE_TYPES:
        ts = validate_type(m, n, r)
        assert ts.depth <= 4 and ts.universe_size <= 5000
        nonconstant_seen = nonconstant_seen or len(set(r)) > 1
        report = check_axioms(build_scheme(ts))
        assert report.passed, (m, n, r, [c.name for c in report.failures()])
    elapsed = time.monotonic() - started
    assert nonconstant_seen
    assert len(AXIOM_SUITE_TYPES) >= 3
    assert elapsed < 60
    print(f"PASS criterion 1: {len(AXIOM_SUITE_TYPES)} types built and "
          f"axiom-checked in {elapsed:.2f}s")


def test_criterion_2_biorthogonality_exact(scheme_depth1, scheme_depth3):
    for eps in (Fraction(1, 2), Fraction(2, 3)):
        for scheme in (scheme_depth1, scheme_depth3):
            family = build_eps_family(scheme, eps)
            report = check_biorthogonality(family)
            assert report.claim("diagonal_is_one").passed
            assert report.claim("vanishes_below_index").passed
            assert report.claim("offdiagonal_bounded").passed
            assert report.claim("offdiagonal_attained").passed
            assert report.claim("offdiagonal_attained").lhs == eps
    print("PASS criterion 2: diagonal 1, off-diagonal <= eps with exact "
          "attainment, for eps in {1/2, 2/3} at depths 1 and 3")


def test_criterion_3_coherence_sweep(eps_half_depth3, k2_depth3):
    totals = {}
    for family in (eps_half_depth3, k2_depth3):
        report = coherence_report(family, lp_every=10)
        assert report.passed, report.to_json()
        totals[family.space_kind] = (
            report.meta["restriction_instances"], report.meta["hull_instances"],
            report.meta["lp_cross_checked"])
    assert totals["eps"][0] > 0 and totals["eps"][1] > 0
    assert totals["k"][1] > 0
    print(f"PASS criterion 3: coherence sweep clean at depth 3 "
          f"(eps restriction/hull/lp {totals['eps']}, k {totals['k']})")


def test_criterion_4_norm_well_definedness(eps_half_depth3, k2_depth3):
    for family in (eps_half_depth3, k2_depth3):
        report = well_definedness_report(family, samples=200, seed=42)
        assert report.passed, report.to_json()
        assert report.meta["samples"] == 200
    print("PASS criterion 4: 200 seeded vectors agree across every covering "
          "set, both family kinds")


def test_criterion_5_eps_capture_experiment(eps_half_depth1):
    started = time.monotonic()
    report = run_eps_experiment(eps_half_depth1, EpsExperimentConfig(n=2))
    elapsed = time.monotonic() - started
    assert report.claim("form2_pairs_to_zero").lhs == 0
    assert report.claim("form2_pairs_to_zero").passed
    assert report.claim("form3_pairs_to_zero").lhs == 0
    assert report.claim("form3_pairs_to_zero").passed
    assert report.claim("form4_bounded_by_1_over_m").passed
    assert report.claim("form4_bounded_by_1_over_m").rhs == HALF
    assert report.norms["w_local"] == HALF
    assert report.passed
    assert elapsed < 5
    print(f"PASS criterion 5: capture cancellation exact on (1,6;6;0), "
          f"|w| = 1/2, in {elapsed:.2f}s")


def test_criterion_6_k_capture_experiment(k2_wide8):
    started = time.monotonic()
    report = run_K_experiment(k2_wide8, KExperimentConfig(n=4, L=Fraction(5, 4)))
    elapsed = time.monotonic() - started
    assert report.norms["v"] == 4
    assert report.norms["w"] == 2
    assert report.norms["ratio"] == 2 > Fraction(5, 4)
    assert report.claim("v_norm_at_least_n").passed
    assert report.claim("w_norm_at_most_n_over_K_plus_1").passed
    assert report.claim("w_norm_at_most_n_over_K_plus_1").rhs == 3
    assert report.claim("v_exceeds_L_times_w").passed
    assert report.passed
    assert elapsed < 10
    print(f"PASS criterion 6: |v| = 4, |w| = 2, ratio 2 > 5/4 on (1,8;8;0), "
          f"in {elapsed:.2f}s")


def test_criterion_7_k_basis_bound(scheme_tiny, scheme_depth2, scheme_wide8, k2_wide8):
    for K in (Fraction(2), Fraction(3, 2)):
        for scheme in (scheme_tiny, scheme_depth2):
            family = build_K_family(scheme, K, scale_cap=1)
            assert basis_constant(family).value <= K
    result = basis_constant(k2_wide8)
    assert result.value == 2
    # witness attains the constant with a unit-norm vector
    assert norm(result.attaining, k2_wide8) == 1
    assert norm(result.attaining.restrict_below(result.cut), k2_wide8) == result.value

    rng = random.Random(1234)
    universe = k2_wide8.scheme.universe_size
    violations = 0
    for _ in range(500):
        x = random_rational_vector(rng, universe)
        total = norm(x, k2_wide8)
        for cut in range(universe + 1):
            if norm(x.restrict_below(cut), k2_wide8) > 2 * total:
                violations += 1
    assert violations == 0
    print("PASS criterion 7: basis constant <= K at depth <= 2 for "
          "K in {2, 3/2}; exactly 2 on (1,8;8;0); 500-vector prefix sweep clean")


def test_criterion_8_lp_oracle_equivalence():
    rng = random.Random(31337)
    checked = 0
    for trial in range(60):
        dim = 1 + trial % 3
        H = random_norming_set(rng, dim)
        g = random_span_member(rng, H, dim)
        value = dual_norm(g, H)[0]
        assert value == gauge_oracle(g, H, dim), f"instance {trial}"
        checked += 1
    assert checked >= 50
    print(f"PASS criterion 8: simplex gauge equals vertex-enumeration gauge "
          f"on {checked} random norming sets (dims 1-3)")


def test_criterion_9_transport_and_scale_cap(scheme_depth3, eps_half_depth3,
                                             k2_depth3):
    for family in (eps_half_depth3, k2_depth3):
        for rank in range(1, scheme_depth3.depth + 1):
            for parent in scheme_depth3.levels[rank]:
                children = scheme_depth3.decomposition[parent]
                base = {f.vector for f in family.functionals_for(children[0])}
                for sibling in children[1:]:
                    pm = position_map(children[0], sibling)
                    transported = {v.map_positions(pm) for v in base}
                    actual = {f.vector for f in family.functionals_for(sibling)}
                    assert transported == actual, (parent, sibling)
    deeper = build_K_family(scheme_depth3, 2, scale_cap=3)
    rng = random.Random(77)
    for _ in range(50):
        x = random_rational_vector(rng, scheme_depth3.universe_size)
        assert norm(x, k2_depth3) == norm(x, deeper)
    print("PASS criterion 9: sibling transport exhaustive at depth 3, both "
          "kinds; cap-1 and cap-3 norms identical on 50 seeded vectors")


def test_criterion_10_norm_mode_discrepancy(tmp_path, capsys, scheme_depth1,
                                            eps_half_depth1):
    w = parse_vector("0:1,1:-1,2:-1/2,3:1/2,4:-1/2,5:1/2")
    local = norm(w, eps_half_depth1, mode="local")
    everything = norm(w, eps_half_depth1, mode="all")
    assert (local, everything) == (HALF, Fraction(1))

    scheme_file = tmp_path / "s.json"
    family_file = tmp_path / "H.json"
    assert main(["scheme", "build", "--type", "1,6;6;0",
                 "--out", str(scheme_file)]) == 0
    assert main(["norming", "build", "--scheme", str(scheme_file), "--space",
                 "eps", "--param", "1/2", "--out", str(family_file)]) == 0
    vec = "0:1,1:-1,2:-1/2,3:1/2,4:-1/2,5:1/2"
    assert main(["norm", "eval", "--family", str(family_file),
                 "--vec", vec, "--norm-mode", "local"]) == 0
    assert main(["norm", "eval", "--family", str(family_file),
                 "--vec", vec, "--norm-mode", "all"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-2:] == ["1/2", "1"]
    print("PASS criterion 10: fixture norms differ by mode (local 1/2, all 1)")
