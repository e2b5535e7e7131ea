import functools
import hashlib
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csw import analysis, hull, norming
from csw.cli import _json_text
from csw.analysis import (
    EpsExperimentConfig,
    KExperimentConfig,
    SeparationConfig,
    basis_constant,
    check_biorthogonality,
    coherence_report,
    random_rational_vector,
    run_K_experiment,
    run_eps_experiment,
    verify_eps_separation,
    well_definedness_report,
)
from csw.errors import (
    CaptureUnavailableError,
    ConfigInvalidError,
    EmptyFamilyError,
    NotBiorthogonalError,
    NotInSchemeError,
    PatternOutOfRangeError,
    WrongSpaceKindError,
)
from csw.hull import dual_norm, in_symmetric_hull, polar_support
from csw.kernels import norming_max
from csw.norming import (
    Functional,
    NormingFamily,
    Origin,
    build_K_family,
    build_eps_family,
    family_dumps,
    family_loads,
    global_dual,
    norm,
)
from csw.schemes import (
    build_scheme,
    check_axioms,
    find_capture,
    scheme_dumps,
    scheme_from_json,
    scheme_loads,
    scheme_to_json,
    validate_type,
)
from csw.simplex import simplex_solve
from csw.vectors import SparseVector, format_rational, parse_vector

from conftest import TYPE_DEPTH2
from oracles import (
    basis_constant_oracle,
    coherence_oracle,
    covered_by_a_piece,
    lp_digest,
    nested_pairs_oracle,
    random_fraction,
    transport_preimage_is_listed,
    well_definedness_oracle,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# biorthogonality sweeps

def test_biorthogonality_width6(eps_half_depth1):
    report = check_biorthogonality(eps_half_depth1)
    assert report.passed
    assert report.meta["offdiagonal_max"] == "1/2"


def test_biorthogonality_two_thirds(scheme_depth2):
    family = build_eps_family(scheme_depth2, Fraction(2, 3))
    report = check_biorthogonality(family)
    assert report.passed
    assert report.claim("offdiagonal_bounded").rhs == Fraction(2, 3)
    assert report.claim("offdiagonal_attained").passed


def test_biorthogonality_rejects_scaled_cut_kind(k2_tiny):
    with pytest.raises(WrongSpaceKindError):
        check_biorthogonality(k2_tiny)


# ---------------------------------------------------------------------------
# basis constants

def test_hand_injected_sup_family_has_constant_one(scheme_tiny):
    top = scheme_tiny.top
    fam = NormingFamily(
        scheme=scheme_tiny, space_kind="k", parameter=Fraction(2),
        families={top: [
            Functional(SparseVector.unit(0), (Origin("unit", 1, alpha=0),)),
            Functional(SparseVector.unit(1), (Origin("unit", 1, alpha=1),)),
        ]})
    assert basis_constant(fam).value == 1


def _top_only(scheme, vectors):
    """A family of `scheme` whose top set carries `vectors` and nothing else."""
    top = scheme.top
    return NormingFamily(
        scheme=scheme, space_kind="k", parameter=Fraction(2),
        families={top: [Functional(v, (Origin("unit", 1, alpha=0),))
                        for v in vectors]})


def test_basis_constant_skips_a_cut_outside_the_span(scheme_tiny):
    # the cut of e_0 + e_1 below 1 is e_0, which {e_0 + e_1} does not span
    result = basis_constant(_top_only(scheme_tiny, [parse_vector("0:1,1:1")]))
    assert (result.value, result.cut) == (1, 2)
    assert result.report.meta["skipped"] == [{
        "cut": 1, "functional": "unit/a0",
        "reason": "vector lies outside the span of the norming set"}]


def test_basis_constant_of_an_empty_top_family_is_zero(scheme_tiny):
    result = basis_constant(_top_only(scheme_tiny, []))
    assert result.value == 0 and result.attaining == SparseVector()
    assert not result.report.claim("prefix_constant_at_least_one").passed


def test_width8_constant_is_exactly_two(k2_wide8):
    result = basis_constant(k2_wide8)
    assert result.value == 2
    assert not result.skipped
    # the attaining vector is a unit vector whose prefix doubles
    assert norm(result.attaining, k2_wide8) == 1
    assert norm(result.attaining.restrict_below(result.cut), k2_wide8) == 2


def test_tiny_k_constant_is_one(k2_tiny):
    assert basis_constant(k2_tiny).value == 1


# the winning gauge LP's coefficients, recorded with the witnesses below
WITNESS_COEFFICIENTS = {
    "k2_wide8": {0: 1, 2: 1},
    "eps_half_depth3": {1: 1, 3: -HALF, 5: -HALF, 7: -HALF, 9: -HALF},
    "k2_depth3": {0: 1, 2: 1},
}


@pytest.mark.parametrize("fixture, value, cut, attaining", [
    ("k2_wide8", 2, 2, "0:1,1:1,5:-1,6:-1,7:-1"),
    ("eps_half_depth3", 3, 2, "0:-1,1:3,2:-3/2,3:-1,4:-3/2,5:-1,6:-3/2,7:-1,8:-3/2,9:-1"),
    ("k2_depth3", 2, 2, "0:1,1:1,8:-1,9:-1"),
])
def test_basis_constant_witness_is_pinned(request, fixture, value, cut, attaining):
    # the exact vectors the gauge and polar LPs returned when recorded; any
    # change in pivot order or column layout of the exact simplex shows up here
    result = basis_constant(request.getfixturevalue(fixture))
    assert (result.value, result.cut) == (value, cut)
    assert result.attaining == parse_vector(attaining)
    assert result.coefficients == WITNESS_COEFFICIENTS[fixture]
    assert result.report.meta["skipped"] == []


@pytest.fixture(scope="module")
def basis_constant_lps(request):
    """(name, scan) -> the LPs `scan` (`basis_constant` or its oracle) poses
    on that family, as (LP, rows, columns, solution) in call order, the LP
    being its objective and constraints, seen through the name `csw.hull`
    calls, which is the one perfbench's trace wraps; each family and scan
    once."""
    recorded = {}

    def lps(name, scan=basis_constant):
        if (name, scan) not in recorded:
            family = (build_K_family(request.getfixturevalue("scheme_depth2"),
                                     Fraction(5, 2), scale_cap=2)
                      if name == "k52cap2_depth2" else request.getfixturevalue(name))
            calls = []

            def solve(objective, constraints, sense="max"):
                sol = simplex_solve(objective, constraints, sense)
                calls.append(((tuple(objective), tuple(constraints), sense),
                              len(constraints), len(objective), sol))
                return sol

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hull, "simplex_solve", solve)
                scan(family)
            recorded[name, scan] = calls
        return recorded[name, scan]

    return lps


LP_FAMILIES = ["eps_half_depth3", "k52cap2_depth2", "k2_wide8", "k2_depth3"]


@pytest.mark.parametrize("name, calls, cells", [
    ("eps_half_depth3", 3, 800),
    ("k52cap2_depth2", 4, 960),
    ("k2_wide8", 3, 1536),
    ("k2_depth3", 4, 4900),
])
def test_basis_constant_poses_every_lp_through_hull(basis_constant_lps, name, calls, cells):
    # perfbench's simplex.calls and simplex.cells count these calls and shapes
    lps = basis_constant_lps(name)
    assert (len(lps), sum(rows * columns for _, rows, columns, _ in lps)) == (calls, cells)


@pytest.mark.parametrize("name, digest", [
    ("eps_half_depth3",
     "1cebd7a3eeef06566349e0a6c06a58de8b74a787ca288659f3042cbc2a1f50bb"),
    ("k52cap2_depth2",
     "fdeb6f488e2abbf81bb701ab953cd46aebca80855d02c870c1225890fc687ca6"),
    ("k2_wide8",
     "7605c14fac9c42b096630dd7f98c59cb2d93df09ee64e3dfa62ec99eaa52671a"),
    ("k2_depth3",
     "17c5e8ad5864fb9dd17b9c83a65d82ffadaba5a5cb46b10e8eb750a7e66a4c69"),
])
def test_basis_constant_lps_replay_the_recorded_solutions(basis_constant_lps, name, digest):
    # status, objective, point, certificate and stats of every LP as recorded
    assert lp_digest(sol for *_, sol in basis_constant_lps(name)) == digest


@pytest.mark.parametrize("name, calls, cells, digest", [
    ("eps_half_depth3", 22, 4600,
     "38cbe1aa0fa0d2d96de0fe2655149e7aefc88b4731f3909124ba784d1751d851"),
    ("k52cap2_depth2", 5, 1152,
     "d032a2400e09f893fcc4a75c72aabb57637e1e2e921bc60eb7be2913bb3beb12"),
    ("k2_wide8", 3, 1536,
     "7605c14fac9c42b096630dd7f98c59cb2d93df09ee64e3dfa62ec99eaa52671a"),
    ("k2_depth3", 7, 7840,
     "56f540b36358be9a9db8632d1c15fb9e78593e6cefd2b5552f66fc4986523494"),
])
def test_basis_constant_oracle_replays_the_every_cut_lps(basis_constant_lps, name, calls,
                                                        cells, digest):
    # the LPs basis_constant posed, as recorded, before it kept the bases of
    # the LPs it solves
    lps = basis_constant_lps(name, basis_constant_oracle)
    assert (len(lps), sum(rows * columns for _, rows, columns, _ in lps)) == (calls, cells)
    assert lp_digest(sol for *_, sol in lps) == digest


@pytest.mark.parametrize("name", LP_FAMILIES)
def test_basis_constant_only_drops_lps_of_the_every_cut_scan(basis_constant_lps, name):
    # each LP posed is the oracle's LP for the same cut, in the same order,
    # with the same solution: a kept basis skips LPs and changes none
    def posed(scan):
        return [(lp, lp_digest([sol])) for lp, *_, sol in basis_constant_lps(name, scan)]

    every = iter(posed(basis_constant_oracle))
    assert all(lp in every for lp in posed(basis_constant))


def test_polar_support_witness_is_pinned():
    e0, e1 = SparseVector.unit(0), SparseVector.unit(1)
    assert polar_support(e1, [e0 + e1, e0]) == (2, parse_vector("0:-1,1:2"))


def test_prefix_inequality_holds_on_random_vectors(k2_wide8):
    rng = random.Random(23)
    constant = basis_constant(k2_wide8).value
    universe = k2_wide8.scheme.universe_size
    for _ in range(50):
        x = random_rational_vector(rng, universe)
        total = norm(x, k2_wide8)
        for cut in range(universe + 1):
            assert norm(x.restrict_below(cut), k2_wide8) <= constant * total


# ---------------------------------------------------------------------------
# basis constants against the every-cut scan, `basis_constant_oracle`

def _matches_the_oracle(family):
    """basis_constant(family), asserted equal to the every-cut scan's
    result field by field and to its report byte for byte."""
    result, oracle = basis_constant(family), basis_constant_oracle(family)
    fields = ("value", "cut", "functional_label", "coefficients", "attaining", "skipped")
    assert [getattr(result, f) for f in fields] == [getattr(oracle, f) for f in fields]
    assert _json_text(result.report.to_json()) == _json_text(oracle.report.to_json())
    return result


@functools.cache
def _family(spec, kind, parameter, cap=1):
    scheme = build_scheme(validate_type(*([int(v) for v in part.split(",")]
                                          for part in spec.split(";"))))
    return (build_eps_family(scheme, parameter) if kind == "eps"
            else build_K_family(scheme, parameter, scale_cap=cap))


D2, D3, W8 = ("1,2,4;2,3;0,1", "1,2,4,10;2,3,4;0,1,2", "1,8;8;0")
T17 = "1,2,5,17;2,4,4;0,1,1"  # the smallest type whose cap-1 constant exceeds K


@pytest.mark.parametrize("family", [
    *[pytest.param(("fixture", name), id=name)
      for name in ("eps_half_depth3", "k2_wide8", "k2_depth3")],
    pytest.param((D2, "k", Fraction(5, 2), 2), id="k52cap2_depth2"),
    # the nine families of perfbench's lp-basis jobs
    *[pytest.param((D3, "eps", eps), id=f"d3-eps-{eps}")
      for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))],
    *[pytest.param((spec, "k", K, cap), id=f"{name}-K-{K}-cap{cap}")
      for name, spec, cap in (("d2", D2, 2), ("w8", W8, 1))
      for K in (Fraction(3, 2), Fraction(2), Fraction(5, 2))],
])
def test_basis_constant_matches_the_every_cut_scan(request, family):
    _matches_the_oracle(request.getfixturevalue(family[1]) if family[0] == "fixture"
                        else _family(*family))


@pytest.mark.parametrize("cap, value, cut, label", [
    (1, Fraction(5, 2), 10, "spread/exp1"),
    (2, Fraction(2), 2, "spread/a0"),
])
def test_t17_constant_exceeds_K_at_cap_1_and_is_K_at_cap_2(cap, value, cut, label):
    result = _matches_the_oracle(_family(T17, "k", Fraction(2), cap))
    assert (result.value, result.cut, result.functional_label) == (value, cut, label)
    assert result.skipped == []


def test_basis_constant_matches_the_every_cut_scan_on_hand_made_top_families(
        scheme_wide8, monkeypatch):
    # members of random density on eight positions, some multiples of
    # others: many families have cuts outside the span, many skip LPs.  Only
    # basis_constant calls analysis.verify_decomposition here, so every call
    # is a kept-basis check
    verify = analysis.verify_decomposition
    hits = []

    def counted(*args):
        hits.append(verify(*args))
        return hits[-1]

    monkeypatch.setattr(analysis, "verify_decomposition", counted)
    rng = random.Random(59)
    outside = skipping = 0
    for _ in range(60):
        density = rng.uniform(0.3, 0.9)
        vectors = []
        for _ in range(rng.randint(2, 10)):
            if vectors and rng.random() < 0.2:
                vectors.append(rng.choice(vectors).scale(random_fraction(rng, nonzero=True)))
            else:
                vectors.append(SparseVector((p, random_fraction(rng, 3, 2, nonzero=True))
                                            for p in range(8) if rng.random() < density))
        hits.clear()
        outside += bool(_matches_the_oracle(_top_only(scheme_wide8, vectors)).skipped)
        skipping += any(hits)
    assert (outside, skipping) == (46, 15)


# ---------------------------------------------------------------------------
# capture experiments

def test_eps_experiment_width6_frozen_table(eps_half_depth1):
    report = run_eps_experiment(eps_half_depth1, EpsExperimentConfig(n=2))
    assert report.passed
    assert report.norms["w_local"] == HALF
    assert report.norms["w_all_functionals"] == 1
    table = {label: value for label, value in report.pairings.items()}
    assert table["first_alternating/a0"] == 0
    assert table["second_alternating/a1"] == 0
    copies = sorted(str(v) for k, v in table.items() if k.startswith("copy"))
    assert copies == ["-1/2", "-1/2", "1/2", "1/2"]
    assert report.claim("form4_bounded_by_1_over_m").lhs == HALF


def test_eps_experiment_n1(eps_half_depth1):
    report = run_eps_experiment(eps_half_depth1, EpsExperimentConfig(n=1))
    assert report.passed
    assert report.claim("form2_pairs_to_zero").lhs == 0


def test_eps_experiment_nontrivial_pattern(eps_half_depth3):
    report = run_eps_experiment(
        eps_half_depth3, EpsExperimentConfig(n=1, pattern=parse_vector("2:1,3:1/3")))
    assert report.passed


def test_eps_experiment_root_only_pattern(eps_half_depth3):
    report = run_eps_experiment(
        eps_half_depth3, EpsExperimentConfig(n=1, pattern=SparseVector.unit(0)))
    assert report.passed
    assert report.norms["w_local"] == 0
    assert all(v == 0 for v in report.pairings.values())


@pytest.mark.parametrize("fixture, n, vec", [
    ("eps_half_depth1", 1, None), ("eps_half_depth1", 2, None), ("eps_half_depth3", 1, None),
    ("eps_half_depth3", 1, "0:1"), ("eps_half_depth3", 1, "2:1,3:1/3")])
def test_eps_experiment_is_captured_at_its_site(request, fixture, n, vec):
    # the copies, moved here by the piece maps, are captured first at the
    # site, by their leading members
    family = request.getfixturevalue(fixture)
    report = run_eps_experiment(
        family, EpsExperimentConfig(n=n, pattern=parse_vector(vec) if vec else None))
    scheme, count = family.scheme, 2 * n + 2
    site = next(F for F in scheme.sets() if str(F) == report.meta["site"])
    z = SparseVector({int(p): v for p, v in report.meta["pattern"].items()})
    copies = [z.map_positions(pm) for pm in scheme.piece_maps(site)[:count]]
    capture = find_capture(scheme, [x.support for x in copies], count)
    assert (capture.site, capture.member_indices) == (site, tuple(range(count)))
    assert report.meta["captured_at"] == report.meta["site"]


# the first piece of either site is {0}; 99 lies outside the universe
@pytest.mark.parametrize("vec", ["1:1", "0:1,2:1/2", "99:1"])
def test_experiments_refuse_a_pattern_outside_the_first_piece(eps_half_depth1, k2_wide8, vec):
    pattern = parse_vector(vec)
    with pytest.raises(PatternOutOfRangeError, match="first piece"):
        run_eps_experiment(eps_half_depth1, EpsExperimentConfig(n=1, pattern=pattern))
    with pytest.raises(PatternOutOfRangeError, match="first piece"):
        run_K_experiment(k2_wide8, KExperimentConfig(n=4, L=Fraction(5, 4), pattern=pattern))


def test_eps_experiment_config_validation(scheme_depth1, eps_half_depth1, k2_wide8):
    with pytest.raises(ConfigInvalidError, match="m = 2 n eps = 2/3 is not an integer"):
        run_eps_experiment(build_eps_family(scheme_depth1, Fraction(1, 3)),
                           EpsExperimentConfig(n=1))
    with pytest.raises(CaptureUnavailableError):
        run_eps_experiment(eps_half_depth1, EpsExperimentConfig(n=3))
    with pytest.raises(WrongSpaceKindError):
        run_eps_experiment(k2_wide8, EpsExperimentConfig(n=2))


def test_k_experiment_width8_frozen_values(k2_wide8):
    report = run_K_experiment(k2_wide8, KExperimentConfig(n=4, L=Fraction(5, 4)))
    assert report.passed
    assert report.norms["v"] == 4
    assert report.norms["w"] == 2
    assert report.norms["ratio"] == 2
    assert report.claim("w_norm_at_most_n_over_K_plus_1").rhs == 3
    assert report.meta["spread_witness"] is not None


def test_k_experiment_degenerate_n1_fails_config(k2_wide8):
    with pytest.raises(ConfigInvalidError):
        run_K_experiment(k2_wide8, KExperimentConfig(n=1, L=Fraction(5, 4)))


def test_k_experiment_slack_condition_enforced(k2_wide8):
    with pytest.raises(ConfigInvalidError):
        run_K_experiment(k2_wide8, KExperimentConfig(n=4, L=Fraction(3, 2)))


def test_k_experiment_kind_check(eps_half_depth1):
    with pytest.raises(WrongSpaceKindError):
        run_K_experiment(eps_half_depth1, KExperimentConfig(n=4, L=Fraction(5, 4)))


# ---------------------------------------------------------------------------
# separation bounds

def _unit_system(universe):
    return [SparseVector.unit(i) for i in range(universe)]


def test_separation_vacuous_at_tau_equal_eps(eps_half_depth1):
    ys = _unit_system(6)
    ystars = [global_dual(eps_half_depth1, i) for i in range(6)]
    config = SeparationConfig(tau=HALF, n=2)
    report = verify_eps_separation(eps_half_depth1, ys, ystars, config)
    assert report.meta["vacuous"] is True
    assert report.claim("separation_lower_bound").passed


def test_separation_tau_zero_exact(eps_half_depth1):
    ys = _unit_system(6)
    ystars = _unit_system(6)
    H = [f.vector for f in eps_half_depth1.functionals_for(eps_half_depth1.scheme.top)]
    bound = max(dual_norm(y, H)[0] for y in ystars)
    config = SeparationConfig(tau=Fraction(0), n=2)
    report = verify_eps_separation(eps_half_depth1, ys, ystars, config)
    assert report.meta["delta"] == format_rational(Fraction(1) / bound)
    assert report.norms["combination"] == HALF
    assert report.claim("separation_lower_bound").passed
    assert not report.meta["vacuous"]


def test_separation_two_term_degenerate(eps_half_depth1):
    ys = _unit_system(6)
    ystars = _unit_system(6)
    H = [f.vector for f in eps_half_depth1.functionals_for(eps_half_depth1.scheme.top)]
    bound = max(dual_norm(y, H)[0] for y in ystars)
    config = SeparationConfig(tau=Fraction(0), n=0)
    report = verify_eps_separation(eps_half_depth1, ys, ystars, config)
    assert report.norms["combination"] == 1
    assert report.claim("separation_lower_bound").passed


def test_separation_refuses_fewer_than_2n_plus_2_vectors(eps_half_depth1):
    units = _unit_system(5)
    with pytest.raises(ConfigInvalidError, match="need 2n[+]2 = 6 vectors, got 5"):
        verify_eps_separation(eps_half_depth1, units, units,
                              SeparationConfig(tau=Fraction(0), n=2))


def test_separation_rejects_non_biorthogonal(eps_half_depth1):
    ys = [SparseVector.unit(0), SparseVector.unit(0)]
    ystars = [SparseVector.unit(0), SparseVector.unit(0)]
    config = SeparationConfig(tau=Fraction(0), n=0)
    with pytest.raises(NotBiorthogonalError) as err:
        verify_eps_separation(eps_half_depth1, ys, ystars, config)
    assert err.value.witness == (0, 1)


@pytest.mark.parametrize("tau, delta, vacuous", [
    (Fraction(1, 3), "0", True),  # tau = eps/(1+eps): delta vanishes
    (Fraction(1, 4), "1/12", False),
])
def test_separation_delta_reads_m_and_n_off_the_data(eps_half_depth1, tau, delta, vacuous):
    units = _unit_system(6)
    report = verify_eps_separation(eps_half_depth1, units, units,
                                   SeparationConfig(tau=tau, n=2))
    assert report.meta["m"] == 2 and report.meta["N"] == "3"
    assert report.meta["delta"] == delta
    assert report.meta["vacuous"] is vacuous
    assert report.claim("separation_lower_bound").vacuous is vacuous
    assert report.passed


@pytest.mark.parametrize("eps, n, N", [
    (Fraction(1, 4), 2, "5/2"),
    (Fraction(1, 3), 3, "3"),
    (HALF, 1, "4"),
    (Fraction(2, 3), 3, "5"),
    (Fraction(3, 4), 2, "11/2"),
], ids=["eps-1/4", "eps-1/3", "eps-1/2", "eps-2/3", "eps-3/4"])
def test_separation_bound_vanishes_at_eps_over_one_plus_eps(scheme_wide8, eps, n, N):
    # the paper's threshold: delta > 0 exactly for tau < eps/(1+eps)
    family = build_eps_family(scheme_wide8, eps)
    units = _unit_system(8)
    threshold = eps / (1 + eps)
    for tau, sign in [(threshold - Fraction(1, 100), 1), (threshold, 0),
                      (threshold + Fraction(1, 100), -1)]:
        report = verify_eps_separation(family, units, units, SeparationConfig(tau=tau, n=n))
        delta = Fraction(report.meta["delta"])
        assert report.meta["N"] == N
        assert delta == (1 - tau * (1 + eps) / eps) / Fraction(N)
        assert (delta > 0) - (delta < 0) == sign
        assert report.meta["vacuous"] is (sign < 1)
        assert report.passed


def test_separation_refuses_negative_n_and_fractional_m(eps_half_depth1):
    units = _unit_system(6)
    with pytest.raises(ConfigInvalidError, match="n must be >= 0"):
        verify_eps_separation(eps_half_depth1, units, units,
                              SeparationConfig(tau=Fraction(0), n=-1))
    third = build_eps_family(eps_half_depth1.scheme, Fraction(1, 3))
    with pytest.raises(ConfigInvalidError, match="m = 2 n eps = 2/3 is not an integer"):
        verify_eps_separation(third, units, units, SeparationConfig(tau=Fraction(0), n=1))


# a float or bool rational would run as its binary value (1.1 as
# 2476979795053773/2251799813685248, True as 1); parse_rational refuses both
def _k_experiment(families, **fields):
    config = {"L": Fraction(5, 4), "kprime": Fraction(1), **fields}
    return run_K_experiment(families[1], KExperimentConfig(n=4, **config))


def _eps_separation(families, **fields):
    units = _unit_system(6)
    return verify_eps_separation(families[0], units, units, SeparationConfig(n=2, **fields))


@pytest.mark.parametrize("run, field, value", [
    (_k_experiment, "L", 1.1),
    (_k_experiment, "kprime", True),
    (_eps_separation, "tau", 0.6),
    (_eps_separation, "tau", False),
], ids=["experiment-L", "experiment-kprime", "separation-tau", "separation-tau-bool"])
def test_config_rationals_refuse_floats_and_bools(eps_half_depth1, k2_wide8, run, field, value):
    with pytest.raises(ValueError, match=f"refusing {type(value).__name__} input"):
        run((eps_half_depth1, k2_wide8), **{field: value})


# an integer field given a bool ran as 0 or 1, and one given a float failed
# deep inside or ran on a float schedule; each is refused where it is read
INT_FIELDS = {
    "experiment-eps-n": lambda eps, k, v: run_eps_experiment(eps, EpsExperimentConfig(n=v)),
    "experiment-K-n": lambda eps, k, v: run_K_experiment(
        k, KExperimentConfig(n=v, L=Fraction(5, 4))),
    "separation-eps-n": lambda eps, k, v: verify_eps_separation(
        eps, _unit_system(6), _unit_system(6), SeparationConfig(tau=Fraction(0), n=v)),
    "welldef-samples": lambda eps, k, v: well_definedness_report(eps, samples=v),
    "coherence-lp-every": lambda eps, k, v: coherence_report(k, lp_every=v),
}


@pytest.mark.parametrize("value", [True, 2.0, 2.5], ids=["bool", "whole-float", "float"])
@pytest.mark.parametrize("field", sorted(INT_FIELDS))
def test_config_integers_refuse_bools_and_floats(eps_half_depth1, k2_wide8, field, value):
    with pytest.raises(ConfigInvalidError, match=f"must be an integer, got {value!r}"):
        INT_FIELDS[field](eps_half_depth1, k2_wide8, value)


def test_separation_checks_refuse_the_other_kind(k2_wide8):
    ys = [SparseVector.unit(0), SparseVector.unit(1)]
    with pytest.raises(WrongSpaceKindError):
        verify_eps_separation(k2_wide8, ys, ys, SeparationConfig(tau=Fraction(0), n=0))


# ---------------------------------------------------------------------------
# sweeps and report plumbing

def test_coherence_depth2_both_kinds(eps_half_depth2, k2_depth2):
    for family in (eps_half_depth2, k2_depth2):
        report = coherence_report(family, lp_every=7)
        assert report.passed
        assert report.meta["hull_instances"] > 0


def test_well_definedness_sweep(eps_half_depth2, k2_depth2):
    for family in (eps_half_depth2, k2_depth2):
        report = well_definedness_report(family, samples=60, seed=3)
        assert report.passed
        assert report.meta["samples"] > 0


def test_report_rendering(eps_half_depth1):
    report = run_eps_experiment(eps_half_depth1, EpsExperimentConfig(n=2))
    payload = report.to_json()
    assert payload["pass"] is True
    assert payload["norms"]["w_local"] == "1/2"
    rows = report.to_csv_rows()
    assert rows[0][0] == "claim"
    assert len(rows) == len(report.claims) + 1


# ---------------------------------------------------------------------------
# sweep failures on tampered copies; every witness was recorded before the
# coherence sweep became one pass per (E, F).  A tampered copy is not
# rank-canonical, so `coherence_report` refuses it and only the every-pair
# scan, `coherence_oracle`, judges it

def _tampered(family, s, index, vector):
    """A copy of `family` whose index-th functional on `s` carries `vector`;
    the session fixture itself is left alone."""
    fam = list(family.families[s])
    fam[index] = replace(fam[index], vector=vector)
    return replace(family, families={**family.families, s: fam})


def _witnesses(report):
    return {c.name: (c.passed, c.witness) for c in report.claims}


def _refused(family, lp_every=0):
    with pytest.raises(ConfigInvalidError, match="rank-canonical"):
        coherence_report(family, lp_every=lp_every)


def test_biorthogonality_reports_first_bad_diagonal(eps_half_depth2):
    top = eps_half_depth2.scheme.top
    family = _tampered(eps_half_depth2, top, 2, parse_vector("2:2,3:-1"))
    found = _witnesses(check_biorthogonality(family))
    assert found["diagonal_is_one"] == (False, {"alpha": 2, "value": "2"})
    assert found["vanishes_below_index"] == (True, None)
    assert found["offdiagonal_bounded"] == (
        False, {"alpha": 2, "beta": 3, "value": "-1"})


def test_biorthogonality_reports_first_nonvanishing_entry(eps_half_depth2):
    top = eps_half_depth2.scheme.top
    family = _tampered(eps_half_depth2, top, 3, parse_vector("1:1/4,3:1"))
    found = _witnesses(check_biorthogonality(family))
    assert found["diagonal_is_one"] == (True, None)
    assert found["vanishes_below_index"] == (
        False, {"alpha": 3, "beta": 1, "value": "1/4"})
    assert found["offdiagonal_bounded"][0]


def test_biorthogonality_refuses_a_top_family_without_an_alpha(eps_half_depth2):
    top = eps_half_depth2.scheme.top
    fam = [f for f in eps_half_depth2.families[top] if f.origin.alpha != 2]
    family = replace(eps_half_depth2, families={**eps_half_depth2.families, top: fam})
    with pytest.raises(EmptyFamilyError, match="no functional indexed by 2 at the top set"):
        check_biorthogonality(family)


def test_biorthogonality_reads_the_first_functional_at_each_alpha(eps_half_depth2):
    top = eps_half_depth2.scheme.top
    fam = list(eps_half_depth2.families[top])
    fam.append(replace(fam[2], vector=parse_vector("2:2,3:-1")))
    family = replace(eps_half_depth2, families={**eps_half_depth2.families, top: fam})
    assert (check_biorthogonality(family).to_json()
            == check_biorthogonality(eps_half_depth2).to_json())


def test_coherence_reports_first_restriction_failure(eps_half_depth2):
    top = eps_half_depth2.scheme.top
    family = _tampered(eps_half_depth2, top, 1, parse_vector("1:1/2,3:1/2"))
    _refused(family)
    report = coherence_oracle(family)
    assert _witnesses(report) == {
        "restriction_coherence": (
            False, {"E": "rank0{1}", "F": "rank2{0,1,2,3}", "alpha": 1}),
        "hull_coherence": (True, None),
    }
    assert (report.meta["restriction_instances"], report.meta["hull_instances"]) == (16, 40)


def test_coherence_reports_missing_restriction_as_failure(eps_half_depth2):
    first = eps_half_depth2.scheme.levels[1][0]
    fam = eps_half_depth2.families[first][:1]  # drops the functional at 1
    family = replace(eps_half_depth2, families={**eps_half_depth2.families, first: fam})
    _refused(family)
    found = _witnesses(coherence_oracle(family))
    assert found["restriction_coherence"] == (
        False, {"E": "rank1{0,1}", "F": "rank2{0,1,2,3}", "alpha": 1})
    assert not found["hull_coherence"][0]


@pytest.mark.parametrize("lp_every, lp_checked", [(0, 0), (1, 139), (3, 47)])
def test_coherence_reports_first_hull_failure(k2_depth2, lp_every, lp_checked):
    top = k2_depth2.scheme.top
    family = _tampered(k2_depth2, top, 4, parse_vector("2:3"))
    _refused(family, lp_every)
    report = coherence_oracle(family, lp_every=lp_every)
    assert _witnesses(report) == {"hull_coherence": (
        False, {"E": "rank0{2}", "F": "rank2{0,1,2,3}", "functional": "unit/a2"})}
    assert report.meta == {"kind": "k", "restriction_instances": 0,
                           "hull_instances": 141, "lp_cross_checked": lp_checked}


def test_well_definedness_reports_first_disagreement(k2_depth2):
    top = k2_depth2.scheme.top
    family = _tampered(k2_depth2, top, 0, parse_vector("0:3"))
    report = well_definedness_report(family, samples=20, seed=0)
    assert _witnesses(report) == {"norm_independent_of_covering_set": (
        False, {"vector": {"0": "3"}, "values": ["3", "9"]})}


# sha256 of each report as `csw analyze` renders it, recorded while
# norming_max and proportional_member still computed in Fractions
REPORT_DIGESTS = [
    ("welldef", "k2cap2_depth4",
     "1d07611aa07f049bc052be9c56a55b98d83f2dc55737e01b0c56e1d5a1e3c1ce"),
    ("welldef", "eps_half_depth5",
     "1d07611aa07f049bc052be9c56a55b98d83f2dc55737e01b0c56e1d5a1e3c1ce"),
    ("coherence", "k2cap2_depth4",
     "85a65b77a12f3a8a354612a3b5c1b3749986c69fe427ccf24c24bf4571d22e3e"),
    ("coherence", "eps_half_depth5",
     "cda6a6918aa32b0f26ca1da6162e67010140248a34a17cecacb9b53f78f64b92"),
]


@pytest.mark.parametrize("what, name, digest", REPORT_DIGESTS,
                         ids=["welldef-d4-k-2-cap2", "welldef-d5-eps-1/2",
                              "coherence-d4-k-2-cap2", "coherence-d5-eps-1/2"])
def test_report_bytes_are_pinned(request, what, name, digest):
    family = request.getfixturevalue(name)
    if what == "welldef":
        report = well_definedness_report(family, samples=200, seed=0)
    else:
        report = coherence_report(family)
    text = _json_text(report.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# coherence reports against the every-pair scan, `coherence_oracle`

PINNED_FAMILIES = ["eps_half_depth1", "eps_half_depth2", "eps_half_depth3",
                   "k2_tiny", "k2_wide8", "k2_depth2", "k2_depth3"]


def _first_set_instances(family):
    """Instances of the (piece, parent) pairs at the first set of each rank:
    the pairs the first-set scan checks."""
    scheme = family.scheme
    return sum(len(set(scheme.decomposition[level[0]])) * len(family.functionals_for(level[0]))
               for level in scheme.levels[1:])


def _uncovered_pairs(scheme):
    return [(E, F) for E, F in nested_pairs_oracle(scheme)
            if not covered_by_a_piece(scheme, E, F)]


@pytest.mark.parametrize("name", PINNED_FAMILIES)
def test_piece_scan_matches_full_scan(request, name):
    family = request.getfixturevalue(name)
    report = coherence_report(family)
    assert report.passed
    assert report.to_json() == coherence_oracle(family).to_json()


def _faulty_builds(monkeypatch, rank, index, vector):
    """Make the builders give the index-th functional of the first set of
    `rank` the vector `vector`: every family built from now on is
    rank-canonical and wrong from its build, since a built family cannot be
    edited in place."""
    build = norming._build

    def faulty(scheme, rank0, amalgamate):
        first = scheme.levels[rank][0]

        def fault(F, fam):
            fam = tuple(fam)
            if F != first:
                return fam
            return (*fam[:index], replace(fam[index], vector=vector), *fam[index + 1:])

        return build(scheme, lambda s: fault(s, rank0(s)),
                     lambda F, maps, first_family: fault(F, amalgamate(F, maps, first_family)))

    monkeypatch.setattr(norming, "_build", faulty)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_first_set_scan_matches_the_oracle_on_faulty_builds(
        data, eps_half_depth2, eps_half_depth3, k2_depth2, k2_depth3):
    # the lemma's soundness claim: on a rank-canonical family the first-set
    # scan passes exactly when every nested pair does
    sound = data.draw(st.sampled_from([eps_half_depth2, eps_half_depth3, k2_depth2, k2_depth3]))
    rank = data.draw(st.integers(0, sound.scheme.depth))
    first = sound.scheme.levels[rank][0]
    at = data.draw(st.integers(0, len(sound.functionals_for(first)) - 1))
    support = data.draw(st.lists(st.sampled_from(first.elements), unique=True))
    values = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    vector = SparseVector({p: data.draw(values) for p in support})
    with pytest.MonkeyPatch.context() as mp:
        _faulty_builds(mp, rank, at, vector)
        family = (build_eps_family(sound.scheme, sound.parameter) if sound.space_kind == "eps"
                  else build_K_family(sound.scheme, sound.parameter, sound.scale_cap))
    assert family.rank_canonical
    report, oracle = coherence_report(family), coherence_oracle(family)
    assert ({c.name: c.passed for c in report.claims}
            == {c.name: c.passed for c in oracle.claims})
    assert report.passed == oracle.passed
    for count in ("restriction_instances", "hull_instances"):
        assert report.meta[count] == oracle.meta[count]


def test_piece_scan_checks_pairs_a_loaded_decomposition_leaves_uncovered(k2_depth2):
    scheme = k2_depth2.scheme
    top = scheme.top
    dropped = scheme.decomposition[top][-1]  # rank1{0,3}
    kept = {**scheme.decomposition, top: scheme.decomposition[top][:-1]}
    family = _tampered(k2_depth2, top, 0, parse_vector("3:2"))
    family = replace(family, scheme=replace(scheme, decomposition=kept))
    single = scheme.levels[0][3]  # rank0{3}: covered by rank1{0,3} until it is dropped
    assert (single, top) not in _uncovered_pairs(scheme)
    assert {(single, top), (dropped, top)} <= set(_uncovered_pairs(family.scheme))
    _refused(family)
    report = coherence_oracle(family)
    assert not report.passed
    assert _witnesses(report) == {"hull_coherence": (
        False, {"E": "rank0{3}", "F": "rank2{0,1,2,3}", "functional": "unit/a0"})}


def _count_hull_calls(monkeypatch):
    """A list whose length is the number of `in_symmetric_hull` calls that
    `analysis` makes from now on."""
    calls = []

    def counted(f, H):
        calls.append(f)
        return in_symmetric_hull(f, H)

    monkeypatch.setattr(analysis, "in_symmetric_hull", counted)
    return calls


@pytest.mark.parametrize("name", PINNED_FAMILIES)
def test_piece_scan_checks_only_the_piece_pairs(request, monkeypatch, name):
    family = request.getfixturevalue(name)
    calls = _count_hull_calls(monkeypatch)
    report = coherence_report(family)
    assert report.passed
    assert len(calls) == _first_set_instances(family)
    if family.scheme.depth > 1:
        assert len(calls) < report.meta["hull_instances"]
    calls.clear()  # a plain dict is not rank-canonical: refused before any check
    by_hand = replace(family, families=dict(family.families))
    _refused(by_hand)
    assert calls == []
    assert coherence_oracle(by_hand).to_json() == report.to_json()


@pytest.mark.parametrize("lp_every", [0, 3])
def test_coherence_scans_a_failing_family_once(k2_depth2, monkeypatch, lp_every):
    calls = _count_hull_calls(monkeypatch)
    lps = []
    monkeypatch.setattr(analysis, "dual_norm", lambda f, H: lps.append(f) or dual_norm(f, H))
    # a tampered copy is refused before any check or LP
    _refused(_tampered(k2_depth2, k2_depth2.scheme.top, 4, parse_vector("2:3")), lp_every)
    assert calls == [] and lps == []
    # the same fault made by the builder: one first-set scan of its 57
    # instances, and every third of them that has a direct certificate
    # through an LP when lp_every is 3
    _faulty_builds(monkeypatch, 2, 4, parse_vector("2:3"))
    family = build_K_family(k2_depth2.scheme, 2)
    report = coherence_report(family, lp_every=lp_every)
    assert not report.passed and report.meta["hull_instances"] == 141
    assert len(calls) == 57 and len(lps) == report.meta["lp_cross_checked"]
    assert report.meta["lp_cross_checked"] == (19 if lp_every else 0)


# ---------------------------------------------------------------------------
# the first-set scan: on a rank-canonical family, a pair at a set that is not
# the first of its rank is the transport of a pair at that first set

SMALL_TYPES = [([1, 2], [2], [0]), ([1, 2, 4], [2, 3], [0, 1]),
               ([1, 2, 4, 10], [2, 3, 4], [0, 1, 2]), ([1, 8], [8], [0])]


def _built_family(triple, kind, param, cap):
    scheme = build_scheme(validate_type(*triple))
    return (build_eps_family(scheme, param) if kind == "eps"
            else build_K_family(scheme, param, scale_cap=cap))


@functools.cache
def _small_family(index, kind, param, cap, loaded):
    family = _built_family(SMALL_TYPES[index], kind, param, cap)
    return family_loads(family_dumps(family)) if loaded else family


@settings(max_examples=40, deadline=None, derandomize=True)
@given(index=st.integers(0, len(SMALL_TYPES) - 1),
       kind_param=st.sampled_from([("eps", Fraction(1, 3)), ("eps", HALF),
                                   ("k", Fraction(3, 2)), ("k", Fraction(2))]),
       cap=st.integers(1, 2), loaded=st.booleans())
def test_first_set_scan_matches_full_scan_on_built_families(index, kind_param, cap, loaded):
    kind, param = kind_param
    family = _small_family(index, kind, param, cap if kind == "k" else 0, loaded)
    assert family.rank_canonical
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_hull_calls(mp)
        report = coherence_report(family)
    assert report.passed
    assert len(calls) == _first_set_instances(family)
    assert _json_text(report.to_json()) == _json_text(coherence_oracle(family).to_json())


SHARED_ROOT_TYPES = {
    "t17": ([1, 2, 5, 17], [2, 4, 4], [0, 1, 1]),
    "1,3,7": ([1, 3, 7], [3, 3], [0, 1]),
    "u23": ([1, 2, 4, 7, 23], [2, 3, 4, 5], [0, 1, 3, 3]),
}


@pytest.mark.parametrize("kind, param, cap", [("eps", HALF, 0), ("k", Fraction(2), 1),
                                              ("k", Fraction(2), 2)],
                         ids=["eps1/2", "K2cap1", "K2cap2"])
@pytest.mark.parametrize("triple", SHARED_ROOT_TYPES.values(), ids=SHARED_ROOT_TYPES)
def test_first_set_scan_matches_full_scan_where_pieces_share_roots(triple, kind, param, cap):
    # pieces share their parent's nonempty root, so a set can lie in two
    # pieces of a first set; built and loaded, the report counts each set
    # inside once, as the every-pair scan does
    built = _built_family(triple, kind, param, cap)
    for family in (built, family_loads(family_dumps(built))):
        assert family.rank_canonical
        report = coherence_report(family)
        assert report.passed
        assert _json_text(report.to_json()) == _json_text(coherence_oracle(family).to_json())


@pytest.mark.parametrize("name, moved", [("eps_half_depth3", 6), ("eps_half_depth5", 15)])
def test_coherence_moves_only_the_families_of_the_checked_pairs(request, monkeypatch, name, moved):
    # a fresh family keeps each rank's first-set family alone; the scan reads
    # the n_k pieces of each rank k's first set, the first of which is the
    # first set of rank k - 1, so it moves sum over k of (n_k - 1) families
    built = request.getfixturevalue(name)
    family = build_eps_family(built.scheme, HALF)
    calls, move = [], norming._moved
    monkeypatch.setattr(norming, "_moved",
                        lambda fam, pm: calls.append(tuple(pm.values())) or move(fam, pm))
    report = coherence_report(family)
    scheme = family.scheme
    assert len(calls) == sum(len(scheme.decomposition[level[0]]) - 1
                             for level in scheme.levels[1:]) == moved
    assert report.to_json() == coherence_report(built).to_json()


@pytest.mark.parametrize("name", ["eps_half_depth3", "k2_depth3"])
def test_a_permuted_level_takes_the_every_pair_scan(request, name):
    # a scheme is equal to the built one or the family is not rank-canonical,
    # even when the axioms still pass; such a family is judged by the
    # every-pair scan alone, and cannot be written
    family = request.getfixturevalue(name)
    scheme = family.scheme
    levels = [*scheme.levels[:2], scheme.levels[2][::-1], *scheme.levels[3:]]
    permuted = replace(family, scheme=replace(scheme, levels=levels))
    assert permuted.scheme.levels[2][0] != scheme.levels[2][0]
    assert check_axioms(permuted.scheme).passed and not permuted.rank_canonical
    _refused(permuted)
    expected = _json_text(coherence_report(family).to_json())
    assert _json_text(coherence_oracle(permuted).to_json()) == expected
    with pytest.raises(ConfigInvalidError, match="rank-canonical"):
        family_dumps(permuted)


def test_a_scheme_that_lost_a_set_is_refused(k2_depth2):
    # a scheme that lost a set after the build no longer lists the sets the
    # family was built on, so it is not rank-canonical: the first-set scan
    # would transport a pair whose preimage is not listed
    scheme = k2_depth2.scheme
    dropped = scheme.levels[0][1]  # rank0{1}, a piece of the first rank-1 set
    levels = [[s for s in scheme.levels[0] if s != dropped], *scheme.levels[1:]]
    family = replace(k2_depth2, scheme=replace(scheme, levels=levels))
    # rank1{0,2} moves rank0{2} onto the dropped set
    assert not transport_preimage_is_listed(family.scheme, scheme.levels[0][2],
                                            scheme.levels[1][1])
    assert not family.rank_canonical
    _refused(family)
    assert coherence_oracle(family).passed


def test_a_set_added_to_a_level_is_not_rank_canonical(k2_depth2):
    scheme = k2_depth2.scheme
    added = replace(scheme.levels[1][0], elements=(1, 2))
    levels = [scheme.levels[0], [*scheme.levels[1], added], *scheme.levels[2:]]
    assert not replace(k2_depth2, scheme=replace(scheme, levels=levels)).rank_canonical


def test_a_set_moved_to_another_level_is_not_rank_canonical(k2_depth2):
    scheme = k2_depth2.scheme
    moved = scheme.levels[0][1]
    levels = [[s for s in scheme.levels[0] if s != moved],
              [*scheme.levels[1], moved], *scheme.levels[2:]]
    family = replace(k2_depth2, scheme=replace(scheme, levels=levels))
    assert set(family.scheme.sets()) == set(scheme.sets())
    assert not family.rank_canonical


def test_an_empty_level_added_after_the_build_keeps_the_report(k2_depth2):
    scheme = k2_depth2.scheme
    family = replace(k2_depth2, scheme=replace(scheme, levels=[*scheme.levels, []]))
    assert not family.rank_canonical
    _refused(family)
    expected = _json_text(coherence_report(k2_depth2).to_json())
    assert _json_text(coherence_oracle(family).to_json()) == expected


@pytest.mark.parametrize("name", ["eps_half_depth3", "k2_depth3"])
def test_a_reloaded_scheme_keeps_the_family_rank_canonical(request, monkeypatch, name):
    family = request.getfixturevalue(name)
    reloaded = replace(family, scheme=scheme_loads(scheme_dumps(family.scheme)))
    assert reloaded.scheme.top == family.scheme.top
    assert reloaded.scheme.top is not family.scheme.top
    assert reloaded.rank_canonical
    calls = _count_hull_calls(monkeypatch)
    report = coherence_report(reloaded)
    assert len(calls) == _first_set_instances(family)
    assert report.to_json() == coherence_report(family).to_json()


@pytest.mark.parametrize("name", ["eps_half_depth3", "k2_depth3"])
def test_an_equal_scheme_keeps_the_family_rank_canonical(request, monkeypatch, name):
    family = request.getfixturevalue(name)
    copy = replace(family, scheme=replace(family.scheme))
    assert copy.scheme == family.scheme and copy.scheme is not family.scheme
    assert copy.rank_canonical
    calls = _count_hull_calls(monkeypatch)
    report = coherence_report(copy)
    assert len(calls) == _first_set_instances(family)
    assert report.to_json() == coherence_report(family).to_json()
    assert family_dumps(copy) == family_dumps(family)


# witnesses recorded before the first-set scan
@pytest.mark.parametrize("name, index, vector, witnesses", [
    ("k2_depth2", 1, "3:3", {"hull_coherence": (
        False, {"E": "rank0{3}", "F": "rank1{0,3}", "functional": "spread/a0"})}),
    ("eps_half_depth2", 1, "0:1/4,3:1", {
        "restriction_coherence": (
            False, {"E": "rank1{0,3}", "F": "rank2{0,1,2,3}", "alpha": 3}),
        "hull_coherence": (
            False, {"E": "rank1{0,3}", "F": "rank2{0,1,2,3}", "functional": "copy/a3"})}),
], ids=["k", "eps"])
def test_a_tampered_set_that_is_not_first_still_fails(request, name, index, vector, witnesses):
    family = request.getfixturevalue(name)
    s = family.scheme.levels[1][2]  # rank1{0,3}, the last rank-1 set
    tampered = _tampered(family, s, index, parse_vector(vector))
    assert not tampered.rank_canonical
    _refused(tampered)
    assert _witnesses(coherence_oracle(tampered)) == witnesses


@pytest.mark.parametrize("loaded", [False, True], ids=["replaced", "loaded"])
def test_a_decomposition_changed_after_the_build_is_not_rank_canonical(k2_depth2, loaded):
    scheme = k2_depth2.scheme
    top = scheme.top
    edited = {**scheme.decomposition, top: scheme.decomposition[top][:-1]}
    if loaded:  # the same edit made in a scheme file
        payload = scheme_to_json(scheme)
        payload["decomposition"]["2:0"].pop()
        changed = scheme_from_json(payload)
        assert changed.decomposition == edited
    else:
        changed = replace(scheme, decomposition=edited)
    family = replace(k2_depth2, scheme=changed)
    assert set(family.scheme.sets()) == set(scheme.sets())
    assert not family.rank_canonical
    _refused(family)
    assert coherence_oracle(family).to_json() == coherence_report(k2_depth2).to_json()


def test_a_builder_fault_fails_the_first_set_scan_alone(monkeypatch):
    # here the top family is wrong from its build
    _faulty_builds(monkeypatch, 2, 4, parse_vector("2:3"))
    family = build_K_family(build_scheme(validate_type(*TYPE_DEPTH2)), 2)
    assert family.rank_canonical
    assert family.functionals_for(family.scheme.top)[4].vector == parse_vector("2:3")
    calls = _count_hull_calls(monkeypatch)
    report = coherence_report(family)
    assert not report.passed
    assert len(calls) == _first_set_instances(family) == 57
    assert report.meta["hull_instances"] == 141
    # the first failing (piece, first set) pair; the every-pair scan, which
    # checks rank0{2} inside the top set first, names that pair
    assert _witnesses(report) == {"hull_coherence": (
        False, {"E": "rank1{0,2}", "F": "rank2{0,1,2,3}", "functional": "unit/a2"})}
    assert _witnesses(coherence_oracle(family)) == {"hull_coherence": (
        False, {"E": "rank0{2}", "F": "rank2{0,1,2,3}", "functional": "unit/a2"})}


def test_a_builder_fault_fails_restriction_on_the_first_set_scan(monkeypatch):
    # the top family's functional at 1 is wrong from its build
    _faulty_builds(monkeypatch, 2, 1, parse_vector("1:1/2,3:1/2"))
    family = build_eps_family(build_scheme(validate_type(*TYPE_DEPTH2)), HALF)
    assert family.rank_canonical
    report = coherence_report(family)
    assert (report.meta["restriction_instances"], report.meta["hull_instances"]) == (16, 40)
    # the first failing (piece, first set) pair, and the every-pair scan's
    assert _witnesses(report) == {
        "restriction_coherence": (
            False, {"E": "rank1{0,1}", "F": "rank2{0,1,2,3}", "alpha": 1}),
        "hull_coherence": (True, None),
    }
    assert _witnesses(coherence_oracle(family))["restriction_coherence"] == (
        False, {"E": "rank0{1}", "F": "rank2{0,1,2,3}", "alpha": 1})


# ---------------------------------------------------------------------------
# the well-definedness sweep against its definition

@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_well_definedness_report_matches_its_oracle(data):
    kind, param = data.draw(st.sampled_from([("eps", HALF), ("eps", Fraction(1, 3)),
                                             ("k", Fraction(2)), ("k", Fraction(3, 2))]))
    family = _small_family(data.draw(st.sampled_from([1, 2])), kind, param,
                           data.draw(st.integers(1, 2)) if kind == "k" else 0, False)
    if data.draw(st.booleans()):
        s = data.draw(st.sampled_from(list(family.scheme.sets())))
        index = data.draw(st.integers(0, len(family.functionals_for(s)) - 1))
        support = data.draw(st.lists(st.sampled_from(s.elements), unique=True))
        values = st.fractions(min_value=-2, max_value=2, max_denominator=4)
        family = _tampered(family, s, index, SparseVector({p: data.draw(values) for p in support}))
    samples, seed = data.draw(st.integers(1, 60)), data.draw(st.integers(0, 9))
    assert (_json_text(well_definedness_report(family, samples, seed).to_json())
            == _json_text(well_definedness_oracle(family, samples, seed).to_json()))


def _samples(family, samples, seed):
    """(x, its covering sets) for each sample of the report's stream."""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < samples:
        x = random_rational_vector(rng, family.scheme.universe_size)
        if not x.is_zero():
            drawn.append((x, family.scheme.containing_sets(x.support)))
    return drawn


@pytest.mark.parametrize("name", ["eps_half_depth2", "eps_half_depth3", "k2_depth2", "k2_depth3"])
def test_well_definedness_evaluates_norms_only_where_two_sets_cover(request, monkeypatch, name):
    family = request.getfixturevalue(name)
    calls = []
    monkeypatch.setattr(analysis, "norming_max", lambda x, H: calls.append(x) or norming_max(x, H))
    assert well_definedness_report(family, samples=200, seed=5).passed
    drawn = _samples(family, 200, 5)
    assert calls == [x for x, covers in drawn if len(covers) >= 2 for _ in covers]
    assert 0 < sum(len(covers) == 1 for _, covers in drawn) < 200


def test_well_definedness_fails_a_sample_no_set_covers(k2_depth2):
    scheme = k2_depth2.scheme
    family = replace(k2_depth2, scheme=replace(scheme, levels=scheme.levels[:-1]))  # no top set
    report = well_definedness_report(family, samples=20, seed=0)
    witness = report.claim("norm_independent_of_covering_set").witness
    assert not report.passed and witness["values"] == []
    assert family.scheme.containing_sets(map(int, witness["vector"])) == []
    assert report.to_json() == well_definedness_oracle(family, 20, 0).to_json()


def test_well_definedness_raises_on_a_missing_family(k2_depth2):
    top = k2_depth2.scheme.top
    family = replace(k2_depth2, families={s: fam for s, fam in k2_depth2.families.items()
                                          if s != top})
    with pytest.raises(NotInSchemeError, match=r"no family attached to rank2\{0,1,2,3\}"):
        well_definedness_report(family, samples=20, seed=0)


@pytest.mark.parametrize("seed", [None, True, 1.5, "x"], ids=["none", "bool", "float", "str"])
def test_well_definedness_refuses_a_seed_that_is_not_an_integer(k2_depth2, seed):
    message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ConfigInvalidError, match=message):
        well_definedness_report(k2_depth2, samples=20, seed=seed)


# ---------------------------------------------------------------------------
# refusals

def test_report_claim_refuses_an_unknown_name(eps_half_depth1):
    with pytest.raises(KeyError, match="^'no_such_claim'$"):
        check_biorthogonality(eps_half_depth1).claim("no_such_claim")


def test_k_experiment_refuses_kprime_at_least_L(k2_wide8):
    with pytest.raises(ConfigInvalidError,
                       match="^need 1 <= K' < L < K, got K'=5/4, L=5/4, K=2$"):
        run_K_experiment(k2_wide8, KExperimentConfig(n=4, L=Fraction(5, 4),
                                                     kprime=Fraction(5, 4)))


def test_experiments_refuse_a_zero_pattern(eps_half_depth1, k2_wide8):
    pattern = parse_vector("0:0")
    with pytest.raises(ConfigInvalidError, match="^pattern must be nonzero$"):
        run_eps_experiment(eps_half_depth1, EpsExperimentConfig(n=1, pattern=pattern))
    with pytest.raises(ConfigInvalidError, match="^pattern must be nonzero$"):
        run_K_experiment(k2_wide8, KExperimentConfig(n=4, L=Fraction(5, 4), pattern=pattern))


def test_eps_separation_refuses_a_missing_dual_and_a_diagonal_other_than_one(eps_half_depth1):
    ys = [SparseVector.unit(i) for i in range(4)]
    config = SeparationConfig(tau=Fraction(0), n=1)
    with pytest.raises(ConfigInvalidError, match="^need one dual per vector$"):
        verify_eps_separation(eps_half_depth1, ys, ys[:3], config)
    ystars = [y.scale(2) for y in ys]
    with pytest.raises(NotBiorthogonalError, match="^<y\\*_0, y_0> = 2 != 1$") as err:
        verify_eps_separation(eps_half_depth1, ys, ystars, config)
    assert err.value.witness == (0, 0)
