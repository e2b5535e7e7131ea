import hashlib
import random
import re
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csw import norming
from csw.errors import (
    ConfigInvalidError,
    HomeMismatchError,
    NotInSchemeError,
    ParameterOutOfRangeError,
    WrongSpaceKindError,
)
from csw.hull import in_symmetric_hull
from csw.norming import (
    NormingFamily,
    build_K_family,
    build_eps_family,
    family_dumps,
    family_from_json,
    family_loads,
    family_to_json,
    global_dual,
    norm,
    spread,
)
from csw.analysis import random_rational_vector
from csw.schemes import (
    SchemeSet,
    build_scheme,
    check_axioms,
    position_map,
    scheme_from_json,
    scheme_to_json,
    validate_type,
)
from csw.vectors import SparseVector, canonical_json, pair, parse_vector

from conftest import TYPE_DEPTH2, TYPE_DEPTH3, TYPE_DEPTH4, TYPE_DEPTH5, TYPE_WIDE8
from oracles import (
    k_family_vectors,
    k_scaled_cut_origins,
    mutate_scheme_json,
    norming_max_oracle,
    transport_is_exact,
    transported,
)

HALF = Fraction(1, 2)


def v(text):
    return parse_vector(text)


def vectors_of(family, scheme_set):
    return {f.vector for f in family.functionals_for(scheme_set)}


# ---------------------------------------------------------------------------
# Origin

def test_origin_keeps_its_public_construction_and_behaviour(scheme_depth2):
    import csw
    o = csw.Origin("unit", 1, alpha=0)
    assert (o.rule, o.rank, o.alpha, o.cut, o.exponent) == ("unit", 1, 0, None, 0)
    assert o == csw.Origin(rule="unit", rank=1, alpha=0, cut=None, exponent=0)
    assert o != csw.Origin("unit", 1, alpha=1)
    assert {o: "first"}[csw.Origin("unit", 1, alpha=0)] == "first"
    assert len({o, csw.Origin("unit", 1, alpha=0), csw.Origin("unit", 2, alpha=0)}) == 2
    with pytest.raises(AttributeError):
        o.alpha = 1
    cut = csw.Origin("scaled_cut", 2, cut=5, exponent=2)
    assert o.to_json() == {"rule": "unit", "rank": 1, "alpha": 0}
    assert cut.to_json() == {"rule": "scaled_cut", "rank": 2, "cut": 5, "exponent": 2}
    top = scheme_depth2.top
    assert csw.Functional(SparseVector.unit(0), top, (o, cut)).label() == "unit/a0"
    assert csw.Functional(SparseVector.unit(0), top, (cut, o)).label() == "scaled_cut/cut5/exp2"


# ---------------------------------------------------------------------------
# spread

def vv(text):
    return parse_vector(text)


def test_spread_examples(scheme_depth2):
    from csw.norming import Functional, Origin
    top = scheme_depth2.top
    first = scheme_depth2.decomposition[top][0]
    f = Functional(vector=vv("0:1/2,1:1"), home=first,
                   origins=(Origin("unit", 1, alpha=1),))
    widened = spread(scheme_depth2, f, top)
    assert widened.vector == vv("0:1/2,1:1,2:1,3:1")


def test_spread_fixes_root_and_transports_rest(scheme_depth2, eps_half_depth2):
    top = scheme_depth2.top
    first = scheme_depth2.decomposition[top][0]
    by_alpha = {f.origin.alpha: f for f in eps_half_depth2.functionals_for(first)}
    assert spread(scheme_depth2, by_alpha[0], top).vector == vv("0:1")
    assert spread(scheme_depth2, by_alpha[1], top).vector == vv("1:1,2:1,3:1")


def test_spread_rejects_wrong_home(scheme_depth2, eps_half_depth2):
    top = scheme_depth2.top
    second = scheme_depth2.decomposition[top][1]
    f = eps_half_depth2.functionals_for(second)[0]
    with pytest.raises(HomeMismatchError):
        spread(scheme_depth2, f, top)


# ---------------------------------------------------------------------------
# alternating families

def test_width6_family_is_the_frozen_table(scheme_depth1, eps_half_depth1):
    table = {f.origin.alpha: f.vector
             for f in eps_half_depth1.functionals_for(scheme_depth1.top)}
    assert table[0] == vv("0:1,2:1/2,3:-1/2,4:1/2,5:-1/2")
    assert table[1] == vv("1:1,2:-1/2,3:1/2,4:-1/2,5:1/2")
    for j in range(2, 6):
        assert table[j] == SparseVector.unit(j)


def test_depth2_family_with_nonempty_root(scheme_depth2, eps_half_depth2):
    # the root index amalgamates to a plain spread; here that collapses to e_0
    table = {f.origin.alpha: f.vector
             for f in eps_half_depth2.functionals_for(scheme_depth2.top)}
    assert table[0] == vv("0:1")
    assert table[1] == vv("1:1,3:1/2")
    assert table[2] == vv("2:1,3:-1/2")
    assert table[3] == vv("3:1")
    rules = {f.origin.alpha: f.origin.rule
             for f in eps_half_depth2.functionals_for(scheme_depth2.top)}
    assert rules == {0: "root_spread", 1: "first_alternating",
                     2: "second_alternating", 3: "copy"}


def test_rank0_families_are_units(scheme_depth2, eps_half_depth2):
    for s in scheme_depth2.levels[0]:
        fam = eps_half_depth2.functionals_for(s)
        assert [f.vector for f in fam] == [SparseVector.unit(s.elements[0])]


def test_root_positions_spread_unchanged(scheme_depth3, eps_half_depth3):
    # every root index of every decomposition ends up as a plain spread
    for F in scheme_depth3.levels[scheme_depth3.depth]:
        for f in eps_half_depth3.functionals_for(F):
            if f.origin.rule == "root_spread":
                root_val = f.vector[f.origin.alpha]
                assert root_val == 1


def test_parameter_range():
    scheme = build_scheme(validate_type([1, 2], [2], [0]))
    with pytest.raises(ParameterOutOfRangeError):
        build_eps_family(scheme, Fraction(3, 2))
    with pytest.raises(ParameterOutOfRangeError):
        build_K_family(scheme, Fraction(1))
    with pytest.raises(ParameterOutOfRangeError):
        build_K_family(scheme, 2, scale_cap=0)


def test_nonseparability_exhaustive(eps_half_depth3):
    for f in eps_half_depth3.all_functionals():
        a = f.origin.alpha
        assert f.vector[a] == 1
        assert all(p >= a for p in f.vector.support)
        assert all(abs(value) <= 1 for _, value in f.vector.items())


def test_biorthogonality_bound_and_attainment(eps_half_depth3):
    eps = eps_half_depth3.parameter
    attained = False
    for f in eps_half_depth3.all_functionals():
        a = f.origin.alpha
        for p, value in f.vector.items():
            if p != a:
                assert abs(value) <= eps
                attained = attained or abs(value) == eps
    assert attained


def test_restriction_coherence_exhaustive(scheme_depth3, eps_half_depth3):
    for E, F in scheme_depth3.nested_pairs():
        elems = set(E.elements)
        outer = {f.origin.alpha: f.vector
                 for f in eps_half_depth3.functionals_for(F)}
        inner = {f.origin.alpha: f.vector
                 for f in eps_half_depth3.functionals_for(E)}
        for a in E.elements:
            assert outer[a].restrict_to(elems) == inner[a]


# ---------------------------------------------------------------------------
# scaled-cut families

def test_tiny_closure_is_the_frozen_set(scheme_tiny, k2_tiny):
    expected = {vv("0:1"), vv("1:1"), vv("0:1,1:1"),
                vv("0:1/2"), vv("1:1/2"), vv("0:1/2,1:1/2")}
    assert vectors_of(k2_tiny, scheme_tiny.top) == expected


def test_rank0_k_families_are_scaled_units(scheme_tiny, k2_tiny):
    for s in scheme_tiny.levels[0]:
        a = s.elements[0]
        assert vectors_of(k2_tiny, s) == {SparseVector.unit(a),
                                          SparseVector.unit(a).scale(HALF)}


def test_cut_below_support_discarded(k2_wide8, scheme_wide8):
    assert SparseVector() not in vectors_of(k2_wide8, scheme_wide8.top)


def test_cuts_compose_to_single_cuts():
    h = vv("0:1,1:1,2:1")
    once = h.restrict_below(2).scale(HALF)
    twice = once.restrict_below(1).scale(HALF)
    assert twice == h.restrict_below(1).scale(Fraction(1, 4))


def test_closure_property_exhaustive(scheme_depth2, k2_depth2):
    K = k2_depth2.parameter
    cap = k2_depth2.scale_cap
    for s in scheme_depth2.sets():
        fam = k2_depth2.functionals_for(s)
        vectors = {f.vector for f in fam}
        for f in fam:
            if f.origin.exponent >= cap:
                continue
            for cut in s.elements:
                image = f.vector.restrict_below(cut).scale(Fraction(1) / K)
                assert image.is_zero() or image in vectors, (s, f.label(), cut)


# every K functional is K^-e times a 0/1 vector, e the exponent of each of its
# origins, so no route to a vector can reach it with another exponent
@pytest.mark.parametrize("cap", [1, 2, 3], ids=["cap1", "cap2", "cap3"])
@pytest.mark.parametrize("K", ["3/2", "2", "5/2"])
@pytest.mark.parametrize("type_triple", [TYPE_DEPTH2, TYPE_DEPTH3, TYPE_WIDE8],
                         ids=["d2", "d3", "w8"])
def test_k_functionals_are_scaled_indicators_of_one_exponent(type_triple, K, cap):
    K = Fraction(K)
    family = build_K_family(build_scheme(validate_type(*type_triple)), K, scale_cap=cap)
    for f in family.all_functionals():
        e = f.origin.exponent
        assert {o.exponent for o in f.origins} == {e}, f.label()
        assert {v for _, v in f.vector.items()} == {K ** -e}, f.label()


# the builder closes (support, exponent) pairs at the first set of each rank
# and transports; the oracle closes vectors at every set from the definition
ORACLE_CASES = [(name, t, K, cap)
                for name, t in (("d2", TYPE_DEPTH2), ("d3", TYPE_DEPTH3), ("w8", TYPE_WIDE8))
                for K in ("3/2", "2", "5/2") for cap in (1, 2, 3)] + [("d4", TYPE_DEPTH4, "2", 2)]


@pytest.mark.parametrize("type_triple, K, cap", [c[1:] for c in ORACLE_CASES],
                         ids=[f"{n}-K{K}-cap{cap}" for n, _, K, cap in ORACLE_CASES])
def test_k_family_matches_the_closure_oracle(type_triple, K, cap):
    scheme = build_scheme(validate_type(*type_triple))
    family = build_K_family(scheme, Fraction(K), scale_cap=cap)
    expected = k_family_vectors(scheme, K, cap)
    for s in scheme.sets():
        vectors = [f.vector for f in family.functionals_for(s)]
        assert len(set(vectors)) == len(vectors), s
        assert set(vectors) == expected[s], s


# the builder walks each key's cuts in runs that keep one prefix; the oracle
# expands every vector at every cut and records the cut that reached each image
@pytest.mark.parametrize("type_triple, K, cap", [c[1:] for c in ORACLE_CASES],
                         ids=[f"{n}-K{K}-cap{cap}" for n, _, K, cap in ORACLE_CASES])
def test_k_scaled_cut_origins_match_the_route_oracle(type_triple, K, cap):
    scheme = build_scheme(validate_type(*type_triple))
    family = build_K_family(scheme, Fraction(K), scale_cap=cap)
    for F, expected in k_scaled_cut_origins(scheme, K, cap).items():
        functionals = family.functionals_for(F)
        assert {f.vector for f in functionals} == set(expected), F
        for f in functionals:
            assert {o for o in f.origins if o.rule == "scaled_cut"} == expected[f.vector], \
                (F, f.label())


def test_scale_cap_stability(scheme_depth3, k2_depth3):
    deeper = build_K_family(scheme_depth3, 2, scale_cap=3)
    rng = random.Random(5)
    for _ in range(50):
        x = random_rational_vector(rng, scheme_depth3.universe_size)
        assert norm(x, k2_depth3) == norm(x, deeper)


# the stability above is a depth-3 finding: at depth 4 with K = 2, the
# attaining vector of the cap-1 basis constant (5, at cut 23) has norm 1 at
# cap 1 and 5/2 at cap 2, attained by one exponent-2 functional
def test_scale_cap_changes_a_norm_at_depth4():
    scheme = build_scheme(validate_type(*TYPE_DEPTH4))
    plus = [1, 5, *range(11, 15), *range(19, 23), 24, 33, 35, 36, 43, 44]
    minus = [*range(6, 10), *range(15, 19), 23, *range(28, 31), *range(37, 41)]
    y = SparseVector({**dict.fromkeys(plus, 1), **dict.fromkeys(minus, -1)})
    cap1, cap2 = (build_K_family(scheme, 2, scale_cap=cap) for cap in (1, 2))
    assert norm(y, cap1) == 1
    assert norm(y, cap2) == Fraction(5, 2)
    assert {f.label() for f in cap2.top_functionals
            if abs(pair(f.vector, y)) == Fraction(5, 2)} == {"scaled_cut/cut23/exp2"}


def test_transport_invariance_both_kinds(scheme_depth3, eps_half_depth3, k2_depth3):
    for family in (eps_half_depth3, k2_depth3):
        for rank in range(1, scheme_depth3.depth + 1):
            for parent in scheme_depth3.levels[rank]:
                children = scheme_depth3.decomposition[parent]
                base = vectors_of(family, children[0])
                for sibling in children[1:]:
                    pm = position_map(children[0], sibling)
                    assert {b.map_positions(pm) for b in base} == vectors_of(family, sibling)


# ---------------------------------------------------------------------------
# norms

def test_unit_vectors_have_norm_one(eps_half_depth1, k2_wide8):
    for fam in (eps_half_depth1, k2_wide8):
        for a in range(fam.scheme.universe_size):
            assert norm(SparseVector.unit(a), fam) == 1


def test_cancellation_vector_has_small_norm(eps_half_depth1):
    w = vv("0:1,1:-1,2:-1/2,3:1/2,4:-1/2,5:1/2")
    assert norm(w, eps_half_depth1) == HALF
    assert norm(w, eps_half_depth1, mode="all") == 1


def test_full_sum_attains_width(k2_wide8):
    x = SparseVector({i: 1 for i in range(8)})
    assert norm(x, k2_wide8) == 8


def test_norm_of_zero_and_mode_validation(k2_tiny):
    assert norm(SparseVector(), k2_tiny) == 0
    with pytest.raises(ValueError):
        norm(SparseVector.unit(0), k2_tiny, mode="bogus")


@pytest.mark.parametrize("mode", ["local", "all"])
@pytest.mark.parametrize("text", ["999:1", "0:1,999:1"])
def test_norm_refuses_positions_outside_the_universe(eps_half_depth2, mode, text):
    with pytest.raises(NotInSchemeError, match=r"positions \[.*999\] exceed the universe"):
        norm(v(text), eps_half_depth2, mode=mode)


def test_all_mode_refuses_a_set_without_a_family(eps_half_depth2):
    first = eps_half_depth2.scheme.levels[1][0]
    families = {s: fam for s, fam in eps_half_depth2.families.items() if s != first}
    hollow = replace(eps_half_depth2, families=families)
    with pytest.raises(NotInSchemeError, match="no family attached"):
        norm(v("0:1"), hollow, mode="all")


def test_norm_reports_empty_family(scheme_tiny):
    from csw.errors import EmptyFamilyError
    from csw.norming import NormingFamily
    hollow = NormingFamily(scheme=scheme_tiny, space_kind="k",
                           parameter=Fraction(2),
                           families={s: [] for s in scheme_tiny.sets()})
    with pytest.raises(EmptyFamilyError):
        norm(SparseVector.unit(0), hollow)


def test_norm_well_definedness_random(scheme_depth3, eps_half_depth3, k2_depth3):
    rng = random.Random(17)
    for _ in range(40):
        x = random_rational_vector(rng, scheme_depth3.universe_size)
        for family in (eps_half_depth3, k2_depth3):
            values = {norming_max_oracle(x, [f.vector for f in family.functionals_for(s)])
                      for s in scheme_depth3.containing_sets(x.support)}
            assert values == {norm(x, family)}


# ---------------------------------------------------------------------------
# global duals

def test_global_dual_examples(eps_half_depth1):
    assert global_dual(eps_half_depth1, 0) == \
        vv("0:1,2:1/2,3:-1/2,4:1/2,5:-1/2")
    top_alpha = eps_half_depth1.scheme.universe_size - 1
    h_max = global_dual(eps_half_depth1, top_alpha)
    assert h_max == SparseVector.unit(top_alpha)


def test_global_dual_restricts_to_local(scheme_depth3, eps_half_depth3):
    for E in scheme_depth3.sets():
        local = {f.origin.alpha: f.vector
                 for f in eps_half_depth3.functionals_for(E)}
        for a in E.elements:
            g = global_dual(eps_half_depth3, a)
            assert g.restrict_to(set(E.elements)) == local[a]


def test_global_dual_needs_alternating_kind(k2_tiny):
    with pytest.raises(WrongSpaceKindError):
        global_dual(k2_tiny, 0)


# ---------------------------------------------------------------------------
# hull coherence spot checks (full sweep lives in the acceptance suite)

def test_restricted_functional_in_child_hull(scheme_depth1, eps_half_depth1):
    top = scheme_depth1.top
    first = scheme_depth1.decomposition[top][0]
    h0 = next(f for f in eps_half_depth1.functionals_for(top)
              if f.origin.alpha == 0)
    restricted = h0.vector.restrict_to(set(first.elements))
    cert = in_symmetric_hull(
        restricted, [f.vector for f in eps_half_depth1.functionals_for(first)])
    assert cert.member


# ---------------------------------------------------------------------------
# serialization

def test_family_round_trip(eps_half_depth2, k2_depth2):
    for fam in (eps_half_depth2, k2_depth2):
        clone = family_loads(family_dumps(fam))
        assert clone.space_kind == fam.space_kind
        assert clone.parameter == fam.parameter
        assert clone.scale_cap == fam.scale_cap
        assert clone.scheme.levels == fam.scheme.levels
        for s in fam.scheme.sets():
            assert [f.vector for f in clone.functionals_for(s)] == \
                [f.vector for f in fam.functionals_for(s)]
            assert [f.origin for f in clone.functionals_for(s)] == \
                [f.origin for f in fam.functionals_for(s)]
        assert family_dumps(clone) == family_dumps(fam)


def test_family_dumps_refuses_a_family_that_is_not_rank_canonical(k2_depth2):
    # the writer moves each rank's first-set entries onto the rank's other
    # sets, so it would write the built family in place of a tampered one
    s = k2_depth2.scheme.levels[1][2]  # rank1{0,3}
    fam = list(k2_depth2.families[s])
    fam[1] = replace(fam[1], vector=v("3:3"))
    tampered = replace(k2_depth2, families={**k2_depth2.families, s: fam})
    assert family_to_json(tampered)["families"]["1:2"][1]["vec"] == {"3": "3"}
    with pytest.raises(ConfigInvalidError, match="^only a rank-canonical family can be written"):
        family_dumps(tampered)


@pytest.mark.parametrize("index", [0, 2], ids=["kept", "moved"])
def test_a_built_family_cannot_be_edited_in_place(k2_depth2, index):
    # rank1{0,1} holds its rank's kept family, rank1{0,3} a transport of it
    s = k2_depth2.scheme.levels[1][index]
    fam = k2_depth2.families[s]
    with pytest.raises(TypeError):
        fam[1] = replace(fam[1], vector=v("3:3"))
    assert k2_depth2.families[s] == fam and k2_depth2.rank_canonical


@pytest.mark.parametrize("name", [f.name for f in fields(NormingFamily)])
def test_no_family_field_can_be_assigned(k2_depth2, name):
    with pytest.raises(FrozenInstanceError):
        setattr(k2_depth2, name, getattr(k2_depth2, name))


# sha256 of family_dumps for (type, space, parameter, scale_cap), recorded
# when every set's family was still built separately; the two d5 digests were
# recorded when the K closure still ran on Fraction vectors, and the w16 K=2
# cap2 and d4 K=3/2 cap3 digests when it still walked every cut of every key
FAMILY_DIGESTS = [
    (TYPE_DEPTH2, "k", "5/2", 2,
     "6b8811d606d8e5627da6034af45893cb1f4876b230b58a2d44ad9d88630c1e98"),
    (TYPE_DEPTH3, "eps", "1/3", 0,
     "8f7f8c28fd4336547cf0d35a79f9c295b6e5fb58b2e4358d4a2a2bc0aec88323"),
    (TYPE_DEPTH3, "k", "2", 2,
     "f395f19980c364e7817fe564c8b5492a29c70ffd7a941176a2cd4f6829d47195"),
    (TYPE_DEPTH4, "eps", "1/2", 0,
     "6d53754e7ec13d454c6b519e128675009157b5310a8599a6c76e102b554050ac"),
    (TYPE_DEPTH4, "k", "2", 1,
     "3ef7b44ba240c9835f675385a555238f2186430b1391d38e67b699f904deb951"),
    (([1, 16], [16], [0]), "k", "3/2", 1,
     "4909ac8c56937bad47e2a7569f432dc03b6e9655c0de33d61453506541073a2c"),
    (TYPE_DEPTH3, "k", "3/2", 3,
     "972c5306200b1522ee29792490c51eabaa3dd0e98a9f1e0d94c5e6dbb1723df3"),
    (TYPE_WIDE8, "k", "5/2", 3,
     "61801f2ca917b2913c7630ba34f4c751bfab738dd0aefbf15053495be141d245"),
    (TYPE_DEPTH4, "k", "2", 2,
     "fc4dfd1101d90b1963d560beb32a1eed7542958c3f830052e5904ea8cdb2f8ac"),
    (TYPE_DEPTH5, "eps", "1/2", 0,
     "44c58aa958f536d64b7f401ec1bfcaea14c530b3071a40db8c66ce6313a903ad"),
    (TYPE_DEPTH5, "k", "2", 1,
     "c6aa94a6e985c190a8d6f956f3f2839d341bc03ea425f80a467f3d8d35abbde7"),
    (([1, 16], [16], [0]), "k", "2", 2,
     "1d20d846168e43ed9c8ad91edea91fe96848bc62dc41188fe1f4889f2ead8698"),
    (TYPE_DEPTH4, "k", "3/2", 3,
     "c229ad9ce199e64b88b080e2d504778789b1356f4563333f473109a3145c4d37"),
]


FAMILY_IDS = ["d2-k-5/2-cap2", "d3-eps-1/3", "d3-k-2-cap2", "d4-eps-1/2", "d4-k-2-cap1",
              "w16-k-3/2-cap1", "d3-k-3/2-cap3", "w8-k-5/2-cap3", "d4-k-2-cap2",
              "d5-eps-1/2", "d5-k-2-cap1", "w16-k-2-cap2", "d4-k-3/2-cap3"]


def _digest_family(type_triple, space, param, cap):
    scheme = build_scheme(validate_type(*type_triple))
    if space == "eps":
        return build_eps_family(scheme, Fraction(param))
    return build_K_family(scheme, Fraction(param), scale_cap=cap)


@pytest.mark.parametrize("type_triple, space, param, cap, digest", FAMILY_DIGESTS,
                         ids=FAMILY_IDS)
def test_family_bytes_are_pinned(type_triple, space, param, cap, digest):
    family = _digest_family(type_triple, space, param, cap)
    text = family_dumps(family)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert family_dumps(family_loads(text)) == text


# family_dumps moves each rank's first-set entries onto the rank's other
# sets; family_to_json makes every set's entries from its own functionals
@pytest.mark.parametrize("type_triple, space, param, cap, digest", FAMILY_DIGESTS,
                         ids=FAMILY_IDS)
def test_family_dumps_writes_family_to_json(type_triple, space, param, cap, digest):
    family = _digest_family(type_triple, space, param, cap)
    assert family_dumps(family) == canonical_json(family_to_json(family))


ORACLE_SCHEMES = [build_scheme(validate_type(*t)) for t in (TYPE_DEPTH2, TYPE_DEPTH3, TYPE_WIDE8)]


def _eager(family):
    """`family` with every set's family made at once, by the oracle's
    transport of its rank's first family."""
    scheme = family.scheme
    return replace(family, families={
        F: transported(family.families[level[0]], scheme.transport(F), F)
        for level in scheme.levels for F in level})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_set_holds_the_transport_of_its_ranks_first_family(data):
    scheme = data.draw(st.sampled_from(ORACLE_SCHEMES))
    if data.draw(st.booleans()):
        family = build_eps_family(scheme, data.draw(st.sampled_from(["1/3", "1/2", "2/3"])))
    else:
        family = build_K_family(scheme, data.draw(st.sampled_from(["3/2", "2", "5/2"])),
                                scale_cap=data.draw(st.integers(1, 3)))
    eager = _eager(family)
    sets = list(scheme.sets())
    assert list(family.families) == sets and len(family.families) == len(sets)
    for F in sets:
        fam = family.families[F]
        assert type(fam) is tuple and list(fam) == eager.families[F]
    foreign = SchemeSet(rank=1, elements=(0, scheme.universe_size), root_size=0)
    assert foreign not in family.families
    with pytest.raises(NotInSchemeError, match="no family attached"):
        family.functionals_for(foreign)
    loaded = family_loads(family_dumps(family))
    assert all(type(loaded.families[F]) is tuple for F in sets)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    for _ in range(10):
        x = random_rational_vector(rng, scheme.universe_size)
        for mode in ("local", "all"):
            assert norm(x, loaded, mode=mode) == norm(x, eager, mode=mode)


def test_local_norm_on_a_loaded_family_transports_one_set(monkeypatch, k2_depth3):
    x = v(f"{k2_depth3.scheme.universe_size - 1}:1")
    expected = norm(x, k2_depth3)
    moved = []
    move = norming._moved
    monkeypatch.setattr(norming, "_moved",
                        lambda fam, pm, target: moved.append(target) or move(fam, pm, target))
    loaded = family_loads(family_dumps(k2_depth3))
    assert moved == []
    assert norm(x, loaded) == norm(x, loaded) == expected
    assert moved == [loaded.scheme.minimal_containing(x.support)]
    assert moved[0] != loaded.scheme.levels[0][0]


@pytest.mark.parametrize("build", [
    lambda scheme: build_eps_family(scheme, HALF),
    lambda scheme: build_K_family(scheme, 2),
], ids=["eps", "k"])
def test_builders_refuse_a_decomposition_that_is_not_a_transport(build):
    payload = scheme_to_json(build_scheme(validate_type(*TYPE_DEPTH2)))
    payload["decomposition"]["1:1"].reverse()
    with pytest.raises(ConfigInvalidError):
        build(scheme_from_json(payload))


@pytest.mark.parametrize("build", [
    lambda scheme: build_eps_family(scheme, HALF),
    lambda scheme: build_K_family(scheme, 2),
], ids=["eps", "k"])
def test_builders_refuse_pieces_that_leave_out_a_position(build):
    # the top set cut into {0,1}, {0,3}, {0,3}: the first (here the only)
    # set of a rank is compared with nothing but the axioms
    payload = scheme_to_json(build_scheme(validate_type(*TYPE_DEPTH2)))
    payload["decomposition"]["2:0"] = [0, 2, 2]
    scheme = scheme_from_json(payload)
    with pytest.raises(ConfigInvalidError, match=re.escape(
            "fails its axioms, first decomposition-delta-system: "
            f"children of {scheme.top} do not union to it")):
        build(scheme)


def test_loader_refuses_a_first_singleton_without_elements(k2_depth2):
    doc = family_to_json(k2_depth2)
    doc["scheme"]["levels"][0][0] = []
    with pytest.raises(ConfigInvalidError, match="^0:0 is not the writer's"):
        family_from_json(doc)


def test_each_build_checks_the_axioms_once(monkeypatch, scheme_depth3):
    calls = []
    check = norming.check_axioms
    monkeypatch.setattr(norming, "check_axioms",
                        lambda scheme: calls.append(scheme) or check(scheme))
    build_eps_family(scheme_depth3, HALF)
    build_K_family(scheme_depth3, 2, scale_cap=2)
    assert calls == [scheme_depth3, scheme_depth3]


MUTATED_TYPES = [TYPE_DEPTH2, TYPE_DEPTH3, TYPE_WIDE8, ([1, 3, 7], [3, 3], [0, 1])]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_builders_accept_exactly_the_schemes_that_pass_check_axioms(data):
    # under the axioms every transport from a rank's first set is exact;
    # otherwise both builders name the first failing axiom's counterexample
    payload = scheme_to_json(build_scheme(validate_type(*data.draw(
        st.sampled_from(MUTATED_TYPES)))))
    for _ in range(data.draw(st.integers(1, 3))):
        mutate_scheme_json(data, payload)
    scheme = scheme_from_json(payload)
    failures = check_axioms(scheme).failures()
    builds = (lambda: build_eps_family(scheme, HALF), lambda: build_K_family(scheme, 2))
    if not failures:
        assert all(transport_is_exact(scheme, F) for F in scheme.sets())
        for build in builds:
            build()
        return
    for build in builds:
        with pytest.raises(ConfigInvalidError,
                           match=re.escape(failures[0].counterexample)):
            build()


def test_K_builder_refuses_a_set_that_is_not_increasing():
    payload = scheme_to_json(build_scheme(validate_type(*TYPE_DEPTH2)))
    payload["levels"][2][0].reverse()
    with pytest.raises(ConfigInvalidError,
                       match="is not a strictly increasing nonnegative sequence"):
        build_K_family(scheme_from_json(payload), 2)


def test_global_dual_refuses_an_alpha_outside_the_universe(eps_half_depth2):
    with pytest.raises(NotInSchemeError, match="^4 is outside the universe$"):
        global_dual(eps_half_depth2, 4)
