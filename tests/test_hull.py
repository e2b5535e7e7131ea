import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csw import hull
from csw.errors import NotInSpanError
from csw.hull import dual_norm, in_symmetric_hull, polar_support
from csw.kernels import norming_max, proportional_member, verify_decomposition
from csw.simplex import simplex_solve
from csw.vectors import SparseVector, pair, parse_vector

from oracles import (
    gauge_oracle,
    matrix_rank,
    norming_max_oracle,
    proportional_member_oracle,
    random_fraction,
    random_norming_set,
    random_span_member,
    verify_decomposition_oracle,
)

E0, E1 = SparseVector.unit(0), SparseVector.unit(1)


def test_dual_norm_examples():
    assert dual_norm(E0 + E1, [E0, E1])[0] == 2
    assert dual_norm(E0, [E0])[0] == 1
    # e1 = (e0+e1) - e0 is forced, mass 2
    assert dual_norm(E1, [E0 + E1, E0])[0] == 2


def test_dual_norm_out_of_span():
    with pytest.raises(NotInSpanError) as err:
        dual_norm(SparseVector.unit(5), [E0, E1])
    witness = err.value.certificate
    assert pair(witness, SparseVector.unit(5)) > 0
    for h in (E0, E1):
        assert pair(witness, h) == 0


def test_hull_membership_examples():
    inside = in_symmetric_hull(E0.scale(Fraction(1, 2)), [E0])
    assert inside.member and inside.coefficients == {0: Fraction(1, 2)}
    outside = in_symmetric_hull(E0.scale(2), [E0])
    assert not outside.member and outside.mass == 2
    off_span = in_symmetric_hull(SparseVector.unit(9), [E0])
    assert not off_span.member and off_span.outside_witness is not None


def test_hull_certificates_reconstruct():
    H = [E0 + E1, E0 - E1, E0]
    target = parse_vector("0:1/2,1:1/2")
    _, coefficients, _ = dual_norm(target, H)  # the LP's coefficients, not the direct path's
    assert verify_decomposition(target, H, coefficients, 1)
    off_members = parse_vector("0:1/2,1:1/4")  # a multiple of no member
    cert = in_symmetric_hull(off_members, H)
    assert cert.member and cert.method == "lp"
    assert verify_decomposition(off_members, H, cert.coefficients, 1)


def test_polar_support_matches_dual_norm():
    H = [E0 + E1, E0]
    value, point = polar_support(E1, H)
    assert value == dual_norm(E1, H)[0] == 2
    for h in H:
        assert abs(pair(h, point)) <= 1


def test_oracle_agreement_dims_1_to_3():
    rng = random.Random(99)
    for trial in range(60):
        dim = 1 + trial % 3
        H = random_norming_set(rng, dim)
        g = random_span_member(rng, H, dim)
        value, coeffs, _ = dual_norm(g, H)
        assert value == gauge_oracle(g, H, dim), f"trial {trial}"
        rebuilt = SparseVector()
        for i, c in coeffs.items():
            rebuilt = rebuilt + H[i].scale(c)
        assert rebuilt == g


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.fractions(min_value=-9, max_value=9, max_denominator=9))
def test_dual_norm_homogeneous(seed, scalar):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    H = random_norming_set(rng, dim)
    g = random_span_member(rng, H, dim)
    value = dual_norm(g, H)[0]
    scaled = dual_norm(g.scale(scalar), H)[0]
    assert scaled == abs(scalar) * value


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dual_norm_triangle_and_weak_duality(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    H = random_norming_set(rng, dim)
    g1 = random_span_member(rng, H, dim)
    g2 = random_span_member(rng, H, dim)
    v1 = dual_norm(g1, H)[0]
    v2 = dual_norm(g2, H)[0]
    v12 = dual_norm(g1 + g2, H)[0]
    assert v12 <= v1 + v2
    # weak duality: |<g, x>| <= dual_norm(g) * max_h |<h, x>|
    x = SparseVector((p, random_fraction(rng)) for p in range(dim))
    primal = norming_max(x, H)
    assert abs(pair(g1, x)) <= v1 * primal


# ---------------------------------------------------------------------------
# the integer kernels against their Fraction definitions

# mixed signs over large coprime denominators: powers of 5/2 and 2/5 as in
# the K = 5/2 families, of 1/3 as in eps = 1/3, and plain integers
VALUES = st.builds(lambda k, base, e: k * base ** e,
                   st.integers(-3, 3).filter(bool),
                   st.sampled_from([Fraction(5, 2), Fraction(2, 5), Fraction(1, 3),
                                    Fraction(-1, 7), Fraction(1)]),
                   st.integers(0, 12))
VECTORS = st.dictionaries(st.integers(0, 7), VALUES, max_size=6).map(SparseVector)
RATIOS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-5, 2),
                          Fraction(2, 5), Fraction(-32, 3125)])


@settings(max_examples=200, deadline=None)
@given(VECTORS, st.lists(VECTORS, max_size=8))
def test_norming_max_matches_its_oracle(x, H):
    assert norming_max(x, H) == norming_max_oracle(x, H)


def test_norming_max_of_a_zero_vector_or_an_empty_set_is_zero():
    H = [E0, E1.scale(Fraction(-5, 2))]
    assert norming_max(SparseVector(), H) == 0
    assert norming_max(parse_vector("0:1/3,1:-2"), []) == 0
    assert norming_max(parse_vector("0:1/3,1:-2"), iter(H)) == 5


@settings(max_examples=300, deadline=None)
@given(st.lists(VECTORS.filter(bool), min_size=1, max_size=6), st.data())
def test_proportional_member_matches_its_oracle(H, data):
    # duplicates (the first index must win) and multiples (the same support
    # at another ratio, negative ones included), in any order
    copies = data.draw(st.lists(st.tuples(st.integers(0, len(H) - 1), RATIOS),
                                max_size=4))
    H = data.draw(st.permutations(H + [H[i].scale(r) for i, r in copies]))
    ratio = data.draw(RATIOS)
    f = data.draw(st.one_of(st.sampled_from(H).map(lambda h: h.scale(ratio)),
                            VECTORS.filter(bool)))
    bound = data.draw(st.one_of(st.just(abs(ratio)), RATIOS.map(abs),
                                st.sampled_from([Fraction(0), 1, Fraction(5, 2)])))
    assert proportional_member(f, H, bound) == proportional_member_oracle(f, H, bound)


def test_proportional_member_takes_the_first_qualifying_index():
    f = parse_vector("0:1/3,2:-1")
    H = [
        parse_vector("0:1/3,1:-1"),            # another support
        f.scale(Fraction(1, 5)),               # ratio 5, above the bound
        f.scale(-3),                           # ratio -1/3
        f.scale(-3),                           # its duplicate
        f,                                     # ratio 1
    ]
    assert proportional_member(f, H, 1) == (2, Fraction(-1, 3))
    assert proportional_member(f, H, Fraction(1, 3)) == (2, Fraction(-1, 3))
    assert proportional_member(f, H, Fraction(1, 4)) is None
    assert proportional_member(f, H, 5) == (1, Fraction(5))
    assert proportional_member(f, H[:2] + H[4:], 1) == (2, Fraction(1))
    assert proportional_member(parse_vector("0:1/3,2:1"), H, 5) is None


COEFFICIENTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                     Fraction(-1, 3), Fraction(2, 5), Fraction(-5, 2)]),
    st.integers(-2, 2))
# rescaled mass targets, as multiples of the bound: 1 and its near
# neighbours over small and large denominators
TARGETS = st.builds(lambda q, sign: 1 + sign * Fraction(1, q),
                    st.sampled_from([2, 9, 3 ** 12, 2 ** 7 * 5 ** 9]),
                    st.sampled_from([0, 1, -1]))


@settings(max_examples=400, deadline=None)
@given(st.lists(VECTORS, min_size=1, max_size=4), VECTORS, st.data())
def test_verify_decomposition_matches_its_oracle(H, x, data):
    # H ends with a copy of H[0], its negative and H[0] + x, so coefficients
    # can cancel everywhere, or everywhere but on x: there the total is zero
    # at positions f lacks
    H = H + [H[0], -H[0], H[0] + x]
    last = len(H) - 1
    c = data.draw(COEFFICIENTS)
    coefficients = data.draw(st.one_of(
        st.none(), st.just({}),
        st.just({0: c, last - 2: -c}),  # c and -c on two equal members
        st.just({0: c, last - 1: c}),    # members that cancel
        st.just({0: c, last: -c}),       # -c x, zero on the rest of H[0]
        st.dictionaries(st.integers(0, last), COEFFICIENTS, max_size=len(H)),
        # mass exactly 1 over the large denominators of VALUES
        st.lists(VALUES, min_size=1, max_size=len(H)).map(
            lambda ws: {i: w / sum(map(abs, ws)) for i, w in enumerate(ws)})))
    # None stands for the coefficients' own mass
    bound = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1),
                                       Fraction(5, 2), None]))
    mass = sum(abs(v) for v in (coefficients or {}).values())
    if mass and data.draw(st.booleans()):
        # rescaled to mass exactly the bound (1 for bound 0 or their own
        # mass), just above it, or just below it
        target = data.draw(TARGETS) * (bound or 1)
        coefficients = {i: v * target / mass for i, v in coefficients.items()}
    if bound is None:
        bound = sum(abs(v) for v in (coefficients or {}).values())
    total = SparseVector()
    for i, v in (coefficients or {}).items():
        total = total + H[i].scale(v)
    f = data.draw(st.one_of(st.just(total), st.just(total + E0), VECTORS))
    assert (verify_decomposition(f, H, coefficients, bound)
            == verify_decomposition_oracle(f, H, coefficients, bound))


TINY = Fraction(1, 10 ** 9)


@pytest.mark.parametrize("f, coefficients, bound, expected", [
    (E0, None, 1, False),
    (SparseVector(), {}, 1, True),
    (E0, {}, 1, False),
    (E0, {0: Fraction(1), 3: Fraction(0)}, 1, True),
    (SparseVector(), {0: Fraction(1, 2), 1: Fraction(-1, 2)}, 1, True),
    (SparseVector(), {0: Fraction(1, 2), 2: Fraction(1, 2)}, 1, True),
    (SparseVector(), {0: Fraction(1), 1: Fraction(-1)}, 1, False),
    (parse_vector("0:1/2,1:1/2"), {0: Fraction(1, 2), 3: Fraction(1, 2)}, 1, True),
    (parse_vector("0:4/3"), {0: Fraction(1), 1: Fraction(1, 3)}, 1, False),
    (parse_vector("0:1/2"), {0: Fraction(1, 2), 3: Fraction(1, 2)}, 1, False),
    (SparseVector(), {}, Fraction(0), True),
    (SparseVector(), {0: TINY, 1: -TINY}, Fraction(0), False),
    (parse_vector("0:1/3"), {0: Fraction(1, 3)}, Fraction(1, 3), True),
    (parse_vector("0:1/3"), {0: Fraction(1, 3) + TINY, 1: -TINY}, Fraction(1, 3), False),
    (parse_vector("0:2,1:1/2"), {0: Fraction(2), 3: Fraction(1, 2)}, Fraction(5, 2), True),
    (parse_vector("0:2,1:1/2"), {0: Fraction(2), 1: TINY, 2: TINY, 3: Fraction(1, 2)},
     Fraction(5, 2), False),
], ids=["none", "empty", "empty_for_nonzero", "zero_coefficient", "equal_members",
        "cancelling_members", "cancelling_mass_2", "mass_1", "mass_4/3", "wrong_sum",
        "empty_at_0", "above_0", "mass_1/3_at_1/3", "above_1/3",
        "mass_5/2_at_5/2", "above_5/2"])
def test_verify_decomposition_cases(f, coefficients, bound, expected):
    H = [E0, E0, -E0, E1]
    assert verify_decomposition(f, H, coefficients, bound) is expected
    assert verify_decomposition_oracle(f, H, coefficients, bound) is expected


def test_dual_norm_and_polar_support_refuse_a_vector_outside_the_span():
    g = SparseVector.unit(0)
    with pytest.raises(NotInSpanError,
                       match="^empty norming set cannot express a nonzero vector$") as err:
        dual_norm(g, [])
    assert err.value.certificate == g
    for g, H in [(E1, [E0]),
                 (parse_vector("1:1,3:-2"), [parse_vector("0:1,1:1"), parse_vector("0:-1,2:1/2"),
                                             parse_vector("1:1,2:1/2,3:2")])]:
        for solve, message in [(dual_norm, "vector lies outside the span of the norming set"),
                               (polar_support, "polar program unbounded: vector outside span")]:
            with pytest.raises(NotInSpanError, match=f"^{message}$") as err:
                solve(g, H)
            # a witness y on the LP's positions: <y, h> = 0 for every member,
            # <y, g> != 0
            y = err.value.certificate
            assert isinstance(y, SparseVector)
            assert all(pair(y, h) == 0 for h in H) and pair(y, g) != 0


def _with_its_lp(g, H):
    """dual_norm(g, H) and the one LpSolution behind it."""
    solved = []

    def solve(*args, **kwargs):
        solved.append(simplex_solve(*args, **kwargs))
        return solved[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hull, "simplex_solve", solve)
        result = dual_norm(g, H)
    (sol,) = solved
    return result, sol


def _rebuilt(H, coefficients):
    total = SparseVector()
    for i, c in coefficients.items():
        total = total + H[i].scale(c)
    return total


def test_a_kept_basis_decomposes_every_span_member():
    rng = random.Random(37)
    exact = 0
    for trial in range(60):
        dim = 1 + trial % 4
        H = random_norming_set(rng, dim)
        g = random_span_member(rng, H, dim)
        if g.is_zero():
            continue
        (value, coefficients, decompose), sol = _with_its_lp(g, H)
        positions = sorted({p for v in H + [g] for p in v.support})
        # on its own LP's g: that LP's coefficients and primal point
        assert decompose(g) == coefficients
        assert sol.basis.solve([g[p] for p in positions]) == sol.primal
        for other in (random_span_member(rng, H, dim), g.scale(random_fraction(rng, nonzero=True))):
            found = decompose(other)
            assert found is not None and _rebuilt(H, found) == other
            mass = sum(abs(c) for c in found.values())
            cold = dual_norm(other, H)[0]
            assert mass >= cold
            point = sol.basis.solve([other[p] for p in positions])
            if all(x >= 0 for x in point):  # the basis stays feasible, so optimal
                exact += 1
                assert mass == sum(point) == cold
    assert exact > 20


def test_a_kept_basis_decomposes_nothing_outside_the_span():
    rng = random.Random(41)
    outside = 0
    for trial in range(40):
        dim = 2 + trial % 3
        H = random_norming_set(rng, dim - 1, count=dim - 1)  # rank dim-1 in dim positions
        H = [h + SparseVector.unit(dim - 1).scale(random_fraction(rng)) for h in H]
        g = random_span_member(rng, H, dim)
        if g.is_zero():
            continue
        decompose = dual_norm(g, H)[2]
        v = SparseVector((p, random_fraction(rng)) for p in range(dim))
        rows = [[h[p] for p in range(dim)] for h in H]
        if matrix_rank(rows + [[v[p] for p in range(dim)]]) > matrix_rank(rows):
            outside += 1
            assert decompose(v) is None
        assert decompose(v + SparseVector.unit(dim)) is None  # no member reaches dim
    assert outside > 20


def test_no_lp_no_basis():
    assert dual_norm(SparseVector(), [E0]) == (0, {}, None)
