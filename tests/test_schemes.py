import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csw.analysis import coherence_report
from csw.errors import (
    ArityMismatchError,
    ConfigInvalidError,
    LengthMismatchError,
    NotDeltaError,
    NotInSchemeError,
    TypeValidationError,
)
from csw.schemes import (
    Scheme,
    SchemeSet,
    TypeSpec,
    build_scheme,
    check_axioms,
    find_capture,
    is_delta_system,
    position_map,
    scheme_from_json,
    scheme_loads,
    scheme_dumps,
    scheme_to_json,
    type_violations,
    validate_type,
    _decomposition_delta_system,
    _same_rank_initial_segments,
)
from csw.norming import build_K_family, build_eps_family

from conftest import (
    TYPE_DEPTH1,
    TYPE_DEPTH2,
    TYPE_DEPTH3,
    TYPE_DEPTH4,
    TYPE_DEPTH5,
    TYPE_WIDE8,
)
from oracles import (
    SCHEME_EDITS,
    covered_by_a_piece,
    covering_sets_oracle,
    in_decomposition_tree,
    mutate_scheme_json,
    nested_pairs_oracle,
    same_rank_initial_segments_oracle,
    transport_preimage_is_listed,
)


def elements(level):
    return [s.elements for s in level]


# ---------------------------------------------------------------------------
# type validation

def test_valid_type():
    ts = validate_type([1, 2, 4, 10], [2, 3, 4], [0, 1, 2])
    assert ts.depth == 3 and ts.universe_size == 10
    assert ts.n_of(2) == 3 and ts.r_of(3) == 2 and ts.r_of(0) == 0


def test_recursion_violation_reported_with_index():
    with pytest.raises(TypeValidationError) as err:
        validate_type([1, 3], [2], [0])
    assert any(k == 1 and name == "recursion" for k, name, _ in err.value.violations)


def test_width_must_exceed_rank():
    violations = type_violations([1, 2], [1], [0])
    assert any(name == "n_exceeds_rank" for _, name, _ in violations)


def test_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        validate_type([1, 2], [2, 2], [0])


def test_depth_zero_type_is_allowed():
    ts = validate_type([1], [], [])
    scheme = build_scheme(ts)
    assert check_axioms(scheme).passed
    assert scheme.top.elements == (0,)


# ---------------------------------------------------------------------------
# building

def test_smallest_scheme():
    scheme = build_scheme(validate_type([1, 2], [2], [0]))
    top = scheme.top
    assert top.elements == (0, 1) and top.root == ()
    assert elements(scheme.decomposition[top]) == [(0,), (1,)]


def test_depth2_block_expansion(scheme_depth2):
    top = scheme_depth2.top
    assert top.elements == (0, 1, 2, 3)
    assert top.root == (0,)
    assert elements(scheme_depth2.decomposition[top]) == [(0, 1), (0, 2), (0, 3)]
    assert check_axioms(scheme_depth2).passed


def test_width6_splits_into_singletons(scheme_depth1):
    top = scheme_depth1.top
    assert elements(scheme_depth1.decomposition[top]) == [(i,) for i in range(6)]


def test_axioms_pass_for_deeper_types(scheme_depth3):
    assert check_axioms(scheme_depth3).passed
    deep = build_scheme(validate_type(*TYPE_DEPTH4))
    assert check_axioms(deep).passed


# ---------------------------------------------------------------------------
# axiom diagnosis on corrupted schemes

_OVERLAP = SchemeSet(rank=1, elements=(1, 2), root_size=0)  # a rank-1 set not in the d2 scheme


def _swap_set(scheme, old, new):
    """A copy of `scheme` with `new` in place of `old` in the levels, the
    decomposition keys and the children."""
    def swap(s):
        return new if s == old else s
    return dataclasses.replace(
        scheme, levels=[list(map(swap, level)) for level in scheme.levels],
        decomposition={swap(parent): tuple(map(swap, children))
                       for parent, children in scheme.decomposition.items()})


def _with_level(scheme, k, level):
    """A copy of `scheme` with `level` as its level k."""
    return dataclasses.replace(
        scheme, levels=[level if j == k else old for j, old in enumerate(scheme.levels)])


def test_removed_element_fails_size_axiom(scheme_depth2):
    victim = scheme_depth2.levels[1][0]
    scheme = _swap_set(scheme_depth2, victim,
                       SchemeSet(rank=1, elements=victim.elements[:-1],
                                 root_size=victim.root_size))
    report = check_axioms(scheme)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "set-sizes" in failed
    size_check = next(c for c in report.checks if c.name == "set-sizes")
    assert "rank1{0}" in size_check.counterexample


def test_injected_overlap_fails_initial_segment_axiom(scheme_depth2):
    scheme = _with_level(scheme_depth2, 1, [*scheme_depth2.levels[1], _OVERLAP])
    report = check_axioms(scheme)
    names = {c.name for c in report.failures()}
    assert "same-rank-initial-segments" in names


def test_a_scheme_cannot_be_edited_in_place(scheme_depth2):
    top = scheme_depth2.top
    with pytest.raises(AttributeError):
        scheme_depth2.levels[1].append(_OVERLAP)
    with pytest.raises(TypeError):
        scheme_depth2.decomposition[top] = scheme_depth2.decomposition[top][:-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        scheme_depth2.levels = ()
    levels = [list(level) for level in scheme_depth2.levels]
    decomposition = dict(scheme_depth2.decomposition)
    copy = Scheme(scheme_depth2.type_spec, levels, decomposition)
    levels[0].pop()
    decomposition.pop(top)
    assert copy == scheme_depth2 and check_axioms(scheme_depth2).passed


def _replace(scheme, k, i, **changes):
    old = scheme.levels[k][i]
    return _swap_set(scheme, old, dataclasses.replace(old, **changes))


def _top_children(scheme, *elements):
    below = {s.elements: s for s in scheme.levels[1]}
    return dataclasses.replace(scheme, decomposition={**scheme.decomposition, scheme.top: tuple(
        below.get(e, SchemeSet(rank=1, elements=e, root_size=0)) for e in elements)})


_TOP = "rank2{0,1,2,3}"
_NOT_UNIVERSE = ("rank0-singletons", "rank 0 is not exactly the singletons of the universe")

# one corruption of the 1,2,4;2,3;0,1 scheme per counterexample message, with
# every failing (axiom, counterexample) pair the report must carry
AXIOM_CASES = {
    "unsorted": (lambda s: _replace(s, 1, 0, elements=(1, 0)), [
        ("well-formed", "rank1{1,0} is not a strictly increasing nonnegative sequence"),
        ("same-rank-initial-segments",
         "rank1{1,0} and rank1{0,2} intersect in [0], not an initial segment of both"),
        ("decomposition-delta-system",
         f"root (0,) is not an initial segment of child 0 of {_TOP}")]),
    "negative": (lambda s: _replace(s, 0, 0, elements=(-1,)), [
        ("well-formed", "rank0{-1} is not a strictly increasing nonnegative sequence"),
        ("decomposition-delta-system", "children of rank1{0,1} do not union to it"),
        _NOT_UNIVERSE]),
    "wrong-level": (lambda s: _replace(s, 1, 0, rank=0), [
        ("well-formed", "rank0{0,1} stored at level 1")]),
    "beyond-depth": (lambda s: dataclasses.replace(
        s, type_spec=TypeSpec((1, 2), (2, 3), (0, 1))), [
        ("set-sizes", "level 2 beyond type depth"),
        _NOT_UNIVERSE,
        ("top-covers-all", "top level is not the single full-universe set")]),
    "set-size": (lambda s: _replace(s, 1, 0, elements=(0,)), [
        ("set-sizes", "rank1{0} has size 1, type demands m_1 = 2"),
        ("decomposition-delta-system", "children of rank1{0} do not union to it")]),
    "root-size": (lambda s: _replace(s, 2, 0, root_size=0), [
        ("root-sizes", f"{_TOP} has root size 0, type demands r_2 = 1"),
        ("decomposition-delta-system",
         f"children 0,1 of {_TOP} intersect in (0,), root is ()")]),
    "same-rank": (lambda s: _with_level(s, 1, [*s.levels[1], _OVERLAP]), [
        ("same-rank-initial-segments",
         "rank1{0,1} and rank1{1,2} intersect in [1], not an initial segment of both"),
        ("decomposition-delta-system", "rank1{1,2} has no decomposition")]),
    "no-decomposition": (lambda s: dataclasses.replace(s, decomposition={
        p: children for p, children in s.decomposition.items() if p != s.top}), [
        ("decomposition-delta-system", f"{_TOP} has no decomposition")]),
    "piece-count": (lambda s: _top_children(s, (0, 1), (0, 2)), [
        ("decomposition-delta-system",
         f"{_TOP} decomposes into 2 pieces, type demands n_2 = 3")]),
    "missing-child": (lambda s: _top_children(s, (0, 1), (0, 2), (0, 4)), [
        ("decomposition-delta-system", f"{_TOP} has a child missing from level 1")]),
    "union": (lambda s: _top_children(s, (0, 1), (0, 2), (0, 2)), [
        ("decomposition-delta-system", f"children of {_TOP} do not union to it")]),
    "order": (lambda s: _top_children(s, (0, 2), (0, 1), (0, 3)), [
        ("decomposition-delta-system",
         f"child 1 of {_TOP} does not lie above the previous piece")]),
    "rank0": (lambda s: _with_level(s, 0, s.levels[0][1:]), [
        ("decomposition-delta-system", "rank1{0,1} has a child missing from level 0"),
        _NOT_UNIVERSE]),
    "two-tops": (lambda s: _with_level(s, 2, [*s.levels[2], s.top]), [
        ("well-formed", f"{_TOP} is listed twice at level 2"),
        ("top-covers-all", "top level is not the single full-universe set")]),
    "repeated-singleton": (lambda s: _with_level(s, 0, [*s.levels[0], s.levels[0][3]]), [
        ("well-formed", "rank0{3} is listed twice at level 0")]),
    "repeated-piece": (lambda s: _with_level(s, 1, [*s.levels[1], s.levels[1][1]]), [
        ("well-formed", "rank1{0,2} is listed twice at level 1")]),
}


@pytest.mark.parametrize("edit, failures", AXIOM_CASES.values(), ids=AXIOM_CASES)
def test_axiom_counterexamples_are_pinned(scheme_depth2, edit, failures):
    report = check_axioms(edit(scheme_depth2))
    assert [(c.name, c.counterexample) for c in report.failures()] == failures
    assert all(c.counterexample is None for c in report.checks if c.passed)
    assert check_axioms(scheme_depth2).passed


ELEMENTS = st.integers(-1, 6)
SETS = st.one_of(
    st.lists(ELEMENTS, max_size=4).map(tuple),            # any order, repeats
    st.sets(ELEMENTS, max_size=4).map(sorted).map(tuple))  # strictly increasing


@st.composite
def levels(draw):
    """A level mixing sets that pass the same-rank axiom (prefixes of one
    chain, each with a tail of its own) with arbitrary sets, and copies."""
    chain = draw(st.sets(ELEMENTS, max_size=4).map(sorted))
    level = [tuple(chain[:draw(st.integers(0, len(chain)))]) + (10 + 2 * i, 11 + 2 * i)
             for i in range(draw(st.integers(0, 4)))]
    level += draw(st.lists(SETS, max_size=3))
    if level:
        level += draw(st.lists(st.sampled_from(level), max_size=2))
    return draw(st.permutations(level))


@settings(max_examples=400, deadline=None)
@given(st.lists(levels(), min_size=1, max_size=3))
# (1, 0) twice agrees on every predecessor, but the common elements [0, 1]
# are not an initial segment of (1, 0)
@example([[(1, 0), (1, 0)]])
def test_same_rank_axiom_matches_its_oracle(elements_by_level):
    scheme = Scheme(TypeSpec(*TYPE_DEPTH2), [
        [SchemeSet(rank=k, elements=e, root_size=0) for e in level]
        for k, level in enumerate(elements_by_level)])
    assert (list(_same_rank_initial_segments(scheme))
            == list(same_rank_initial_segments_oracle(scheme)))


# ---------------------------------------------------------------------------
# decomposition and position maps

def test_canonical_decomposition_examples(scheme_depth2):
    top = scheme_depth2.top
    assert top.root == (0,)
    assert elements(scheme_depth2.decomposition[top]) == [(0, 1), (0, 2), (0, 3)]
    rank1 = scheme_depth2.levels[1][0]
    assert rank1.root == ()
    assert len(scheme_depth2.decomposition[rank1]) == 2
    assert not scheme_depth2.decomposition.get(scheme_depth2.levels[0][0])
    stranger = SchemeSet(rank=1, elements=(5, 6), root_size=0)
    with pytest.raises(NotInSchemeError):
        scheme_depth2.piece_maps(stranger)


def test_position_map_examples():
    pm = position_map((0, 1), (0, 2))
    assert pm[0] == 0 and pm[1] == 2
    identity = position_map((0, 1), (0, 1))
    assert identity == {0: 0, 1: 1}
    with pytest.raises(LengthMismatchError):
        position_map((0, 1), (0,))


@pytest.mark.parametrize("source, target", [
    ([0, 0, 1], [2, 3, 4]),
    ([2, 3, 4], [0, 0, 1]),
    ([5, 5], [7, 7]),
])
def test_position_map_refuses_a_repeated_position(source, target):
    # a repeat would leave a map on fewer positions than it was given
    with pytest.raises(LengthMismatchError, match="one to one"):
        position_map(source, target)


def test_piece_maps_and_transport_are_the_increasing_bijections(scheme_depth2):
    top = scheme_depth2.top
    assert scheme_depth2.piece_maps(top) == [{0: 0, 1: 1}, {0: 0, 1: 2}, {0: 0, 1: 3}]
    for level in scheme_depth2.levels:
        for s in level:
            assert scheme_depth2.transport(s) == position_map(level[0], s)
    with pytest.raises(NotInSchemeError):
        scheme_depth2.piece_maps(scheme_depth2.levels[0][0])
    payload = scheme_to_json(scheme_depth2)
    payload["decomposition"]["1:1"].reverse()
    tampered = scheme_from_json(payload)  # {0,2} would not be cut like {0,1}
    assert not check_axioms(tampered).passed
    for build in (lambda s: build_eps_family(s, "1/2"), lambda s: build_K_family(s, 2)):
        with pytest.raises(ConfigInvalidError, match="fails its axioms"):
            build(tampered)


def test_sibling_maps_fix_the_root(scheme_depth3):
    for rank in range(1, scheme_depth3.depth + 1):
        for parent in scheme_depth3.levels[rank]:
            children = scheme_depth3.decomposition[parent]
            for sibling in children[1:]:
                pm = position_map(children[0], sibling)
                for p in parent.root:
                    assert pm[p] == p


# ---------------------------------------------------------------------------
# delta-systems and capture

def test_delta_system_examples():
    assert is_delta_system([{1}, {2}, {3}]).root == ()
    assert is_delta_system([{0, 1}, {0, 2}, {0, 3}]).root == (0,)
    with pytest.raises(NotDeltaError) as err:
        is_delta_system([{0, 1}, {1, 2}])
    assert err.value.pair == (0, 1)


def test_delta_system_rejects_unequal_sizes():
    with pytest.raises(NotDeltaError):
        is_delta_system([{0, 1}, {2}])


def test_capture_smallest_case():
    scheme = build_scheme(validate_type([1, 2], [2], [0]))
    capture = find_capture(scheme, [{0}, {1}], 2)
    assert capture.site == scheme.top
    assert capture.member_indices == (0, 1)


def test_capture_depth2(scheme_depth2):
    capture = find_capture(scheme_depth2, [{1}, {2}], 2)
    assert capture.site == scheme_depth2.top
    assert capture.member_indices == (0, 1)


def test_out_of_order_family_rejected_before_capture(scheme_depth2):
    with pytest.raises(NotDeltaError):
        find_capture(scheme_depth2, [{1}, {3}, {2}], 2)


def test_capture_can_be_absent(scheme_depth2):
    # a genuine delta-system whose members skip a piece: no aligned transport
    assert find_capture(scheme_depth2, [{1}, {3}], 2) is None


def test_capture_roundtrip_finds_site_at_or_below(scheme_depth3):
    # the first piece moved onto the leading pieces by the piece maps
    for rank in range(1, scheme_depth3.depth + 1):
        site = scheme_depth3.levels[rank][0]
        maps = scheme_depth3.piece_maps(site)
        pattern = scheme_depth3.decomposition[site][0].elements
        for t in (1, min(len(maps), 3)):
            members = [[pm[p] for p in pattern] for pm in maps[:t]]
            capture = find_capture(scheme_depth3, members, t)
            assert capture is not None
            assert capture.site.rank <= site.rank


def test_scheme_set_hash_is_the_field_hash(scheme_depth3):
    for s in scheme_depth3.sets():
        assert hash(s) == hash(s) == hash((s.rank, s.elements, s.root_size))
    top = scheme_depth3.top
    for copy in (dataclasses.replace(top), dataclasses.replace(top, elements=top.elements[1:])):
        assert hash(copy) == hash((copy.rank, copy.elements, copy.root_size))
        assert (copy == top) == (copy.elements == top.elements)


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip(scheme_depth3):
    clone = scheme_from_json(scheme_to_json(scheme_depth3))
    assert clone.type_spec == scheme_depth3.type_spec
    assert clone.levels == scheme_depth3.levels
    assert clone.decomposition == scheme_depth3.decomposition
    assert scheme_dumps(clone) == scheme_dumps(scheme_depth3)


@st.composite
def small_types(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    m = [1]
    n, r = [], []
    for k in range(1, depth + 1):
        nk = draw(st.integers(min_value=k + 1, max_value=k + 2))
        rk = draw(st.integers(min_value=0, max_value=min(m[-1] - 1, 2)))
        n.append(nk)
        r.append(rk)
        m.append(nk * (m[-1] - rk) + rk)
    return m, n, r


@settings(max_examples=25, deadline=None)
@given(small_types())
def test_random_types_build_validate_and_round_trip(triple):
    m, n, r = triple
    scheme = build_scheme(validate_type(m, n, r))
    assert check_axioms(scheme).passed
    clone = scheme_loads(scheme_dumps(scheme))
    assert clone.levels == scheme.levels and clone.decomposition == scheme.decomposition


# ---------------------------------------------------------------------------
# the decomposition-tree lemma of `csw.analysis.coherence_report`: on a scheme
# that passes `check_axioms`, every scheme set E < F lies in F's decomposition
# tree, so the transport onto F from the first set of F's rank pulls E back
# onto a listed set

def _lemma_pairs(scheme):
    """(nested pairs, those at a set that is not the first of its rank),
    once the lemma and its transport consequence hold at every one."""
    assert check_axioms(scheme).passed
    firsts = {level[0] for level in scheme.levels}
    pairs = moved = 0
    for E, F in nested_pairs_oracle(scheme):
        assert in_decomposition_tree(scheme, E, F), (E, F)
        pairs += 1
        if F not in firsts:
            assert transport_preimage_is_listed(scheme, E, F), (E, F)
            moved += 1
    return pairs, moved


NAMED_TYPES = {
    "d3": (TYPE_DEPTH3, 69, 37),
    "d4": (TYPE_DEPTH4, 461, 313),
    "d5": (TYPE_DEPTH5, 3463, 2618),
    "w16": (([1, 16], [16], [0]), 16, 0),
    "t17": (([1, 2, 5, 17], [2, 4, 4], [0, 1, 1]), 105, 57),
    "u23": (([1, 2, 4, 7, 23], [2, 3, 4, 5], [0, 1, 3, 3]), 339, 243),
    "1,3,7": (([1, 3, 7], [3, 3], [0, 1]), 19, 6),
}


@pytest.mark.parametrize("triple, pairs, moved", NAMED_TYPES.values(), ids=NAMED_TYPES)
def test_decomposition_tree_lemma_on_named_types(triple, pairs, moved):
    assert _lemma_pairs(build_scheme(validate_type(*triple))) == (pairs, moved)


@st.composite
def lemma_types(draw, depth=4, universe=120):
    """A valid type of depth at most `depth`, universe at most `universe`,
    and k < n_k <= k+3: m_k = n_k m_{k-1} - r_k (n_k - 1) falls as r_k
    grows, so r_k is drawn from the roots that keep m_k in bounds, and the
    type stops short when none does."""
    m, n, r = [1], [], []
    for k in range(1, draw(st.integers(1, depth)) + 1):
        nk = draw(st.integers(k + 1, k + 3))
        low = max(0, -(-(nk * m[-1] - universe) // (nk - 1)))
        if low >= m[-1]:
            break
        rk = draw(st.integers(low, m[-1] - 1))
        n.append(nk)
        r.append(rk)
        m.append(nk * (m[-1] - rk) + rk)
    return m, n, r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(triple=lemma_types(), data=st.data())
def test_decomposition_tree_lemma_on_shuffled_levels(triple, data):
    scheme = build_scheme(validate_type(*triple))
    assert scheme.universe_size <= 120
    levels = [data.draw(st.permutations(level)) for level in scheme.levels]
    _lemma_pairs(dataclasses.replace(scheme, levels=levels))


def _first_set_pairs_no_piece_covers(scheme):
    """The pairs at the first set of each rank k >= 1 that the per-pair
    covering test leaves unchecked, and the (piece, first set) pairs: the
    coherence scan's closed form says they are the same."""
    firsts = {level[0] for level in scheme.levels[1:]}
    uncovered = {(E, F) for E, F in nested_pairs_oracle(scheme)
                 if F in firsts and not covered_by_a_piece(scheme, E, F)}
    return uncovered, {(P, F) for F in firsts for P in scheme.decomposition[F]}


@pytest.mark.parametrize("triple", [t for t, _, _ in NAMED_TYPES.values()], ids=NAMED_TYPES)
def test_first_set_pairs_no_piece_covers_are_the_pieces_on_named_types(triple):
    uncovered, pieces = _first_set_pairs_no_piece_covers(build_scheme(validate_type(*triple)))
    assert uncovered == pieces


@settings(max_examples=60, deadline=None, derandomize=True)
@given(triple=lemma_types(), data=st.data())
def test_first_set_pairs_no_piece_covers_are_the_pieces_on_shuffled_levels(triple, data):
    scheme = build_scheme(validate_type(*triple))
    levels = [data.draw(st.permutations(level)) for level in scheme.levels]
    uncovered, pieces = _first_set_pairs_no_piece_covers(dataclasses.replace(scheme, levels=levels))
    assert uncovered == pieces


# ---------------------------------------------------------------------------
# containment queries, answered from one position index, against every set

COVER_TYPES = [TYPE_DEPTH1, TYPE_DEPTH2, TYPE_DEPTH3, TYPE_DEPTH4, TYPE_DEPTH5, TYPE_WIDE8]


def _ids(sets):
    return [id(s) for s in sets]


def _covering_matches_its_oracle(scheme, positions):
    """containing_sets and minimal_containing against covering_sets_oracle,
    set object by set object, so a repeated set's copies are told apart."""
    want = covering_sets_oracle(scheme, positions)
    assert _ids(scheme.containing_sets(positions)) == _ids(want)
    if want and all(0 <= p < scheme.universe_size for p in positions):
        assert scheme.minimal_containing(positions) is want[0]
    else:
        with pytest.raises(NotInSchemeError):
            scheme.minimal_containing(positions)


@st.composite
def position_sets(draw, scheme):
    """Positions from -1 to one past the universe, which no set holds, or
    part of a set's elements, perhaps with that position; either may be
    empty."""
    unheld = scheme.universe_size + 1
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-1, unheld), max_size=4))
    elems = draw(st.sampled_from(list(scheme.sets()))).elements
    part = draw(st.lists(st.sampled_from(elems), max_size=4)) if elems else []
    return part + [unheld] * draw(st.integers(0, 1))


@pytest.mark.parametrize("edit", [None, *SCHEME_EDITS])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_covering_sets_match_their_oracle(edit, data):
    payload = scheme_to_json(build_scheme(validate_type(*data.draw(st.sampled_from(COVER_TYPES)))))
    levels = payload["levels"]
    if edit:
        mutate_scheme_json(data, payload, edit)
        for _ in range(data.draw(st.integers(0, 2))):
            mutate_scheme_json(data, payload)
    if data.draw(st.booleans()):  # an element -1
        elems = data.draw(st.sampled_from(data.draw(st.sampled_from(levels))))
        elems[data.draw(st.integers(0, len(elems) - 1))] = -1
    if data.draw(st.booleans()):  # a repeated set
        level = data.draw(st.sampled_from(levels))
        level.append(list(data.draw(st.sampled_from(level))))
    if data.draw(st.booleans()):  # two sets with no elements
        data.draw(st.sampled_from(levels)).extend([[], []])
    scheme = scheme_from_json(payload)
    for _ in range(6):
        _covering_matches_its_oracle(scheme, data.draw(position_sets(scheme)))


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_a_replaced_copy_answers_from_its_own_levels(rank):
    scheme = build_scheme(validate_type(*TYPE_DEPTH3))
    queries = [(), (0,), (3,), (2, 3), (0, 1, 4), (9,), (10,)]
    for positions in queries:  # index the scheme before the copy is made
        _covering_matches_its_oracle(scheme, positions)
    levels = [level[::-1] if k == rank else level for k, level in enumerate(scheme.levels)]
    copy = dataclasses.replace(scheme, levels=levels)
    for positions in queries:
        _covering_matches_its_oracle(copy, positions)
        _covering_matches_its_oracle(scheme, positions)
    assert copy.minimal_containing(()) is levels[0][0]


class _CountedElements(set):
    """Elements that count the subset tests made on them: `E < F` between
    two of them, and `needed <= elements` for a plain set `needed`, which
    Python asks of a subclass of the left operand's type first."""

    tests = 0

    def __lt__(self, other):
        _CountedElements.tests += 1
        return set.__lt__(self, other)

    def __ge__(self, other):
        _CountedElements.tests += 1
        return set.__ge__(self, other)


def _count_subset_tests(scheme, query):
    for s in scheme.sets():
        s.__dict__["element_set"] = _CountedElements(s.elements)
    scheme.containing_sets(())  # the index, made at the first lookup
    _CountedElements.tests = 0
    result = query()
    return result, _CountedElements.tests


@pytest.mark.parametrize("triple", [TYPE_DEPTH4, TYPE_DEPTH5], ids=["d4", "d5"])
def test_lookups_test_only_the_sets_holding_the_largest_position(triple):
    scheme = build_scheme(validate_type(*triple))
    sets = list(scheme.sets())
    holding = {p: sum(p in s.elements for s in sets) for p in range(scheme.universe_size)}
    for positions in [(0,), (0, 1), (1, 5, 9), (0, scheme.universe_size - 1)]:
        covering, made = _count_subset_tests(scheme, lambda: scheme.containing_sets(positions))
        assert made == holding[max(positions)]
        assert covering == covering_sets_oracle(scheme, positions)


@pytest.mark.parametrize("triple, tests", [(TYPE_DEPTH4, 468), (TYPE_DEPTH5, 3490)],
                         ids=["d4", "d5"])
def test_coherence_tests_each_set_once_per_rank(triple, tests):
    # the report lists the sets inside each rank's first set, one subset
    # test per set and rank, and lists no pair of sets
    scheme = build_scheme(validate_type(*triple))
    family = build_eps_family(scheme, Fraction(1, 2))
    report, made = _count_subset_tests(scheme, lambda: coherence_report(family))
    assert report.passed
    assert made == scheme.depth * len(list(scheme.sets())) == tests


def test_in_universe_checks_both_edges(scheme_depth3):
    last = scheme_depth3.universe_size - 1
    assert scheme_depth3.in_universe([last, 0, last]) == {0, last}
    assert scheme_depth3.in_universe(iter(())) == set()
    for positions in ([-1], [0, last + 1], [-1, last + 1]):
        with pytest.raises(NotInSchemeError, match="exceed the universe"):
            scheme_depth3.in_universe(positions)
        with pytest.raises(NotInSchemeError, match="exceed the universe"):
            scheme_depth3.minimal_containing(positions)


# ---------------------------------------------------------------------------
# refusals

def test_minimal_containing_refuses_positions_no_set_covers():
    singletons = [SchemeSet(rank=0, elements=(p,), root_size=0) for p in (0, 1)]
    scheme = Scheme(validate_type([1, 2], [2], [0]), [singletons])  # no top set
    with pytest.raises(NotInSchemeError, match="^no scheme set covers the given positions$"):
        scheme.minimal_containing({0, 1})


def test_decomposition_axiom_goes_on_past_a_set_with_no_decomposition(scheme_depth2):
    first, second = scheme_depth2.levels[1][:2]
    decomposition = dict(scheme_depth2.decomposition)
    del decomposition[first]
    decomposition[second] = decomposition[second][:1]
    scheme = dataclasses.replace(scheme_depth2, decomposition=decomposition)
    assert list(_decomposition_delta_system(scheme)) == [
        "rank1{0,1} has no decomposition",
        "rank1{0,2} decomposes into 1 pieces, type demands n_1 = 2",
        "children of rank1{0,2} do not union to it"]
    assert check_axioms(scheme).failures()[0].counterexample == "rank1{0,1} has no decomposition"


def test_delta_system_refuses_no_members_and_unequal_intersections():
    with pytest.raises(NotDeltaError, match=r"^not a delta-system \(members 0, 0\): empty family$"):
        is_delta_system([])
    with pytest.raises(NotDeltaError, match=r"^not a delta-system \(members 0, 2\): "
                                            r"pairwise intersections differ: \(1,\) vs \(0,\)$"):
        is_delta_system([{0, 1}, {0, 2}, {1, 2}])


def test_find_capture_refuses_t_zero(scheme_depth2):
    with pytest.raises(ConfigInvalidError, match="^need 1 <= t <= 2, got 0$"):
        find_capture(scheme_depth2, [{1}, {2}], 0)


@pytest.mark.parametrize("t", [True, 1.0], ids=["bool", "float"])
def test_find_capture_refuses_a_t_that_is_not_an_int(scheme_depth2, t):
    # True would be read as 1 and capture one member
    with pytest.raises(ConfigInvalidError, match=f"^t must be an integer, got {t!r}$"):
        find_capture(scheme_depth2, [{1}, {2}], t)
