"""Finite-depth construction schemes over an integer universe.

A type is an arithmetic triple (m_k, n_k, r_k), k = 0..depth, with m_0 = 1
and m_k = n_k (m_{k-1} - r_k) + r_k.  A scheme of that type is a ranked
family of finite subsets of [0, m_depth): singletons at rank 0, the full
universe at rank `depth`, and every rank-k set decomposing into n_k rank-(k-1)
sets that form an increasing delta-system with root the first r_k elements.

The builder realizes the scheme deterministically by consecutive-block
splitting, one level at a time from the top: a rank-k set keeps its first r_k
elements as the root and cuts the remainder into n_k consecutive blocks.  The
scheme is the one source of the increasing bijections that transport along it:
`Scheme.piece_maps` and `Scheme.transport`.  `check_axioms` re-verifies every
defining property by exhaustive enumeration, so corrupted or hand-altered
schemes are diagnosed rather than trusted: the family builders refuse them.

A scheme is an immutable value (tuple levels, a read-only decomposition), so
an edited scheme is a `dataclasses.replace` copy and the position index made
at its first containment query is always its own.  Every query is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import lt
from types import MappingProxyType

from .errors import (
    ArityMismatchError,
    ConfigInvalidError,
    LengthMismatchError,
    NotDeltaError,
    NotInSchemeError,
    PatternOutOfRangeError,
    RankZeroError,
    TypeValidationError,
)
from .vectors import canonical_json


@dataclass(frozen=True)
class TypeSpec:
    m: tuple
    n: tuple  # n[k-1] is the width at rank k
    r: tuple  # r[k-1] is the root size at rank k

    @property
    def depth(self) -> int:
        return len(self.m) - 1

    @property
    def universe_size(self) -> int:
        return self.m[-1]

    def m_of(self, k):
        return self.m[k]

    def n_of(self, k):
        return self.n[k - 1]

    def r_of(self, k):
        return self.r[k - 1] if k > 0 else 0

    def to_json(self):
        return {"m": list(self.m), "n": list(self.n), "r": list(self.r)}

    @classmethod
    def from_json(cls, obj):
        return validate_type(obj["m"], obj["n"], obj["r"])


def type_violations(m, n, r):
    """Every violated type constraint as (k, name, message); empty iff valid."""
    violations = []
    m, n, r = list(m), list(n), list(r)
    if not m:
        return [(0, "arity", "m must have at least one entry")]
    depth = len(m) - 1
    if len(n) != depth or len(r) != depth:
        violations.append((0, "arity",
                           f"with depth {depth} expected {depth} entries in n and r, "
                           f"got {len(n)} and {len(r)}"))
        return violations
    if any(type(v) is not int for v in m + n + r):
        violations.append((0, "integrality", "all entries must be integers"))
        return violations
    if m[0] != 1:
        violations.append((0, "m0", f"m_0 must be 1, got {m[0]}"))
    for k in range(1, depth + 1):
        nk, rk = n[k - 1], r[k - 1]
        if nk <= k:
            violations.append((k, "n_exceeds_rank", f"n_{k} > {k} required, got {nk}"))
        if rk < 0:
            violations.append((k, "root_nonnegative", f"r_{k} must be >= 0, got {rk}"))
        if rk >= m[k - 1]:
            violations.append((k, "root_bound",
                               f"r_{k} < m_{k-1} required, got {rk} >= {m[k - 1]}"))
        expected = nk * (m[k - 1] - rk) + rk
        if m[k] != expected:
            violations.append((k, "recursion",
                               f"m_{k} must equal n_{k} (m_{k-1} - r_{k}) + r_{k} "
                               f"= {expected}, got {m[k]}"))
    return violations


def validate_type(m, n, r) -> TypeSpec:
    """Return a TypeSpec or raise TypeValidationError listing every violation."""
    violations = type_violations(m, n, r)
    if violations:
        if any(name == "arity" for _, name, _ in violations):
            raise ArityMismatchError(violations)
        raise TypeValidationError(violations)
    return TypeSpec(tuple(m), tuple(n), tuple(r))


@dataclass(frozen=True)
class SchemeSet:
    rank: int
    elements: tuple
    root_size: int

    @property
    def root(self) -> tuple:
        return self.elements[: self.root_size]

    @cached_property
    def element_set(self) -> frozenset:
        """The elements as a frozenset, built on first use."""
        return frozenset(self.elements)

    @cached_property
    def _hash(self) -> int:
        return hash((self.rank, self.elements, self.root_size))

    def __hash__(self):
        """The dataclass field hash, computed once per set."""
        return self._hash

    def __contains__(self, item):
        return item in self.elements

    def __str__(self):
        body = ",".join(map(str, self.elements))
        return f"rank{self.rank}{{{body}}}"


@dataclass(frozen=True)
class Scheme:
    type_spec: TypeSpec
    levels: tuple  # levels[k] = the SchemeSets of rank k; build_scheme sorts them
    decomposition: MappingProxyType = field(default_factory=dict)  # SchemeSet -> tuple of children

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(map(tuple, self.levels)))
        object.__setattr__(self, "decomposition", MappingProxyType(dict(self.decomposition)))

    @property
    def depth(self) -> int:
        return self.type_spec.depth

    @property
    def universe_size(self) -> int:
        return self.type_spec.universe_size

    @property
    def top(self) -> SchemeSet:
        return self.levels[self.depth][0]

    def sets(self):
        for level in self.levels:
            yield from level

    def keyed_sets(self):
        """("k:i", the i-th rank-k set) for every set, in scan order: the one
        spelling of set keys, which `scheme_from_json` parses."""
        for k, level in enumerate(self.levels):
            for i, s in enumerate(level):
                yield f"{k}:{i}", s

    def has_set(self, s: SchemeSet) -> bool:
        return 0 <= s.rank < len(self.levels) and s in self.levels[s.rank]

    def in_universe(self, positions) -> set:
        """`positions` as a set, refused unless each lies in the universe."""
        needed = set(positions)
        if needed and not 0 <= min(needed) <= max(needed) < self.universe_size:
            raise NotInSchemeError(f"positions {sorted(needed)} exceed the universe")
        return needed

    def minimal_containing(self, positions) -> SchemeSet:
        """The first set, in level order, of minimal rank covering `positions`."""
        for s in self._covering(self.in_universe(positions)):
            return s
        raise NotInSchemeError("no scheme set covers the given positions")

    def containing_sets(self, positions):
        """Every set covering `positions`, by rank then in level order."""
        return list(self._covering(positions))

    def nested_pairs(self):
        """Every (E, F) of sets with E a proper subset of F, by F then E in scan order: no axiom used."""
        sets = self._index[0]
        inside = [[] for _ in sets]  # inside[j]: the sets inside sets[j], in scan order
        for E in sets:
            for j in self._holding(E.element_set):
                if E.element_set < sets[j].element_set:
                    inside[j].append(E)
        return [(E, F) for F, below in zip(sets, inside) for E in below]

    @cached_property
    def _index(self):
        """(the sets in scan order, position -> scan indices of the sets holding it)."""
        sets, holders = list(self.sets()), {}
        for i, s in enumerate(sets):
            for p in s.element_set:
                holders.setdefault(p, []).append(i)
        return sets, holders

    def _holding(self, needed):
        """Scan indices of the sets holding max(needed), or of all sets for no positions."""
        sets, holders = self._index
        return holders.get(max(needed), ()) if needed else range(len(sets))

    def _covering(self, positions):
        """Every set covering `positions`, in scan order: those `_holding` names that do."""
        needed, sets = set(positions), self._index[0]
        return (sets[i] for i in self._holding(needed) if needed <= sets[i].element_set)

    def piece_maps(self, F: SchemeSet) -> list:
        """phi_0 .. phi_{n-1}: the increasing bijections from F's first piece
        onto each of its pieces, phi_0 the identity."""
        children = self.decomposition.get(F)
        if not children:
            raise NotInSchemeError(f"{F} has no decomposition")
        return [position_map(children[0], c) for c in children]

    def transport(self, F: SchemeSet) -> dict:
        """The increasing bijection onto F from the first set of F's rank.  On
        a scheme that passes `check_axioms` it carries that set's
        decomposition onto F's."""
        return position_map(self.levels[F.rank][0], F)


def build_scheme(type_spec: TypeSpec) -> Scheme:
    """Deterministic scheme over [0, m_depth), cut level by level from the top
    by consecutive-block splitting."""
    depth = type_spec.depth
    levels = [[SchemeSet(rank=depth, elements=tuple(range(type_spec.universe_size)),
                         root_size=type_spec.r_of(depth))]]
    decomposition = {}
    for k in range(depth, 0, -1):
        rk = type_spec.r_of(k)
        width = type_spec.m_of(k - 1) - rk
        below = {}  # elements -> the rank-(k-1) set, one object for every parent
        for parent in levels[0]:
            root, rest = parent.elements[:rk], parent.elements[rk:]
            children = []
            for i in range(type_spec.n_of(k)):
                elems = root + rest[i * width: (i + 1) * width]
                children.append(below.setdefault(elems, SchemeSet(
                    rank=k - 1, elements=elems, root_size=type_spec.r_of(k - 1))))
            decomposition[parent] = tuple(children)
        levels.insert(0, sorted(below.values(), key=lambda s: s.elements))
    return Scheme(type_spec=type_spec, levels=levels, decomposition=decomposition)


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    counterexample: str | None = None


@dataclass
class AxiomReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed,
                 "counterexample": c.counterexample}
                for c in self.checks
            ],
        }


def _is_initial_segment(prefix, whole):
    return tuple(whole[: len(prefix)]) == tuple(prefix)


# Each axiom is a generator of its counterexamples in scan order; the report
# keeps the first one.

def _increasing(elements):
    return all(map(lt, elements, elements[1:]))


def _well_formed(scheme):
    for k, level in enumerate(scheme.levels):
        seen = set()
        for s in level:
            if not _increasing(s.elements) or (s.elements and s.elements[0] < 0):
                yield f"{s} is not a strictly increasing nonnegative sequence"
            if s.rank != k:
                yield f"{s} stored at level {k}"
            if s in seen:
                yield f"{s} is listed twice at level {k}"
            seen.add(s)


def _set_sizes(scheme):
    ts = scheme.type_spec
    for k, level in enumerate(scheme.levels):
        if k > ts.depth:
            yield f"level {k} beyond type depth"
        for s in level:
            if len(s.elements) != ts.m_of(k):
                yield f"{s} has size {len(s.elements)}, type demands m_{k} = {ts.m_of(k)}"


def _root_sizes(scheme):
    for k, level in enumerate(scheme.levels):
        want = scheme.type_spec.r_of(k)
        for s in level:
            if s.root_size != want or len(s.root) != min(want, len(s.elements)):
                yield f"{s} has root size {s.root_size}, type demands r_{k} = {want}"


def _predecessors_agree(level):
    """Whether every set of the level is strictly increasing and all sets
    that contain x agree on the element just before x (None when x comes
    first).  For such a level this is the same-rank axiom: every common
    element then brings all smaller elements of both sets with it, so each
    pairwise intersection is an initial segment of both."""
    links = set()
    for s in level:
        if not _increasing(s.elements):
            return False
        links.update(zip(s.elements, (None, *s.elements)))
    return len(links) == len({x for x, _ in links})


def _same_rank_initial_segments(scheme):
    # one pass per level; the pairwise scan, in scan order, only where that
    # pass fails, so the counterexamples are the pairwise definition's
    for level in scheme.levels:
        if _predecessors_agree(level):
            continue
        for e, f in combinations(level, 2):
            common = sorted(e.element_set & f.element_set)
            if not (_is_initial_segment(common, e.elements)
                    and _is_initial_segment(common, f.elements)):
                yield f"{e} and {f} intersect in {common}, not an initial segment of both"


def _decomposition_delta_system(scheme):
    ts = scheme.type_spec
    for k in range(1, len(scheme.levels)):
        level_below = set(scheme.levels[k - 1])
        for parent in scheme.levels[k]:
            children = scheme.decomposition.get(parent)
            if children is None:
                yield f"{parent} has no decomposition"
                continue
            if len(children) != ts.n_of(k):
                yield f"{parent} decomposes into {len(children)} pieces, type demands n_{k} = {ts.n_of(k)}"
            if any(c not in level_below for c in children):
                yield f"{parent} has a child missing from level {k - 1}"
            if frozenset().union(*(c.element_set for c in children)) != parent.element_set:
                yield f"children of {parent} do not union to it"
            root = parent.root
            for (a, ca), (b, cb) in combinations(enumerate(children), 2):
                inter = tuple(sorted(ca.element_set & cb.element_set))
                if inter != root:
                    yield f"children {a},{b} of {parent} intersect in {inter}, root is {root}"
            prev_max = max(root) if root else -1
            for idx, c in enumerate(children):
                tail = [x for x in c.elements if x not in root]
                if not _is_initial_segment(root, c.elements):
                    yield f"root {root} is not an initial segment of child {idx} of {parent}"
                if tail and tail[0] <= prev_max:
                    yield f"child {idx} of {parent} does not lie above the previous piece"
                if tail:
                    prev_max = tail[-1]


def _rank0_singletons(scheme):  # sizes first: no set outgrows the ones listed
    universe = range(scheme.universe_size)
    if (not scheme.levels or len(scheme.levels[0]) < len(universe)
            or {s.elements for s in scheme.levels[0]} != {(x,) for x in universe}):
        yield "rank 0 is not exactly the singletons of the universe"


def _top_covers_all(scheme):  # sizes first, as above
    top, universe = scheme.levels[-1] if scheme.levels else [], range(scheme.universe_size)
    if len(top) != 1 or len(top[0].elements) < len(universe) or set(top[0].elements) != {*universe}:
        yield "top level is not the single full-universe set"


AXIOMS = (
    ("well-formed", _well_formed),
    ("set-sizes", _set_sizes),
    ("root-sizes", _root_sizes),
    ("same-rank-initial-segments", _same_rank_initial_segments),
    ("decomposition-delta-system", _decomposition_delta_system),
    ("rank0-singletons", _rank0_singletons),
    ("top-covers-all", _top_covers_all),
)


def check_axioms(scheme: Scheme) -> AxiomReport:
    """Exhaustively verify every defining property; never aborts early.

    Each axiom records its first counterexample and the remaining axioms are
    still checked, so a corrupted scheme yields a full diagnosis.
    """
    checks = []
    for name, counterexamples in AXIOMS:
        first = next(counterexamples(scheme), None)
        checks.append(AxiomCheck(name, first is None, first))
    return AxiomReport(checks)


def position_map(source, target) -> dict:
    """The unique increasing bijection between two equal-sized position sets;
    a position repeated in either is refused."""
    src = tuple(source.elements) if isinstance(source, SchemeSet) else tuple(sorted(source))
    tgt = tuple(target.elements) if isinstance(target, SchemeSet) else tuple(sorted(target))
    pm = dict(zip(src, tgt))
    if not len(src) == len(tgt) == len(pm) == len(set(tgt)):
        raise LengthMismatchError(f"cannot map {list(src)} one to one onto {list(tgt)}")
    return pm


@dataclass(frozen=True)
class DeltaSystem:
    members: tuple  # tuple of strictly increasing position tuples
    root: tuple


def is_delta_system(members) -> DeltaSystem:
    """Validate an increasing delta-system; returns it with its root.

    Members must share every pairwise intersection (the root), have equal
    sizes, and their non-root parts must appear in strictly increasing blocks.
    """
    normalized = [tuple(sorted(set(member))) for member in members]
    if not normalized:
        raise NotDeltaError(0, 0, "empty family")
    size = len(normalized[0])
    for i, elems in enumerate(normalized):
        if len(elems) != size:
            raise NotDeltaError(0, i, "members differ in size")
    if len(normalized) == 1:
        return DeltaSystem(tuple(normalized), ())
    root = tuple(sorted(set(normalized[0]) & set(normalized[1])))
    root_set = set(root)
    root_max = max(root) if root else -1
    tails = [[x for x in elems if x not in root_set] for elems in normalized]
    for i in range(len(normalized)):
        for j in range(i + 1, len(normalized)):
            inter = tuple(sorted(set(normalized[i]) & set(normalized[j])))
            if inter != root:
                raise NotDeltaError(i, j,
                                    f"pairwise intersections differ: {inter} vs {root}")
            for member in (i, j):
                if tails[member] and min(tails[member]) <= root_max:
                    raise NotDeltaError(i, j,
                                        f"root {root} does not lie below member {member}")
            if tails[i] and tails[j] and min(tails[j]) <= max(tails[i]):
                raise NotDeltaError(i, j, "non-root parts are not in increasing blocks")
    return DeltaSystem(tuple(normalized), root)


@dataclass(frozen=True)
class Capture:
    site: SchemeSet
    member_indices: tuple  # member_indices[i] sits inside child i


def find_capture(scheme: Scheme, system, t: int):
    """First scheme set whose leading children capture t members, or None.

    Search order is rank ascending, then level order (which the axioms do
    not fix) on the candidate set, then lexicographic on the member
    subsequence, so results are deterministic.  Absence of a capture is a
    legitimate outcome at finite depth.
    """
    if not isinstance(system, DeltaSystem):
        system = is_delta_system(system)
    members = system.members
    if t < 1 or t > len(members):
        raise ConfigInvalidError(f"need 1 <= t <= {len(members)}, got {t}")
    root = set(system.root)
    member_sets = [set(m) for m in members]
    for k in range(1, scheme.depth + 1):
        for F in scheme.levels[k]:
            children = scheme.decomposition.get(F)
            if children is None or t > len(children):
                continue
            if not root <= set(F.root):
                continue
            first = set(children[0].elements)
            maps = None
            for combo in combinations(range(len(members)), t):
                if not member_sets[combo[0]] <= first:
                    continue
                if maps is None:
                    maps = scheme.piece_maps(F)
                base = members[combo[0]]
                if all(tuple(maps[i][p] for p in base) == members[combo[i]]
                       for i in range(1, t)):
                    return Capture(site=F, member_indices=combo)
    return None


def make_captured_family(scheme: Scheme, F: SchemeSet, pattern_positions, t: int) -> DeltaSystem:
    """Engineer a delta-system that F captures: transport a pattern from the
    first child through the first t increasing bijections."""
    if not scheme.has_set(F):
        raise NotInSchemeError(f"{F} is not in the scheme")
    if F.rank == 0:
        raise RankZeroError("capture sites need rank >= 1")
    children = scheme.decomposition[F]
    if t < 1 or t > len(children):
        raise ConfigInvalidError(f"need 1 <= t <= {len(children)} pieces, got {t}")
    base = tuple(sorted(set(pattern_positions)))
    if not base:
        raise PatternOutOfRangeError("pattern is empty")
    if not set(base) <= set(children[0].elements):
        raise PatternOutOfRangeError(
            f"pattern {list(base)} is not inside the first piece {children[0]}")
    members = [tuple(pm[p] for p in base) for pm in scheme.piece_maps(F)[:t]]
    return is_delta_system(members)


# ---------------------------------------------------------------------------
# JSON serialization: canonical, integers only, arrays ascending.

def scheme_to_json(scheme: Scheme) -> dict:
    """Each set's elements by level, and each decomposition under its
    parent's key as the children's indices into the level below."""
    index = {s: i for level in scheme.levels for i, s in enumerate(level)}
    return {
        "type": scheme.type_spec.to_json(),
        "levels": [[list(s.elements) for s in level] for level in scheme.levels],
        "decomposition": {key: [index[c] for c in scheme.decomposition[s]]
                          for key, s in scheme.keyed_sets() if s in scheme.decomposition},
    }


def _at(items, i, what):
    """items[i] for an int 0 <= i < len(items): no index counts from the end."""
    if type(i) is not int or not 0 <= i < len(items):
        raise IndexError(f"{what} {i} out of range 0..{len(items) - 1}")
    return items[i]


def _int_elements(elems):
    """The elements of a set as a tuple; each must be a JSON integer."""
    elems = tuple(elems)
    if not all(type(e) is int for e in elems):
        raise ConfigInvalidError(f"set elements must be integers, got {list(elems)!r}")
    return elems


def scheme_from_json(obj) -> Scheme:
    """Rebuild a scheme from JSON, checking the type and every index but not
    the axioms: the family builders run `check_axioms` and refuse a failure.
    A key "k:i" must be written as the writers write it."""
    ts = TypeSpec.from_json(obj["type"])
    if len(obj["levels"]) > ts.depth + 1:
        raise ConfigInvalidError(
            f"{len(obj['levels'])} levels exceed depth {ts.depth} + 1")
    levels = [[SchemeSet(rank=k, elements=_int_elements(elems), root_size=ts.r_of(k))
               for elems in level]
              for k, level in enumerate(obj["levels"])]
    decomposition = {}
    for key, child_indices in obj.get("decomposition", {}).items():
        rank, idx = (int(v) for v in key.split(":"))
        if key != f"{rank}:{idx}":
            raise ConfigInvalidError(f"set key {key!r} is not written as '{rank}:{idx}'")
        parent = _at(_at(levels, rank, "rank"), idx, f"rank-{rank} set")
        below = _at(levels, rank - 1, "rank")
        decomposition[parent] = tuple(_at(below, j, f"rank-{rank - 1} set") for j in child_indices)
    return Scheme(ts, levels, decomposition)


def scheme_dumps(scheme: Scheme) -> str:
    return canonical_json(scheme_to_json(scheme))


def scheme_loads(text: str) -> Scheme:
    return scheme_from_json(json.loads(text))
