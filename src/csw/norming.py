"""Recursive norming families over a construction scheme.

Two family variants are built bottom-up along the scheme's decomposition
tree.  Writing F = F_0 u ... u F_{n-1} for the canonical pieces, R for the
root, and phi_i for the increasing bijection F_0 -> F_i (`Scheme.piece_maps`):

Alternating variant ("eps"): each set F carries one functional h_a per
position a in F,

  a in R:          h_a = spread of h_a^{F_0} over all pieces
  a in F_0 - R:    h_a = h_a^{F_0} + eps * sum_{i>=2} (-1)^i   phi_i(h_a^{F_0}) off F_0
  d in F_1 - R:    h_d = phi_1(h_a^{F_0}) + eps * sum_{i>=2} (-1)^{i+1} phi_i(h_a^{F_0}) off F_0
                   (a the F_0-position with phi_1(a) = d)
  a in F_j - R,
  j >= 2:          h_a = copy of h_a^{F_j}

Singletons carry the unit functional.  The result is a biorthogonal-style
system: h_a(a) = 1, h_a vanishes below a, and |h_a(b)| <= eps off the
diagonal.

Scaled-cut variant ("k"): H_F is the closure of the unit vectors e_a (a in F)
together with the spreads of the first piece's family, under the operations

  g  ->  (1/K) * (g restricted below d)   for every d in F, and
  g  ->  (1/K) * g,

with the total scaling exponent capped at `scale_cap`.  Singleton families
are {K^-j e_a : j <= scale_cap}.  Cuts compose into single cuts, so the
closure is finite.  Units and spreads have 0/1 entries times K^-e, and a
scaled cut keeps a 0/1 pattern and adds 1 to e, so every functional is
K^-e chi_S, with e the exponent of each of its origins.  As K > 1, the pair
(S, e) names the vector, so the closure runs on (support, exponent) pairs: a
scaled cut at d keeps the part of S below d and adds 1 to e.  Every cut in
(S[i-1], S[i]] keeps the prefix S[:i], and every cut above S[-1], with the
cut None, keeps S, so the closure expands each pair once per run of cuts
that keep the same prefix: it looks the prefix up once and gives it one
origin per cut of the run, in ascending cut order.  It collects the origins
of the routes that reach a pair again, and builds each vector K^-e chi_S
once, after the closure.

Norms: |x| = max |<f, x>| over f in H_F, where F is the minimal-rank scheme
set containing supp(x) ("local" mode; coherence makes the choice of F
irrelevant).  "all" mode maxes over every functional of every set instead;
the two genuinely differ and both are exposed.

A `Functional` is its vector and its origins; its set is the key its family
is stored under.  `spread(scheme, vec, F)` is the spread over F of a vector
on F's first piece, and refuses a vector outside that piece.

Construction runs bottom-up with one amalgamation per rank, at the first
rank-k set, and only those families are stored: every other rank-k set gets
that family's transport through the increasing bijection `Scheme.transport`
when first read, with each distinct origin moved once.  Each set's family is
a tuple and `NormingFamily` is frozen, so a family is an immutable value:
`NormingFamily.rank_canonical` tells a built one, on a scheme equal to the
one it was built on, from a `dataclasses.replace` copy with families made by
hand or another scheme, which the coherence sweep and the writer refuse.
Both builders run `check_axioms` once, before any amalgamation, and
refuse a scheme that fails it: under the axioms each piece of F is F's root
and one consecutive block of F's other elements, in order, so the bijection
carries the first set's decomposition onto every other set's and the
transport is exact.  A family is a function of (scheme, space, param,
scale_cap), and a family file holds all four, so loading one rebuilds the
family and refuses the file unless its header and every set's entries are
what the writer writes for it.  The writer moves each rank's first-set
entries the same way, so writing or loading a family transports no
functional, and the writer refuses a family that is not rank-canonical.
Norm evaluation is pure, so built values are safe to share.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, pairwise, zip_longest
from typing import NamedTuple

from .errors import (
    ConfigInvalidError,
    EmptyFamilyError,
    NotInSchemeError,
    ParameterOutOfRangeError,
    PatternOutOfRangeError,
    WrongSpaceKindError,
    require_int,
)
from .kernels import norming_max
from .schemes import Scheme, SchemeSet, check_axioms, scheme_from_json, scheme_to_json
from .vectors import SparseVector, canonical_json, format_rational, parse_rational

EPS_KIND = "eps"
K_KIND = "k"

RULE_UNIT = "unit"
RULE_ROOT_SPREAD = "root_spread"
RULE_FIRST_ALT = "first_alternating"
RULE_SECOND_ALT = "second_alternating"
RULE_COPY = "copy"
RULE_SPREAD = "spread"
RULE_SCALED_CUT = "scaled_cut"

EPS_FORM_OF_RULE = {
    RULE_ROOT_SPREAD: 1,
    RULE_FIRST_ALT: 2,
    RULE_SECOND_ALT: 3,
    RULE_COPY: 4,
}


class Origin(NamedTuple):
    rule: str
    rank: int
    alpha: int | None = None
    cut: int | None = None
    exponent: int = 0

    def to_json(self):
        out = {"rule": self.rule, "rank": self.rank}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.cut is not None:
            out["cut"] = self.cut
        if self.exponent:
            out["exponent"] = self.exponent
        return out


@dataclass(frozen=True)
class Functional:
    vector: SparseVector
    origins: tuple

    @property
    def origin(self) -> Origin:
        return self.origins[0]

    def label(self) -> str:
        o = self.origin
        bits = [o.rule]
        if o.alpha is not None:
            bits.append(f"a{o.alpha}")
        if o.cut is not None:
            bits.append(f"cut{o.cut}")
        if o.exponent:
            bits.append(f"exp{o.exponent}")
        return "/".join(bits)


@dataclass(frozen=True)
class NormingFamily:
    scheme: Scheme
    space_kind: str
    parameter: Fraction
    families: Mapping  # SchemeSet -> tuple[Functional, ...], in scan order
    scale_cap: int = 1

    def functionals_for(self, s: SchemeSet):
        try:
            return self.families[s]
        except KeyError:
            raise NotInSchemeError(f"no family attached to {s}") from None

    def all_functionals(self):
        return chain.from_iterable(map(self.functionals_for, self.scheme.sets()))

    @property
    def rank_canonical(self) -> bool:
        """Whether every set's family is the transport of the family of the
        first set of its rank, through `Scheme.transport`, on a scheme equal
        to the one it was built on (after `check_axioms` passed): true of
        every family the builders and `family_from_json` return, false of a
        `replace` copy with families made by hand or any other scheme, a
        permuted level or an appended empty level included."""
        return isinstance(self.families, _Transports) and self.families.scheme == self.scheme


def spread(scheme: Scheme, vec: SparseVector, F: SchemeSet) -> SparseVector:
    """A vector on F's first piece, refused otherwise, extended to all pieces
    of F via the increasing bijections; well-defined as each fixes the root."""
    maps = scheme.piece_maps(F)
    if not maps[0].keys() >= set(vec.support):
        raise PatternOutOfRangeError(f"{list(vec.support)} lies outside the first piece of {F}")
    return _spread_vector(vec, maps)


def _spread_vector(vec: SparseVector, maps) -> SparseVector:
    """`vec` on the first piece moved through the piece maps phi_1 .. phi_{n-1}
    and kept off the first piece (maps[0] is the identity on it)."""
    first = maps[0]
    total = dict(vec.items())
    for pm in maps[1:]:
        for p, v in vec.items():
            q = pm[p]
            if q not in first:
                total[q] = v
    return SparseVector._of(total)


def _parameter(space_kind, param, scale_cap) -> Fraction:
    """`param` as a Fraction once it and `scale_cap` are valid for the space."""
    param = parse_rational(param)
    require_int("scale_cap", scale_cap)
    if space_kind == EPS_KIND and not 0 < param < 1:
        raise ParameterOutOfRangeError(f"eps must lie in (0, 1), got {param}")
    if space_kind == K_KIND and param <= 1:
        raise ParameterOutOfRangeError(f"K must exceed 1, got {param}")
    if space_kind == K_KIND and scale_cap < 1:
        raise ParameterOutOfRangeError(f"scale_cap must be >= 1, got {scale_cap}")
    return param


def _units(s, inv, scale_cap):
    """The family of the singleton s = {a}, made lazily: inv^j e_a for
    j <= scale_cap (for each a in s, so a set of any size has one)."""
    return (Functional(SparseVector.unit(a).scale(inv ** j),
                       (Origin(RULE_UNIT, 0, alpha=a, exponent=j),))
            for a in s.elements for j in range(scale_cap + 1))


def _origin_map(fam, pm) -> dict:
    """Each distinct origin of a family carried through the increasing
    bijection `pm`: alpha and cut move, None ("no index", "no cut") stays."""
    at = {None: None, **pm}
    return {o: Origin(o.rule, o.rank, at[o.alpha], at[o.cut], o.exponent)
            for o in dict.fromkeys(chain.from_iterable(f.origins for f in fam))}


def _moved(fam, pm) -> tuple:
    """A family carried through the increasing bijection `pm`."""
    moved = _origin_map(fam, pm)
    return tuple(Functional(f.vector.map_positions(pm), tuple(map(moved.get, f.origins)))
                 for f in fam)


class _Lazy(Mapping):
    """key -> its value, in the order of the dict `of`: the value kept in the
    dict `kept`, else make(of[key]), made when read."""

    def __init__(self, of: dict, make, kept: dict):
        self.of, self.make, self.kept = of, make, kept

    def __getitem__(self, key):
        value = self.kept.get(key)
        return self.make(self.of[key]) if value is None else value

    def __contains__(self, key):
        return key in self.of

    def __iter__(self):
        return iter(self.of)

    def __len__(self):
        return len(self.of)


class _Transports(_Lazy):
    """The families `_build`, and nothing else, returns once `check_axioms`
    passes: each rank's first-set tuple is kept, every other set's is its
    transport, and `scheme` is the scheme value they were built on."""

    def __init__(self, scheme: Scheme, make, kept: dict):
        super().__init__({F: F for F in scheme.sets()}, make, kept)
        self.scheme = scheme


def _build(scheme, rank0, amalgamate) -> Mapping:
    """Families of every set of a scheme that passes `check_axioms`, else
    ConfigInvalidError naming the first failing axiom: `rank0(set)` or
    `amalgamate(F, piece maps, first piece's family)` builds the first set of
    each rank, and every other set of that rank gets the transport of its
    family, made when first read.

    Type-prefix lemma: on a scheme from `build_scheme`, the first set of
    rank k and its family, origins included, depend only on the type's
    prefix (m_0 ... m_k, n_1 ... n_k, r_1 ... r_k) and the builder's
    parameters.  Proof: `build_scheme` cuts a rank-j set into n_j pieces,
    each its first r_j elements and a consecutive block of m_{j-1} - r_j.
    So the first piece of [0, m_j) is [0, m_{j-1}), the least set of its
    level: the first set of rank k is [0, m_k), with a tree made from the
    prefix alone.  Here its family is rank0 of it (k = 0) or `amalgamate`
    of it, its piece maps and the family of its first piece, the first set
    of rank k - 1, which is the same value by induction on k."""
    failures = check_axioms(scheme).failures()
    if failures:
        raise ConfigInvalidError(f"the scheme fails its axioms, first {failures[0].name}: "
                                 f"{failures[0].counterexample}")
    built = {}

    def family(s):
        built[s] = _moved(built[scheme.levels[s.rank][0]], scheme.transport(s))
        return built[s]

    families = _Transports(scheme, family, built)
    for k, level in enumerate(scheme.levels):
        first = level[0]
        built[first] = tuple(rank0(first)) if k == 0 else amalgamate(
            first, scheme.piece_maps(first), families[scheme.decomposition[first][0]])
    return families


def build_eps_family(scheme: Scheme, eps) -> NormingFamily:
    """Bottom-up construction of the alternating families for every scheme set."""
    eps = _parameter(EPS_KIND, eps, 0)

    def amalgamate(F, maps, first_family):
        off_first = [set(pm.values()).difference(maps[0]) for pm in maps]
        fam = []
        for f in first_family:  # h_b is spread on the root, else moved to every piece
            b = f.origin.alpha
            if b in F.root:
                fam.append(Functional(_spread_vector(f.vector, maps),
                                      (Origin(RULE_ROOT_SPREAD, F.rank, alpha=b),)))
                continue
            tail = SparseVector()
            for i in range(2, len(maps)):
                part = f.vector.map_positions(maps[i]).restrict_to(off_first[i])
                tail = tail + part.scale(eps if i % 2 == 0 else -eps)
            for j, pm in enumerate(maps):
                vec = f.vector.map_positions(pm)
                if j < 2:
                    vec = vec + (tail if j == 0 else -tail)
                rule = (RULE_FIRST_ALT, RULE_SECOND_ALT, RULE_COPY)[min(j, 2)]
                fam.append(Functional(vec, (Origin(rule, F.rank, alpha=pm[b]),)))
        return tuple(sorted(fam, key=lambda g: g.origin.alpha))

    return NormingFamily(scheme=scheme, space_kind=EPS_KIND, parameter=eps, scale_cap=0,
                         families=_build(scheme, lambda s: _units(s, 1, 0), amalgamate))


def build_K_family(scheme: Scheme, K, scale_cap=1) -> NormingFamily:
    """Bottom-up construction of the scaled-cut families for every scheme set."""
    K = _parameter(K_KIND, K, scale_cap)
    inv = Fraction(1) / K

    def amalgamate(F, maps, first_family):
        k = F.rank
        origins = {}  # (support, e) -> {origin: None}, origins in discovery order
        queue = []

        def register(key, found):
            """Enqueue a new key; give a known one the origins it lacks."""
            if key in origins:
                origins[key].update(dict.fromkeys(found))
            else:
                origins[key] = dict.fromkeys(found)
                queue.append(key)

        for a in F.elements:
            register(((a,), 0), (Origin(RULE_UNIT, k, alpha=a),))
        for f in first_family:
            e = f.origin.exponent
            register((_spread_vector(f.vector, maps).support, e),
                     (Origin(RULE_SPREAD, k, alpha=f.origin.alpha, exponent=e),))
        cuts = (*F.elements, None)
        ends = {p: j + 1 for j, p in enumerate(F.elements)}  # the cuts at or below p
        scaled = {e: [Origin(RULE_SCALED_CUT, k, cut=d, exponent=e) for d in cuts]
                  for e in range(1, scale_cap + 1)}  # one origin per cut and exponent
        while queue:
            support, e = queue.pop()
            if e >= scale_cap:
                continue
            # the cuts in (support[i-1], support[i]] keep support[:i]; those
            # above support[-1], and None, keep all of it
            bounds = [ends[p] for p in support] + [len(cuts)]
            for i, (lo, hi) in enumerate(pairwise(bounds), 1):
                register((support[:i], e + 1), scaled[e + 1][lo:hi])
        powers = [inv ** e for e in range(scale_cap + 1)]
        return tuple(Functional(SparseVector._of(dict.fromkeys(support, powers[e])),
                                tuple(origins[support, e]))
                     for e, support in sorted((e, s) for s, e in origins))

    return NormingFamily(scheme=scheme, space_kind=K_KIND, parameter=K, scale_cap=scale_cap,
                         families=_build(scheme, lambda s: _units(s, inv, scale_cap), amalgamate))


def norm(x: SparseVector, family: NormingFamily, mode="local") -> Fraction:
    """max |<f, x>|, with f ranging over the minimal covering set's family
    ("local", the default) or over every functional ("all")."""
    if mode not in ("local", "all"):
        raise ValueError("mode must be 'local' or 'all'")
    if x.is_zero():
        return Fraction(0)
    if mode == "all":
        family.scheme.in_universe(x.support)
        functionals = list(family.all_functionals())
    else:
        site = family.scheme.minimal_containing(x.support)
        functionals = family.functionals_for(site)
    if not functionals:
        raise EmptyFamilyError("no functionals available to evaluate the norm")
    return norming_max(x, (f.vector for f in functionals))


def global_dual(family: NormingFamily, alpha: int) -> SparseVector:
    """The top set's functional at `alpha`: the maximal coherent extension."""
    if family.space_kind != EPS_KIND:
        raise WrongSpaceKindError("global duals exist only for the alternating variant")
    top = family.scheme.top
    if require_int("alpha", alpha) not in top:
        raise NotInSchemeError(f"{alpha} is outside the universe")
    for f in family.functionals_for(top):
        if f.origin.alpha == alpha:
            return f.vector
    raise EmptyFamilyError(f"no functional indexed by {alpha} at the top set")


# ---------------------------------------------------------------------------
# JSON serialization

def _entry(vec, origins) -> dict:
    """The writer's JSON entry for a functional from its vector's and origins' JSON."""
    entry = {"vec": vec, "origin": origins[0]}
    if len(origins) > 1:
        entry["merged"] = origins[1:]
    return entry


def _header(family: NormingFamily) -> dict:
    """The fields the writer puts beside the scheme and the families."""
    return {"space": family.space_kind, "param": format_rational(family.parameter),
            "scale_cap": family.scale_cap}


def _entries(family: NormingFamily) -> Mapping:
    """"k:i" -> the writer's entries for that set, in scan order, made when
    read: each rank's first-set vector JSON is made once and moved onto the
    rank's other sets, and each set's distinct origins are moved once."""
    scheme, ranks = family.scheme, {}

    def entries(s):
        first = scheme.levels[s.rank][0]
        if s.rank not in ranks:
            fam = family.functionals_for(first)
            ranks[s.rank] = fam, [f.vector.to_json() for f in fam]
        fam, vecs = ranks[s.rank]
        pm = scheme.transport(s)
        moved = {o: m.to_json() for o, m in _origin_map(fam, pm).items()}
        if s != first:  # the first set's vectors stay where they are
            at = {str(p): str(q) for p, q in pm.items()}
            vecs = [{at[p]: t for p, t in vec.items()} for vec in vecs]
        return [_entry(vec, list(map(moved.get, f.origins))) for f, vec in zip(fam, vecs)]

    return _Lazy(dict(scheme.keyed_sets()), entries, {})


def family_to_json(family: NormingFamily) -> dict:
    """The writer's JSON for a family, each set's entries made from its functionals."""
    return {**_header(family), "scheme": scheme_to_json(family.scheme),
            "families": {key: [_entry(f.vector.to_json(), [o.to_json() for o in f.origins])
                               for f in family.functionals_for(s)]
                         for key, s in family.scheme.keyed_sets()}}


def _same_entries(entries, written) -> bool:
    """Whether a set's entries in a file are the writer's `written`, an
    iterable read only up to the first difference.  Python's `==` takes a
    JSON `true` or `1.0` for `1`, and the writer's only integers are origin
    fields, so each origin value must be a JSON int or str too."""
    if not all(a == b for a, b in zip_longest(entries, written)):
        return False
    origins = chain([e["origin"] for e in entries],
                    chain.from_iterable(e.get("merged", ()) for e in entries))
    return {*map(type, chain.from_iterable(map(dict.values, origins)))} <= {int, str}


def family_from_json(obj) -> NormingFamily:
    """The family a file names: rebuilt from its scheme, space, param and
    scale_cap by `build_eps_family` or `build_K_family`, and refused unless
    the file's header and every set's entries are what the writer writes for
    it, compared set by set in scan order, so that the first difference is
    named and the writer's JSON is never held for the whole family.  Before
    anything is built, `"0:0"` is compared entry by entry with the writer's
    units K^-j e_a of its set {a} for j <= scale_cap (e_a alone for eps), up
    to the first difference, so a `"0:0"` that passes is as large as the
    closure the file asks for."""
    space = obj["space"]
    if space not in (EPS_KIND, K_KIND):
        raise ConfigInvalidError(
            f"space must be {EPS_KIND!r} or {K_KIND!r}, got {space!r}")
    scale_cap = obj["scale_cap"]
    param = _parameter(space, obj["param"], scale_cap)
    scheme = scheme_from_json(obj["scheme"])
    entries = obj["families"]
    odd = set(entries).symmetric_difference(key for key, _ in scheme.keyed_sets())
    if odd:
        raise ConfigInvalidError(f"families keys differ from the scheme's sets at "
                                 f"{min(odd)!r}: each set needs one key, written 'k:i'")

    def check(key, written):
        if not _same_entries(entries[key], written):
            raise ConfigInvalidError(
                f"{key} is not the writer's for the family rebuilt from this "
                "file's scheme, space, param and scale_cap")

    inv, cap = (1, 0) if space == EPS_KIND else (1 / param, scale_cap)
    check("0:0", (_entry(f.vector.to_json(), [f.origin.to_json()])
                  for f in _units(scheme.levels[0][0], inv, cap)))
    family = (build_eps_family(scheme, param) if space == EPS_KIND
              else build_K_family(scheme, param, scale_cap))
    for name, value in _header(family).items():
        if type(obj[name]) is not type(value) or obj[name] != value:
            raise ConfigInvalidError(f"{name} is not the writer's: "
                                     f"{obj[name]!r} where it writes {value!r}")
    for key, written in _entries(family).items():
        check(key, written)
    return family


def family_dumps(family: NormingFamily) -> str:
    """`family_to_json`'s text, each set's entries made, written and dropped in
    turn: moved from each rank's first set, so only for a rank-canonical family."""
    if not family.rank_canonical:
        raise ConfigInvalidError("only a rank-canonical family can be written: each "
                                 "rank's first-set entries are moved onto its other sets")
    return canonical_json({**_header(family), "scheme": scheme_to_json(family.scheme),
                           "families": _entries(family)})


def family_loads(text: str) -> NormingFamily:
    return family_from_json(json.loads(text))
