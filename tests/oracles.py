"""Independent brute-force oracles used to cross-check the LP machinery
and the integer kernels of `csw.kernels`.

Everything here but `coherence_oracle` and `basis_constant_oracle` is
deliberately simplex-free: plain
Gaussian elimination over Fractions plus exhaustive vertex enumeration.  The gauge of the
symmetric hull conv(+-H) at g equals the support function of the polar
polytope {y : |<h, y>| <= 1}, so enumerating the polar's vertices and
maximizing <y, g> reproduces dual_norm by a completely different route.
`norming_max_oracle`, `proportional_member_oracle` and
`verify_decomposition_oracle` are the definitions of those three kernels,
written with one Fraction or SparseVector per arithmetic step.
`k_family_vectors` and `k_scaled_cut_origins` close the scaled-cut family of
each set from its definition, one vector and one cut at a time.
`transported` carries a family through an increasing bijection with one new
`Origin` per origin of every functional.  `same_rank_initial_segments_oracle`
is the same-rank axiom of `csw.schemes`, pair by pair, and
`transport_is_exact` asks of one set what the family builders rely on once a
scheme passes `check_axioms`.  `in_decomposition_tree` walks a set's tree
piece by piece, and `transport_preimage_is_listed` and `covered_by_a_piece`
are the per-pair search and the per-pair covering test the coherence scan
once made, which the decomposition-tree lemma of
`csw.analysis.coherence_report` makes unnecessary.  `coherence_oracle` is
the every-pair coherence scan, which assumes no axiom and no transport: the
reference for `coherence_report`, which checks only the (piece, first set)
pairs of a rank-canonical family and refuses any other family; it takes its
hull certificates from `csw.hull` and rebuilds each with
`verify_decomposition_oracle`.  `basis_constant_oracle` is the every-cut
basis-constant scan, one gauge LP per cut that no member multiple bounds:
the reference for `basis_constant`, which also skips the cuts that the
basis of an LP it solved earlier bounds.  `mutate_scheme_json`
makes the scheme edits that the tests of that reliance draw from.
`covering_sets_oracle` tests every scheme set for the positions it must
hold, `nested_pairs_oracle` tests every pair of scheme sets, and
`well_definedness_oracle` evaluates every covering set's norm on every
sample with `norming_max_oracle`.  `lp_digest` pins what exact LPs returned,
value by value, so a change to how an LP is posed or read back that moves
a pivot or a statistic shows up.
"""

import hashlib
import random
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from csw.analysis import BasisConstantResult, Claim, ExperimentReport, random_rational_vector
from csw.errors import NotInSpanError
from csw.hull import dual_norm, in_symmetric_hull, polar_support
from csw.kernels import proportional_member
from csw.norming import Functional, Origin
from csw.schemes import position_map
from csw.vectors import SparseVector, format_rational, pair


def solve_square_system(rows, rhs):
    """Solve a square rational system exactly; None when singular."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def matrix_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def polytope_vertices(constraint_rows, rhs, dim):
    """All vertices of {y : rows . y <= rhs} by exhaustive tight-set search."""
    vertices = []
    for combo in combinations(range(len(constraint_rows)), dim):
        rows = [constraint_rows[i] for i in combo]
        b = [rhs[i] for i in combo]
        point = solve_square_system(rows, b)
        if point is None:
            continue
        if all(sum(c * y for c, y in zip(row, point)) <= bound
               for row, bound in zip(constraint_rows, rhs)):
            if point not in vertices:
                vertices.append(point)
    return vertices


def gauge_oracle(g, H, dim):
    """dual_norm(g, H) recomputed as max <y, g> over the polar's vertices.

    H must span the dim-dimensional coordinate space (polar bounded).
    """
    rows, rhs = [], []
    for h in H:
        row = [h[p] for p in range(dim)]
        rows.append(row)
        rhs.append(Fraction(1))
        rows.append([-v for v in row])
        rhs.append(Fraction(1))
    best = Fraction(0)
    for vertex in polytope_vertices(rows, rhs, dim):
        value = sum(g[p] * vertex[p] for p in range(dim))
        if value > best:
            best = value
    return best


def norming_max_oracle(x, H):
    """max |pair(h, x)| over H, in Fractions; 0 for an empty H."""
    best = Fraction(0)
    for h in H:
        best = max(best, abs(pair(h, x)))
    return best


def covering_sets_oracle(scheme, positions):
    """Every scheme set, in scan order, whose elements include `positions`."""
    needed = set(positions)
    return [s for s in scheme.sets() if needed <= set(s.elements)]


def nested_pairs_oracle(scheme):
    """Every (E, F) of scheme sets with E a proper subset of F: each F in
    scan order, tested against every set in scan order."""
    sets = [(s, s.element_set) for s in scheme.sets()]
    return [(E, F) for F, big in sets for E, small in sets if small < big]


def well_definedness_oracle(family, samples=200, seed=0):
    """The well-definedness report from its definition: on each sample of
    the report's stream, the norm over every covering set's family, by
    `norming_max_oracle`; a sample fails unless exactly one value results."""
    rng = random.Random(seed)
    scheme = family.scheme
    bad = None
    checked = 0
    while checked < samples:
        x = random_rational_vector(rng, scheme.universe_size)
        if x.is_zero():
            continue
        values = {norming_max_oracle(x, [f.vector for f in family.functionals_for(s)])
                  for s in covering_sets_oracle(scheme, x.support)}
        checked += 1
        if len(values) != 1 and bad is None:
            bad = {"vector": x.to_json(), "values": sorted(format_rational(v) for v in values)}
    report = ExperimentReport(meta={"samples": checked, "seed": seed})
    report.claims.append(Claim.first_failure(
        "norm_independent_of_covering_set", checked, bad))
    return report


def coherence_oracle(family, lp_every=0):
    """The coherence report from every nested pair, assuming no axiom and no
    transport: each pair of `nested_pairs_oracle` looks up its E and F
    families, adds |H_F| hull instances and, on the alternating variant, one
    restriction instance per F-functional whose alpha lies in E, and checks
    every such instance, the hull one by `in_symmetric_hull`'s certificate
    rebuilt with `verify_decomposition_oracle`.  With `lp_every` > 0, every
    n-th hull instance, counted over all pairs, that passes with a direct
    certificate is rebuilt again from the coefficients of `dual_norm`.  The
    witnesses are the first failures in pair order."""
    eps = family.space_kind == "eps"
    restriction_bad = None
    restriction_count = 0
    hull_bad = None
    hull_count = 0
    lp_checked = 0
    for E, F in nested_pairs_oracle(family.scheme):
        elems = E.element_set
        fam_E = family.functionals_for(E)
        vectors_E = [g.vector for g in fam_E]
        by_alpha = {g.origin.alpha: g.vector for g in fam_E}
        for f in family.functionals_for(F):
            hull_count += 1
            restricted = f.vector.restrict_to(elems)
            a = f.origin.alpha
            if eps and a in elems:
                restriction_count += 1
                if restricted != by_alpha.get(a) and restriction_bad is None:
                    restriction_bad = {"E": str(E), "F": str(F), "alpha": a}
            cert = in_symmetric_hull(restricted, vectors_E)
            ok = verify_decomposition_oracle(restricted, vectors_E, cert.coefficients, 1)
            if ok and lp_every and hull_count % lp_every == 0 and cert.method == "direct":
                _, coefficients, _ = dual_norm(restricted, vectors_E)
                lp_checked += 1
                ok = verify_decomposition_oracle(restricted, vectors_E, coefficients, 1)
            if not ok and hull_bad is None:
                hull_bad = {"E": str(E), "F": str(F), "functional": f.label()}
    report = ExperimentReport(meta={"kind": family.space_kind})
    if eps:
        report.claims.append(Claim.first_failure(
            "restriction_coherence", restriction_count, restriction_bad))
    report.claims.append(Claim.first_failure("hull_coherence", hull_count, hull_bad))
    report.meta.update({"restriction_instances": restriction_count,
                        "hull_instances": hull_count, "lp_cross_checked": lp_checked})
    return report


def basis_constant_oracle(family):
    """The basis constant with a gauge LP for every distinct nonzero cut of
    a top functional that is not a member multiple c·h with |c| at most the
    best so far: the scan `csw.analysis.basis_constant` made before it
    skipped the cuts an earlier LP's basis bounds.  Same result fields and
    report as that function."""
    functionals = family.functionals_for(family.scheme.top)
    H = [f.vector for f in functionals]
    best = Fraction(0)
    best_at = (0, "", {}, SparseVector())
    skipped = []
    seen = set()
    for cut in range(family.scheme.universe_size + 1):
        for f in functionals:
            cut_vec = f.vector.restrict_below(cut)
            if cut_vec in seen:
                continue
            seen.add(cut_vec)
            if cut_vec.is_zero() or proportional_member(cut_vec, H, best) is not None:
                continue
            try:
                value, coeffs, _ = dual_norm(cut_vec, H)
            except NotInSpanError as err:
                skipped.append({"cut": cut, "functional": f.label(), "reason": str(err)})
                continue
            if value > best:
                best = value
                best_at = (cut, f.label(), coeffs, cut_vec)
    cut, label, coeffs, best_vec = best_at
    attaining = polar_support(best_vec, H)[1] if best > 0 else SparseVector()
    report = ExperimentReport(meta={
        "constant": format_rational(best),
        "cut": cut,
        "functional": label,
        "skipped": skipped,
        "attaining_vector": attaining.to_json(),
    })
    report.claims.append(Claim.compare("prefix_constant_at_least_one",
                                       best, ">=", Fraction(1)))
    report.norms["constant"] = best
    return BasisConstantResult(value=best, cut=cut, functional_label=label,
                               coefficients=coeffs, attaining=attaining,
                               skipped=skipped, report=report)


def proportional_member_oracle(f, H, bound):
    """The first (i, c) with f == c * H[i] and |c| <= bound, else None: the
    scan by sorted support, with the ratio read at f's least position and
    tested by building h.scale(ratio)."""
    support = f.support
    lead = support[0]
    for i, h in enumerate(H):
        if h.support != support:
            continue
        ratio = f[lead] / h[lead]
        if abs(ratio) <= bound and f == h.scale(ratio):
            return i, ratio
    return None


def verify_decomposition_oracle(f, H, coefficients, bound):
    """Whether sum c_i H[i] == f and sum |c_i| <= bound, False for None: the
    sum built as a SparseVector, one scaled member at a time."""
    if coefficients is None:
        return False
    total = SparseVector()
    mass = Fraction(0)
    for i, c in coefficients.items():
        total = total + H[i].scale(c)
        mass += abs(c)
    return total == f and mass <= bound


def same_rank_initial_segments_oracle(scheme):
    """The same-rank axiom's counterexamples in scan order: every pair of
    sets in a level, in level order, whose common elements, sorted, are not
    an initial segment of both."""
    for level in scheme.levels:
        for e, f in combinations(level, 2):
            common = sorted(e.element_set & f.element_set)
            if not (tuple(e.elements[:len(common)]) == tuple(common)
                    == tuple(f.elements[:len(common)])):
                yield f"{e} and {f} intersect in {common}, not an initial segment of both"


def transport_is_exact(scheme, F):
    """Whether the increasing bijection from the first set of F's rank
    carries that set's decomposition onto F's, piece by piece."""
    first = scheme.levels[F.rank][0]
    pm = position_map(first, F)
    return ([tuple(pm[p] for p in c.elements) for c in scheme.decomposition.get(first, ())]
            == [c.elements for c in scheme.decomposition.get(F, ())])


def in_decomposition_tree(scheme, E, F):
    """Whether E is F, one of F's pieces, one of theirs, and so on down."""
    seen, stack = set(), [F]
    while stack:
        D = stack.pop()
        if D == E:
            return True
        if D not in seen:
            seen.add(D)
            stack.extend(scheme.decomposition.get(D, ()))
    return False


def transport_preimage_is_listed(scheme, E, F):
    """Whether the inverse of `Scheme.transport(F)` carries E onto the
    elements of a listed set of E's rank."""
    inverse = {q: p for p, q in scheme.transport(F).items()}
    preimage = tuple(map(inverse.get, E.elements))
    return any(s.elements == preimage for s in scheme.levels[E.rank])


def covered_by_a_piece(scheme, E, F):
    """Whether a listed scheme set P in F's decomposition has E < P < F as
    element sets."""
    listed = set(scheme.sets())
    return any(P in listed and E.element_set < P.element_set < F.element_set
               for P in scheme.decomposition.get(F, ()))


SCHEME_EDITS = ("permute_level", "shuffle_children", "replace_child",
                "replace_element", "reverse_set", "copy_set")


def mutate_scheme_json(data, payload, edit=None):
    """One edit, drawn from hypothesis `data` unless `edit` names its kind,
    of the scheme JSON `payload`, in place: permute a level and remap the
    decomposition keys and child indices that name its sets; shuffle a
    decomposition or replace one of its child indices; replace one element
    of a set or reverse the set; or append a copy of a set to its level.
    Every index stays in range, so the result still loads."""
    levels, dec = payload["levels"], payload["decomposition"]
    edit = edit or data.draw(st.sampled_from(SCHEME_EDITS))
    k = data.draw(st.integers(0, len(levels) - 1))
    level = levels[k]
    i = data.draw(st.integers(0, len(level) - 1))
    if edit == "permute_level":
        order = data.draw(st.permutations(range(len(level))))  # order[new] = old
        levels[k] = [level[old] for old in order]
        at = {old: new for new, old in enumerate(order)}
        moved = {f"{k}:{at[old]}": dec.pop(f"{k}:{old}") for old in order if f"{k}:{old}" in dec}
        dec.update(moved)
        for key, children in dec.items():
            if key.startswith(f"{k + 1}:"):
                dec[key] = [at[j] for j in children]
    elif edit in ("shuffle_children", "replace_child"):
        key = data.draw(st.sampled_from(sorted(dec)))
        children = dec[key]
        if edit == "shuffle_children":
            dec[key] = data.draw(st.permutations(children))
        else:
            below = len(levels[int(key.split(":")[0]) - 1])
            children[data.draw(st.integers(0, len(children) - 1))] = (
                data.draw(st.integers(0, below - 1)))
    elif edit == "replace_element":
        level[i][data.draw(st.integers(0, len(level[i]) - 1))] = (
            data.draw(st.integers(-1, payload["type"]["m"][-1])))
    elif edit == "reverse_set":
        level[i].reverse()
    else:
        level.append(list(level[i]))


def lp_digest(solutions):
    """sha256 of `LpSolution`s by value: status, objective, primal point,
    every certificate and every `LpStats` field, each number as its repr."""
    text = "\n".join(repr((sol.status, sol.objective, sol.primal,
                            sorted(sol.certificate.items()), astuple(sol.stats)))
                      for sol in solutions)
    return hashlib.sha256(text.encode()).hexdigest()


def random_fraction(rng, max_num=5, max_den=4, nonzero=False):
    while True:
        value = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def random_norming_set(rng, dim, count=None):
    """Random rational vectors spanning the full dim-dimensional space."""
    count = count or rng.randint(dim, dim + 3)
    while True:
        H = []
        for _ in range(count):
            vec = SparseVector(
                (p, random_fraction(rng)) for p in range(dim))
            if not vec.is_zero():
                H.append(vec)
        if len(H) >= dim:
            rows = [[h[p] for p in range(dim)] for h in H]
            if matrix_rank(rows) == dim:
                return H


def random_span_member(rng, H, dim):
    g = SparseVector()
    for h in H:
        g = g + h.scale(random_fraction(rng, max_num=3, max_den=3))
    return g


def _k_closure(scheme, K, cap):
    """closure(F): {(g, e): the cuts whose scaled cuts reach (g, e)} for the
    scaled-cut family H_F, from the definition.

    Each set is closed on its own, from its own pieces, with no transport:
    H_F is the closure of the unit vectors of F and the spreads of the first
    piece's family under g -> (1/K)(g below d), d in F, and g -> (1/K) g
    (written as the cut d = None), on (vector, exponent) pairs whose
    exponent stays at most `cap`.  A singleton {a} carries K^-j e_a for
    j <= cap.  Every pair of exponent below `cap` is expanded once, at every
    cut, and each nonzero image records the cut that reached it.
    """
    inv = Fraction(1) / Fraction(K)
    closures = {}

    def closure(F):
        if F in closures:
            return closures[F]
        if F.rank == 0:
            found = {(SparseVector.unit(F.elements[0]).scale(inv ** j), j): set()
                     for j in range(cap + 1)}
        else:
            first, *others = scheme.decomposition[F]
            found = {(SparseVector.unit(a), 0): set() for a in F.elements}
            for g, e in closure(first):
                spread = g
                for piece in others:
                    moved = g.map_positions(dict(zip(first.elements, piece.elements)))
                    spread = spread + moved.restrict_to(set(piece.elements) - set(first.elements))
                found.setdefault((spread, e), set())
            todo = list(found)
            while todo:
                g, e = todo.pop()
                if e >= cap:
                    continue
                for d in (*F.elements, None):
                    h = (g if d is None else g.restrict_below(d)).scale(inv)
                    if not h:
                        continue
                    if (h, e + 1) not in found:
                        found[h, e + 1] = set()
                        todo.append((h, e + 1))
                    found[h, e + 1].add(d)
        closures[F] = found
        return found

    return closure


def k_family_vectors(scheme, K, cap):
    """{set: the vectors of its scaled-cut family H_F}, from the definition
    (see `_k_closure`)."""
    closure = _k_closure(scheme, K, cap)
    return {F: {g for g, _ in closure(F)} for F in scheme.sets()}


def k_scaled_cut_origins(scheme, K, cap):
    """{first set F of each rank >= 1: {h in H_F: the scaled-cut origins h
    must carry}}, from the definition: for every (g, e) in the closure with
    e < cap and every cut d in F or None with g below d nonzero,
    K^-1 (g below d) carries Origin("scaled_cut", rank of F, cut=d,
    exponent=e + 1).  A unit or spread that no cut reaches maps to the
    empty set."""
    closure = _k_closure(scheme, K, cap)
    return {F: {h: {Origin("scaled_cut", F.rank, cut=d, exponent=e) for d in cuts}
                for (h, e), cuts in closure(F).items()}
            for F in (level[0] for level in scheme.levels[1:])}


def transported(fam, pm):
    """A family carried through the increasing bijection `pm`: each vector
    moved, and every origin of every functional rebuilt on its own with its
    alpha and cut moved."""
    at = {None: None, **pm}  # origins store None for "no index" and "no cut"
    return [Functional(f.vector.map_positions(pm),
                       tuple(Origin(o.rule, o.rank, at[o.alpha], at[o.cut], o.exponent)
                             for o in f.origins))
            for f in fam]
