"""Quantitative verification: biorthogonality, coherence, basis constants,
separation bounds, and the two capture experiments.

Every verdict is an exact rational comparison; reports carry the values, the
relation tested, and witnesses (LP decompositions where a hull membership or
dual norm was involved).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import eq, ge, gt, le, lt

from .errors import (
    CaptureUnavailableError,
    ConfigInvalidError,
    NotBiorthogonalError,
    NotInSpanError,
    PatternOutOfRangeError,
    WrongSpaceKindError,
    require_int,
)
from .hull import dual_norm, in_symmetric_hull, polar_support
from .kernels import norming_max, proportional_member, verify_decomposition
from .norming import (
    EPS_FORM_OF_RULE,
    EPS_KIND,
    K_KIND,
    NormingFamily,
    global_dual,
    norm,
    spread,
)
from .vectors import SparseVector, format_rational, pair, parse_rational

_REL_CHECK = {"==": eq, "<=": le, ">=": ge, "<": lt, ">": gt}


@dataclass
class Claim:
    name: str
    lhs: Fraction
    relation: str
    rhs: Fraction
    passed: bool
    witness: dict | None = None
    vacuous: bool = False

    @classmethod
    def compare(cls, name, lhs, relation, rhs, witness=None, vacuous=False):
        ok = _REL_CHECK[relation](lhs, rhs)
        return cls(name=name, lhs=lhs, relation=relation, rhs=rhs,
                   passed=ok or vacuous, witness=witness, vacuous=vacuous)

    @classmethod
    def first_failure(cls, name, value, bad):
        """A sweep verdict `value == value` that passes unless a first
        failure `bad` was found; `bad` is the witness."""
        value = Fraction(value)
        return cls(name=name, lhs=value, relation="==", rhs=value,
                   passed=bad is None, witness=bad)

    def to_json(self):
        out = {
            "name": self.name,
            "lhs": format_rational(self.lhs),
            "relation": self.relation,
            "rhs": format_rational(self.rhs),
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.vacuous:
            out["vacuous"] = True
        return out


@dataclass
class ExperimentReport:
    claims: list = field(default_factory=list)
    pairings: dict = field(default_factory=dict)
    norms: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def claim(self, name) -> Claim:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {
            "pass": self.passed,
            "claims": [c.to_json() for c in self.claims],
            "pairings": {k: format_rational(v) for k, v in sorted(self.pairings.items())},
            "norms": {k: format_rational(v) for k, v in sorted(self.norms.items())},
            "meta": self.meta,
        }

    def to_csv_rows(self):
        rows = [["claim", "lhs", "relation", "rhs", "pass", "vacuous"]]
        for c in self.claims:
            rows.append([c.name, format_rational(c.lhs), c.relation,
                         format_rational(c.rhs), str(c.passed).lower(),
                         str(c.vacuous).lower()])
        return rows


# ---------------------------------------------------------------------------
# Biorthogonality

def check_biorthogonality(family: NormingFamily) -> ExperimentReport:
    """Diagonal pairings 1, vanishing below the index, off-diagonal <= eps.

    Runs over the full universe using the top set's functionals and reports
    the attained off-diagonal maximum with its witness pair.
    """
    if family.space_kind != EPS_KIND:
        raise WrongSpaceKindError("biorthogonality sweep applies to the alternating variant")
    eps = family.parameter
    universe = range(family.scheme.universe_size)
    report = ExperimentReport(meta={"eps": format_rational(eps)})
    diag_bad = None
    vanish_bad = None
    off_max = Fraction(0)
    witness = None
    duals = {}  # alpha -> the top set's first functional at alpha
    for f in family.functionals_for(family.scheme.top):
        duals.setdefault(f.origin.alpha, f.vector)
    for a in universe:
        h = duals[a] if a in duals else global_dual(family, a)  # which refuses a missing alpha
        if h[a] != 1 and diag_bad is None:
            diag_bad = {"alpha": a, "value": format_rational(h[a])}
        for b, v in h.items():
            if b < a and v != 0 and vanish_bad is None:
                vanish_bad = {"alpha": a, "beta": b, "value": format_rational(v)}
            if b != a and abs(v) > off_max:
                off_max = abs(v)
                witness = {"alpha": a, "beta": b, "value": format_rational(v)}
        report.pairings[f"h{a}"] = h[a]
    report.claims.append(Claim.first_failure("diagonal_is_one", 1, diag_bad))
    report.claims.append(Claim.first_failure("vanishes_below_index", 0, vanish_bad))
    report.claims.append(Claim.compare(
        "offdiagonal_bounded", off_max, "<=", eps, witness=witness))
    report.claims.append(Claim.compare(
        "offdiagonal_attained", off_max, "==", eps, witness=witness))
    report.meta["offdiagonal_max"] = format_rational(off_max)
    return report


# ---------------------------------------------------------------------------
# Basis constant by LP duality

@dataclass
class BasisConstantResult:
    value: Fraction
    cut: int
    functional_label: str
    coefficients: dict
    attaining: SparseVector
    skipped: list
    report: ExperimentReport


def _largest_gauge(named, H):
    """The largest dual_norm(v, H) over the (name, vector) pairs of `named`,
    scanned in order, as (value, (name, coefficients, vector), outside):
    the name, LP coefficients and vector of the first vector to reach the
    value (name None when no vector's gauge exceeds 0), and outside the
    (name, NotInSpanError) of each vector outside the span of H, in order.
    A vector met before is not scanned again: its first name wins.

    A vector whose gauge is certified to be at most the best so far cannot
    pass the strict test, so its LP is skipped: when it is c·h for a member
    h with |c| <= best, or when the optimal basis of an LP solved earlier,
    most recent first, writes it as sum c_h·h with sum |c_h| <= best, which
    `verify_decomposition` checks exactly at the bound best.  Every other
    vector is solved as if no vector were skipped, so the result is the same.
    """
    best = Fraction(0)
    best_at = (None, {}, SparseVector())
    outside = []
    seen = set()
    decomposers = []  # one per LP solved, most recent last
    for name, v in named:
        if v in seen:
            continue
        seen.add(v)
        # a gauge at most `best` cannot pass the strict test below
        if v.is_zero() or proportional_member(v, H, best) is not None or any(
                verify_decomposition(v, H, decompose(v), best)
                for decompose in reversed(decomposers)):
            continue
        try:
            value, coeffs, decompose = dual_norm(v, H)
        except NotInSpanError as err:  # record it, do not abort
            outside.append((name, err))
            continue
        decomposers.append(decompose)
        if value > best:
            best = value
            best_at = (name, coeffs, v)
    return best, best_at, outside


def basis_constant(family: NormingFamily) -> BasisConstantResult:
    """max over cut points d and functionals g of dual_norm(g restricted
    below d): the operator norm of the worst prefix projection, found by
    `_largest_gauge` over the cuts, cut ascending, then the top set's
    functional order.  A cut outside the span is reported as skipped.

    The attaining vector comes from the polar program of the winning cut, so
    |attaining| = 1 and |attaining restricted below d| equals the constant.
    """
    functionals = family.functionals_for(family.scheme.top)
    H = [f.vector for f in functionals]
    labels = [f.label() for f in functionals]
    cuts = (((cut, label), g.restrict_below(cut))
            for cut in range(family.scheme.universe_size + 1) for g, label in zip(H, labels))
    best, (name, coeffs, best_vec), outside = _largest_gauge(cuts, H)
    skipped = [{"cut": cut, "functional": label, "reason": str(err)}
               for (cut, label), err in outside]
    cut, label = name or (0, "")
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


# ---------------------------------------------------------------------------
# Coherence sweep

def coherence_report(family: NormingFamily, lp_every=0) -> ExperimentReport:
    """Exact restriction coherence and hull-membership coherence, on a
    rank-canonical family (`NormingFamily.rank_canonical`); any other family
    is refused with ConfigInvalidError.

    Restriction coherence (alternating variant only): for E inside F and a
    in E, the F-functional at a restricted to E equals the E-functional at a;
    an E without a functional at a fails it.
    Hull coherence (both variants): every F-functional restricted to E lies
    in conv(+-H_E), certified by explicit coefficients that are re-verified
    by reconstruction.  `lp_every` > 0 additionally checks every n-th
    checked instance with a direct certificate through the raw LP path.

    Both properties compose through a scheme set P with E < P < F: if f|P =
    sum c_h h over H_P with sum |c_h| <= 1 and every h|E lies in
    conv(+-H_E), so does f|E; and f|E = (f|P)|E = g|E for the P-functional g
    at a.  So a pair (E, F) with such a P in F's decomposition follows from
    (E, P) and (P, F).  Both properties also move through an increasing
    bijection t: on a rank-canonical family, if F is not the first set F0 of
    its rank and t = `Scheme.transport(F)`, then E0 = t^-1(E) is a set of
    F0's tree (the lemma below), H_F = t(H_F0) and H_E = t(H_E0), since
    increasing bijections compose uniquely, and restriction and hull
    membership commute with t; so (E, F) follows from (E0, F0).

    Lemma: on a scheme that passes `check_axioms`, every scheme set E < F
    lies in F's decomposition tree.  Pieces are subsets of their parent
    (union axiom) and each level has one size (set-sizes axiom), so sizes
    never decrease with rank, and E < F puts E at a lower rank j.  Pieces
    lie in the level below and cover their parent, so the rank-j sets of
    F's tree cover F; for each such D, E & D is an initial segment of E
    (same-rank axiom), and initial segments that cover E include E itself,
    so E <= D for some D, and equal sizes give E = D.  A parent is its root
    followed by its pieces' tails, in order, as consecutive blocks, so an
    increasing bijection between two rank-k sets carries piece i onto piece
    i, and by induction tree onto tree: t^-1(E) is a set of F0's tree.

    So, by induction on the rank of F, a rank-canonical family needs only
    the pairs (P, F0) with F0 the first set of a rank k >= 1 and P one of
    its pieces: any other E < F0 lies in F0's tree, so strictly inside a
    piece P, and (E, F0) follows from (E, P) and (P, F0); a pair at any
    other set is a transport.  A rank-canonical family's scheme is equal to
    the one its build checked, so the lemma holds on it.

    The scan reads the first set F0 of each rank k >= 1 alone: it checks
    F0's pieces in level order, each instance by the reconstruction of its
    hull certificate, and looks up the families of those pairs alone.  The
    witnesses name the first failing pair, which only a builder fault can
    make.  The instance counts are those of every nested pair, added once
    per rank: with `below` the sets strictly inside F0, each of the
    |levels[k]| rank-k sets F has |below| sets inside it (the transport
    carries F0's tree onto F's), and (E, F) has |H_F| = |H_F0| hull
    instances and, on the alternating variant, whose families hold one
    functional per position of their set, |E| restriction instances.
    """
    if require_int("lp_every", lp_every) < 0:
        raise ConfigInvalidError(f"lp_every must be >= 0, got {lp_every}")
    if not family.rank_canonical:
        raise ConfigInvalidError("coherence_report needs a rank-canonical family: its "
                                 "scan checks only the pieces of each rank's first set")
    scheme = family.scheme
    eps = family.space_kind == EPS_KIND
    restriction_bad = None
    restriction_count = 0
    hull_bad = None
    hull_count = 0
    checked = 0
    lp_checked = 0
    checks = []  # the (piece, first set) pairs, in scan order
    for lower, level in zip(scheme.levels, scheme.levels[1:]):
        F = level[0]
        below = [E for E in scheme.sets() if E.element_set < F.element_set]
        hull_count += len(level) * len(below) * len(family.functionals_for(F))
        if eps:
            restriction_count += len(level) * sum(len(E.elements) for E in below)
        checks += [(E, F) for E in lower if E in scheme.decomposition[F]]
    for E, F in checks:
        elems = E.element_set
        fam_E = family.functionals_for(E)
        vectors_E = [g.vector for g in fam_E]
        by_alpha = {g.origin.alpha: g.vector for g in fam_E} if eps else None
        for f in family.functionals_for(F):
            checked += 1
            restricted = f.vector.restrict_to(elems)
            a = f.origin.alpha
            if eps and a in elems and restricted != by_alpha.get(a) and restriction_bad is None:
                restriction_bad = {"E": str(E), "F": str(F), "alpha": a}
            cert = in_symmetric_hull(restricted, vectors_E)
            ok = verify_decomposition(restricted, vectors_E, cert.coefficients, 1)
            if ok and lp_every and checked % lp_every == 0 and cert.method == "direct":
                # a direct certificate's vector is zero or a multiple of a
                # member, so the LP is optimal and cannot raise
                _, coefficients, _ = dual_norm(restricted, vectors_E)
                lp_checked += 1
                ok = verify_decomposition(restricted, vectors_E, coefficients, 1)
            if not ok and hull_bad is None:
                hull_bad = {"E": str(E), "F": str(F), "functional": f.label()}
    report = ExperimentReport(meta={"kind": family.space_kind})
    if eps:
        report.claims.append(Claim.first_failure(
            "restriction_coherence", restriction_count, restriction_bad))
    report.claims.append(Claim.first_failure("hull_coherence", hull_count, hull_bad))
    report.meta.update({
        "restriction_instances": restriction_count,
        "hull_instances": hull_count,
        "lp_cross_checked": lp_checked,
    })
    return report


def _unique_label(used, label):
    if label not in used:
        used[label] = 0
        return label
    used[label] += 1
    return f"{label}#{used[label]}"


# ---------------------------------------------------------------------------
# Norm well-definedness sweep

def random_rational_vector(rng, universe):
    size = rng.randint(1, min(6, universe))
    positions = rng.sample(range(universe), size)
    entries = []
    for p in positions:
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        if num != 0:
            entries.append((p, Fraction(num, den)))
    return SparseVector(entries)


def well_definedness_report(family: NormingFamily, samples=200, seed=0) -> ExperimentReport:
    """For seeded random vectors, the max over every covering set's family is
    the same exact value.

    Each sample looks up every covering set's family, in order, so a missing
    one raises.  Norms are evaluated only when two or more sets cover the
    sample: a lone value can only equal itself, so that sample passes as it
    would if evaluated, and a sample no set covers fails with no values."""
    if require_int("samples", samples) < 1:
        raise ConfigInvalidError(f"samples must be >= 1, got {samples}")
    rng = random.Random(require_int("seed", seed))
    scheme = family.scheme
    vectors = {}  # each covering set's vector list, built at its first use
    bad = None
    checked = 0
    while checked < samples:
        x = random_rational_vector(rng, scheme.universe_size)
        if x.is_zero():
            continue
        covers = []
        for s in scheme.containing_sets(x.support):
            if s not in vectors:
                vectors[s] = [f.vector for f in family.functionals_for(s)]
            covers.append(vectors[s])
        checked += 1
        if len(covers) == 1:
            continue
        values = {norming_max(x, H) for H in covers}
        if len(values) != 1 and bad is None:
            bad = {"vector": x.to_json(),
                   "values": sorted(format_rational(v) for v in values)}
    report = ExperimentReport(meta={"samples": checked, "seed": seed})
    report.claims.append(Claim.first_failure(
        "norm_independent_of_covering_set", checked, bad))
    return report


# ---------------------------------------------------------------------------
# Capture experiments

@dataclass
class EpsExperimentConfig:
    n: int
    pattern: SparseVector | None = None

    def validated(self, eps):
        """(n, m) once n >= 1 and m = 2 n eps is an integer."""
        if require_int("n", self.n) < 1:
            raise ConfigInvalidError("n must be a positive integer")
        return self.n, _alternating_m(self.n, eps)


@dataclass
class KExperimentConfig:
    n: int
    L: Fraction
    kprime: Fraction = Fraction(1)
    pattern: SparseVector | None = None

    def validated(self, K):
        """(n, L, K') once n >= 1, 1 <= K' < L < K and 1/K + 1/n < 1/L hold."""
        n, L, kprime = require_int("n", self.n), parse_rational(self.L), parse_rational(self.kprime)
        if n < 1:
            raise ConfigInvalidError("n must be a positive integer")
        if not (1 <= kprime < L < K):
            raise ConfigInvalidError(
                f"need 1 <= K' < L < K, got K'={kprime}, L={L}, K={format_rational(K)}")
        if Fraction(1) / K + Fraction(1, n) >= Fraction(1) / L:
            raise ConfigInvalidError(
                f"need 1/K + 1/n < 1/L: {format_rational(Fraction(1)/K)} + 1/{n} "
                f">= {format_rational(Fraction(1)/L)}")
        return n, L, kprime


def _captured_copies(family: NormingFamily, count, pattern):
    """(site, pieces, z, xs): the first scheme set with `count` pieces, its
    pieces, the pattern (default: the first piece's first non-root unit
    vector) normalised to z, and its copies by `Scheme.piece_maps(site)`:
    the one construction of captured copies and the one check that the
    pattern lies in the first piece (the site captures them: `run_eps_experiment`)."""
    scheme = family.scheme
    site = next((F for level in scheme.levels[1:] for F in level
                 if len(scheme.decomposition[F]) >= count), None)
    if site is None:
        raise CaptureUnavailableError(f"no scheme set has {count} pieces; use a wider type")
    pieces = scheme.decomposition[site]
    if pattern is None:
        pattern = SparseVector.unit(next(p for p in pieces[0].elements if p not in site.root))
    if pattern.is_zero():
        raise ConfigInvalidError("pattern must be nonzero")
    if not set(pattern.support) <= pieces[0].element_set:  # before `norm` reads it
        raise PatternOutOfRangeError(
            f"pattern {list(pattern.support)} is not inside the first piece {pieces[0]}")
    z = pattern / norm(pattern, family)
    xs = [z.map_positions(pm) for pm in scheme.piece_maps(site)[:count]]
    return site, pieces, z, xs


def _alternating_m(n, eps) -> int:
    """m = 2 n eps, refused unless it is an integer."""
    m = 2 * n * Fraction(eps)
    if m.denominator != 1:
        raise ConfigInvalidError(f"m = 2 n eps = {format_rational(m)} is not an integer")
    return int(m)


def _alternating_difference(xs, n, m):
    """(x_0 - x_1) - (1/m) sum_{i=1..n} (x_{2i} - x_{2i+1})."""
    w = xs[0] - xs[1]
    for i in range(1, n + 1):
        w = w - (xs[2 * i] - xs[2 * i + 1]).scale(Fraction(1, m))
    return w


def _block_sums(xs, n):
    """v = sum_{i<n} x_i and w = v - sum_{i>=n} x_i."""
    v = SparseVector()
    for x in xs[:n]:
        v = v + x
    w = v
    for x in xs[n:]:
        w = w - x
    return v, w


def run_eps_experiment(family: NormingFamily,
                       config: EpsExperimentConfig) -> ExperimentReport:
    """Capture 2n+2 aligned copies of a pattern and verify the exact
    cancellations of the alternating difference vector.

    With m = 2n eps, w = (x_0 - x_1) - (1/m) sum_{i=1..n} (x_{2i} - x_{2i+1})
    pairs to exactly zero against every functional of the first three
    amalgamation forms, and to at most 1/m against the copy form.

    `captured_at` is the site, by no search: on a scheme that passes
    `check_axioms` each piece is the site's root followed by one block, so
    the copies' supports form an increasing delta-system rooted in the
    site's root and aligned across the leading pieces, and `find_capture`,
    which scans in the site search's rank-then-level order and skips sets
    with fewer than 2n+2 pieces, returns the site first, members (0..2n+1).
    """
    if family.space_kind != EPS_KIND:
        raise WrongSpaceKindError("experiment needs the alternating variant")
    eps = family.parameter
    n, m = config.validated(eps)
    site, _, z, xs = _captured_copies(family, 2 * n + 2, config.pattern)
    w = _alternating_difference(xs, n, m)
    inv_m = Fraction(1, m)

    report = ExperimentReport(meta={
        "eps": format_rational(eps), "n": n, "m": m,
        "site": str(site),
        "captured_at": str(site),
        "pattern": z.to_json(),
    })
    root_part = w.restrict_to(site.root)
    report.claims.append(Claim.first_failure(
        "difference_vanishes_on_root", 0,
        None if root_part.is_zero() else {"values": root_part.to_json()}))

    form_max = {1: Fraction(0), 2: Fraction(0), 3: Fraction(0), 4: Fraction(0)}
    form_counts = {1: 0, 2: 0, 3: 0, 4: 0}
    used = {}
    for f in family.functionals_for(site):
        form = EPS_FORM_OF_RULE[f.origin.rule]
        value = pair(f.vector, w)
        report.pairings[_unique_label(used, f.label())] = value
        form_counts[form] += 1
        if abs(value) > form_max[form]:
            form_max[form] = abs(value)
    for form in (1, 2, 3):
        report.claims.append(Claim.compare(
            f"form{form}_pairs_to_zero", form_max[form], "==", Fraction(0),
            witness={"functionals": form_counts[form]},
            vacuous=form_counts[form] == 0))
    report.claims.append(Claim.compare(
        "form4_bounded_by_1_over_m", form_max[4], "<=", inv_m,
        witness={"functionals": form_counts[4]}))

    w_norm = norm(w, family)
    report.norms["w_local"] = w_norm
    report.norms["w_all_functionals"] = norm(w, family, mode="all")
    report.claims.append(Claim.compare("w_norm_at_most_1_over_m",
                                       w_norm, "<=", inv_m))
    return report


def run_K_experiment(family: NormingFamily,
                     config: KExperimentConfig) -> ExperimentReport:
    """Capture 2n aligned copies; the block sum v beats L times the
    alternating block difference w, refuting prefix constants below K.

    Requires 1/K + 1/n < 1/L exactly.  Verifies |v| >= n (attained by the
    spread of a norming functional of the pattern), |w| <= n/K + 1, and the
    strict ratio |v| > L |w|.
    """
    if family.space_kind != K_KIND:
        raise WrongSpaceKindError("experiment needs the scaled-cut variant")
    K = family.parameter
    n, L, kprime = config.validated(K)
    site, pieces, z, xs = _captured_copies(family, 2 * n, config.pattern)
    v, w = _block_sums(xs, n)

    first_family = family.functionals_for(pieces[0])
    witness_h = max(first_family, key=lambda f: (abs(pair(f.vector, z)), f.label()))
    spread_vec = spread(family.scheme, witness_h.vector, site)
    spread_label = next((f.label() for f in family.functionals_for(site)
                         if f.vector == spread_vec), None)

    report = ExperimentReport(meta={
        "K": format_rational(K), "Kprime": format_rational(kprime),
        "L": format_rational(L), "n": n, "site": str(site),
        "pattern": z.to_json(),
        "spread_witness": spread_label,
    })
    used = {}
    for f in family.functionals_for(site):
        label = _unique_label(used, f.label())
        report.pairings[f"v|{label}"] = pair(f.vector, v)
        report.pairings[f"w|{label}"] = pair(f.vector, w)

    v_norm = norm(v, family)
    w_norm = norm(w, family)
    report.norms["v"] = v_norm
    report.norms["w"] = w_norm
    report.claims.append(Claim.compare("v_norm_at_least_n", v_norm, ">=", Fraction(n)))
    if spread_label is not None:
        report.claims.append(Claim.compare(
            "spread_witness_attains_n", abs(pair(spread_vec, v)), "==", Fraction(n),
            witness={"functional": spread_label}))
    report.claims.append(Claim.compare(
        "w_norm_at_most_n_over_K_plus_1", w_norm, "<=", Fraction(n) / K + 1))
    report.claims.append(Claim.compare(
        "v_exceeds_L_times_w", v_norm, ">", L * w_norm))
    if w_norm != 0:
        report.norms["ratio"] = v_norm / w_norm
    return report


# ---------------------------------------------------------------------------
# Separation bounds for explicit candidate systems

@dataclass
class SeparationConfig:
    tau: Fraction
    n: int = 0


def verify_eps_separation(family: NormingFamily, ys, ystars,
                          config: SeparationConfig) -> ExperimentReport:
    """Evaluate the alternating separation inequality on explicit data.

    `ys`/`ystars` form a tau-biorthogonal system (validated exactly).  With
    m = 2 n eps and N the largest dual norm of the ystars (`_largest_gauge`),
    the alternating combination of ys[0], ..., ys[2n+1] must have norm >= delta =
    (1/N)(1 - tau (1 + 2n/m)), which is (1/N)(1 - tau (1+eps)/eps) for n >= 1
    and (1 - tau)/N for the two-term n = 0 case.  A nonpositive delta, that
    is tau >= eps/(1+eps) for n >= 1, is reported as vacuous.
    """
    if family.space_kind != EPS_KIND:
        raise WrongSpaceKindError("separation bound needs the alternating variant")
    if len(ystars) != len(ys):
        raise ConfigInvalidError("need one dual per vector")
    n = require_int("n", config.n)
    if n < 0:
        raise ConfigInvalidError(f"n must be >= 0, got {n}")
    m = _alternating_m(n, family.parameter)
    if len(ys) < 2 * n + 2:
        raise ConfigInvalidError(f"need 2n+2 = {2 * n + 2} vectors, got {len(ys)}")
    tau = parse_rational(config.tau)
    for i, (y, ystar) in enumerate(zip(ys, ystars)):
        d = pair(ystar, y)
        if d != 1:
            raise NotBiorthogonalError(
                f"<y*_{i}, y_{i}> = {format_rational(d)} != 1", witness=(i, i))
        for j, other in enumerate(ys):
            if i != j and abs(pair(ystar, other)) > tau:
                raise NotBiorthogonalError(
                    f"|<y*_{i}, y_{j}>| exceeds tau = {format_rational(tau)}",
                    witness=(i, j))
    H = [f.vector for f in family.functionals_for(family.scheme.top)]
    bound, _, outside = _largest_gauge(enumerate(ystars), H)
    if outside:
        raise outside[0][1]
    combo = _alternating_difference(ys, n, m)
    lhs = norm(combo, family)
    ratio = 1 + Fraction(2 * n, m) if n else Fraction(1)
    delta = (1 - tau * ratio) / bound
    report = ExperimentReport(meta={
        "tau": format_rational(tau), "N": format_rational(bound),
        "n": n, "m": m, "delta": format_rational(delta),
        "vacuous": delta <= 0,
    })
    report.norms["combination"] = lhs
    report.claims.append(Claim.compare(
        "separation_lower_bound", lhs, ">=", delta, vacuous=delta <= 0))
    return report
