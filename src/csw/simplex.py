"""Exact rational simplex with Bland's anti-cycling rule.

Solves  max/min c.x  subject to rows  a.x (<=|>=|==) b,  with every variable
nonnegative; a caller with signed variables splits each into a (plus, minus)
pair of columns itself (see `csw.hull`).  The arithmetic is exact; there are
no tolerances.  The tableau is fraction-free: each row is stored sparsely as
coprime Python ints, a positive multiple of the rational row, and pivots
eliminate with integer combinations (Edmonds/Bareiss).  Entering columns are
chosen by sign and leaving rows by cross-multiplied ratios, so the pivots
follow Bland's rule exactly as a `Fraction` tableau would, and rationals
appear only where a value is read out.

Posing an LP still reads every cell, rows times columns, but a zero
coefficient is dropped as its row is read, and the int 0 that `csw.hull`
writes in every absent cell is the cheapest zero to test; each row is then
scaled to integers once.  Each objective, the phase-1 sum of artificials and
the caller's, is reduced in one sum of the basic rows, each over its basic
entry; and an optimal point and its objective are read in one walk over the
basis, every nonbasic variable being zero.

Certificates:
  optimal    -> the primal point itself (exact feasibility is checkable)
  infeasible -> a Farkas vector y: combining the standardized rows by y
                yields 0 <= (something positive)
  unbounded  -> a feasible ray along which the objective improves forever
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError
from .vectors import parse_rational

LE, GE, EQ = "<=", ">=", "=="
_RELATIONS = (LE, GE, EQ)


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}")


def constraint(coeffs, relation, rhs) -> LinearConstraint:
    return LinearConstraint(tuple(map(parse_rational, coeffs)), relation, parse_rational(rhs))


@dataclass(frozen=True)
class LpStats:
    """Work done by one `simplex_solve` call; every count is deterministic."""

    rows: int               # constraints as posed
    columns: int            # variables as posed
    phase1_pivots: int      # includes pivots that drive zero artificials out
    phase2_pivots: int
    degenerate_pivots: int  # pivots on a row whose right-hand side is zero
    max_bits: int           # largest integer bit length held in the tableau


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    primal: list | None = None
    certificate: dict = field(default_factory=dict)
    stats: LpStats | None = None


_DEN = -1  # key of the objective row's positive denominator


def _bits(row):
    return max(max(row.values()).bit_length(), min(row.values()).bit_length())


# _reduced and _integer_row fold gcd and lcm in a loop: gcd(*values) builds a
# tuple per row, and those tuples piled up in the interpreter's tuple free
# lists, so a process's peak memory kept growing with the LPs it solved.

def _reduced(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return row if g == 0 else {k: v // g for k, v in row.items()}


def _integer_row(entries):
    """A positive multiple of a sparse rational row, as coprime ints."""
    scale = 1
    for v in entries.values():
        scale = lcm(scale, v.denominator)
    return _reduced({k: v.numerator * (scale // v.denominator)
                     for k, v in entries.items()})


def _eliminate(piv, target, factor, row):
    """piv * target - factor * row with its gcd divided out.

    With piv > 0 this is a positive multiple of the rational
    target - (factor / piv) * row, so signs, ratios and zeros are kept.
    """
    out = {k: piv * v for k, v in target.items()} if piv != 1 else dict(target)
    for k, v in row.items():
        w = out.get(k, 0) - factor * v
        if w:
            out[k] = w
        else:
            del out[k]
    return _reduced(out)


class _Tableau:
    """Sparse integer simplex tableau with an explicit artificial identity block.

    Row r maps columns to the nonzero entries of the rational row times a
    positive factor, as coprime ints, so its basic entry rows[r][basis[r]]
    is that factor and the rational entry in column j is
    rows[r][j] / rows[r][basis[r]]; the right-hand side sits in column
    `total`.  The objective row keeps its positive denominator under the key
    `_DEN`.  A pivot replaces every other row by a positive integer
    combination of itself and the pivot row (Edmonds/Bareiss
    integer-preserving elimination), so no `Fraction` is built until a
    value is read out.  Only structural columns (j < ncols) may enter.
    """

    def __init__(self, rows, rhs, ncols):
        self.m = len(rows)
        self.ncols = ncols
        self.total = ncols + self.m
        # one artificial per row keeps B^-1 readable and phase 1 uniform
        self.art = range(ncols, self.total)
        # a row whose rhs is negative is negated, all but its artificial
        self.signs = [-1 if b < 0 else 1 for b in rhs]
        self.rows = []
        for i, (row, b, sign) in enumerate(zip(rows, rhs, self.signs)):
            row = {**row, ncols + i: sign}
            if b:
                row[self.total] = b
            row = _integer_row(row)
            self.rows.append(row if sign > 0 else {k: -v for k, v in row.items()})
        self.basis = list(self.art)
        self.obj = {}
        self.pivots = self.degenerate = 0
        self.bits = max((_bits(row) for row in self.rows), default=0)

    def set_objective(self, costs):
        """Reduced costs, in this basis, of the nonzero `costs` {column: value}.

        Every row is zero at every other row's basic column, so eliminating
        the basic costs one row at a time is one sum: the costs minus each
        row times its basic cost over its basic entry a_r.  Summed as ints
        over L, the lcm of the a_r under a nonzero cost, with `_DEN` scaled
        by L, and reduced, it is the coprime row those eliminations give.
        """
        obj = _integer_row({**costs, _DEN: 1})
        L = 1
        for row, b in zip(self.rows, self.basis):
            if b in obj:
                L = lcm(L, row[b])
        if L != 1:
            obj = {k: L * v for k, v in obj.items()}
        # subtracting row r leaves every other basic column's cost alone
        for row, b in zip(self.rows, self.basis):
            c = obj.get(b)
            if c:
                f = c // row[b]
                for k, v in row.items():
                    obj[k] = obj.get(k, 0) - f * v
        self.obj = obj = _reduced({k: v for k, v in obj.items() if v})
        self.bits = max(self.bits, _bits(obj))

    def pivot(self, r, j):
        row = self.rows[r]
        piv = row[j]
        if piv < 0:
            self.rows[r] = row = {k: -v for k, v in row.items()}
            piv = -piv
        for other, target in enumerate(self.rows):
            factor = target.get(j)
            if factor and other != r:
                self.rows[other] = target = _eliminate(piv, target, factor, row)
                self.bits = max(self.bits, _bits(target))
        factor = self.obj.get(j)
        if factor:
            self.obj = _eliminate(piv, self.obj, factor, row)
            self.bits = max(self.bits, _bits(self.obj))
        self.basis[r] = j
        self.pivots += 1
        if self.total not in row:
            self.degenerate += 1

    def run_bland(self):
        """Minimize; returns "optimal" or ("unbounded", entering_col)."""
        total = self.total
        while True:
            entering = min((j for j, v in self.obj.items() if v < 0 and j < self.ncols),
                           default=-1)
            if entering < 0:
                return "optimal", -1
            # least ratio rhs/a over a > 0, ties to the smaller basic index;
            # the row factors cancel, and a > 0 lets ratios cross-multiply
            leaving = -1
            for r, row in enumerate(self.rows):
                a = row.get(entering, 0)
                if a > 0:
                    b = row.get(total, 0)
                    if leaving < 0:
                        better = True
                    else:
                        lhs, rhs = b * best_a, best_b * a
                        better = lhs < rhs or (lhs == rhs
                                               and self.basis[r] < self.basis[leaving])
                    if better:
                        leaving, best_a, best_b = r, a, b
            if leaving < 0:
                return "unbounded", entering
            self.pivot(leaving, entering)

    def reduced_cost(self, col):
        return Fraction(self.obj.get(col, 0), self.obj[_DEN])

    def entry(self, r, col):
        row = self.rows[r]
        return Fraction(row.get(col, 0), row[self.basis[r]])

    def stats(self, columns, phase1_pivots):
        return LpStats(rows=self.m, columns=columns, phase1_pivots=phase1_pivots,
                       phase2_pivots=self.pivots - phase1_pivots,
                       degenerate_pivots=self.degenerate, max_bits=self.bits)


def simplex_solve(objective, constraints, sense="max") -> LpSolution:
    """Exact two-phase simplex over nonnegative variables.

    `objective` is a coefficient sequence (its length fixes the variable
    count); `constraints` are LinearConstraint rows of the same length.
    The returned `stats` describe the work done and appear in no report.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    n = len(objective)
    objective = [parse_rational(c) for c in objective]
    for con in constraints:
        if len(con.coeffs) != n:
            raise DimensionMismatchError(
                f"constraint has {len(con.coeffs)} coefficients, expected {n}"
            )

    # standardize: one slack column per inequality; the tableau makes every
    # rhs nonnegative
    rows, rhs = [], []
    ncols = n
    for con in constraints:
        row = {j: c for j, c in enumerate(
            c if type(c) is int or isinstance(c, Fraction) else parse_rational(c)
            for c in con.coeffs) if c}
        if con.relation != EQ:
            row[ncols] = 1 if con.relation == LE else -1
            ncols += 1
        rows.append(row)
        rhs.append(parse_rational(con.rhs))

    tab = _Tableau(rows, rhs, ncols)
    sign = 1 if sense == "min" else -1
    cost = {j: sign * c for j, c in enumerate(objective) if c}

    # phase 1: drive artificials to zero.  Its objective is a sum of
    # nonnegative artificials, so it is bounded below by 0 and Bland's rule
    # always ends optimal: the status needs no check.
    tab.set_objective(dict.fromkeys(tab.art, 1))
    tab.run_bland()
    if tab.reduced_cost(tab.total) < 0:  # the rhs entry is minus the phase-1 value
        # Farkas: y_i = 1 - reduced cost of artificial i, mapped through row signs
        farkas = [sign * (1 - tab.reduced_cost(a)) for sign, a in zip(tab.signs, tab.art)]
        return LpSolution(status="infeasible", certificate={"farkas": farkas},
                          stats=tab.stats(n, tab.pivots))

    # drive surviving artificials out of the basis
    for r in range(tab.m):
        if tab.basis[r] in tab.art:
            pivot_col = min((j for j in tab.rows[r] if j < tab.ncols), default=-1)
            if pivot_col >= 0:
                tab.pivot(r, pivot_col)
            # else: redundant row; harmless to keep, artificial stays at zero
    phase1_pivots = tab.pivots

    tab.set_objective(cost)
    status, entering = tab.run_bland()
    stats = tab.stats(n, phase1_pivots)
    if status == "unbounded":
        ray = [Fraction(0)] * tab.total
        ray[entering] = Fraction(1)
        for r in range(tab.m):
            ray[tab.basis[r]] = -tab.entry(r, entering)
        return LpSolution(status="unbounded", certificate={"ray": ray[:n]}, stats=stats)

    # one walk of the basis: every nonbasic variable is zero
    primal = [Fraction(0)] * n
    value = Fraction(0)
    for r, b in enumerate(tab.basis):
        if b < n:
            primal[b] = v = tab.entry(r, tab.total)
            value += objective[b] * v
    return LpSolution(
        status="optimal",
        objective=value,
        primal=primal,
        certificate={"primal": list(primal)},
        stats=stats,
    )
