"""Exact rational simplex with Bland's anti-cycling rule.

Solves  max/min c.x  subject to rows  a.x (<=|>=|==) b,  with every variable
nonnegative; a caller with signed variables splits each into a (plus, minus)
pair of columns itself (see `csw.hull`).  All arithmetic is over
`fractions.Fraction`; there are no tolerances.

Certificates:
  optimal    -> the primal point itself (exact feasibility is checkable)
  infeasible -> a Farkas vector y: combining the standardized rows by y
                yields 0 <= (something positive)
  unbounded  -> a feasible ray along which the objective improves forever
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatchError

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
    return LinearConstraint(tuple(Fraction(c) for c in coeffs), relation, Fraction(rhs))


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    primal: list | None = None
    certificate: dict = field(default_factory=dict)


class _Tableau:
    """Dense simplex tableau with an explicit artificial identity block."""

    def __init__(self, rows, rhs, ncols):
        self.m = len(rows)
        self.ncols = ncols
        # one artificial per row keeps B^-1 readable and phase 1 uniform
        self.art = list(range(self.ncols, self.ncols + self.m))
        self.rows = []
        for i, row in enumerate(rows):
            extended = list(row) + [Fraction(0)] * self.m + [rhs[i]]
            extended[self.ncols + i] = Fraction(1)
            self.rows.append(extended)
        self.total = self.ncols + self.m
        self.basis = list(self.art)

    def objective_row(self, costs):
        obj = list(costs) + [Fraction(0)]
        for r in range(self.m):
            c = costs[self.basis[r]]
            if c != 0:
                row = self.rows[r]
                for j in range(self.total + 1):
                    obj[j] -= c * row[j]
        return obj

    def pivot(self, obj, r, j):
        row = self.rows[r]
        piv = row[j]
        if piv != 1:
            inv = Fraction(1) / piv
            self.rows[r] = row = [v * inv for v in row]
        for other in range(self.m):
            if other == r:
                continue
            factor = self.rows[other][j]
            if factor != 0:
                target = self.rows[other]
                self.rows[other] = [t - factor * v for t, v in zip(target, row)]
        factor = obj[j]
        if factor != 0:
            for k in range(self.total + 1):
                obj[k] -= factor * row[k]
        self.basis[r] = j

    def run_bland(self, obj, enterable):
        """Minimize; returns "optimal" or ("unbounded", entering_col)."""
        while True:
            entering = -1
            for j in range(self.total):
                if enterable[j] and obj[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal", -1
            leaving = -1
            best = None
            for r in range(self.m):
                a = self.rows[r][entering]
                if a > 0:
                    ratio = self.rows[r][self.total] / a
                    key = (ratio, self.basis[r])
                    if best is None or key < best:
                        best = key
                        leaving = r
            if leaving < 0:
                return "unbounded", entering
            self.pivot(obj, leaving, entering)

    def value_of(self, col):
        for r in range(self.m):
            if self.basis[r] == col:
                return self.rows[r][self.total]
        return Fraction(0)


def simplex_solve(objective, constraints, sense="max") -> LpSolution:
    """Exact two-phase simplex over nonnegative variables.

    `objective` is a coefficient sequence (its length fixes the variable
    count); `constraints` are LinearConstraint rows of the same length.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    n = len(objective)
    objective = [Fraction(c) for c in objective]
    for con in constraints:
        if len(con.coeffs) != n:
            raise DimensionMismatchError(
                f"constraint has {len(con.coeffs)} coefficients, expected {n}"
            )

    # standardize: slack per inequality, rhs made nonnegative
    rows, rhs, row_sign = [], [], []
    nslack = sum(1 for con in constraints if con.relation != EQ)
    k = 0
    for con in constraints:
        row = [Fraction(c) for c in con.coeffs] + [Fraction(0)] * nslack
        b = Fraction(con.rhs)
        sign = 1
        if b < 0:
            row = [-v for v in row]
            b = -b
            sign = -1
        rel = con.relation
        if rel != EQ:
            direction = Fraction(1) if rel == LE else Fraction(-1)
            row[n + k] = direction * sign
            k += 1
        rows.append(row)
        rhs.append(b)
        row_sign.append(sign)

    tab = _Tableau(rows, rhs, n + nslack)
    cost = objective if sense == "min" else [-c for c in objective]
    cost = cost + [Fraction(0)] * (tab.total - n)

    # phase 1: drive artificials to zero.  Its objective is a sum of
    # nonnegative artificials, so it is bounded below by 0 and Bland's rule
    # always ends optimal: the status needs no check.
    phase1 = [Fraction(0)] * tab.total
    for a in tab.art:
        phase1[a] = Fraction(1)
    enterable = [True] * tab.total
    for a in tab.art:
        enterable[a] = False
    obj = tab.objective_row(phase1)
    tab.run_bland(obj, enterable)
    infeas = -obj[tab.total]
    if infeas > 0:
        # Farkas: y_i = 1 - reduced cost of artificial i, mapped through row signs
        farkas = []
        for i, a in enumerate(tab.art):
            y = Fraction(1) - obj[a]
            farkas.append(row_sign[i] * y)
        return LpSolution(status="infeasible", certificate={"farkas": farkas})

    # drive surviving artificials out of the basis
    for r in range(tab.m):
        if tab.basis[r] in tab.art:
            pivot_col = -1
            for j in range(tab.ncols):
                if tab.rows[r][j] != 0:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                tab.pivot(obj, r, pivot_col)
            # else: redundant row; harmless to keep, artificial stays at zero

    obj = tab.objective_row(cost)
    status, entering = tab.run_bland(obj, enterable)
    if status == "unbounded":
        ray = [Fraction(0)] * tab.total
        ray[entering] = Fraction(1)
        for r in range(tab.m):
            ray[tab.basis[r]] = -tab.rows[r][entering]
        return LpSolution(status="unbounded", certificate={"ray": ray[:n]})

    primal = [tab.value_of(j) for j in range(n)]
    value = sum((c * v for c, v in zip(objective, primal)), Fraction(0))
    return LpSolution(
        status="optimal",
        objective=value,
        primal=primal,
        certificate={"primal": list(primal)},
    )
