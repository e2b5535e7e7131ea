import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csw.errors import DimensionMismatchError
from csw.simplex import EQ, GE, LE, LinearConstraint, LpStats, constraint, simplex_solve

from oracles import lp_digest, polytope_vertices, random_fraction


def test_single_bound():
    sol = simplex_solve([1], [constraint([1], "<=", 3)])
    assert sol.status == "optimal"
    assert sol.objective == 3
    assert sol.primal == [Fraction(3)]


def test_infeasible_with_farkas_certificate():
    cons = [constraint([1], "<=", 0), constraint([1], ">=", 1)]
    sol = simplex_solve([1], cons)
    assert sol.status == "infeasible"
    y = sol.certificate["farkas"]
    # y respects the relation signs and refutes the system exactly
    assert y[0] <= 0 and y[1] >= 0
    combined = y[0] * 1 + y[1] * 1
    assert combined <= 0
    assert y[0] * 0 + y[1] * 1 > 0


def test_unbounded_with_ray():
    sol = simplex_solve([1], [constraint([-1], "<=", 1)])
    assert sol.status == "unbounded"
    ray = sol.certificate["ray"]
    assert ray == [Fraction(1)]


@pytest.mark.parametrize("objective, sense, status, value, point", [
    ([1], "max", "unbounded", None, [1]),
    ([0, -1, 1], "max", "unbounded", None, [0, 0, 1]),
    ([2, 0], "min", "optimal", 0, [0, 0]),
    ([], "max", "optimal", 0, []),
], ids=["max_unbounded", "free_unbounded", "min_at_origin", "no_variables"])
def test_constraint_free_lps(objective, sense, status, value, point):
    sol = simplex_solve(objective, [], sense=sense)
    assert sol.status == status
    if status == "unbounded":
        assert sol.certificate["ray"] == point
    else:
        assert type(sol.objective) is Fraction and sol.objective == value
        assert sol.primal == point and sol.certificate["primal"] == point


def test_minimization_and_equalities():
    cons = [constraint([1, 1], "==", 4), constraint([1, -1], "==", 2)]
    sol = simplex_solve([1, 3], cons, sense="min")
    assert sol.status == "optimal"
    assert sol.primal == [Fraction(3), Fraction(1)]
    assert sol.objective == 6


def test_free_variables():
    # a free x is the split x+ - x-: max x+ - x- subject to x+ - x- <= -2
    sol = simplex_solve([1, -1], [constraint([1, -1], "<=", -2)], sense="max")
    assert sol.status == "optimal"
    assert sol.objective == -2
    assert sol.primal == [Fraction(0), Fraction(2)]


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        simplex_solve([1, 2], [constraint([1], "<=", 1)])


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    cons = [
        constraint([Fraction(1, 4), -8, -1, 9], "<=", 0),
        constraint([Fraction(1, 2), -12, Fraction(-1, 2), 3], "<=", 0),
        constraint([0, 0, 1, 0], "<=", 1),
    ]
    sol = simplex_solve([Fraction(3, 4), -20, Fraction(1, 2), -6], cons, sense="max")
    assert sol.status == "optimal"
    assert sol.objective == Fraction(5, 4)


@pytest.mark.parametrize("objective, cons, sense, stats", [
    # the LP of test_degenerate_cycling_guard
    ([Fraction(3, 4), -20, Fraction(1, 2), -6],
     [constraint([Fraction(1, 4), -8, -1, 9], "<=", 0),
      constraint([Fraction(1, 2), -12, Fraction(-1, 2), 3], "<=", 0),
      constraint([0, 0, 1, 0], "<=", 1)], "max",
     LpStats(rows=3, columns=4, phase1_pivots=5, phase2_pivots=1,
             degenerate_pivots=4, max_bits=7)),
    # the gauge LP of e1 over {e0 + e1, e0}, coefficients split into +/- pairs
    ([1, 1, 1, 1],
     [constraint([1, -1, 1, -1], "==", 0), constraint([1, -1, 0, 0], "==", 1)], "min",
     LpStats(rows=2, columns=4, phase1_pivots=2, phase2_pivots=0,
             degenerate_pivots=1, max_bits=2)),
], ids=["degenerate_cycling", "small_gauge"])
def test_stats_are_exact(objective, cons, sense, stats):
    # pivot counts are those of the rational tableau, which pivots in the
    # same Bland order; max_bits is the integer tableau's own
    assert simplex_solve(objective, cons, sense=sense).stats == stats


def _oracle_max(objective, rows, rhs, dim):
    best = None
    for vertex in polytope_vertices(rows, rhs, dim):
        value = sum(c * v for c, v in zip(objective, vertex))
        if best is None or value > best:
            best = value
    return best


def test_agrees_with_vertex_enumeration_on_random_bounded_lps():
    rng = random.Random(2024)
    box = Fraction(10)
    for trial in range(60):
        dim = rng.randint(1, 3)
        ncons = rng.randint(1, 4)
        cons = []
        rows, rhs = [], []
        for _ in range(ncons):
            coeffs = [random_fraction(rng) for _ in range(dim)]
            bound = abs(random_fraction(rng)) + 1
            cons.append(constraint(coeffs, "<=", bound))
            rows.append(list(coeffs))
            rhs.append(Fraction(bound))
        for j in range(dim):  # box plus nonnegativity keeps the region bounded
            row = [Fraction(0)] * dim
            row[j] = Fraction(1)
            cons.append(constraint(row, "<=", box))
            rows.append(row)
            rhs.append(box)
            rows.append([-v for v in row])
            rhs.append(Fraction(0))
        objective = [random_fraction(rng) for _ in range(dim)]
        sol = simplex_solve(objective, cons, sense="max")
        expected = _oracle_max(objective, rows, rhs, dim)
        if expected is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == expected, f"trial {trial}"
            # exact feasibility of the reported point
            for con in cons:
                value = sum(c * v for c, v in zip(con.coeffs, sol.primal))
                assert value <= con.rhs


def test_random_infeasible_certificates():
    rng = random.Random(7)
    found = 0
    for _ in range(200):
        dim = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(2, 5)):
            coeffs = [random_fraction(rng) for _ in range(dim)]
            rel = rng.choice(["<=", ">=", "=="])
            cons.append(constraint(coeffs, rel, random_fraction(rng)))
        sol = simplex_solve([1] * dim, cons, sense="max")
        if sol.status != "infeasible":
            continue
        found += 1
        y = sol.certificate["farkas"]
        lhs_total = Fraction(0)
        for j in range(dim):
            column = Fraction(0)
            for yi, con in zip(y, cons):
                column += yi * con.coeffs[j]
            assert column <= 0  # nonneg vars: combined row must be <= 0
        for yi, con in zip(y, cons):
            if con.relation == "<=":
                assert yi <= 0
            elif con.relation == ">=":
                assert yi >= 0
            lhs_total += yi * con.rhs
        assert lhs_total > 0
    assert found >= 10


# large coprime numerators and denominators make every row need its own scale
_BIG = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_agrees_with_vertex_enumeration_on_large_denominators(data):
    dim = data.draw(st.integers(1, 3))
    box = data.draw(st.fractions(min_value=1, max_value=10**3, max_denominator=10**6))
    cons, rows, rhs = [], [], []
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = data.draw(st.lists(_BIG, min_size=dim, max_size=dim))
        rel = data.draw(st.sampled_from(["<=", ">=", "=="]))
        bound = data.draw(_BIG)
        cons.append(constraint(coeffs, rel, bound))
        if rel != ">=":
            rows.append(list(coeffs))
            rhs.append(bound)
        if rel != "<=":
            rows.append([-v for v in coeffs])
            rhs.append(-bound)
    for j in range(dim):  # box plus nonnegativity keeps the region bounded
        row = [Fraction(0)] * dim
        row[j] = Fraction(1)
        cons.append(constraint(row, "<=", box))
        rows.extend([row, [-v for v in row]])
        rhs.extend([box, Fraction(0)])
    objective = data.draw(st.lists(_BIG, min_size=dim, max_size=dim))
    sol = simplex_solve(objective, cons, sense="max")
    expected = _oracle_max(objective, rows, rhs, dim)
    if expected is None:
        assert sol.status == "infeasible"
        return
    assert sol.status == "optimal"
    assert sol.objective == expected
    assert all(v >= 0 for v in sol.primal)
    for con in cons:
        value = sum(c * v for c, v in zip(con.coeffs, sol.primal))
        assert {"<=": value <= con.rhs, ">=": value >= con.rhs,
                "==": value == con.rhs}[con.relation]


def test_constraint_and_solver_refuse_unknown_relation_and_sense():
    with pytest.raises(ValueError, match=r"^relation must be one of \('<=', '>=', '=='\)$"):
        constraint([1], "=", 1)
    with pytest.raises(ValueError, match="^sense must be 'max' or 'min'$"):
        simplex_solve([1], [constraint([1], "<=", 3)], sense="maximize")


def _random_lp(rng):
    """A small LP with mixed relations, int and Fraction coefficients (int
    zeros among them, as `csw.hull` poses them) and either sense."""
    dim = rng.randint(1, 5)
    cons = []
    for _ in range(rng.randint(0, 5)):
        coeffs = tuple(rng.choice((0, rng.randint(-3, 3), random_fraction(rng, max_den=6)))
                       for _ in range(dim))
        cons.append(LinearConstraint(coeffs, rng.choice((LE, GE, EQ)),
                                     random_fraction(rng, max_den=6)))
    objective = [rng.choice((0, random_fraction(rng))) for _ in range(dim)]
    return objective, cons, rng.choice(("max", "min"))


def test_random_lps_replay_the_recorded_solutions():
    # status, objective, point, certificate and stats of 200 LPs as recorded;
    # a change in how an LP is posed, pivoted or read back shows up here
    rng = random.Random(31)
    solutions = [simplex_solve(*_random_lp(rng)) for _ in range(200)]
    assert Counter(sol.status for sol in solutions) == {
        "optimal": 63, "infeasible": 99, "unbounded": 38}
    assert lp_digest(solutions) == (
        "9ee79181f6b9130536a16e7e06b39d631dff4941e67b695a18a8cafe2db0b4ca")
