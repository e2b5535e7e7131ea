import random
from fractions import Fraction
from itertools import combinations

import pytest

from csw.errors import DimensionMismatchError
from csw.simplex import constraint, simplex_solve

from oracles import polytope_vertices, random_fraction


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
