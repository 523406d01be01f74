from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import Iterable, Optional, Sequence
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from entitled_cuts import bounds, feasibility
from entitled_cuts.cells import CellTable
from entitled_cuts.errors import InternalCheckFailed
from entitled_cuts.feasibility import (
    EQ,
    GE,
    LE,
    _reduced,
    check_feasible,
    solve_feasibility,
)
from entitled_cuts.generate import random_instance
from entitled_cuts.model import FULL_CAKE, ONE, ZERO


def test_forced_point():
    assert solve_feasibility(1, [
        ((F(1),), GE, F(0)),
        ((F(1),), LE, F(1)),
        ((F(1),), EQ, F(1, 2)),
    ]) == (F(1, 2),)


def test_empty_box():
    assert solve_feasibility(1, [
        ((F(1),), GE, F(1)),
        ((F(1),), LE, F(0)),
    ]) is None


def test_lex_min_pins_first_variable():
    assert solve_feasibility(2, [
        ((F(1), F(1)), EQ, F(1)),
        ((F(1), F(0)), GE, F(0)),
        ((F(0), F(1)), GE, F(0)),
    ]) == (F(0), F(1))


def test_lex_min_cascades_through_simplex():
    constraints = [
        ((F(1), F(1), F(1)), EQ, F(1)),
        ((F(1), F(0), F(0)), GE, F(0)),
        ((F(0), F(1), F(0)), GE, F(0)),
        ((F(0), F(0), F(1)), GE, F(0)),
    ]
    assert solve_feasibility(3, constraints) == (F(0), F(0), F(1))


def test_plain_triples_accepted():
    assert check_feasible(1, [((F(2),), GE, F(1)), ((F(1),), LE, F(5))])
    assert solve_feasibility(1, [((2,), GE, 1)]) == (F(1, 2),)


@pytest.mark.parametrize("relation", ["<", ">", "==", "=<", ""])
def test_unknown_relation_rejected(relation):
    # "<" once fell through to ">=" and made this system feasible
    rows = [((F(1),), relation, F(0)), ((F(1),), GE, F(1))]
    with pytest.raises(ValueError, match="relation"):
        check_feasible(1, rows)
    with pytest.raises(ValueError, match="relation"):
        solve_feasibility(1, rows)


def test_float_numbers_rejected():
    # a float row once came back with the witness (2.9999999999999996,)
    with pytest.raises(TypeError):
        solve_feasibility(1, [((0.1,), GE, 0.3)])
    with pytest.raises(TypeError):
        check_feasible(1, [((F(1),), GE, 0.5)])
    with pytest.raises(TypeError):
        solve_feasibility(1, [((0.5,), GE, F(1)), ((F(1),), LE, F(4))])


def test_unbounded_minimization_surfaces():
    """Over the unit box every objective is bounded, so a minimization step
    that reports no finite optimum is a failed internal check."""
    with patch.object(feasibility._Tableau, "optimize", lambda self, costs: False):
        with pytest.raises(InternalCheckFailed, match="variable 1 over the unit box is unbounded"):
            solve_feasibility(1, [((F(1),), LE, F(0))])


def test_empty_system_gives_the_box_corner():
    assert check_feasible(2, [])
    assert solve_feasibility(2, []) == (F(0), F(0))


@pytest.mark.parametrize("num_vars, rows", [
    # the column itself leaves the box
    (1, [((1,), GE, 0)]),
    # x1 = 1 - x2 leaves it when x2 does
    (2, [((1, 1), EQ, 1)]),
])
def test_witness_outside_the_box_fails_the_recheck(num_vars, rows):
    """A tableau that ends at column 0 = 2, where every row still holds, is
    caught by the re-check against the box."""
    class Escaping(feasibility._Tableau):
        def fix_optimal_face(self, costs):
            super().fix_optimal_face(costs)
            self.x[0] = 2 * self.den

    with patch.object(feasibility, "_Tableau", Escaping):
        with pytest.raises(InternalCheckFailed, match="outside the unit box"):
            solve_feasibility(num_vars, rows)


def test_inconsistent_equalities():
    assert not check_feasible(1, [((F(1),), EQ, F(0)), ((F(1),), EQ, F(1))])


def test_redundant_equalities_are_harmless():
    assert solve_feasibility(2, [
        ((F(1), F(1)), EQ, F(1)),
        ((F(2), F(2)), EQ, F(2)),
        ((F(1), F(0)), GE, F(1, 3)),
        ((F(1), F(0)), LE, F(1)),
        ((F(0), F(1)), GE, F(0)),
    ]) == (F(1, 3), F(2, 3))


def test_two_dimensional_polytope():
    constraints = [
        ((F(1), F(1)), LE, F(1)),
        ((F(1), F(0)), GE, F(0)),
        ((F(0), F(1)), GE, F(0)),
        ((F(1), F(2)), GE, F(3, 2)),
    ]
    assert solve_feasibility(2, constraints) == (F(0), F(3, 4))
    assert not check_feasible(2, constraints + [((F(1), F(1)), GE, F(2))])


def test_determinism():
    constraints = [
        ((F(1), F(1), F(0)), LE, F(2)),
        ((F(1), F(-1), F(1)), GE, F(-1)),
        ((F(1), F(0), F(0)), GE, F(-3)),
        ((F(0), F(1), F(0)), GE, F(-3)),
        ((F(0), F(0), F(1)), GE, F(-3)),
        ((F(0), F(0), F(1)), LE, F(3)),
    ]
    first = solve_feasibility(3, constraints)
    for _ in range(3):
        assert solve_feasibility(3, constraints) == first


def test_needs_at_least_one_variable():
    # check_feasible once answered True here
    for decide in (check_feasible, solve_feasibility):
        with pytest.raises(ValueError, match="at least one variable"):
            decide(0, [])
        with pytest.raises(ValueError, match="at least one variable"):
            decide(0, [((), GE, 1)])


def test_coefficient_length_checked():
    with pytest.raises(ValueError):
        check_feasible(2, [((F(1),), LE, F(0))])


coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(
    point=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=5),
                   min_size=2, max_size=4),
    rows=st.data(),
)
def test_witness_satisfies_systems_built_around_a_point(point, rows):
    """Soundness oracle: constraints generated to hold at a known point of
    the unit box must come back feasible, and the returned witness must
    satisfy all of them and the box under exact re-evaluation."""
    n = len(point)
    constraints = []
    for _ in range(rows.draw(st.integers(min_value=1, max_value=5))):
        coeffs = tuple(rows.draw(coeff) for _ in range(n))
        value = sum(c * x for c, x in zip(coeffs, point))
        rel = rows.draw(st.sampled_from([LE, EQ, GE]))
        slack = rows.draw(st.fractions(min_value=0, max_value=1, max_denominator=3))
        rhs = value + slack if rel == LE else value - slack if rel == GE else value
        constraints.append((coeffs, rel, rhs))
    witness = solve_feasibility(n, constraints)
    assert witness is not None
    assert all(0 <= w <= 1 for w in witness)
    for coeffs, rel, rhs in constraints:
        lhs = sum(c * w for c, w in zip(coeffs, witness))
        assert lhs == rhs if rel == EQ else (lhs <= rhs if rel == LE else lhs >= rhs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_infeasible_when_box_excludes_required_sum(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    constraints = []
    for v in range(n):
        unit = tuple(F(1) if j == v else F(0) for j in range(n))
        constraints.append((unit, GE, F(0)))
        constraints.append((unit, LE, F(1)))
    constraints.append((tuple(F(1) for _ in range(n)), GE, F(n) + F(1, 2)))
    assert not check_feasible(n, constraints)


# ---- differential oracle: Fourier-Motzkin elimination, written from scratch


def _fm_normalize(n, rows):
    """Split a system into equality rows and <= rows, each (coeffs, rhs)."""
    eqs, ineqs = [], []
    for coeffs, rel, rhs in rows:
        if rel == EQ:
            eqs.append((list(coeffs), rhs))
        elif rel == LE:
            ineqs.append((list(coeffs), rhs))
        else:
            ineqs.append(([-c for c in coeffs], -rhs))
    return eqs, ineqs


def _fm_tidy(ineqs):
    """Drop rows that another row makes redundant: rows are scaled so their
    first non-zero coefficient is +-1, and of rows with equal coefficients
    only the smallest right-hand side is kept.  Rows with no variables are
    kept only when they are violated."""
    best = {}
    for coeffs, rhs in ineqs:
        lead = next((abs(c) for c in coeffs if c != 0), None)
        if lead is None:
            if rhs < 0:
                best[tuple(coeffs)] = rhs
            continue
        key = tuple(c / lead for c in coeffs)
        if key not in best or rhs / lead < best[key]:
            best[key] = rhs / lead
    return [(list(key), rhs) for key, rhs in best.items()]


def _fm_project_out(ineqs, var):
    pos, neg, rest = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[var]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            rest.append((coeffs, rhs))
    for pc, pr in pos:
        for nc, nr in neg:
            scale_p, scale_n = -nc[var], pc[var]
            coeffs = [scale_p * a + scale_n * b for a, b in zip(pc, nc)]
            rest.append((coeffs, scale_p * pr + scale_n * nr))
    return _fm_tidy(rest)


def _fm_eliminate(eqs, ineqs, var):
    """Project var out: by substitution when an equality has it (which is
    what Fourier-Motzkin gives for the pair of opposite rows, without the
    redundant products), else by pairwise combination."""
    for i, (coeffs, rhs) in enumerate(eqs):
        c = coeffs[var]
        if c != 0:
            def sub(row):
                f = row[0][var] / c
                return [a - f * b for a, b in zip(row[0], coeffs)], row[1] - f * rhs
            return [sub(e) for j, e in enumerate(eqs) if j != i], _fm_tidy(map(sub, ineqs))
    return eqs, _fm_project_out(ineqs, var)


def _fm_project_onto(n, rows, keep):
    """Eliminate every variable not in keep, cheapest first: equalities,
    then the variable with the fewest pairwise products."""
    eqs, ineqs = _fm_normalize(n, rows)
    left = [v for v in range(n) if v not in keep]
    while left:
        def cost(v):
            if any(coeffs[v] != 0 for coeffs, _ in eqs):
                return -1
            pos = sum(1 for coeffs, _ in ineqs if coeffs[v] > 0)
            return pos * (sum(1 for coeffs, _ in ineqs if coeffs[v] < 0) - 1)
        var = min(left, key=cost)
        left.remove(var)
        eqs, ineqs = _fm_eliminate(eqs, ineqs, var)
    return eqs, ineqs


def _fm_feasible(n, rows):
    eqs, ineqs = _fm_project_onto(n, rows, ())
    return all(rhs == 0 for _, rhs in eqs) and all(rhs >= 0 for _, rhs in ineqs)


def _fm_min_of_var(n, rows, target):
    """Exact minimum of x_target over a feasible system, or None if it is
    unbounded below."""
    eqs, ineqs = _fm_project_onto(n, rows, (target,))
    for coeffs, rhs in eqs:
        if coeffs[target] != 0:
            return rhs / coeffs[target]
    lo = None
    for coeffs, rhs in ineqs:
        if coeffs[target] < 0:
            bound = rhs / coeffs[target]
            lo = bound if lo is None else max(lo, bound)
    return lo


def _fm_lex_min(n, rows):
    """The lexicographically minimal point of a feasible system: minimize
    x1, pin it, minimize x2, and so on.  Returns (witness, None), or
    (None, i) when minimizing the 0-based variable i is unbounded below."""
    rows = list(rows)
    witness = []
    for var in range(n):
        value = _fm_min_of_var(n, rows, var)
        if value is None:
            return None, var
        witness.append(value)
        rows.append((_unit(n, var), EQ, value))
    return tuple(witness), None


def _unit(n, var, scale=1):
    return tuple(F(scale) if j == var else F(0) for j in range(n))


def _unit_box(n):
    """The solver's domain [0, 1]^n as rows, for a reference to take
    explicitly."""
    return [(_unit(n, v), rel, F(bound)) for v in range(n) for rel, bound in ((GE, 0), (LE, 1))]


def _random_system(data, n, max_rows):
    rows = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=max_rows))):
        coeffs = tuple(data.draw(coeff) for _ in range(n))
        rel = data.draw(st.sampled_from([LE, GE, EQ]))
        rhs = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
        rows.append((coeffs, rel, rhs))
    return rows


# n is capped at 3: the oracle's elimination doubles rows per step, and the
# point is to cross-check decisions, not to benchmark Fourier-Motzkin
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_feasibility_agrees_with_fourier_motzkin(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    rows = _random_system(data, n, 5)
    assert check_feasible(n, rows) == _fm_feasible(n, rows + _unit_box(n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_witness_coordinate_matches_fourier_motzkin_minimum(data):
    n = data.draw(st.integers(min_value=1, max_value=2))
    rows = _random_system(data, n, 4)
    boxed = rows + _unit_box(n)
    witness = solve_feasibility(n, rows)
    assert (witness is not None) == _fm_feasible(n, boxed)
    if witness is not None:
        assert witness[0] == _fm_min_of_var(n, boxed, 0)


# ---- the full lexicographic witness against Fourier-Motzkin

cell = st.fractions(min_value=0, max_value=1, max_denominator=6)
density = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_full_witness_matches_fourier_motzkin_on_cut_systems(data):
    """Systems shaped like the oracle's and the splitter's: a box per
    variable (sometimes a single point), extra one-variable rows with
    non-unit coefficients, ordering rows x_j - x_{j+1} <= 0, equality rows
    that leave 0, 1 or more free variables, and value rows.  Boxes, ordering
    rows and equalities hold at a sorted anchor point; the other rows hold
    there too in half of the systems and take a random direction in the
    rest, which makes those infeasible mostly through the rows the simplex
    keeps."""
    n = data.draw(st.integers(min_value=4, max_value=6))
    anchored = data.draw(st.booleans())
    point = sorted(data.draw(cell) for _ in range(n))

    def holding(coeffs, rhs):
        """A relation that holds at the anchor point, or any relation."""
        if not anchored:
            return data.draw(st.sampled_from([LE, GE])), rhs
        lhs = sum(c * x for c, x in zip(coeffs, point))
        return (LE if rhs >= lhs else GE), rhs

    rows = []
    for v in range(n):
        lo, hi = sorted((data.draw(cell), data.draw(cell)))
        lo, hi = min(lo, point[v]), max(hi, point[v])
        if data.draw(st.integers(min_value=0, max_value=4)) == 0:
            lo = hi = point[v]
        rows.append((_unit(n, v), GE, lo))
        rows.append((_unit(n, v), LE, hi))
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            scale = data.draw(st.sampled_from([F(2), F(3), F(-2), F(1, 2), F(-3, 4)]))
            coeffs = _unit(n, v, scale)
            rows.append((coeffs, *holding(coeffs, scale * data.draw(cell))))
    for j in range(n - 1):
        if data.draw(st.booleans()):
            rows.append((tuple(F(1) if i == j else F(-1) if i == j + 1 else F(0)
                               for i in range(n)), LE, F(0)))
    free_left = data.draw(st.sampled_from([0, 1, 2, 3]))
    for _ in range(n - free_left):
        coeffs = tuple(data.draw(density) for _ in range(n))
        rows.append((coeffs, EQ, sum(c * x for c, x in zip(coeffs, point))))
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        coeffs = tuple(data.draw(density) for _ in range(n))
        rows.append((coeffs, *holding(coeffs, data.draw(density))))

    feasible = _fm_feasible(n, rows)
    if anchored:
        assert feasible
    assert check_feasible(n, rows) == feasible
    witness = solve_feasibility(n, rows)
    assert (witness is not None) == feasible
    if feasible:
        assert witness == _fm_lex_min(n, rows)[0]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_half_bounded_and_free_variables_match_fourier_motzkin(data):
    """Variables that the rows bound on one side or not at all: the unit
    box closes them, and the witness is the full Fourier-Motzkin
    lexicographic minimum over the rows and the box."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    rows = []
    for v in range(n):
        side = data.draw(st.sampled_from(["both", "lower", "upper", "none"]))
        if side in ("both", "lower"):
            rows.append((_unit(n, v), GE, data.draw(density)))
        if side in ("both", "upper"):
            rows.append((_unit(n, v), LE, data.draw(density)))
    rows += _random_system(data, n, 3)

    boxed = rows + _unit_box(n)
    feasible = _fm_feasible(n, boxed)
    assert check_feasible(n, rows) == feasible
    witness = solve_feasibility(n, rows)
    assert witness == (_fm_lex_min(n, boxed)[0] if feasible else None)


@pytest.mark.parametrize("rows, expected", [
    # x1 >= 0, and x2 free but for a row that ties it to x1 and the box
    ([((F(1), F(0)), GE, F(0)), ((F(1), F(-1)), LE, F(5))], (F(0), F(0))),
    # x2 has an upper bound only, and the box bounds it below
    ([((F(1), F(0)), GE, F(0)), ((F(0), F(1)), LE, F(3))], (F(0), F(0))),
    # x1 has an upper bound only; the row lets x2 grow as x1 falls, up to 1
    ([((F(1), F(0)), LE, F(0)), ((F(1), F(1)), GE, F(1))], (F(0), F(1))),
    # x2 is eliminated by the equality; x1 alone is boxed through it
    ([((F(1), F(1)), EQ, F(1)), ((F(0), F(2)), LE, F(1))], (F(1, 2), F(1, 2))),
])
def test_one_sided_and_free_examples(rows, expected):
    assert solve_feasibility(2, rows) == expected
    assert _fm_lex_min(2, rows + _unit_box(2)) == (expected, None)


def test_generator_input_matches_list_and_is_rechecked(monkeypatch):
    rows = [
        ((F(1), F(1), F(1)), EQ, F(1)),
        *[(_unit(3, v), GE, F(0)) for v in range(3)],
        ((F(1), F(0), F(0)), GE, F(1, 2)),
    ]
    expected = solve_feasibility(3, rows)
    assert expected == (F(1, 2), F(0), F(1, 2))
    assert solve_feasibility(3, (row for row in rows)) == expected
    # With the last row hidden from the solver, its witness (0, 0, 1)
    # violates that row, so the re-check must see every row to catch it.
    real = feasibility._eliminate_equalities
    monkeypatch.setattr(
        feasibility, "_eliminate_equalities", lambda n, rs: real(n, rs[:-1])
    )
    with pytest.raises(InternalCheckFailed):
        solve_feasibility(3, rows)
    with pytest.raises(InternalCheckFailed):
        solve_feasibility(3, (row for row in rows))


# ---- exact types: an int divided by an int with / is a float, and a float
# witness can still pass the exact re-check (2 * 0.5 >= 1)


@pytest.mark.parametrize("num_vars, rows", [
    # one-variable bound
    (1, [((2,), GE, 1)]),
    # a variable solved by an equality with no free variable left
    (1, [((3,), EQ, 1)]),
    # x1 solved as 1 - x2, x2 bounded through it
    (2, [((1, 1), EQ, 1), ((2, 0), GE, 1), ((1, 0), LE, 1)]),
    # the simplex, with a column bounded by the box alone
    (2, [((1, 0), GE, 0), ((1, -1), LE, 5), ((1, 1), GE, 1)]),
    # int and Fraction numbers in one system
    (2, [((1, F(1, 2)), GE, 1), ((0, 3), LE, 2), ((3, 0), LE, 7), ((1, 0), GE, 0)]),
])
def test_witness_coordinates_are_fractions(num_vars, rows):
    witness = solve_feasibility(num_vars, rows)
    assert witness is not None
    assert all(type(c) is F for c in witness), witness
    assert witness == _fm_lex_min(num_vars, _exact(rows) + _unit_box(num_vars))[0]


# ---- the fraction-free elimination against Fourier-Motzkin

# pairwise coprime denominators, up to 10**6
_BIG = (1_000_000, 999_999, 999_983, 999_979, 524_287, 65_537)


def _exact(rows):
    """The same system with every number a Fraction: the reference divides
    with /, which on two ints would give a float."""
    return [(tuple(F(c) for c in coeffs), rel, F(rhs)) for coeffs, rel, rhs in rows]


# ---- the equality elimination against its lcm-scaled predecessor
#
# The reference scales each row by the lcm of the denominators of the solved
# variables it touches and back-substitutes by hand.  Both routines end with
# primitive integer rows, which are unique for their rational rows, so they
# must reduce every system to the same free variables, inequality rows (in
# the same order) and solved variables.


def _reference_eliminate(num_vars: int, rows: Sequence) -> Optional[tuple]:
    """Substitute equalities away, over the integers.

    Returns (free_vars, ineqs, solved) where ``solved`` maps an eliminated
    variable v to (den, const, expr) with den > 0 and

        den * x_v = const - sum(expr[k] * x_k)

    over the free variables k, and ``ineqs`` are sparse integer rows
    expr . x <= rhs touching free variables only.  Returns None if the
    equalities alone are inconsistent.
    """
    eqs = []
    raw_ineqs = []
    for coeffs, rel, rhs in rows:
        if rel == EQ:
            eqs.append((coeffs, rhs))
        else:
            raw_ineqs.append((coeffs, rel, rhs))

    solved: dict[int, tuple[int, int, dict[int, int]]] = {}

    def substitute(coeffs, rhs):
        """Rewrite  coeffs . x (rel) rhs  over the not-yet-eliminated
        variables: the row times the lcm of the denominators of the solved
        variables it touches (a positive factor), as (expr, rhs)."""
        hits = [(j, c) for j, c in enumerate(coeffs) if c]
        scale = lcm(*(solved[j][0] for j, _ in hits if j in solved))
        rhs *= scale
        expr: dict[int, int] = {}
        for j, c in hits:
            s = solved.get(j)
            if s is None:
                expr[j] = expr.get(j, 0) + c * scale
            else:
                den, const, s_expr = s
                f = c * (scale // den)
                rhs -= f * const
                for k, a in s_expr.items():
                    expr[k] = expr.get(k, 0) - f * a
        return _reduced({k: c for k, c in expr.items() if c}, rhs)

    for coeffs, rhs in eqs:
        expr, rhs = substitute(coeffs, rhs)
        if not expr:
            if rhs:
                return None
            continue
        pivot = min(expr)
        den = expr.pop(pivot)
        if den < 0:
            den, rhs = -den, -rhs
            expr = {k: -c for k, c in expr.items()}
        # den * x_pivot = rhs - expr . x; put it into every earlier solution
        for var, (s_den, s_const, s_expr) in list(solved.items()):
            w = s_expr.get(pivot)
            if w is None:
                continue
            new = {k: den * a for k, a in s_expr.items() if k != pivot}
            for k, a in expr.items():
                new[k] = new.get(k, 0) - w * a
            new, s_den, s_const = _reduced(
                {k: a for k, a in new.items() if a}, den * s_den, den * s_const - w * rhs
            )
            solved[var] = (s_den, s_const, new)
        solved[pivot] = (den, rhs, expr)

    free = [j for j in range(num_vars) if j not in solved]
    ineqs = []
    for coeffs, rel, rhs in raw_ineqs:
        expr, rhs = substitute(coeffs, rhs)
        if rel == LE:
            ineqs.append((expr, rhs))
        else:
            ineqs.append(({k: -c for k, c in expr.items()}, -rhs))
    return free, ineqs, solved


def _assert_same_reduction(n, rows):
    """The library's elimination reduces the system exactly as the
    reference does, and no row it returns holds a zero entry."""
    rows = feasibility._normalize(n, rows)
    reduced = feasibility._eliminate_equalities(n, rows)
    expected = _reference_eliminate(n, rows)
    if expected is None:
        assert reduced is None
        return
    free, ineqs, solved = reduced
    rhs_key = feasibility._RHS
    for row in [*ineqs, *(row for _, row in solved.values())]:
        assert all(type(c) is int and c for c in row.values()), row

    def split(row):
        return {k: c for k, c in row.items() if k != rhs_key}, row.get(rhs_key, 0)

    assert free == expected[0]
    assert [split(row) for row in ineqs] == expected[1]
    assert {v: (den, *split(row)) for v, (den, row) in solved.items()} == {
        v: (den, expr, const) for v, (den, const, expr) in expected[2].items()
    }


def _assert_matches_fourier_motzkin(n, rows):
    """Decision and full witness against the reference over the unit box;
    returns the decision."""
    _assert_same_reduction(n, rows)
    reference = _exact(rows) + _unit_box(n)
    feasible = _fm_feasible(n, reference)
    assert check_feasible(n, rows) == feasible
    witness = solve_feasibility(n, rows)
    assert (witness is not None) == feasible
    if feasible:
        assert witness == _fm_lex_min(n, reference)[0]
        assert all(type(c) is F for c in witness)
    return feasible


def _int_box(n, lo, hi):
    rows = []
    for v in range(n):
        unit = tuple(int(j == v) for j in range(n))
        rows += [(unit, GE, lo), (unit, LE, hi)]
    return rows


@pytest.mark.parametrize("n, rows, feasible", [
    pytest.param(2, [((1, F(1, 2)), EQ, 1), ((F(2, 3), 1), GE, F(1, 3))]
                 + _int_box(2, -2, 2), True, id="mixed-int-and-fraction"),
    pytest.param(2, [((1, 1), EQ, 1), ((2, 2), EQ, 2), ((F(1, 3), F(1, 3)), EQ, F(1, 3))]
                 + _int_box(2, 0, 1), True, id="dependent-consistent"),
    pytest.param(3, [((1, 1, 1), EQ, 1), ((1, -1, 0), EQ, 0), ((2, 0, 1), EQ, 1)]
                 + _int_box(3, 0, 1), True, id="dependent-after-back-substitution"),
    pytest.param(2, [((1, 1), EQ, 1), ((2, 2), EQ, 3)] + _int_box(2, 0, 1),
                 False, id="inconsistent"),
    pytest.param(3, [((1, 1, 1), EQ, 1), ((1, -1, 0), EQ, 0), ((2, 0, 1), EQ, 2)]
                 + _int_box(3, 0, 1), False, id="inconsistent-after-back-substitution"),
    pytest.param(3, [((2, 1, 0), EQ, 1), ((0, 3, -1), EQ, F(1, 2)), ((1, 0, 5), EQ, 2)]
                 + _int_box(3, -1, 1), True, id="every-variable-eliminated"),
    pytest.param(3, [((2, 1, 0), EQ, 1), ((0, 3, -1), EQ, F(1, 2)), ((1, 0, 5), EQ, 2)]
                 + _int_box(3, 0, F(1, 10)), False, id="every-variable-eliminated-outside-box"),
    pytest.param(2, [((0, F(0)), LE, 0), ((F(0), 0), EQ, 0), ((0, 0), GE, -1)]
                 + _int_box(2, 0, 1), True, id="zero-rows-that-hold"),
    pytest.param(2, [((0, F(0)), GE, 1)] + _int_box(2, 0, 1), False, id="zero-row-ge"),
    pytest.param(2, [((F(0), 0), EQ, F(1, 999_983))] + _int_box(2, 0, 1), False,
                 id="zero-row-eq"),
    pytest.param(3, [((F(1, _BIG[0]), F(1, _BIG[1]), F(1, _BIG[2])), EQ, F(1, _BIG[3])),
                     ((F(3, _BIG[4]), F(-2, _BIG[5]), 0), GE, F(-1, _BIG[2]))]
                 + _int_box(3, 0, 1), True, id="coprime-denominators"),
    pytest.param(2, [((F(1, _BIG[0]), F(1, _BIG[1])), EQ, F(1, _BIG[2])),
                     ((F(1, _BIG[0]), F(1, _BIG[1])), EQ, F(1, _BIG[3]))]
                 + _int_box(2, 0, 1), False, id="coprime-denominators-inconsistent"),
    # a solved variable with a zero right-hand side substituted into a row
    pytest.param(3, [((1, 0, 0), EQ, 0), ((0, 0, 1), EQ, 0), ((1, 1, 1), EQ, 0)]
                 + _int_box(3, -1, 1), True, id="zero-right-hand-sides"),
])
def test_fraction_free_elimination_examples(n, rows, feasible):
    assert _assert_matches_fourier_motzkin(n, rows) == feasible


def _mixed_number(data, bound=2):
    """An int, or a Fraction with a small or a large coprime denominator."""
    kind = data.draw(st.sampled_from(["int", "small", "large"]))
    if kind == "int":
        return data.draw(st.integers(min_value=-bound, max_value=bound))
    den = data.draw(st.sampled_from((2, 3, 4, 6) if kind == "small" else _BIG))
    return F(data.draw(st.integers(min_value=-bound * den, max_value=bound * den)), den)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fraction_free_elimination_matches_fourier_motzkin(data):
    """Systems that mix int rows, Fraction rows and rows holding both, with
    equalities that hold at an anchor point, dependent equalities that are
    consistent or shifted off, up to one equality per variable, all-zero
    rows, and denominators up to 10**6, with the anchor point in the unit
    box."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    point = [data.draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
             for _ in range(n)]
    rows = []
    for v in range(n):
        unit = tuple(int(j == v) if data.draw(st.booleans()) else F(int(j == v))
                     for j in range(n))
        rows.append((unit, GE, point[v] - data.draw(st.sampled_from([0, 1, F(1, 3)]))))
        rows.append((unit, LE, point[v] + data.draw(st.sampled_from([0, 1, F(1, 999_983)]))))
    eqs = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=n))):
        coeffs = tuple(_mixed_number(data) for _ in range(n))
        eqs.append((coeffs, EQ, sum(c * x for c, x in zip(coeffs, point))))
    for _ in range(data.draw(st.integers(min_value=0, max_value=2)) if eqs else 0):
        (a, _, ra), (b, _, rb) = data.draw(st.sampled_from(eqs)), data.draw(st.sampled_from(eqs))
        lam, mu = _mixed_number(data), _mixed_number(data)
        shift = data.draw(st.sampled_from([0, 0, 1, F(1, 999_979)]))
        eqs.append((tuple(lam * p + mu * q for p, q in zip(a, b)), EQ, lam * ra + mu * rb + shift))
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        zeros = tuple(data.draw(st.sampled_from([0, F(0)])) for _ in range(n))
        rows.append((zeros, data.draw(st.sampled_from([LE, EQ, GE])),
                     data.draw(st.sampled_from([0, 1, -1, F(1, 524_287)]))))
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        coeffs = tuple(_mixed_number(data) for _ in range(n))
        rows.append((coeffs, data.draw(st.sampled_from([LE, GE])), _mixed_number(data)))
    rows = data.draw(st.permutations(rows + eqs))
    _assert_matches_fourier_motzkin(n, rows)


# ---- the integer simplex against a Fraction simplex
#
# The reference is the same method with every row, reduced cost and pivot in
# Fraction arithmetic.  Both run inside the same reduction and lex-min loop,
# so they must take the same pivots and return the same decisions and
# witnesses.


class _FractionTableau:
    """Bounded-variable simplex state over columns 0..len(free)-1 (the free
    variables, in order), then per row its slack and, if the row starts
    violated, an artificial column.

    ``rows[r]`` holds the non-zero coefficients of the non-basic, non-fixed
    columns in  x[basis[r]] + sum(rows[r][j] * x[j]) = const; the constant
    itself is never needed because ``x`` holds every column's value.
    ``lo``/``hi`` are the bounds; only the slacks and the artificials have
    no upper one (None).  Each free variable starts at its lower bound.
    """

    def __init__(self, lo: list, hi: list, rows: list):
        x = lo[:]
        self.x, self.lo, self.hi = x, lo, hi
        self.rows: list[dict] = []
        self.basis: list[int] = []
        self.artificials: list[int] = []
        for expr, rhs in rows:
            level = rhs - sum((c * x[j] for j, c in expr.items()), ZERO)
            row = {j: c for j, c in expr.items() if not self._fixed(j)}
            slack = len(x)
            x.append(max(level, ZERO))
            lo.append(ZERO)
            hi.append(None)
            if level < ZERO:
                # the slack starts at zero and an artificial takes the shortfall
                row = {j: -c for j, c in row.items()}
                row[slack] = -ONE
                self.artificials.append(len(x))
                x.append(-level)
                lo.append(ZERO)
                hi.append(None)
            self.basis.append(len(x) - 1)
            self.rows.append(row)

    def _fixed(self, j: int) -> bool:
        return self.lo[j] == self.hi[j]

    def phase1(self) -> bool:
        """Drive the artificials to zero; False if the system is infeasible.
        Afterwards the artificials are fixed at zero."""
        if not self.artificials:
            return True
        if not self.optimize(self.reduced_costs({a: ONE for a in self.artificials})):
            raise InternalCheckFailed("phase 1 of the simplex reported an unbounded sum of artificials")
        if any(self.x[a] != ZERO for a in self.artificials):
            return False
        for a in self.artificials:
            self.hi[a] = ZERO
        self._drop_fixed(self.artificials)
        return True

    def reduced_costs(self, objective: dict) -> dict:
        """Reduced costs of  sum(objective[j] * x[j])  at the current basis."""
        row_of = {b: r for r, b in enumerate(self.basis)}
        costs: dict[int, F] = {}
        for j, c in objective.items():
            r = row_of.get(j)
            if r is not None:
                for k, a in self.rows[r].items():
                    costs[k] = costs.get(k, ZERO) - c * a
            elif not self._fixed(j):
                costs[j] = costs.get(j, ZERO) + c
        return {j: c for j, c in costs.items() if c != ZERO}

    def optimize(self, costs: dict) -> bool:
        """Minimize from the current basis; ``costs`` holds the non-zero
        reduced costs and is kept current.  False means unbounded below."""
        x, lo, hi, rows, basis = self.x, self.lo, self.hi, self.rows, self.basis
        while True:
            enter = -1
            for j in sorted(costs):
                if costs[j] < ZERO:
                    if hi[j] is None or x[j] < hi[j]:
                        enter, up = j, True
                        break
                elif x[j] > lo[j]:
                    enter, up = j, False
                    break
            if enter < 0:
                return True
            # bound flip first; a row replaces it only on a strictly shorter step
            step = None
            if up and hi[enter] is not None:
                step = hi[enter] - x[enter]
            elif not up:
                step = x[enter] - lo[enter]
            leave = -1
            touched = []
            for r, row in enumerate(rows):
                a = row.get(enter)
                if a is None:
                    continue
                touched.append((r, a))
                b = basis[r]
                # x[b] moves by -a per unit increase of x[enter]
                if (a < ZERO) == up:
                    if hi[b] is None:
                        continue
                    room = (hi[b] - x[b]) / abs(a)
                else:
                    room = (x[b] - lo[b]) / abs(a)
                if step is None or room < step or (
                    room == step and leave >= 0 and b < basis[leave]
                ):
                    step, leave = room, r
            if step is None:
                return False
            if step != ZERO:
                delta = step if up else -step
                x[enter] += delta
                for r, a in touched:
                    x[basis[r]] -= a * delta
            if leave >= 0:
                self._pivot(leave, enter, touched, costs)

    def _pivot(self, leave: int, enter: int, touched: list, costs: dict) -> None:
        rows, basis = self.rows, self.basis
        out = basis[leave]
        row = rows[leave]
        inv = ONE / row.pop(enter)
        new = {j: c * inv for j, c in row.items()}
        if not self._fixed(out):
            new[out] = inv
        rows[leave] = new
        basis[leave] = enter
        for r, f in touched:
            if r != leave:
                _fraction_axpy(rows[r], enter, f, new)
        f = costs.get(enter)
        if f is not None:
            _fraction_axpy(costs, enter, f, new)

    def _drop_fixed(self, columns: Iterable[int]) -> None:
        """Forget non-basic columns that can no longer move."""
        for row in self.rows:
            for j in columns:
                row.pop(j, None)

    def fix_optimal_face(self, costs: dict) -> None:
        """After optimize(costs): restrict to the minimizers by fixing every
        non-basic column whose reduced cost is non-zero at its value."""
        for j in costs:
            self.lo[j] = self.hi[j] = self.x[j]
        self._drop_fixed(costs)


def _fraction_axpy(target: dict, pivot_col: int, f: F, new: dict) -> None:
    """target -= f * new, with target's own pivot_col entry (f) removed."""
    del target[pivot_col]
    for j, c in new.items():
        v = target.get(j)
        if v is None:
            target[j] = -f * c
        else:
            v -= f * c
            if v:
                target[j] = v
            else:
                del target[j]



class _CheckedTableau(feasibility._Tableau):
    """The integer simplex, checking that the reduced costs are ints, that
    after every pivot and every column fixed each row is ints over a
    positive denominator with gcd 1, and that from the start and after
    every step, pivot and column fixed, the point and the finite bounds are
    ints over a positive common denominator, with gcd 1 among them all."""

    def __init__(self, lo, hi, rows):
        super().__init__(lo, hi, rows)
        self._check_point()

    def _check_rows(self):
        for row, den in zip(self.rows, self.dens):
            assert type(den) is int and den > 0, den
            assert all(type(c) is int and c for c in row.values()), row
            assert gcd(den, *row.values()) == 1, (den, row)

    def _check_point(self):
        bounds = [b for b in (*self.lo, *self.hi) if b is not None]
        assert type(self.den) is int and self.den > 0, self.den
        assert all(type(v) is int for v in (*self.x, *bounds)), (self.x, self.lo, self.hi)
        assert gcd(self.den, *self.x, *bounds) == 1, (self.den, self.x, self.lo, self.hi)

    def reduced_costs(self, objective):
        costs = super().reduced_costs(objective)
        assert all(type(c) is int and c for c in costs.values()), costs
        return costs

    def _step(self, enter, num, q, touched):
        super()._step(enter, num, q, touched)
        self._check_point()

    def _pivot(self, leave, enter, touched, costs):
        super()._pivot(leave, enter, touched, costs)
        self._check_rows()
        self._check_point()
        assert all(type(c) is int and c for c in costs.values()), costs

    def _drop_fixed(self, columns):
        super()._drop_fixed(columns)
        self._check_rows()
        self._check_point()


class _FractionReference(_FractionTableau):
    """The Fraction simplex on the integer simplex's input: its bounds come
    as (numerator, denominator) pairs, and its point is read over den = 1."""

    den = 1

    def __init__(self, lo, hi, rows):
        super().__init__(*([F(*b) for b in side] for side in (lo, hi)), rows)


def _run_with(tableau, n, rows):
    """check_feasible's answer, solve_feasibility's witness and every pivot
    made, as (leaving row, entering column, the point as Fractions), with
    ``tableau`` as the simplex."""
    pivots = []

    class Recording(tableau):
        def _pivot(self, leave, enter, touched, costs):
            pivots.append((leave, enter, tuple(F(v, self.den) for v in self.x)))
            super()._pivot(leave, enter, touched, costs)

    with patch.object(feasibility, "_Tableau", Recording):
        decision = check_feasible(n, rows)
        witness = solve_feasibility(n, rows)
    return decision, witness, pivots


def _assert_same_as_fraction_simplex(n, rows):
    """Same decision, same witness and same pivots; returns (decision,
    pivot count)."""
    _assert_same_reduction(n, rows)
    decision, witness, pivots = _run_with(_CheckedTableau, n, rows)
    assert (decision, witness, pivots) == _run_with(_FractionReference, n, rows)
    assert (witness is not None) == decision
    if decision:
        assert all(type(c) is F for c in witness), witness
    return decision, len(pivots)


def _oracle_systems(inst, k):
    """The systems the cut oracle sends to the LP deciding k cuts."""
    sent = []

    def record(num_vars, rows):
        sent.append(rows)
        return check_feasible(num_vars, rows)

    with patch.object(bounds, "check_feasible", record):
        bounds.feasible_with_k_cuts(inst, k)
    return sent


def _splitter_system(table, cells, origin_inside):
    """The splitter's system for cut cells ``cells``: every agent's value of
    the part equals its threshold."""
    k = len(cells)
    first = 1 if origin_inside else -1
    signs = [first if j % 2 == 0 else -first for j in range(k)]
    rows = []
    for i, target in enumerate(table.int_thresholds):
        base = table.int_prefix[i][-1] if origin_inside else 0
        coeffs, const = table.value_row(i, cells, signs, base)
        rows.append((coeffs, EQ, target - const))
    return rows + table.ordering_rows(cells)


def _certify_pool(n, count):
    """Seeded instances shaped like the benchmark's oracle cross-check: n
    agents and at most 5 refinement cells."""
    pool, seed = [], 9100
    while len(pool) < count:
        inst = random_instance(n, seed, max_cells=3)
        seed += 1
        if CellTable(inst.valuations, inst.entitlements, FULL_CAKE).cells <= 5:
            pool.append(inst)
    return pool


def _cut_systems(n):
    """(k, rows) for every system the oracle sends to the LP for k <= 2n - 2
    cuts, and every splitter system with up to 4 cuts, on a seeded pool."""
    systems = []
    for inst in _certify_pool(n, 6):
        table = CellTable(inst.valuations, inst.entitlements, FULL_CAKE)
        systems += [(k, rows) for k in range(1, 2 * n - 1) for rows in _oracle_systems(inst, k)]
        systems += [(k, _splitter_system(table, cells, inside))
                    for k in (2, 4) for inside in (False, True) for cells in combinations_with_replacement(range(table.cells), k)]
    return systems


@pytest.mark.parametrize("n", [2, 3])
def test_integer_simplex_matches_fraction_simplex_on_cut_systems(n):
    decisions, pivots = set(), 0
    for k, rows in _cut_systems(n):
        decision, count = _assert_same_as_fraction_simplex(k, rows)
        decisions.add(decision)
        pivots += count
    assert decisions == {True, False} and pivots > 100


@pytest.mark.parametrize("n", [2, 3])
def test_box_rows_change_no_cut_system(n):
    """The unit box is the LP's domain: appending the rows 0 <= t_j <= 1
    that the cut systems once carried changes no decision and no witness."""
    decisions = set()
    for k, rows in _cut_systems(n):
        boxed = rows + _int_box(k, 0, 1)
        decision = check_feasible(k, rows)
        assert decision == check_feasible(k, boxed)
        assert solve_feasibility(k, rows) == solve_feasibility(k, boxed)
        decisions.add(decision)
    assert decisions == {True, False}


def test_deciding_int_rows_builds_no_fraction(monkeypatch):
    """The reduction, the bounds and the simplex run in ints: the cut
    systems of a seeded pool, pivots included, are decided without one
    Fraction."""
    systems = [(k, rows) for inst in _certify_pool(3, 2) for k in range(1, 5)
               for rows in _oracle_systems(inst, k)]
    pivots = []

    class Counting(feasibility._Tableau):
        def _pivot(self, leave, enter, touched, costs):
            pivots.append(enter)
            super()._pivot(leave, enter, touched, costs)

    def refuse(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(feasibility, "_Tableau", Counting)
    monkeypatch.setattr(feasibility, "Fraction", refuse)
    decisions = {check_feasible(k, rows) for k, rows in systems}
    assert decisions == {True, False} and len(pivots) > 10


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_simplex_matches_fraction_simplex_on_drawn_systems(data):
    """One oracle or splitter system over a CellTable, with cut cells and
    owners drawn freely, or a general system whose variables carry bounds
    inside the unit box on both sides, below only or not at all, with
    unlike denominators up to 10**6."""
    shape = data.draw(st.sampled_from(["oracle", "splitter", "general", "large"]))
    if shape in ("general", "large"):
        def bound():
            if shape == "general":
                return data.draw(cell)
            # the common denominator starts at the lcm of these and shrinks
            # once the bounds that carry them are fixed away
            den = data.draw(st.sampled_from(_BIG))
            return F(data.draw(st.integers(min_value=0, max_value=den)), den)

        n = data.draw(st.integers(min_value=1, max_value=4))
        rows = _random_system(data, n, 6)
        for v in range(n):
            side = data.draw(st.sampled_from(["both", "lower", "none"]))
            lo, hi = sorted((bound(), bound()))
            if side != "none":
                rows.append((_unit(n, v), GE, lo))
            if side == "both":
                rows.append((_unit(n, v), LE, hi))
        _assert_same_as_fraction_simplex(n, rows)
        return
    inst = random_instance(data.draw(st.integers(min_value=1, max_value=3)),
                           data.draw(st.integers(min_value=0, max_value=10**6)), max_cells=3)
    table = CellTable(inst.valuations, inst.entitlements, FULL_CAKE)
    k = data.draw(st.sampled_from([2, 4]) if shape == "splitter" else
                  st.integers(min_value=1, max_value=4))
    cells = sorted(data.draw(st.integers(min_value=0, max_value=table.cells - 1))
                   for _ in range(k))
    if shape == "splitter":
        rows = _splitter_system(table, cells, data.draw(st.booleans()))
    else:
        owners = [data.draw(st.integers(min_value=0, max_value=inst.n - 1))
                  for _ in range(k + 1)]
        rows = bounds._oracle_system(table, cells, owners)
    _assert_same_as_fraction_simplex(k, rows)


# ---- ties and rescaling in the integer ratio test


def _pivots(n, rows):
    """The pivots made, as (leaving row, entering column), after checking
    that both simplexes make them at the same points."""
    _assert_same_as_fraction_simplex(n, rows)
    return [(leave, enter) for leave, enter, _ in _run_with(_CheckedTableau, n, rows)[2]]


@pytest.mark.parametrize("first, second", [
    ((-2, 1, -1), (-4, 1, -2)),
    ((-4, 1, -2), (-2, 1, -1)),
])
def test_rows_tied_in_unlike_terms_leave_by_lowest_column(first, second):
    """x1 <= 1 starts at its bound, and minimizing it drains both slacks at
    x1 = 1/2: the ratio test sees the steps 1/2 and 2/4, which tie, so the
    row with the lower basic column, row 0, leaves in either order."""
    rows = [((1, 0), LE, 1), ((0, 1), GE, 0),
            ((first[0], first[1]), LE, first[2]), ((second[0], second[1]), LE, second[2])]
    assert _pivots(2, rows)[0] == (0, 0)
    assert solve_feasibility(2, rows) == (F(1, 2), F(0))


@pytest.mark.parametrize("top, first_pivot", [
    # the flip to x1 = 1/2 ties the row's step 2/2; the flip wins, and x2
    # then replaces the artificial, which sits at zero
    (F(1, 2), (0, 1)),
    # the row's step 1/2 is strictly shorter than the flip to x1 = 1
    (F(1), (0, 0)),
])
def test_bound_flip_wins_a_tied_step(top, first_pivot):
    """Phase 1 raises x1 from 0 against 2 x1 + x2 >= 1, whose artificial
    reaches zero at x1 = 1/2."""
    rows = [((1, 0), GE, 0), ((1, 0), LE, top), ((0, 1), GE, 0), ((2, 1), GE, 1)]
    assert _pivots(2, rows)[0] == first_pivot
    assert solve_feasibility(2, rows) == (F(0), F(1))


def test_common_denominator_grows_then_shrinks():
    """Bounds over 999979 and 524287 put the start over their product; the
    first step, phase 1 raising x1 to 1/3, divides by 3, and fixing x2 at 0
    drops the bound over 524287, so the point ends over 3 * 999979."""
    rows = [((1, 0), GE, F(1, 999_979)), ((0, 1), LE, F(5, 524_287)),
            ((0, 1), GE, 0), ((3, -1), GE, 1)]
    dens = []

    class Tracking(_CheckedTableau):
        def __init__(self, lo, hi, rows):
            super().__init__(lo, hi, rows)
            dens.append(self.den)

        def _step(self, enter, num, q, touched):
            super()._step(enter, num, q, touched)
            dens.append(self.den)

        def fix_optimal_face(self, costs):
            super().fix_optimal_face(costs)
            dens.append(self.den)

    with patch.object(feasibility, "_Tableau", Tracking):
        witness = solve_feasibility(2, rows)
    assert witness == (F(1, 3), F(0))
    assert dens[0] == 999_979 * 524_287
    assert max(dens) == 3 * dens[0]
    assert dens[-1] == 3 * 999_979
    _assert_same_as_fraction_simplex(2, rows)
