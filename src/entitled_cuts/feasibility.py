"""Exact linear feasibility over the unit box, with deterministic witnesses.

The solver answers "is this system of linear constraints satisfiable with
every variable in [0, 1]?" and, when it is, produces the lexicographically
minimal solution (minimize x1, then x2 subject to that minimum, and so
on).  The unit box is the domain, not a set of rows: the splitter and the
oracle write their systems in cell coordinates, where every cut is a
t in [0, 1], so they send only their value and ordering rows.  All
arithmetic is exact; there is no tolerance anywhere.

Each row is scaled once to plain integers, by the positive lcm of the
denominators of its numbers, which keeps its solution set.  Each system is
then reduced once, over the integers.  Equality constraints are eliminated
fraction-free (after Bareiss 1968) with the simplex's own row update
(below): a row is a sparse dict of ints that keeps its right-hand side
under one more key, a solved variable is kept as den * x_v + row . x = rhs
with den > 0, and substituting a solved variable into a row, or a new
pivot into an earlier solution, is one cross-multiplication and one gcd
reduction.  So equalities that contradict each other are refuted without
building a single rational.
This leaves integer inequalities over the remaining free variables.  Each
free variable starts with the box's bounds 0 and 1, and each eliminated
variable's box 0 <= x_v <= 1 becomes two inequalities over the free ones.
An inequality that touches a single free variable tightens a bound on it,
kept as a (numerator, positive denominator) pair, and the tighter bound on
each side wins by cross-multiplication.  Only inequalities over two or
more free variables stay as rows (in the systems the splitter and the
oracle build, the value rows and the ordering rows); each gets a slack
variable bounded below by zero.

What is left goes to a bounded-variable exact simplex.  Every column is
either basic or non-basic at one of its bounds; every column has a lower
bound, and only slacks and artificials lack an upper one.  A step may move
the entering column from one bound to the other without a basis change.
Rows are ints over a positive denominator each (after Edmonds 1967); a
pivot updates the rows that hold the entering column by
cross-multiplication and one gcd reduction, and reduced costs are ints up
to a positive factor, as only their signs are read.  The point and the
bounds are ints over one common denominator.  The ratio test compares
steps as integer pairs by cross-multiplication, so it breaks every tie as
a comparison of rationals would.  Before a step moves the point, the
common denominator grows by the least factor that keeps every moved value
an int; after it, the point, the bounds and the denominator are divided by
their gcd.  Bland's rule (the lowest eligible column enters, the lowest
column leaves among tied rows) keeps the method from cycling.
Phase 1 starts every free variable at its lower bound and gives each row
whose slack starts negative an artificial column; the system is feasible
exactly when the artificials can all reach zero.

The lexicographic minimum is taken on the same tableau by successive
objectives, each warm-started from the previous optimal basis: minimize
x1, which is a column or, for an eliminated variable, the affine expression
it was replaced by; then fix at its current value every non-basic column
with a non-zero reduced cost, which leaves exactly the set of minimizers;
then go on to x2.  Over the box every objective is bounded, and after the
last step the point is unique.  It is read out as Fractions once, for the
witness and its exact re-check against every row and the box.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import InternalCheckFailed
from .model import ZERO, as_rational

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)
# the key under which an eliminated row keeps its right-hand side, if non-zero
_RHS = -1


def _normalize(num_vars: int, constraints: Iterable) -> list:
    """Rows (coeffs, relation, rhs) over plain ints, with the relation one
    of <=, = and >=.

    A row holding anything but ints is coerced to exact rationals (floats
    raise TypeError) and multiplied by the positive lcm of their
    denominators, which keeps its solution set.
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    rows = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != num_vars:
            raise ValueError(f"constraint has {len(coeffs)} coefficients, expected {num_vars}")
        if rel not in _RELATIONS:
            raise ValueError(f"relation must be one of {_RELATIONS}, got {rel!r}")
        # the enumeration loops pass ints only, so the type test spares them
        # the scaling
        if {*map(type, coeffs), type(rhs)} != {int}:
            row = [q if type(q) is int or type(q) is Fraction else as_rational(q)
                   for q in (*coeffs, rhs)]
            scale = lcm(*(q.denominator for q in row))
            *coeffs, rhs = [q.numerator * (scale // q.denominator) for q in row]
        rows.append((coeffs, rel, rhs))
    return rows


def _reduced(expr: dict, *rest: int) -> tuple:
    """Divide an integer row (its coefficients and the numbers in ``rest``)
    by the gcd of all of them; returns (expr, *rest)."""
    g = gcd(*rest, *expr.values())
    if g > 1:
        expr = {k: c // g for k, c in expr.items()}
        rest = tuple(q // g for q in rest)
    return (expr, *rest)


def _eliminate_equalities(num_vars: int, rows: Sequence) -> Optional[tuple]:
    """Substitute equalities away, over the integers.

    Returns (free_vars, ineqs, solved) where ``solved`` maps an eliminated
    variable v to (den, row) with den > 0 and

        den * x_v + sum(row[k] * x_k) = row[_RHS]

    over the free variables k, and ``ineqs`` are rows
    sum(row[k] * x_k) <= row[_RHS] touching free variables only, a missing
    right-hand side meaning 0.  Returns None if the equalities alone are
    inconsistent.
    """
    solved: dict[int, tuple[int, dict[int, int]]] = {}

    def substitute(coeffs, rhs):
        """Rewrite  coeffs . x (rel) rhs  as a row over the not-yet-eliminated
        variables, up to a positive factor."""
        row = {j: c for j, c in enumerate(coeffs) if c}
        # _eliminate needs rows without zero entries, right-hand side included
        if rhs:
            row[_RHS] = rhs
        hits = [j for j in row if j in solved]
        for j in hits:
            den, s_row = solved[j]
            _eliminate(row, j, s_row, den, 0)
        return row if hits else _reduced(row)[0]

    for coeffs, rel, rhs in rows:
        if rel != EQ:
            continue
        row = substitute(coeffs, rhs)
        pivot = min((k for k in row if k != _RHS), default=None)
        if pivot is None:
            if row:
                return None
            continue
        den = row.pop(pivot)
        if den < 0:
            den, row = -den, {k: -c for k, c in row.items()}
        # den * x_pivot + row . x = row[_RHS]; put it into every earlier solution
        for var, (s_den, s_row) in solved.items():
            if pivot in s_row:
                solved[var] = (_eliminate(s_row, pivot, row, den, s_den), s_row)
        solved[pivot] = (den, row)

    free = [j for j in range(num_vars) if j not in solved]
    ineqs = []
    for coeffs, rel, rhs in rows:
        if rel != EQ:
            row = substitute(coeffs, rhs)
            ineqs.append(row if rel == LE else {k: -c for k, c in row.items()})
    return free, ineqs, solved


class _Tableau:
    """Bounded-variable simplex state over columns 0..len(free)-1 (the free
    variables, in order), then per row its slack and, if the row starts
    violated, an artificial column.

    Row r is  dens[r] * x[basis[r]] + sum(rows[r][j] * x[j]) = const  over
    the non-basic, non-fixed columns j, in ints with dens[r] > 0 and gcd 1;
    ``x`` holds every column's value, so the constant is never needed.
    The point and the bounds are ints over one common denominator ``den``:
    column j sits at x[j] / den, between lo[j] / den and hi[j] / den.
    Every column has a lower bound; hi[j] is None only for the slacks and
    the artificials, which have no upper one.  den > 0, and den, the point
    and the finite bounds have gcd 1.
    """

    def __init__(self, lo: list, hi: list, rows: list):
        """``lo``/``hi`` hold each free variable's bounds as (numerator,
        positive denominator) pairs in lowest terms; ``rows`` hold
        (expr, rhs) for  expr . x <= rhs  over the free variables.  Each
        free variable starts at its lower bound."""
        den = lcm(*(b[1] for b in (*lo, *hi)))
        lo = [n * (den // d) for n, d in lo]
        hi = [n * (den // d) for n, d in hi]
        x = lo[:]
        self.x, self.lo, self.hi, self.den = x, lo, hi, den
        self.rows, self.dens, self.basis, self.artificials = [], [], [], []
        fixed = {j for j, l in enumerate(lo) if l == hi[j]}
        for expr, rhs in rows:
            level = rhs * den - sum(c * x[j] for j, c in expr.items())
            row = {j: c for j, c in expr.items() if j not in fixed}
            x.append(max(level, 0))
            if level < 0:
                # the slack starts at zero and an artificial takes the shortfall
                row = {j: -c for j, c in row.items()}
                row[len(x) - 1] = -1
                self.artificials.append(len(x))
                x.append(-level)
            self.basis.append(len(x) - 1)
            self.rows.append(row)
            self.dens.append(1)
        lo += [0] * (len(x) - len(lo))
        hi += [None] * (len(x) - len(hi))

    def _fixed(self, j: int) -> bool:
        return self.lo[j] == self.hi[j]

    def phase1(self) -> bool:
        """Drive the artificials to zero; False if the system is infeasible.
        Afterwards the artificials are fixed at zero."""
        if not self.artificials:
            return True
        if not self.optimize(self.reduced_costs({a: 1 for a in self.artificials})):
            raise InternalCheckFailed("phase 1 of the simplex reported an unbounded sum of artificials")
        if any(self.x[a] for a in self.artificials):
            return False
        for a in self.artificials:
            self.hi[a] = 0
        self._drop_fixed(self.artificials)
        return True

    def reduced_costs(self, objective: dict) -> dict:
        """Reduced costs of  sum(objective[j] * x[j])  at the current basis,
        for an integer objective, up to a positive factor."""
        row_of = {b: r for r, b in enumerate(self.basis)}
        scale = lcm(*(self.dens[row_of[j]] for j in objective if j in row_of))
        costs: dict[int, int] = {}
        for j, c in objective.items():
            r = row_of.get(j)
            if r is not None:
                f = c * (scale // self.dens[r])
                for k, a in self.rows[r].items():
                    costs[k] = costs.get(k, 0) - f * a
            elif not self._fixed(j):
                costs[j] = costs.get(j, 0) + c * scale
        return _reduced({j: c for j, c in costs.items() if c})[0]

    def optimize(self, costs: dict) -> bool:
        """Minimize from the current basis; ``costs`` holds the non-zero
        reduced costs and is kept current.  False means unbounded below."""
        x, lo, hi, rows, dens, basis = self.x, self.lo, self.hi, self.rows, self.dens, self.basis
        while True:
            enter = -1
            for j in sorted(costs):
                if costs[j] < 0:
                    if hi[j] is None or x[j] < hi[j]:
                        enter, up = j, True
                        break
                elif x[j] > lo[j]:
                    enter, up = j, False
                    break
            if enter < 0:
                return True
            # the step is num / q in units of 1 / den, q > 0, and q == 0 while
            # there is none; bound flip first, and a row replaces it only on a
            # strictly shorter step
            num = q = 0
            if up and hi[enter] is not None:
                num, q = hi[enter] - x[enter], 1
            elif not up:
                num, q = x[enter] - lo[enter], 1
            leave = -1
            touched = []
            for r, row in enumerate(rows):
                a = row.get(enter)
                if a is None:
                    continue
                touched.append((r, a))
                b = basis[r]
                # x[b] moves by -a / dens[r] per unit increase of x[enter]
                bound = hi[b] if (a < 0) == up else lo[b]
                if bound is None:
                    continue
                room, per = abs(bound - x[b]) * dens[r], abs(a)
                if not q or room * q < num * per or (
                    room * q == num * per and leave >= 0 and b < basis[leave]
                ):
                    num, q, leave = room, per, r
            if not q:
                return False
            if num:
                self._step(enter, num if up else -num, q, touched)
            if leave >= 0:
                self._pivot(leave, enter, touched, costs)

    def _step(self, enter: int, num: int, q: int, touched: list) -> None:
        """Move column ``enter`` by num / q in units of 1 / den, q > 0, and
        the basic column of each (row, entry) pair in ``touched`` with it.
        den first grows by the least factor that keeps every moved value an
        int; then the point, the bounds and den are divided by their gcd."""
        x, dens, basis = self.x, self.dens, self.basis
        g = gcd(num, q)
        num, q = num // g, q // g
        m = q
        for r, a in touched:
            d = q * dens[r]
            m = lcm(m, d // gcd(d, a * num))
        if m > 1:
            self._rescale(m, 1)
        delta = num * (m // q)
        x[enter] += delta
        for r, a in touched:
            x[basis[r]] -= a * delta // dens[r]
        # the gcd of all divides that of den and the moved values, mostly 1
        if gcd(self.den, x[enter], *(x[basis[r]] for r, _ in touched)) > 1:
            self._reduce()

    def _rescale(self, m: int, g: int) -> None:
        """Put the point and the bounds over den * m / g, for a g that
        divides den * m and every scaled value."""
        self.den = self.den * m // g
        for values in (self.x, self.lo, self.hi):
            values[:] = [None if v is None else v * m // g for v in values]

    def _reduce(self) -> None:
        """Divide the point, the bounds and den by their gcd."""
        g = gcd(self.den, *self.x, *(v for v in (*self.lo, *self.hi) if v is not None))
        if g > 1:
            self._rescale(1, g)

    def _pivot(self, leave: int, enter: int, touched: list, costs: dict) -> None:
        rows, dens, basis = self.rows, self.dens, self.basis
        out, row = basis[leave], rows[leave]
        # dens * x[out] + row . x + p * x[enter] = const, solved for x[enter]
        p = row.pop(enter)
        if not self._fixed(out):
            row[out] = dens[leave]
        new, p = _reduced(row if p > 0 else {j: -c for j, c in row.items()}, abs(p))
        rows[leave], dens[leave], basis[leave] = new, p, enter
        for r, _ in touched:
            if r != leave:
                dens[r] = _eliminate(rows[r], enter, new, p, dens[r])
        if enter in costs:
            _eliminate(costs, enter, new, p, 0)

    def _drop_fixed(self, columns: Iterable[int]) -> None:
        """Forget non-basic columns that can no longer move."""
        for r, row in enumerate(self.rows):
            if [row.pop(j) for j in columns if j in row]:
                self.rows[r], self.dens[r] = _reduced(row, self.dens[r])

    def fix_optimal_face(self, costs: dict) -> None:
        """After optimize(costs): restrict to the minimizers by fixing every
        non-basic column whose reduced cost is non-zero at its value."""
        for j in costs:
            self.lo[j] = self.hi[j] = self.x[j]
        # the bounds replaced may have been all that kept gcd 1
        self._reduce()
        self._drop_fixed(costs)


def _eliminate(target: dict, col: int, new: dict, new_den: int, den: int) -> int:
    """In place, target -= (f / new_den) * new with f its entry in column
    ``col``, by cross-multiplication and one gcd reduction; returns its new
    denominator.  Reduced costs and the rows a solved variable is
    substituted into have none and pass den=0 (gcd ignores it).  Neither
    row may hold a zero entry."""
    f = target.pop(col)
    g = gcd(f, new_den)
    m, f = new_den // g, f // g
    if m != 1:
        for j in target:
            target[j] *= m
    for j, c in new.items():
        v = target.get(j, 0) - f * c
        if v:
            target[j] = v
        else:
            del target[j]
    den *= m
    g = gcd(den, *target.values())
    if g > 1:
        for j in target:
            target[j] //= g
        den //= g
    return den


def _decide(num_vars: int, rows: list) -> Optional[tuple]:
    """Reduce the system once and run phase 1.

    Returns None if the system is infeasible, else (col, solved, tableau):
    col maps each free variable to its column, and the tableau is at a
    feasible basis.
    """
    reduced = _eliminate_equalities(num_vars, rows)
    if reduced is None:
        return None
    free, ineqs, solved = reduced
    col = {v: p for p, v in enumerate(free)}
    # an eliminated variable's box 0 <= x_v <= 1, with den * x_v = rhs - row . x,
    # is  row . x <= rhs  and  -row . x <= den - rhs;  new dicts, as the loop
    # below pops each right-hand side and solve_feasibility reads ``solved``
    box = []
    for den, row in solved.values():
        upper = {k: -c for k, c in row.items()}
        upper[_RHS] = den - row.get(_RHS, 0)
        box += _reduced({**row})[0], _reduced(upper)[0]
    # bounds are (numerator, positive denominator) pairs in lowest terms,
    # as every row is primitive, and are compared by cross-multiplication
    lo = [(0, 1)] * len(free)
    hi = [(1, 1)] * len(free)
    multi = []
    for row in (*box, *ineqs):
        rhs = row.pop(_RHS, 0)
        if len(row) >= 2:
            multi.append(({col[v]: c for v, c in row.items()}, rhs))
        elif row:
            (v, c), = row.items()
            p = col[v]
            # c * x <= rhs: an upper bound rhs / c for c > 0, else the lower
            # bound -rhs / -c
            if c > 0:
                if rhs * hi[p][1] < hi[p][0] * c:
                    hi[p] = (rhs, c)
            elif rhs * lo[p][1] < lo[p][0] * c:
                lo[p] = (-rhs, -c)
        elif rhs < 0:
            return None
    if any(l[0] * h[1] > h[0] * l[1] for l, h in zip(lo, hi)):
        return None
    tableau = _Tableau(lo, hi, multi)
    if not tableau.phase1():
        return None
    return col, solved, tableau


def check_feasible(num_vars: int, constraints: Iterable) -> bool:
    """Decision-only fast path: is the system satisfiable over [0, 1]^num_vars?

    Agrees exactly with solve_feasibility but skips witness construction;
    the enumeration loops in the splitter and the cut oracle live on this.
    """
    return _decide(num_vars, _normalize(num_vars, constraints)) is not None


def solve_feasibility(num_vars: int, constraints: Iterable) -> Optional[tuple[Fraction, ...]]:
    """The lexicographically minimal witness in [0, 1]^num_vars, or None if
    the system is infeasible there.

    The witness minimizes x1 first, then x2 subject to that minimum, and so
    on, which makes repeated calls byte-for-byte reproducible.
    """
    rows = _normalize(num_vars, constraints)
    decided = _decide(num_vars, rows)
    if decided is None:
        return None
    col, solved, tableau = decided
    for var in range(num_vars):
        if var in solved:
            # minimizing x_var is minimizing -row . x, up to the factor 1/den
            objective = {col[v]: -c for v, c in solved[var][1].items() if v != _RHS}
        else:
            objective = {col[var]: 1}
        costs = tableau.reduced_costs(objective)
        if not tableau.optimize(costs):
            raise InternalCheckFailed(
                f"minimizing variable {var + 1} over the unit box is unbounded"
            )
        tableau.fix_optimal_face(costs)
    x = [Fraction(v, tableau.den) for v in tableau.x[:len(col)]]
    witness = []
    for var in range(num_vars):
        if var in solved:
            den, row = solved[var]
            # rest starts as a Fraction, so no int is divided by an int here
            rest = sum((c * x[col[v]] for v, c in row.items() if v != _RHS), ZERO)
            witness.append((row.get(_RHS, 0) - rest) / den)
        else:
            witness.append(x[col[var]])
    for coeffs, rel, rhs in rows:
        lhs = sum((c * w for c, w in zip(coeffs, witness)), ZERO)
        if not (lhs == rhs if rel == EQ else (lhs <= rhs if rel == LE else lhs >= rhs)):
            raise InternalCheckFailed("witness failed exact re-evaluation")
    if not all(0 <= w <= 1 for w in witness):
        raise InternalCheckFailed("witness lies outside the unit box")
    return tuple(witness)
