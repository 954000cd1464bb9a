"""Dense two-phase primal simplex with Bland's rule.

The linear programs in this package are tiny (at most a few thousand
variables) and are re-solved inside seeded optimization loops, so a
deterministic exact-pivot solver is worth more than raw speed.  Bland's
rule guarantees termination; all tie-breaks are by lowest index.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

``solve_lp`` is a pure function.  Phase 1 (and driving the artificials out
of the basis) depends only on the constraints, never on ``c``, so a caller
that solves many programs over one constraint set runs it once with
``phase_one`` and passes the result as ``start``.  A program with exactly
the start's rows then runs phase 2 from a copy of it, bit for bit as a cold
solve would.  So does one that adds <= rows with b >= 0 below them (EPIC's
adversary rows under the local-budget polytope): such a row starts with its
slack basic, so while it never leaves the basis it changes no other row,
and ``_extended`` carries it through the logged pivots on its own.  A
carried row that would enter a ratio tie, or an added row with b < 0, falls
back to a cold phase 1; a start of other rows is a ValueError.  Keep phase
1 independent of ``c``: a start is only correct while it is.

The cost row is the tableau's last row, and a pivot is one rank-one update
of the whole tableau: the update of the cold solver in the tests.  A pivot
is a fixed handful of numpy calls on whole rows and columns, none on index
lists: the ratio test divides into a buffer of NaN, and Bland's leaving row
is one ``argmin`` over the basis masked to the ties.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

PIVOT_EPS = 1e-10
FEAS_TOL = 1e-8
#: reduced costs above -LP_TOL count as optimal; an artificial leaves only on a larger pivot
LP_TOL = 1e-9


class LPError(Exception):
    """Base class for solver failures."""


class LPInfeasible(LPError):
    """The constraint set is empty."""


class LPUnbounded(LPError):
    """The objective decreases without bound over the feasible set."""


@dataclasses.dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    objective: float
    pivots: int  # pivots made by this call (phase 2 alone when served from ``start``)


@dataclasses.dataclass(frozen=True)
class PhaseOne:
    """A read-only feasible start of ``program`` = (a_ub, b_ub, a_eq, b_eq): see ``_phase_one``."""

    program: tuple
    tableau: np.ndarray  # phase 2's rows, no cost row
    basis: np.ndarray
    n_art: int  # artificial columns
    live_ub: int  # <= rows the tableau kept
    pivots: tuple  # (entering column, normalized pivot row, ratio-tie threshold) per pivot


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, start=None) -> LPResult:
    """Minimize c.x over {A_ub x <= b_ub, A_eq x = b_eq, x >= 0}.

    Raises LPInfeasible / LPUnbounded; otherwise returns a primal-feasible
    basic solution within ``LP_TOL`` of the optimum.  ``start``, the
    ``phase_one`` of the equality rows and the leading <= rows, skips phase
    1 where it can, bit for bit.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub, b_ub, a_eq, b_eq = _program(n, a_ub, b_ub, a_eq, b_eq)
    served = None if start is None else _served(start, a_ub, b_ub, a_eq, b_eq)

    m_ub = a_ub.shape[0]
    if m_ub + a_eq.shape[0] == 0:
        # Pure sign-constrained problem: optimum at zero unless some cost
        # coefficient is negative, in which case it is unbounded.
        if np.any(c < -LP_TOL):
            raise LPUnbounded("no constraints and a negative cost coefficient")
        return LPResult(np.zeros(n), 0.0, 0)

    pivots = []
    rows, basis = served if served is not None else _phase_one(a_ub, b_ub, a_eq, b_eq, pivots)[:2]
    basis = basis.copy()

    # Phase 2 on structural + slack columns only.
    cost2 = np.concatenate([c, np.zeros(m_ub)])
    tableau = np.vstack([rows, _canonical_cost(cost2, rows, basis)])
    _iterate(tableau, basis, n + m_ub, pivots)

    x = np.zeros(n + m_ub)
    x[basis] = tableau[:-1, -1]
    x = x[:n]
    return LPResult(x, float(c @ x), len(pivots))


def phase_one(a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> PhaseOne:
    """The read-only ``PhaseOne`` of a constraint set; LPInfeasible when the set is empty."""
    n = next(np.shape(a)[-1] for a in (a_ub, a_eq) if a is not None)
    program = tuple(np.array(arr) for arr in _program(n, a_ub, b_ub, a_eq, b_eq))
    pivots = []
    tableau, basis, n_art, live_ub = _phase_one(*program, pivots)
    for arr in (*program, tableau, basis, *(prow for _, prow, _ in pivots)):
        arr.setflags(write=False)
    return PhaseOne(program, tableau, basis, n_art, live_ub, tuple(pivots))


def _program(n, a_ub, b_ub, a_eq, b_eq):
    """The constraints as float arrays over n variables, None read as no rows."""
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    if a_ub.shape != (b_ub.shape[0], n) or a_eq.shape != (b_eq.shape[0], n):
        raise ValueError("constraint shapes do not match the cost vector")
    return a_ub, b_ub, a_eq, b_eq


def _served(start, a_ub, b_ub, a_eq, b_eq):
    """``start``'s phase-2 tableau and basis, extended by the program's added <= rows, or None
    (phase 1 runs cold); ValueError unless the program begins with its rows bit for bit."""
    start_ub, start_bub, start_eq, start_beq = start.program
    k = start_ub.shape[0]
    pairs = ((a_ub[:k], start_ub), (b_ub[:k], start_bub), (a_eq, start_eq), (b_eq, start_beq))
    if not all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs):
        raise ValueError("the start is not a phase_one of this program's leading rows")
    if k == a_ub.shape[0]:
        return start.tableau, start.basis
    return _extended(start, a_ub[k:], b_ub[k:]) if np.all(b_ub[k:] >= 0) else None


def _phase_one(a_ub, b_ub, a_eq, b_eq, pivots):
    """Cold phase 1: ``PhaseOne``'s (tableau, basis, n_art, live_ub), its pivots appended to
    ``pivots``.  The tableau drops the rows whose artificial stayed basic."""
    (m_ub, n), m_eq = a_ub.shape, a_eq.shape[0]
    # Columns: n structural, m_ub slacks, then one artificial per row that
    # needs it.  Rows are normalized to b >= 0 first.
    a = np.hstack([np.vstack([a_ub, a_eq]), np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])])
    b = np.concatenate([b_ub, b_eq])
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    m = m_ub + m_eq
    needs_art = np.flatnonzero(neg | (np.arange(m) >= m_ub))
    n_art = needs_art.size
    basis = n + np.arange(m)
    basis[needs_art] = n + m_ub + np.arange(n_art)
    art_cols = np.zeros((m, n_art))
    art_cols[needs_art, np.arange(n_art)] = 1.0
    tableau = np.hstack([a, art_cols, b[:, None]])
    total = n + m_ub + n_art

    if n_art:
        cost1 = np.zeros(total)
        cost1[n + m_ub:] = 1.0
        tableau = np.vstack([tableau, _canonical_cost(cost1, tableau, basis)])
        obj1 = _iterate(tableau, basis, total, pivots)
        if obj1 > FEAS_TOL:
            raise LPInfeasible(f"phase-1 optimum {obj1:.3e} > 0")
        _drive_out_artificials(tableau, basis, n + m_ub, pivots)

    keep = n + m_ub
    live_rows = [i for i in range(m) if basis[i] < keep]
    return (tableau[live_rows][:, list(range(keep)) + [total]], basis[live_rows],
            n_art, sum(i < m_ub for i in live_rows))


def _extended(start, a_add, b_add):
    """``start``'s tableau and basis with <= rows (b >= 0) added below its own, or None.

    Each added row is carried through the logged pivots on its own, by the
    cold solve's rank-one updates.  None when a carried row would have
    entered a pivot's ratio tie (the cold path may differ there).
    """
    tableau, basis, pivots = start.tableau, start.basis, start.pivots
    (n_add, n), m_ub = a_add.shape, start.program[0].shape[0]
    rows = np.hstack([a_add, np.zeros((n_add, m_ub + start.n_art)), b_add[:, None]])
    factors, rhs = np.empty((2, len(pivots), n_add))  # the entering column and b before each pivot
    for k, (col, prow, _) in enumerate(pivots):
        factors[k], rhs[k] = rows[:, col], rows[:, -1]
        rows -= factors[k, :, None] * prow
    thresholds = np.broadcast_to(np.array([t for *_, t in pivots])[:, None], factors.shape)
    cand = factors > PIVOT_EPS
    if np.any(np.maximum(rhs[cand], 0.0) / factors[cand] <= thresholds[cand]):
        return None
    keep, live_ub = n + m_ub, start.live_ub
    old = np.hstack([tableau[:, :keep], np.zeros((tableau.shape[0], n_add)), tableau[:, -1:]])
    added = np.hstack([rows[:, :keep], np.eye(n_add), rows[:, -1:]])
    return (np.vstack([old[:live_ub], added, old[live_ub:]]),
            np.concatenate([basis[:live_ub], keep + np.arange(n_add), basis[live_ub:]]))


def _canonical_cost(cost: np.ndarray, tableau: np.ndarray, basis: np.ndarray) -> np.ndarray:
    row = np.concatenate([cost, [0.0]])
    for i, j in enumerate(basis):
        if abs(row[j]) > 0:
            row -= row[j] * tableau[i]
    return row


def _iterate(tableau, basis, n_cols, pivots):
    """Run Bland-rule pivots on a tableau whose last row is the cost row
    until optimal; returns the objective.

    Entering: lowest-index column with a negative reduced cost.  Leaving:
    among the minimum-ratio rows, the one holding the lowest-index basis
    variable.  Bland's rule is what guarantees termination on the highly
    degenerate programs produced by the ratio-budget polytopes (whose
    right-hand sides are mostly zero).  Each pivot is appended to ``pivots``
    as (entering column, normalized pivot row, ratio-tie threshold).  A row
    whose entry in the entering column is at most PIVOT_EPS has ratio NaN,
    which ``fmin`` skips and no tie test takes; a column of such rows only
    is unbounded.
    """
    cost_row, body, rhs = tableau[-1], tableau[:-1], tableau[:-1, -1]
    ratios, no_tie = np.empty(body.shape[0]), tableau.shape[1]
    max_pivots = 50000 + 200 * (body.shape[0] + n_cols)
    for _ in range(max_pivots):
        entering = int((cost_row[:n_cols] < -LP_TOL).argmax())
        if not cost_row[entering] < -LP_TOL:
            return -cost_row[-1]
        col = body[:, entering]
        ratios.fill(np.nan)
        np.divide(np.maximum(rhs, 0.0), col, out=ratios, where=col > PIVOT_EPS)
        threshold = np.fmin.reduce(ratios) + 1e-12
        if math.isnan(threshold):
            raise LPUnbounded(f"column {entering} is unbounded")
        leaving = int(np.where(ratios <= threshold, basis, no_tie).argmin())
        pivots.append((entering, _pivot(tableau, leaving, entering), threshold))
        basis[leaving] = entering
    raise LPError("pivot limit exceeded")


def _pivot(tableau, row, col):
    """Gauss-Jordan step as one rank-one update; returns the normalized pivot row.

    The pivot row subtracts -0.0, which turns its -0.0 entries into +0.0,
    as subtracting zero times itself does in the cold solver's update.
    """
    prow = tableau[row] / tableau[row, col]
    tableau[row] = prow
    update = tableau[:, col, None] * prow
    update[row] = -0.0
    tableau -= update
    return prow


def _drive_out_artificials(tableau, basis, n_real, pivots):
    """Pivot basic artificials onto real columns, appending each pivot to
    ``pivots`` as (column, normalized pivot row, -inf: no ratio test).

    Redundant rows stay put (they are dropped by the caller when still
    artificial-basic), and so is the phase-1 cost row, the last.
    """
    for i in range(tableau.shape[0] - 1):
        if basis[i] >= n_real:
            for j in range(n_real):
                if abs(tableau[i, j]) > LP_TOL:
                    pivots.append((j, _pivot(tableau, i, j), -np.inf))
                    basis[i] = j
                    break
