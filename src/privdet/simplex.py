"""Dense two-phase primal simplex with Bland's rule.

The linear programs in this package are tiny (at most a few thousand
variables) and are re-solved inside seeded optimization loops, so a
deterministic exact-pivot solver is worth more than raw speed.  Bland's
rule guarantees termination; all tie-breaks are by lowest index.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Phase 1 (and driving the artificials out of the basis) depends only on the
constraints, never on ``c``.  The block-coordinate loops solve
the same constraint set many times with different costs, so the solver
keeps the feasible start of the last phase 1, read-only, and a repeat
solve of the same constraints runs phase 2 from a copy of it.  The result
is bit for bit what a cold solve gives.  Keep phase 1 independent of ``c``:
the kept start is only correct while it is.

The cost row is the tableau's last row, and a pivot is one rank-one update
of the whole tableau: the update of the cold solver in the tests.
"""

from __future__ import annotations

import dataclasses

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
    pivots: int  # pivots made by this call (phase 2 alone when the start was kept)


# (key, start) of the last phase 1: start is the read-only phase-2 tableau
# and basis, or the message of the LPInfeasible it raised.
_kept: tuple | None = None


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LPResult:
    """Minimize c.x over {A_ub x <= b_ub, A_eq x = b_eq, x >= 0}.

    Raises LPInfeasible / LPUnbounded; otherwise returns a primal-feasible
    basic solution within ``LP_TOL`` of the optimum.

    Phase 1 depends only on the constraints.  When they are exactly those
    of the previous call that reached phase 1, its feasible
    basis is reused (or its infeasibility raised again) and only phase 2
    runs; ``x`` and ``objective`` are bitwise what a cold solve gives.
    """
    global _kept
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    if a_ub.shape != (b_ub.shape[0], n) or a_eq.shape != (b_eq.shape[0], n):
        raise ValueError("constraint shapes do not match the cost vector")

    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    if m == 0:
        # Pure sign-constrained problem: optimum at zero unless some cost
        # coefficient is negative, in which case it is unbounded.
        if np.any(c < -LP_TOL):
            raise LPUnbounded("no constraints and a negative cost coefficient")
        return LPResult(np.zeros(n), 0.0, 0)

    # Columns: n structural, m_ub slacks, then one artificial per row that
    # needs it.  Rows are normalized to b >= 0 first.
    a = np.hstack([np.vstack([a_ub, a_eq]), np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])])
    b = np.concatenate([b_ub, b_eq]).astype(float)
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    key = (m_ub, a.shape, a.tobytes(), b.tobytes())
    if _kept is not None and _kept[0] == key:
        start, pivots = _kept[1], 0
    else:
        try:
            tableau, basis, pivots = _phase_one(a, b, neg, n, m_ub)
            tableau.setflags(write=False)
            basis.setflags(write=False)
            start = (tableau, basis)
        except LPInfeasible as exc:
            start = str(exc)
        _kept = (key, start)
    if isinstance(start, str):
        raise LPInfeasible(start)
    rows, basis = start[0], start[1].copy()

    # Phase 2 on structural + slack columns only.
    cost2 = np.concatenate([c, np.zeros(m_ub)])
    tableau = np.vstack([rows, _canonical_cost(cost2, rows, basis)])
    _, phase2 = _iterate(tableau, basis, n + m_ub)

    x = np.zeros(n + m_ub)
    x[basis] = tableau[:-1, -1]
    x = x[:n]
    return LPResult(x, float(c @ x), pivots + phase2)


def _phase_one(a, b, neg, n, m_ub):
    """Feasible start of the normalized constraints: (tableau, basis, pivots).

    The tableau holds the structural and slack columns and the right-hand
    side (no cost row), with the rows whose artificial stayed basic dropped.
    """
    m = a.shape[0]
    basis = np.empty(m, dtype=int)
    needs_art = []
    for i in range(m):
        slack_ok = i < m_ub and not neg[i]
        if slack_ok:
            basis[i] = n + i
        else:
            needs_art.append(i)
    n_art = len(needs_art)
    art_cols = np.zeros((m, n_art))
    for k, i in enumerate(needs_art):
        art_cols[i, k] = 1.0
        basis[i] = n + m_ub + k
    tableau = np.hstack([a, art_cols, b[:, None]])
    total = n + m_ub + n_art

    pivots = 0
    if n_art:
        cost1 = np.zeros(total)
        cost1[n + m_ub:] = 1.0
        tableau = np.vstack([tableau, _canonical_cost(cost1, tableau, basis)])
        obj1, pivots = _iterate(tableau, basis, total)
        if obj1 > FEAS_TOL:
            raise LPInfeasible(f"phase-1 optimum {obj1:.3e} > 0")
        pivots += _drive_out_artificials(tableau, basis, n + m_ub)

    keep = n + m_ub
    live_rows = [i for i in range(m) if basis[i] < keep]
    return tableau[live_rows][:, list(range(keep)) + [total]], basis[live_rows], pivots


def _canonical_cost(cost: np.ndarray, tableau: np.ndarray, basis: np.ndarray) -> np.ndarray:
    row = np.concatenate([cost, [0.0]])
    for i, j in enumerate(basis):
        if abs(row[j]) > 0:
            row -= row[j] * tableau[i]
    return row


def _iterate(tableau, basis, n_cols):
    """Run Bland-rule pivots on a tableau whose last row is the cost row
    until optimal; returns (objective, pivots).

    Entering: lowest-index column with a negative reduced cost.  Leaving:
    among the minimum-ratio rows, the one holding the lowest-index basis
    variable.  Bland's rule is what guarantees termination on the highly
    degenerate programs produced by the ratio-budget polytopes (whose
    right-hand sides are mostly zero).
    """
    cost_row = tableau[-1]
    max_pivots = 50000 + 200 * (tableau.shape[0] - 1 + n_cols)
    for pivots in range(max_pivots):
        improving = cost_row[:n_cols] < -LP_TOL
        entering = int(np.argmax(improving))
        if not improving[entering]:
            return -cost_row[-1], pivots
        col = tableau[:-1, entering]
        rows = np.flatnonzero(col > PIVOT_EPS)
        if rows.size == 0:
            raise LPUnbounded(f"column {entering} is unbounded")
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        ties = rows[ratios <= ratios.min() + 1e-12]
        leaving = int(ties[np.argmin(basis[ties])])
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
    raise LPError("pivot limit exceeded")


def _pivot(tableau, row, col):
    """Gauss-Jordan step as one rank-one update; the pivot row subtracts zero
    times itself, which turns its -0.0 entries into +0.0."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]


def _drive_out_artificials(tableau, basis, n_real):
    """Pivot basic artificials onto real columns; returns the pivots made.

    Redundant rows stay put (they are dropped by the caller when still
    artificial-basic), and so is the phase-1 cost row, the last.
    """
    pivots = 0
    for i in range(tableau.shape[0] - 1):
        if basis[i] >= n_real:
            for j in range(n_real):
                if abs(tableau[i, j]) > LP_TOL:
                    _pivot(tableau, i, j)
                    basis[i] = j
                    pivots += 1
                    break
    return pivots
