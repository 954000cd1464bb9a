"""Dense two-phase primal simplex with Bland's rule.

The linear programs in this package are tiny (at most a few thousand
variables) and are re-solved inside seeded optimization loops, so a
deterministic exact-pivot solver is worth more than raw speed.  Bland's
rule guarantees termination; all tie-breaks are by lowest index.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Phase 1 (and driving the artificials out of the basis) depends only on the
constraints, never on ``c``.  The block-coordinate loops solve
the same constraint set many times with different costs, so the solver
keeps the feasible start of the last cold phase 1, read-only, with a log of
its pivots (entering column, normalized pivot row, ratio-tie threshold).
It serves two kinds of program, bit for bit as a cold solve would:

- a repeat of the kept constraints runs phase 2 from a copy of the start;
- the kept equality rows with the kept <= rows followed by more <= rows,
  each with b >= 0 (EPIC's adversary rows under the local-budget
  polytope): such a row starts with its slack basic, so while it never
  leaves the basis it changes no other row, and it is carried through the
  logged pivots on its own.  A carried row that would enter a ratio tie
  falls back to a cold phase 1.

A program that shares only some leading <= rows with the kept one, and adds
<= rows with b >= 0 after them, first moves the kept start back to those
shared rows.  Every other program runs phase 1 cold and is kept.  A solve
served from the kept start, as it is or extended, reports the pivots of
phase 2 (and of a move back's phase 1) alone.  Keep phase 1 independent of
``c``: the kept start is only correct while it is.

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
    pivots: int  # pivots made by this call (phase 2 alone when the start was kept or extended)


# (program, start, log) of the last cold phase 1: read-only copies of
# (a_ub, b_ub, a_eq, b_eq); the read-only phase-2 tableau and basis, or the
# message of the LPInfeasible it raised; and what ``_extended`` carries
# added rows through (None with a message).
_kept: tuple | None = None


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LPResult:
    """Minimize c.x over {A_ub x <= b_ub, A_eq x = b_eq, x >= 0}.

    Raises LPInfeasible / LPUnbounded; otherwise returns a primal-feasible
    basic solution within ``LP_TOL`` of the optimum.

    Phase 1 depends only on the constraints.  A program that repeats the
    kept one, or adds <= rows with b >= 0 to it, starts phase 2 from the
    kept start (see the module docstring); ``x`` and ``objective`` are
    bitwise what a cold solve gives.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    if a_ub.shape != (b_ub.shape[0], n) or a_eq.shape != (b_eq.shape[0], n):
        raise ValueError("constraint shapes do not match the cost vector")

    m_ub = a_ub.shape[0]
    if m_ub + a_eq.shape[0] == 0:
        # Pure sign-constrained problem: optimum at zero unless some cost
        # coefficient is negative, in which case it is unbounded.
        if np.any(c < -LP_TOL):
            raise LPUnbounded("no constraints and a negative cost coefficient")
        return LPResult(np.zeros(n), 0.0, 0)

    start, pivots = _start(a_ub, b_ub, a_eq, b_eq)
    if isinstance(start, str):
        raise LPInfeasible(start)
    rows, basis = start[0], start[1].copy()

    # Phase 2 on structural + slack columns only.
    cost2 = np.concatenate([c, np.zeros(m_ub)])
    tableau = np.vstack([rows, _canonical_cost(cost2, rows, basis)])
    phase2 = []
    _iterate(tableau, basis, n + m_ub, phase2)

    x = np.zeros(n + m_ub)
    x[basis] = tableau[:-1, -1]
    x = x[:n]
    return LPResult(x, float(c @ x), pivots + len(phase2))


def _start(a_ub, b_ub, a_eq, b_eq):
    """(phase-2 start, phase-1 pivots made) of a program: kept, extended or cold.

    A program that shares only some leading <= rows with the kept one, and
    whose other <= rows have b >= 0, first moves the kept start back to
    those shared rows.
    """
    pivots = 0
    k = _shared_ub_rows(a_ub, b_ub, a_eq, b_eq)
    if k is not None and np.all(b_ub[k:] >= 0):
        if 0 < k < _kept[0][0].shape[0]:
            pivots = _keep_phase_one(a_ub[:k], b_ub[:k], a_eq, b_eq)
        if k == _kept[0][0].shape[0]:
            start = _kept[1] if k == a_ub.shape[0] else _extended(a_ub[k:], b_ub[k:])
            if start is not None:
                return start, pivots
    pivots += _keep_phase_one(a_ub, b_ub, a_eq, b_eq)
    return _kept[1], pivots


def _shared_ub_rows(a_ub, b_ub, a_eq, b_eq):
    """How many leading <= rows a program shares bitwise with the kept one.

    None when nothing is kept or the equality rows (and so the variables) differ.
    """
    if _kept is None:
        return None
    kept_ub, kept_bub, kept_eq, kept_beq = _kept[0]
    if (kept_eq.shape != a_eq.shape or kept_eq.tobytes() != a_eq.tobytes()
            or kept_beq.tobytes() != b_eq.tobytes()):
        return None
    m = min(a_ub.shape[0], kept_ub.shape[0])
    same = (_bits(a_ub[:m]) == _bits(kept_ub[:m])).all(axis=1) & (_bits(b_ub[:m]) == _bits(kept_bub[:m]))
    return m if same.all() else int(np.argmin(same))


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


def _keep_phase_one(a_ub, b_ub, a_eq, b_eq) -> int:
    """Run phase 1 cold on a program and keep it with its start and log; returns its pivots."""
    global _kept
    program = tuple(np.array(arr) for arr in (a_ub, b_ub, a_eq, b_eq))
    for arr in program:
        arr.setflags(write=False)
    pivots = []
    try:
        _kept = (program, *_phase_one(*program, pivots))
    except LPInfeasible as exc:
        _kept = (program, str(exc), None)
    return len(pivots)


def _phase_one(a_ub, b_ub, a_eq, b_eq, pivots):
    """Feasible start of the constraints, read-only, and its log: ((tableau, basis), log).

    The tableau holds the structural and slack columns and the right-hand
    side (no cost row), with the rows whose artificial stayed basic dropped.
    Each pivot is appended to ``pivots`` as (entering column, normalized
    pivot row, ratio-tie threshold); the log is (pivots, artificial
    columns, live <= rows).
    """
    (m_ub, n), m_eq = a_ub.shape, a_eq.shape[0]
    # Columns: n structural, m_ub slacks, then one artificial per row that
    # needs it.  Rows are normalized to b >= 0 first.
    a = np.hstack([np.vstack([a_ub, a_eq]), np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])])
    b = np.concatenate([b_ub, b_eq])
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    m = m_ub + m_eq
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
    start = (tableau[live_rows][:, list(range(keep)) + [total]], basis[live_rows])
    for arr in start:
        arr.setflags(write=False)
    return start, (pivots, n_art, sum(i < m_ub for i in live_rows))


def _extended(a_add, b_add):
    """The kept start with <= rows (b >= 0) added below the kept ones, or None.

    In a cold phase 1 such a row starts with its slack basic and changes no
    other row while it never leaves the basis, so it is carried through the
    logged pivots on its own: each is the rank-one update of the cold solve.
    None when the kept program is infeasible, or when a carried row would
    have entered a pivot's ratio tie (the cold path may differ there).
    """
    (kept_ub, *_), start, log = _kept
    if log is None:
        return None
    pivots, n_art, live_ub = log
    (n_add, n), m_ub = a_add.shape, kept_ub.shape[0]
    rows = np.hstack([a_add, np.zeros((n_add, m_ub + n_art)), b_add[:, None]])
    seen = np.empty((len(pivots), 2, n_add))  # the entering column and b before each pivot
    for k, (col, prow, _) in enumerate(pivots):
        seen[k] = rows[:, col], rows[:, -1]
        rows -= seen[k, 0, :, None] * prow
    factors, rhs = seen[:, 0], seen[:, 1]
    thresholds = np.broadcast_to(np.array([t for *_, t in pivots])[:, None], factors.shape)
    cand = factors > PIVOT_EPS
    if np.any(np.maximum(rhs[cand], 0.0) / factors[cand] <= thresholds[cand]):
        return None
    keep = n + m_ub
    tableau, basis = start
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
    as (entering column, normalized pivot row, ratio-tie threshold).
    """
    cost_row = tableau[-1]
    max_pivots = 50000 + 200 * (tableau.shape[0] - 1 + n_cols)
    for _ in range(max_pivots):
        improving = cost_row[:n_cols] < -LP_TOL
        entering = int(np.argmax(improving))
        if not improving[entering]:
            return -cost_row[-1]
        col = tableau[:-1, entering]
        rows = np.flatnonzero(col > PIVOT_EPS)
        if rows.size == 0:
            raise LPUnbounded(f"column {entering} is unbounded")
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        threshold = ratios.min() + 1e-12
        ties = rows[ratios <= threshold]
        leaving = int(ties[np.argmin(basis[ties])])
        pivots.append((entering, _pivot(tableau, leaving, entering), threshold))
        basis[leaving] = entering
    raise LPError("pivot limit exceeded")


def _pivot(tableau, row, col):
    """Gauss-Jordan step as one rank-one update; returns the normalized pivot row.

    The pivot row subtracts zero times itself, which turns its -0.0 entries
    into +0.0.
    """
    tableau[row] /= tableau[row, col]
    prow = tableau[row].copy()
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * prow
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
