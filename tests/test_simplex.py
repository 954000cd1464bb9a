import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from privdet import simplex
from privdet.channels import ldp_polytope
from privdet.simplex import LPError, LPInfeasible, LPUnbounded, phase_one, solve_lp

from _oracles import cold_solve_lp


def test_min_x_above_three():
    res = solve_lp(np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-3.0]))
    assert res.x[0] == pytest.approx(3.0, abs=1e-12)
    assert res.objective == pytest.approx(3.0, abs=1e-12)


def test_simplex_vertex_on_probability_simplex():
    c = np.array([0.5, -1.0, 2.0, 0.25])
    res = solve_lp(c, a_eq=np.ones((1, 4)), b_eq=np.array([1.0]))
    expected = np.zeros(4)
    expected[np.argmin(c)] = 1.0
    assert np.allclose(res.x, expected, atol=1e-12)


def test_infeasible_detected():
    # x >= 2 and x <= 1 simultaneously
    a_ub = np.array([[-1.0], [1.0]])
    b_ub = np.array([-2.0, 1.0])
    with pytest.raises(LPInfeasible):
        solve_lp(np.array([1.0]), a_ub=a_ub, b_ub=b_ub)


def test_unbounded_detected():
    with pytest.raises(LPUnbounded):
        solve_lp(np.array([-1.0]), a_ub=np.array([[0.0]]), b_ub=np.array([1.0]))
    with pytest.raises(LPUnbounded):
        solve_lp(np.array([-1.0]))


def test_no_constraints_zero_optimum():
    res = solve_lp(np.array([1.0, 2.0]))
    assert np.array_equal(res.x, [0.0, 0.0])


def test_equalities_with_negative_rhs():
    # -x0 - x1 = -1 with min x0 -> x0 = 0, x1 = 1
    res = solve_lp(
        np.array([1.0, 0.0]), a_eq=np.array([[-1.0, -1.0]]), b_eq=np.array([-1.0])
    )
    assert np.allclose(res.x, [0.0, 1.0], atol=1e-12)


def _random_instance(seed):
    """(c, a_ub, b_ub, a_eq, b_eq) of a feasible random program."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 6))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.1, 1.0, size=n)
    b_ub = a_ub @ x_feas + rng.uniform(0.05, 1.0, size=m)
    a_eq = np.ones((1, n))
    b_eq = np.array([x_feas.sum()])
    return c, a_ub, b_ub, a_eq, b_eq


@pytest.mark.parametrize("seed", range(40))
def test_matches_scipy_on_random_instances(seed):
    c, a_ub, b_ub, a_eq, b_eq = _random_instance(seed)
    ours = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert ref.status == 0
    assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
    assert np.all(ours.x >= -1e-9)
    assert np.all(a_ub @ ours.x - b_ub <= 1e-8)
    assert np.abs(a_eq @ ours.x - b_eq).max() <= 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_a_pivot_is_the_rank_one_update_signed_zeros_included(seed):
    """The update written out: normalize the pivot row, then subtract from every row (the
    cost row last) its entry times the normalized row, the pivot row's own factor 0.
    That makes the pivot row's -0.0 entries +0.0; the returned row keeps them."""
    rng = np.random.default_rng(seed)
    tableau = rng.normal(size=(6, 9)) * (rng.random((6, 9)) < 0.6)
    tableau[rng.random((6, 9)) < 0.2] = -0.0
    row, col = int(rng.integers(0, 5)), int(rng.integers(0, 9))
    tableau[row, col] = rng.choice([-1.0, 1.0]) * (0.5 + rng.random())
    tableau[row, (col + 1) % 9] = math.copysign(0.0, -tableau[row, col])  # normalizes to -0.0
    want = tableau.copy()
    want[row] /= want[row, col]
    want_prow = want[row].copy()
    factors = want[:, col].copy()
    factors[row] = 0.0
    want -= factors[:, None] * want_prow
    prow = simplex._pivot(tableau, row, col)
    assert tableau.tobytes() == want.tobytes()
    assert prow.tobytes() == want_prow.tobytes()
    assert np.signbit(prow[prow == 0.0]).any() and not np.signbit(tableau[row][prow == 0.0]).any()


def test_degenerate_ratio_polytope_terminates():
    # ratio-budget-style program: many zero right-hand sides
    rng = np.random.default_rng(7)
    x_size, z_size, e = 6, 2, np.exp(1.0)
    nv = x_size * z_size
    rows = []
    for z in range(z_size):
        for x1 in range(x_size):
            for x2 in range(x_size):
                if x1 != x2:
                    r = np.zeros(nv)
                    r[x1 * z_size + z] = 1.0
                    r[x2 * z_size + z] -= e
                    rows.append(r)
    a_eq = np.zeros((x_size, nv))
    for x in range(x_size):
        a_eq[x, x * z_size:(x + 1) * z_size] = 1.0
    c = rng.normal(size=nv)
    res = solve_lp(c, a_ub=np.array(rows), b_ub=np.zeros(len(rows)), a_eq=a_eq, b_eq=np.ones(x_size))
    ref = linprog(c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)), A_eq=a_eq, b_eq=np.ones(x_size), method="highs")
    assert res.objective == pytest.approx(ref.fun, abs=1e-8)


def test_deterministic_solutions():
    rng = np.random.default_rng(9)
    c = rng.normal(size=5)
    a_ub = rng.normal(size=(3, 5))
    b_ub = np.abs(rng.normal(size=3)) + 1
    a = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=np.ones((1, 5)), b_eq=np.array([1.0]))
    b = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=np.ones((1, 5)), b_eq=np.array([1.0]))
    assert a.x.tobytes() == b.x.tobytes()


# -- solves from a phase-1 start ------------------------------------------------


def _outcome(solver, c, a_ub, b_ub, a_eq, b_eq, **kw):
    """(x bytes, objective) of a solve, or (exception type, message)."""
    try:
        res = solver(c, a_ub, b_ub, a_eq, b_eq, **kw)
    except LPError as exc:
        return type(exc), str(exc)
    return res.x.tobytes(), res.objective


def _started(c, a_ub, b_ub, a_eq, b_eq):
    """The outcome of a program solved from a ``phase_one`` of its own rows."""
    try:
        start = phase_one(a_ub, b_ub, a_eq, b_eq)
    except LPError as exc:
        return type(exc), str(exc)
    return _outcome(solve_lp, c, a_ub, b_ub, a_eq, b_eq, start=start)


def _ldp_program(x_size, z_size, eps, seed):
    """A random objective over the channel entries of ``ldp_polytope``."""
    a_eq, b_eq, a_ub, b_ub = ldp_polytope(x_size, z_size, eps)
    c = np.zeros(a_eq.shape[1])
    c[:x_size * z_size] = np.random.default_rng(seed).normal(size=x_size * z_size)
    return c, a_ub, b_ub, a_eq, b_eq


# x <= 2 over a nonnegative x >= 3: phase 1 fails whatever the cost.
_INFEASIBLE = (np.array([[1.0], [-1.0]]), np.array([2.0, -3.0]), None, None)
# x0 - x1 <= 1: a cost decreasing in x1 has no minimum.
_UNBOUNDED = (np.array([[1.0, -1.0]]), np.array([1.0]), None, None)


@pytest.mark.parametrize("x_size", [2, 3, 5, 8, 11])
@pytest.mark.parametrize("z_size", [2, 3, 4])
def test_kept_start_is_bitwise_a_cold_solve(x_size, z_size):
    """Interleaved and repeated programs, each solved from a start of its own rows made once
    per constraint set, agree bit for bit with the cold solver."""
    programs = []
    for k, (e1, e2) in enumerate([(0.0, 0.3), (1.0, math.inf), (0.3, 1.0)]):
        p1 = [_ldp_program(x_size, z_size, e1, 10 * k + j) for j in range(3)]
        p2 = [_ldp_program(x_size, z_size, e2, 10 * k + 5 + j) for j in range(3)]
        programs += [p1[0], p1[1], p2[0], p1[2], p2[1], p2[1], p1[0], p2[2]]
        programs.append(_random_instance(x_size * z_size + k))
        programs += [(np.array([1.0]), *_INFEASIBLE), (np.array([2.0]), *_INFEASIBLE)]
        programs += [(np.array([0.0, -1.0]), *_UNBOUNDED), (np.array([1.0, 1.0]), *_UNBOUNDED)]
        programs += [(np.array([0.0, -1.0]), *_UNBOUNDED), p1[1], p1[1]]
    starts = {}  # constraint set -> its start, or the LPInfeasible of its phase 1
    for c, *rows in programs:
        key = tuple(None if a is None else (np.shape(a), np.asarray(a).tobytes()) for a in rows)
        if key not in starts:
            try:
                starts[key] = phase_one(*rows)
            except LPInfeasible as exc:
                starts[key] = exc
        start = starts[key]
        if isinstance(start, LPInfeasible):
            got = LPInfeasible, str(start)
        else:
            got = _outcome(solve_lp, c, *rows, start=start)
        assert got == _outcome(cold_solve_lp, c, *rows)
    assert len(starts) == 9


def test_constraint_sets_that_share_a_tableau_matrix_are_told_apart():
    c, a_ub, b_ub, a_eq, b_eq = _ldp_program(5, 3, 1.0, 6)
    # the same matrix with a different right-hand side
    programs = [(c, a_ub, b_ub, a_eq, b_eq), (c, a_ub, b_ub, a_eq, 2.0 * b_eq)]
    # 2 x0 + x1 = 1 and 2 x0 <= 1 (slack x1) normalize to one matrix; with a
    # zero cost each keeps the start it finds, which differs between them
    programs += [
        (np.zeros(2), None, None, np.array([[2.0, 1.0]]), np.ones(1)),
        (np.zeros(1), np.array([[2.0]]), np.ones(1), None, None),
    ]
    for program in programs + programs[::-1]:
        assert _started(*program) == _outcome(cold_solve_lp, *program)
    for i, j in [(0, 1), (1, 0), (2, 3), (3, 2)]:
        with pytest.raises(ValueError):
            solve_lp(*programs[i], start=phase_one(*programs[j][1:]))


def test_a_start_of_other_rows_is_a_value_error():
    """The solver checks the start against the program bit for bit."""
    c, a_ub, b_ub, a_eq, b_eq = _ldp_program(4, 2, 1.0, 7)
    start = phase_one(a_ub, b_ub, a_eq, b_eq)
    flipped = a_ub.copy()
    flipped[flipped == 0.0] = -0.0  # equal as numbers, not as bits
    others = [
        (flipped, b_ub, a_eq, b_eq),
        (a_ub, b_ub + 1e-300, a_eq, b_eq),
        (a_ub[1:], b_ub[1:], a_eq, b_eq),  # fewer <= rows than the start
        (a_ub, b_ub, a_eq[1:], b_eq[1:]),
        (a_ub, b_ub, np.vstack([a_eq, a_eq[:1]]), np.concatenate([b_eq, b_eq[:1]])),
        (_ldp_program(4, 2, 0.5, 7)[1], b_ub, a_eq, b_eq),
    ]
    for rows in others:
        with pytest.raises(ValueError, match="not a phase_one"):
            solve_lp(c, *rows, start=start)
    with pytest.raises(ValueError):  # other variables
        solve_lp(np.zeros(3), a_eq=np.ones((1, 3)), b_eq=np.ones(1), start=start)
    served = solve_lp(c, a_ub, b_ub, a_eq, b_eq, start=start)
    assert served.x.tobytes() == solve_lp(c, a_ub, b_ub, a_eq, b_eq).x.tobytes()


def test_repeat_solve_makes_only_phase_two_pivots():
    c, *rows = _ldp_program(11, 3, 1.0, 0)
    start = phase_one(*rows)
    first = solve_lp(c, *rows)
    again = solve_lp(c, *rows, start=start)
    assert again.pivots == first.pivots - len(start.pivots) and 0 < again.pivots < first.pivots
    assert again.x.tobytes() == first.x.tobytes()


def test_interleaved_costs_give_bitwise_equal_results():
    c1, *constraints = _ldp_program(8, 3, 0.5, 1)
    c2 = _ldp_program(8, 3, 0.5, 2)[0]
    start = phase_one(*constraints)
    first = solve_lp(c1, *constraints, start=start)
    solve_lp(c2, *constraints, start=start)
    third = solve_lp(c1, *constraints, start=start)
    cold = solve_lp(c1, *constraints)
    assert third.x.tobytes() == first.x.tobytes() == cold.x.tobytes()
    assert third.objective == first.objective == cold.objective
    assert third.pivots == first.pivots < cold.pivots


def test_inputs_are_not_mutated():
    c, a_ub, b_ub, a_eq, b_eq = _ldp_program(5, 2, 0.3, 3)
    # negated equality rows: the solver flips rows with a negative right-hand side
    program = (c, a_ub, b_ub, -a_eq, -b_eq)
    before = [arr.copy() for arr in program]
    start = phase_one(*program[1:])
    for kw in ({}, {"start": start}, {"start": start}):
        solve_lp(*program, **kw)
    for arr, old in zip(program, before):
        assert arr.tobytes() == old.tobytes()


def test_a_start_is_read_only():
    """Every array of a start is read-only, and its program is a copy of the caller's rows."""
    c, a_ub, b_ub, a_eq, b_eq = _ldp_program(3, 2, 1.0, 4)
    start = phase_one(a_ub, b_ub, a_eq, b_eq)
    assert start.pivots
    for arr in (*start.program, start.tableau, start.basis, *(prow for _, prow, _ in start.pivots)):
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0
    a_eq[0, 0] = 7.0
    assert start.program[2][0, 0] == 1.0
    with pytest.raises(AttributeError):
        start.tableau = None


def test_the_solver_holds_no_module_state():
    """``simplex`` binds no module-level name but constants, classes and functions, and has no
    ``global`` statement: a solve depends on its arguments alone."""
    tree = ast.parse(Path(simplex.__file__).read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.Global) for node in ast.walk(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):  # the docstring
            continue
        assert isinstance(node, ast.Assign), ast.dump(node)
        assert all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets), ast.dump(node)
        assert isinstance(node.value, ast.Constant), ast.dump(node)
    for name in ("_kept", "_start", "_shared_ub_rows", "_bits", "_keep_phase_one"):
        assert not hasattr(simplex, name)


# -- programs that extend a start ------------------------------------------------


def _spy_extensions(monkeypatch):
    """The list that gets True (served) or False (fell back) for every extension tried.

    A served start must be, byte for byte, the start a cold phase 1 of the
    whole program makes.
    """
    tried = []
    real = simplex._extended

    def spied(start, a_add, b_add):
        served = real(start, a_add, b_add)
        tried.append(served is not None)
        if served is not None:
            a_ub, b_ub, a_eq, b_eq = start.program
            cold = simplex._phase_one(np.vstack([a_ub, a_add]), np.concatenate([b_ub, b_add]), a_eq, b_eq, [])
            assert all(_same_bytes(a, b) for a, b in zip(served, cold[:2]))
        return served

    monkeypatch.setattr(simplex, "_extended", spied)
    return tried


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _with_rows(program, a_add, b_add):
    """``program`` with <= rows added after its own."""
    c, a_ub, b_ub, a_eq, b_eq = program
    return c, np.vstack([a_ub, a_add]), np.concatenate([b_ub, b_add]), a_eq, b_eq


def _added_rows(rng, k, n, scale=0.1):
    """k <= rows with b > 0, random over n variables: like EPIC's adversary rows, they
    seldom cut the path of the polytope's phase 1 at this scale."""
    return scale * rng.normal(size=(k, n)), rng.uniform(0.05, 1.0, size=k)


@pytest.mark.parametrize("scale", [0.1, 1.0])
@pytest.mark.parametrize("x_size", [2, 3, 5, 8, 11])
@pytest.mark.parametrize("z_size", [2, 3])
def test_extended_programs_are_bitwise_a_cold_solve(x_size, z_size, scale, monkeypatch):
    """Polytope programs with 1-3 added rows of b > 0, interleaved across two budgets, each
    solved from its polytope's start.

    Rows at scale 1 often cut the phase-1 path, and those extensions fall back;
    at scale 0.1 most are served.
    """
    tried = _spy_extensions(monkeypatch)
    rng = np.random.default_rng(10 * x_size + z_size)
    bases = [_ldp_program(x_size, z_size, eps, 3) for eps in (0.5, 1.0)]
    starts = {id(base): phase_one(*base[1:]) for base in bases}
    n = bases[0][0].size
    programs = []
    for k in (1, 2, 3, 1, 2, 3):
        for base in (bases[0], bases[0], bases[1], bases[1], bases[1], bases[0]):
            programs.append((base, _with_rows(base, *_added_rows(rng, k, n, scale))))
        programs.append((bases[1], bases[1]))
    for base, program in programs:
        got = _outcome(solve_lp, *program, start=starts[id(base)])
        assert got == _outcome(cold_solve_lp, *program)
    # every program with added rows tries an extension
    assert len(tried) == len(programs) * 6 // 7
    if scale < 1.0:
        assert sum(tried) > len(tried) // 2


def test_an_extended_solve_makes_fewer_pivots_than_a_cold_one(monkeypatch):
    tried = _spy_extensions(monkeypatch)
    base = _ldp_program(8, 2, 0.5, 1)
    program = _with_rows(base, *_added_rows(np.random.default_rng(2), 2, base[0].size))
    extended = solve_lp(*program, start=phase_one(*base[1:]))
    assert tried == [True]
    cold = solve_lp(*program)
    assert extended.x.tobytes() == cold.x.tobytes() and extended.objective == cold.objective
    assert 0 < extended.pivots < cold.pivots


def test_an_added_row_that_would_tie_falls_back_to_a_cold_phase_one(monkeypatch):
    """A copy of a ratio row ties with it wherever that row is a ratio-test candidate."""
    tried = _spy_extensions(monkeypatch)
    base = _ldp_program(5, 2, 1.0, 4)
    start = phase_one(*base[1:])
    program = _with_rows(base, base[1][:1], base[2][:1])
    first = solve_lp(*program, start=start)
    assert (first.x.tobytes(), first.objective) == _outcome(cold_solve_lp, *program)
    assert tried == [False]
    assert first.pivots == solve_lp(*program).pivots  # phase 1 and phase 2, as a cold solve


def test_a_fallback_leaves_the_start_serving_the_next_extension(monkeypatch):
    """After a tie falls back, the polytope's start still serves other added rows."""
    tried = _spy_extensions(monkeypatch)
    base = _ldp_program(8, 3, 0.5, 6)
    start = phase_one(*base[1:])
    rng = np.random.default_rng(4)
    tie = _with_rows(base, base[1][:1], base[2][:1])
    first, second = (_with_rows(base, *_added_rows(rng, k, base[0].size)) for k in (2, 1))
    for program in (tie, first, tie, second):
        assert _outcome(solve_lp, *program, start=start) == _outcome(cold_solve_lp, *program)
    assert tried == [False, True, False, True]


def test_an_added_row_with_negative_b_is_solved_cold(monkeypatch):
    tried = _spy_extensions(monkeypatch)
    base = _ldp_program(5, 3, 0.5, 5)
    a_add, _ = _added_rows(np.random.default_rng(3), 2, base[0].size)
    program = _with_rows(base, a_add, np.array([0.5, -1e-3]))
    start = phase_one(*base[1:])
    assert _outcome(solve_lp, *program, start=start) == _outcome(cold_solve_lp, *program)
    assert tried == []


def test_an_infeasible_program_has_no_start():
    """``phase_one`` of an empty constraint set raises the cold solver's LPInfeasible."""
    program = (np.array([1.0]), *_INFEASIBLE[:2], np.zeros((0, 1)), np.zeros(0))
    extended = _with_rows(program, np.array([[1.0], [0.5]]), np.array([5.0, 0.0]))
    with pytest.raises(LPInfeasible) as info:
        phase_one(*program[1:])
    assert (LPInfeasible, str(info.value)) == _outcome(cold_solve_lp, *program)
    for p in (program, extended):
        outcome = _outcome(solve_lp, *p)
        assert outcome == _outcome(cold_solve_lp, *p) and outcome[0] is LPInfeasible
