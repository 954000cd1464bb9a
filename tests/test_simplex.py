import math

import numpy as np
import pytest
from scipy.optimize import linprog

from privdet import simplex
from privdet.channels import ldp_polytope
from privdet.simplex import LPError, LPInfeasible, LPUnbounded, solve_lp

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


# -- the kept feasible start ---------------------------------------------------


def _outcome(solver, c, a_ub, b_ub, a_eq, b_eq):
    """(x bytes, objective) of a solve, or (exception type, message)."""
    try:
        res = solver(c, a_ub, b_ub, a_eq, b_eq)
    except LPError as exc:
        return type(exc), str(exc)
    return res.x.tobytes(), res.objective


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
    """Interleaved and repeated constraint sets agree bit for bit with the cold solver."""
    programs = []
    for k, (e1, e2) in enumerate([(0.0, 0.3), (1.0, math.inf), (0.3, 1.0)]):
        p1 = [_ldp_program(x_size, z_size, e1, 10 * k + j) for j in range(3)]
        p2 = [_ldp_program(x_size, z_size, e2, 10 * k + 5 + j) for j in range(3)]
        programs += [p1[0], p1[1], p2[0], p1[2], p2[1], p2[1], p1[0], p2[2]]
        programs.append(_random_instance(x_size * z_size + k))
        programs += [(np.array([1.0]), *_INFEASIBLE), (np.array([2.0]), *_INFEASIBLE)]
        programs += [(np.array([0.0, -1.0]), *_UNBOUNDED), (np.array([1.0, 1.0]), *_UNBOUNDED)]
        programs += [(np.array([0.0, -1.0]), *_UNBOUNDED), p1[1], p1[1]]
    for program in programs:
        assert _outcome(solve_lp, *program) == _outcome(cold_solve_lp, *program)


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
        assert _outcome(solve_lp, *program) == _outcome(cold_solve_lp, *program)


def test_repeat_solve_makes_only_phase_two_pivots():
    solve_lp(np.array([1.0]), a_eq=np.ones((1, 1)), b_eq=np.ones(1))  # another start is kept
    program = _ldp_program(11, 3, 1.0, 0)
    first = solve_lp(*program)
    again = solve_lp(*program)
    assert 0 < again.pivots < first.pivots
    assert again.x.tobytes() == first.x.tobytes()


def test_interleaved_costs_give_bitwise_equal_results():
    c1, *constraints = _ldp_program(8, 3, 0.5, 1)
    c2 = _ldp_program(8, 3, 0.5, 2)[0]
    first = solve_lp(c1, *constraints)
    solve_lp(c2, *constraints)
    third = solve_lp(c1, *constraints)
    assert third.x.tobytes() == first.x.tobytes()
    assert third.objective == first.objective
    assert third.pivots < first.pivots


def test_inputs_are_not_mutated():
    c, a_ub, b_ub, a_eq, b_eq = _ldp_program(5, 2, 0.3, 3)
    # negated equality rows: the solver flips rows with a negative right-hand side
    program = (c, a_ub, b_ub, -a_eq, -b_eq)
    before = [arr.copy() for arr in program]
    for _ in range(2):
        solve_lp(*program)
    for arr, old in zip(program, before):
        assert arr.tobytes() == old.tobytes()


def test_kept_tableau_is_read_only():
    solve_lp(*_ldp_program(3, 2, 1.0, 4))
    tableau, basis = simplex._kept[1]
    with pytest.raises(ValueError):
        tableau[0, 0] = 1.0
    with pytest.raises(ValueError):
        basis[0] = 0


# -- programs that extend the kept start ----------------------------------------


def _spy_extensions(monkeypatch):
    """The list that gets True (served) or False (fell back) for every extension tried.

    A served start must be, byte for byte, the start a cold phase 1 of the
    whole program keeps.
    """
    tried = []
    real = simplex._extended

    def spied(a_add, b_add):
        start = real(a_add, b_add)
        tried.append(start is not None)
        if start is not None:
            kept = simplex._kept
            a_ub, b_ub, a_eq, b_eq = kept[0]
            simplex._keep_phase_one(np.vstack([a_ub, a_add]), np.concatenate([b_ub, b_add]), a_eq, b_eq)
            cold, simplex._kept = simplex._kept[1], kept
            assert all(_same_bytes(a, b) for a, b in zip(start, cold))
        return start

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
    """Polytope programs with 1-3 added rows of b > 0, interleaved across two budgets.

    Rows at scale 1 often cut the phase-1 path, and those extensions fall back;
    at scale 0.1 most are served.
    """
    tried = _spy_extensions(monkeypatch)
    rng = np.random.default_rng(10 * x_size + z_size)
    bases = [_ldp_program(x_size, z_size, eps, 3) for eps in (0.5, 1.0)]
    n = bases[0][0].size
    programs = []
    for k in (1, 2, 3, 1, 2, 3):
        for base in (bases[0], bases[0], bases[1], bases[1], bases[1], bases[0]):
            programs.append(_with_rows(base, *_added_rows(rng, k, n, scale)))
        programs.append(bases[1])
    for program in programs:
        assert _outcome(solve_lp, *program) == _outcome(cold_solve_lp, *program)
    # each run of one budget's programs extends that budget's polytope after the first
    assert len(tried) == len(programs) * 3 // 7
    if scale < 1.0:
        assert sum(tried) > len(tried) // 2


def test_an_extended_solve_makes_fewer_pivots_than_a_cold_one(monkeypatch):
    tried = _spy_extensions(monkeypatch)
    base = _ldp_program(8, 2, 0.5, 1)
    program = _with_rows(base, *_added_rows(np.random.default_rng(2), 2, base[0].size))
    solve_lp(*base)
    extended = solve_lp(*program)
    assert tried == [True]
    monkeypatch.setattr(simplex, "_kept", None)
    cold = solve_lp(*program)
    assert extended.x.tobytes() == cold.x.tobytes() and extended.objective == cold.objective
    assert 0 < extended.pivots < cold.pivots


def test_an_added_row_that_would_tie_falls_back_to_a_cold_phase_one(monkeypatch):
    """A copy of a ratio row ties with it wherever that row is a ratio-test candidate."""
    tried = _spy_extensions(monkeypatch)
    base = _ldp_program(5, 2, 1.0, 4)
    program = _with_rows(base, base[1][:1], base[2][:1])
    solve_lp(*base)
    first = solve_lp(*program)
    assert (first.x.tobytes(), first.objective) == _outcome(cold_solve_lp, *program)
    assert tried == [False]
    # the fallback's cold phase 1 is the one kept now: a repeat runs phase 2 alone
    again = solve_lp(*program)
    assert tried == [False] and again.pivots < first.pivots


def test_an_added_row_with_negative_b_is_solved_cold(monkeypatch):
    tried = _spy_extensions(monkeypatch)
    base = _ldp_program(5, 3, 0.5, 5)
    a_add, _ = _added_rows(np.random.default_rng(3), 2, base[0].size)
    program = _with_rows(base, a_add, np.array([0.5, -1e-3]))
    solve_lp(*base)
    assert _outcome(solve_lp, *program) == _outcome(cold_solve_lp, *program)
    assert tried == []


def test_added_rows_on_an_infeasible_kept_program_are_infeasible(monkeypatch):
    tried = _spy_extensions(monkeypatch)
    c = np.array([1.0])
    program = (c, *_INFEASIBLE[:2], np.zeros((0, 1)), np.zeros(0))
    extended = _with_rows(program, np.array([[1.0], [0.5]]), np.array([5.0, 0.0]))
    for p in (program, extended, program):
        outcome = _outcome(solve_lp, *p)
        assert outcome == _outcome(cold_solve_lp, *p) and outcome[0] is LPInfeasible
    assert tried == [False]


def test_a_program_that_shares_a_prefix_moves_the_kept_start_back(monkeypatch):
    """After polytope + rows A, polytope + rows B keeps the polytope's start and extends it."""
    tried = _spy_extensions(monkeypatch)
    base = _ldp_program(8, 3, 0.5, 6)
    rng = np.random.default_rng(4)
    first, second, third = (_with_rows(base, *_added_rows(rng, k, base[0].size)) for k in (2, 1, 3))
    monkeypatch.setattr(simplex, "_kept", None)
    for program in (first, second, third):
        assert _outcome(solve_lp, *program) == _outcome(cold_solve_lp, *program)
    assert tried == [True, True]
    assert simplex._kept[0][0].tobytes() == base[1].tobytes()
