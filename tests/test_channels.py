import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from privdet import channels as channels_mod
from privdet import metrics
from privdet.channels import (
    NetworkMapping,
    SensorChannel,
    TwoStageMapping,
    identity_mapping,
    ldp_polytope,
    load_mapping,
    random_channel,
    random_mapping,
    randomized_response,
    repair_ratio_columns,
    save_mapping,
    solve_channel_lp,
    uniform_mapping,
)
from privdet.design import ldp_lp_step
from privdet.detection import optimal_rule_from_pushed
from privdet.model import push_forward
from privdet.simplex import LP_TOL, LPInfeasible, solve_lp

from _oracles import (
    cold_solve_lp,
    floor_coefficients,
    lifted_ldp_polytope,
    padded_channel_lp,
    pairwise_ldp_polytope,
    random_model,
)


def test_channel_validation():
    with pytest.raises(ValueError, match="negative"):
        SensorChannel([[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(ValueError, match="sums to"):
        SensorChannel([[0.6, 0.5], [0.5, 0.5]])


def test_compose_identity_stage2_is_stage1():
    stage1 = NetworkMapping((random_channel(0, 3, 2), random_channel(1, 3, 2)))
    stage2 = identity_mapping(2, 2)
    two = TwoStageMapping(stage1, stage2, "ill")
    comp = two.network()
    for a, b in zip(comp.channels, stage1.channels):
        assert np.allclose(a.rows, b.rows, atol=1e-15)


def test_compose_constant_stage1_absorbs():
    u = np.array([0.2, 0.8])
    stage1 = NetworkMapping((SensorChannel(np.tile(u, (4, 1))),))
    stage2 = NetworkMapping((random_channel(5, 2, 3),))
    comp = TwoStageMapping(stage1, stage2, "lip").network()
    expected = u @ stage2.channels[0].rows
    assert np.allclose(comp.channels[0].rows, np.tile(expected, (4, 1)), atol=1e-15)


def test_compose_two_flips():
    flip = SensorChannel([[0.75, 0.25], [0.25, 0.75]])
    two = TwoStageMapping(
        NetworkMapping((flip,)), NetworkMapping((flip,)), "ill"
    )
    comp = two.network()
    assert comp.channels[0].rows[0, 1] == pytest.approx(0.375, abs=1e-15)
    assert comp.channels[0].rows[1, 0] == pytest.approx(0.375, abs=1e-15)


def test_compose_alphabet_mismatch():
    a = NetworkMapping((random_channel(0, 2, 3),))
    b = NetworkMapping((random_channel(1, 2, 2),))
    with pytest.raises(ValueError, match="stage-2 input"):
        TwoStageMapping(a, b, "ill")


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_compose_rows_stochastic(seed, x_size, z_size):
    s1 = NetworkMapping((random_channel(seed, x_size, 3),))
    s2 = NetworkMapping((random_channel(seed + 1, 3, z_size),))
    comp = TwoStageMapping(s1, s2, "lip").network()
    assert np.abs(comp.channels[0].rows.sum(axis=1) - 1.0).max() <= 1e-12


def test_randomized_response_zero_budget_uniform():
    ch = randomized_response(4, 0.0)
    assert np.allclose(ch.rows, 0.25, atol=1e-15)


def test_randomized_response_binary_unit_budget():
    ch = randomized_response(2, 1.0)
    assert ch.rows[0, 0] == pytest.approx(math.e / (1 + math.e), abs=1e-15)


@pytest.mark.parametrize("eps", [0.5, 2.0, 5.0])
def test_randomized_response_measured_budget(eps):
    mapping = NetworkMapping((randomized_response(3, eps),))
    assert metrics.ldp_budget(mapping) == pytest.approx(eps, abs=1e-12)


def test_randomized_response_rejects_negative():
    with pytest.raises(ValueError):
        randomized_response(2, -0.5)


@pytest.mark.parametrize("eps", [math.nan, 710.0])
def test_randomized_response_refuses_a_budget_without_a_float_ratio(eps):
    """Both once gave rows of NaN that passed the channel's own checks."""
    with pytest.raises(ValueError, match="eps_ld must be"):
        randomized_response(3, eps)


def test_random_channel_deterministic():
    a = random_channel(123, 4, 3)
    b = random_channel(123, 4, 3)
    assert np.array_equal(a.rows, b.rows)


def test_random_channel_degenerate_output():
    ch = random_channel(0, 3, 1)
    assert np.array_equal(ch.rows, np.ones((3, 1)))


def test_random_channel_row_sums_over_many_seeds():
    for seed in range(1000):
        rows = random_channel(seed, 3, 2).rows
        assert abs(rows.sum(axis=1) - 1.0).max() <= 1e-15


def test_lip_order_preserves_local_budget():
    # any post-processing of an eps-budget stage keeps the composed budget
    for seed in range(25):
        rng = np.random.default_rng(seed)
        eps = float(rng.uniform(0.2, 3.0))
        stage1 = NetworkMapping(
            (randomized_response(3, eps), randomized_response(3, eps))
        )
        stage2 = random_mapping(seed, 2, 3, 2)
        comp = TwoStageMapping(stage1, stage2, "lip").network()
        assert metrics.ldp_budget(comp) <= eps + 1e-9


def test_ill_order_half_budget_per_stage():
    """Post-processing: the composed local budget is at most stage 2's, at eps/2 or the full eps."""
    for seed in range(25):
        rng = np.random.default_rng(seed + 1000)
        eps = float(rng.uniform(0.2, 3.0))
        stage1 = random_mapping(seed, 2, 4, 3)
        for stage_eps in (eps / 2, eps):
            stage2 = NetworkMapping(
                (randomized_response(3, stage_eps), randomized_response(3, stage_eps))
            )
            comp = TwoStageMapping(stage1, stage2, "ill").network()
            assert metrics.ldp_budget(comp) <= stage_eps + 1e-9


def test_mapping_json_round_trips(tmp_path):
    mapping = random_mapping(3, 2, 4, 2)
    path = tmp_path / "mapping.json"
    save_mapping(mapping, path)
    loaded = load_mapping(path)
    for a, b in zip(loaded.channels, mapping.channels):
        assert np.array_equal(a.rows, b.rows)
    two = TwoStageMapping(mapping, random_mapping(4, 2, 2, 2), "ill")
    path2 = tmp_path / "two.json"
    save_mapping(two, path2)
    loaded2 = load_mapping(path2)
    assert loaded2.arch == "ill"
    assert json.loads(path2.read_text())["arch"] == "ill"


# -- the local-budget polytope ---------------------------------------------------


def _lifted_optimum(c, x_size, z_size, eps):
    """(objective, p) of solve_lp over ldp_polytope with objective c on the channel
    entries p = s + m, written over the floor-plus-excess variables (s, m)."""
    a_eq, b_eq, a_ub, b_ub = ldp_polytope(x_size, z_size, eps)
    res = solve_lp(floor_coefficients(c, x_size, z_size), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    nv = x_size * z_size
    return res.objective, (res.x[:nv].reshape(x_size, z_size) + res.x[nv:]).reshape(-1)


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("z_size", [2, 3, 4])
@pytest.mark.parametrize("x_size", [2, 3, 5, 8])
def test_lifted_polytope_reaches_the_pairwise_optimum(x_size, z_size, eps):
    a_eq, b_eq, a_ub, b_ub = pairwise_ldp_polytope(x_size, z_size, eps)
    rng = np.random.default_rng(1000 * x_size + 10 * z_size + int(10 * eps))
    for _ in range(3):
        c = rng.normal(size=x_size * z_size)
        ref = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        objective, p = _lifted_optimum(c, x_size, z_size, eps)
        assert objective == pytest.approx(ref.objective, abs=1e-9)
        assert float(c @ p) == pytest.approx(ref.objective, abs=1e-9)
        assert np.all(a_ub @ p <= 1e-9)
        assert np.abs(a_eq @ p - b_eq).max() <= 1e-9


def test_lifted_polytope_matches_scipy_at_x16_z4():
    x_size, z_size, eps = 16, 4, 1.0
    a_eq, b_eq, a_ub, b_ub = pairwise_ldp_polytope(x_size, z_size, eps)
    c = np.random.default_rng(16).normal(size=x_size * z_size)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert ref.status == 0
    assert _lifted_optimum(c, x_size, z_size, eps)[0] == pytest.approx(ref.fun, abs=1e-8)


@pytest.mark.parametrize(
    "x_size, eps", [(1, 1.0), (1, 0.0), (4, math.inf), (1, math.inf), (4, -math.log(LP_TOL) + 1e-6)]
)
def test_polytope_without_ratio_rows_has_no_envelope_columns(x_size, eps):
    a_eq, b_eq, a_ub, b_ub = ldp_polytope(x_size, 3, eps)
    assert a_eq.shape == (x_size, 3 * x_size)
    assert np.array_equal(b_eq, np.ones(x_size))
    assert a_ub is None and b_ub is None


def test_polytope_layout_is_channel_entries_then_envelope():
    a_eq, _, a_ub, b_ub = ldp_polytope(3, 2, 1.0)
    assert a_eq.shape == (3, 8) and a_ub.shape == (6, 8)
    # every row of the channel sums its excess and all the floors
    assert np.array_equal(a_eq[:, 6:], np.ones((3, 2)))
    assert np.array_equal(b_ub, np.zeros(6))
    # the row of entry (x=2, z=1): s(1|2) - (e - 1) m_1 <= 0
    k = 2 * 2 + 1
    assert a_ub[k, k] == 1.0 and a_ub[k, 7] == -math.expm1(1.0)
    assert np.count_nonzero(a_ub) == 2 * 6


def test_polytope_keeps_its_ratio_rows_down_to_lp_tol():
    assert ldp_polytope(4, 3, -math.log(LP_TOL) - 1e-6)[2].shape == (12, 15)


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("z_size", [2, 3, 4])
@pytest.mark.parametrize("x_size", [3, 5, 8])
def test_repaired_lp_step_meets_its_budget(x_size, z_size, eps):
    rng = np.random.default_rng(7 * x_size + z_size)
    model = random_model(rng, 2, x_size, 1)
    chans = list(random_mapping(x_size + z_size, 2, x_size, z_size).channels)
    rule = optimal_rule_from_pushed(push_forward(model, NetworkMapping(tuple(chans))))
    ch = ldp_lp_step(model, rule, chans, 0, eps)
    assert metrics.ldp_budget(NetworkMapping((ch,))) <= eps + 1e-12


# -- the channel LP ------------------------------------------------------------


def _channel_lp_case(case, x_size, z_size, rng):
    """(cost, extra rows) of one block LP; the uniform channel meets every extra row."""
    nv = x_size * z_size
    uniform = np.full(nv, 1.0 / z_size)
    rows = rng.normal(size=(3, nv))
    if case == "none":
        return rng.normal(size=nv), {}
    if case == "ub":
        return rng.normal(size=nv), {"a_ub": rows, "b_ub": rows @ uniform + 0.1}
    return rng.normal(size=nv), {"a_eq": rows[:1], "b_eq": rows[:1] @ uniform}


def _same_bytes(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["none", "ub", "eq"])
@pytest.mark.parametrize("eps", [0.0, 0.7, math.inf])
@pytest.mark.parametrize("z_size", [2, 3])
@pytest.mark.parametrize("x_size", [1, 2, 5])
def test_channel_lp_solves_the_padded_assembly(x_size, z_size, eps, case, monkeypatch):
    """solve_lp sees the padded program byte for byte, and the rows are its repaired optimum."""
    rng = np.random.default_rng(100 * x_size + 10 * z_size + len(case))
    cost, extra = _channel_lp_case(case, x_size, z_size, rng)
    calls = []
    real = channels_mod.solve_lp

    def recorded(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
        calls.append((c, a_ub, b_ub, a_eq, b_eq))
        return real(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)

    monkeypatch.setattr(channels_mod, "solve_lp", recorded)
    rows = solve_channel_lp((x_size, z_size), eps, cost, **extra)
    program = padded_channel_lp((x_size, z_size), eps, cost, **extra)
    (args,) = calls
    assert all(_same_bytes(a, b) for a, b in zip(args, program))
    x, nv = cold_solve_lp(*program).x, x_size * z_size
    ref = x[:nv].reshape(x_size, z_size)
    if x.size > nv:  # p = s + m
        ref = ref + x[nv:]
    assert np.array_equal(rows, repair_ratio_columns(ref, eps))
    assert metrics.ldp_budget(NetworkMapping((SensorChannel(rows),))) <= eps + 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.7, math.inf])
def test_channel_lp_with_zero_extra_rows_is_the_lp_without_them(eps):
    """E-LDP passes the empty block of its no adversaries: the optimum is bit for bit the same."""
    cost = np.random.default_rng(7).normal(size=10)
    rows = solve_channel_lp((5, 2), eps, cost)
    assert np.array_equal(rows, solve_channel_lp((5, 2), eps, cost, np.zeros((0, 10)), np.zeros(0)))


def _lifted_rows(shape, eps, cost, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """The repaired optimum of the block LP over ``lifted_ldp_polytope``, extra rows zero-padded."""
    x_size, z_size = shape
    p_eq, p_beq, p_ub, p_bub = lifted_ldp_polytope(x_size, z_size, eps)
    width = p_eq.shape[1]

    def pad(a):
        return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, width - a.shape[-1])])

    if a_ub is not None:
        p_ub, p_bub = np.vstack([p_ub, pad(a_ub)]), np.concatenate([p_bub, b_ub])
    if a_eq is not None:
        p_eq, p_beq = np.vstack([p_eq, pad(a_eq)]), np.concatenate([p_beq, b_eq])
    x = cold_solve_lp(pad(cost), p_ub, p_bub, p_eq, p_beq).x
    return repair_ratio_columns(x[:x_size * z_size].reshape(x_size, z_size), eps)


@pytest.mark.parametrize("case", ["none", "ub", "eq"])
@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("z_size", [2, 3, 4])
def test_channel_lp_rows_are_the_lifted_lps_repaired_rows(z_size, eps, case):
    """The floor-plus-excess LP and the envelope-lifted LP pick the same channel."""
    for x_size in range(2, 12):
        rng = np.random.default_rng(100 * x_size + 10 * z_size + len(case))
        cost, extra = _channel_lp_case(case, x_size, z_size, rng)
        rows = solve_channel_lp((x_size, z_size), eps, cost, **extra)
        ref = _lifted_rows((x_size, z_size), eps, cost, **extra)
        assert np.abs(rows - ref).max() <= 1e-12, x_size


@pytest.mark.parametrize("eps", [-math.log(LP_TOL) + 1e-6, 25.0, 36.0, 100.0, 700.0])
@pytest.mark.parametrize("z_size", [2, 3, 4])
def test_channel_lp_past_its_ratio_rows_is_the_repaired_stochastic_optimum(z_size, eps):
    """Without ratio rows the repaired optimum meets the budget, within the repair's
    lift of the row-wise minimum over stochastic rows, a lower bound on the block LP."""
    for x_size in range(2, 12):
        cost = np.random.default_rng(10 * x_size + z_size).normal(size=(x_size, z_size))
        rows = solve_channel_lp((x_size, z_size), eps, cost.reshape(-1))
        assert metrics.ldp_budget(NetworkMapping((SensorChannel(rows),))) <= eps + 1e-9
        lift = 2.0 * z_size * np.abs(cost).max() * math.exp(-eps)
        gap = float((cost * rows).sum()) - cost.min(axis=1).sum()
        assert -1e-12 <= gap <= x_size * lift + 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.7, math.inf])
@pytest.mark.parametrize("x_size", [1, 2, 5])
def test_an_infeasible_channel_lp_raises_on_both_paths(x_size, eps):
    nv = 3 * x_size
    a_ub = np.zeros((1, nv))
    a_ub[0, 0] = -1.0  # p(0 | 0) >= 2
    args = ((x_size, 3), eps, np.ones(nv), a_ub, np.array([-2.0]))
    with pytest.raises(LPInfeasible):
        solve_channel_lp(*args)
    with pytest.raises(LPInfeasible):
        solve_lp(*padded_channel_lp(*args))
