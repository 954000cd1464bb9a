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
from privdet.relations import random_model
from privdet.simplex import LPInfeasible, solve_lp

from _oracles import cold_solve_lp, padded_channel_lp, pairwise_ldp_polytope


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
    """solve_lp over ldp_polytope with objective c on the channel entries."""
    a_eq, b_eq, a_ub, b_ub = ldp_polytope(x_size, z_size, eps)
    cost = np.zeros(a_eq.shape[1])
    cost[:c.size] = c
    return solve_lp(cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("z_size", [2, 3, 4])
@pytest.mark.parametrize("x_size", [2, 3, 5, 8])
def test_lifted_polytope_reaches_the_pairwise_optimum(x_size, z_size, eps):
    a_eq, b_eq, a_ub, b_ub = pairwise_ldp_polytope(x_size, z_size, eps)
    rng = np.random.default_rng(1000 * x_size + 10 * z_size + int(10 * eps))
    for _ in range(3):
        c = rng.normal(size=x_size * z_size)
        ref = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        res = _lifted_optimum(c, x_size, z_size, eps)
        assert res.objective == pytest.approx(ref.objective, abs=1e-9)
        p = res.x[:c.size]
        assert float(c @ p) == pytest.approx(ref.objective, abs=1e-9)
        assert np.all(a_ub @ p <= 1e-9)
        assert np.abs(a_eq @ p - b_eq).max() <= 1e-9


def test_lifted_polytope_matches_scipy_at_x16_z4():
    x_size, z_size, eps = 16, 4, 1.0
    a_eq, b_eq, a_ub, b_ub = pairwise_ldp_polytope(x_size, z_size, eps)
    c = np.random.default_rng(16).normal(size=x_size * z_size)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert ref.status == 0
    assert _lifted_optimum(c, x_size, z_size, eps).objective == pytest.approx(ref.fun, abs=1e-8)


@pytest.mark.parametrize("x_size, eps", [(1, 1.0), (1, 0.0), (4, math.inf), (1, math.inf)])
def test_polytope_without_ratio_rows_has_no_envelope_columns(x_size, eps):
    a_eq, b_eq, a_ub, b_ub = ldp_polytope(x_size, 3, eps)
    assert a_eq.shape == (x_size, 3 * x_size)
    assert np.array_equal(b_eq, np.ones(x_size))
    assert a_ub is None and b_ub is None


def test_polytope_layout_is_channel_entries_then_envelope():
    a_eq, _, a_ub, b_ub = ldp_polytope(3, 2, 1.0)
    assert a_eq.shape == (3, 8) and a_ub.shape == (12, 8)
    assert np.array_equal(a_eq[:, 6:], np.zeros((3, 2)))
    assert np.array_equal(b_ub, np.zeros(12))
    # rows for (z=1, x=2): m_1 - p(1|2) <= 0 and p(1|2) - e m_1 <= 0
    k = 2 * (1 * 3 + 2)
    assert a_ub[k, 7] == 1.0 and a_ub[k, 2 * 2 + 1] == -1.0
    assert a_ub[k + 1, 2 * 2 + 1] == 1.0 and a_ub[k + 1, 7] == -math.exp(1.0)
    assert np.count_nonzero(a_ub) == 2 * 12


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
    ref = cold_solve_lp(*program).x[:x_size * z_size].reshape(x_size, z_size)
    assert np.array_equal(rows, repair_ratio_columns(ref, eps))
    assert metrics.ldp_budget(NetworkMapping((SensorChannel(rows),))) <= eps + 1e-12


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
