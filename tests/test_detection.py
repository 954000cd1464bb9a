import itertools
import math
import types

import numpy as np
import pytest

from privdet.channels import (
    NetworkMapping,
    SensorChannel,
    identity_mapping,
    random_mapping,
    uniform_mapping,
)
from privdet.detection import (
    FusionRule,
    bayes_error_G_pushed,
    bayes_error_H_pushed,
    compute_c_G,
    min_risks,
    optimal_rule_from_pushed,
    theta,
)
from privdet.model import JointModel, push_forward

from _oracles import (
    best_detector_exhaustive,
    best_rule_exhaustive,
    brute_error_with_rule,
    random_model,
    sentinel_c_G,
)


def biased_h_model(p_h0=0.7):
    prior = np.array([[p_h0 / 2, p_h0 / 2], [(1 - p_h0) / 2, (1 - p_h0) / 2]])
    cond = np.full((2, 2, 2), 0.5)
    return JointModel(1, 2, 1, prior, (cond,))


def copy_h_model():
    prior = np.full((2, 2), 0.25)
    cond = np.zeros((2, 2, 2))
    cond[0, :, :] = [1.0, 0.0]
    cond[1, :, :] = [0.0, 1.0]
    return JointModel(1, 2, 1, prior, (cond,))


def rule_of(model, mapping):
    return optimal_rule_from_pushed(push_forward(model, mapping))


def error_h(model, mapping, rule=None):
    """The Bayes error, or the error of ``rule`` by the oracle's direct sum."""
    pushed = push_forward(model, mapping)
    if rule is None:
        return bayes_error_H_pushed(pushed)
    return brute_error_with_rule(pushed, rule.table)


def test_optimal_rule_falls_back_to_prior():
    model = biased_h_model(0.7)
    rule = rule_of(model, identity_mapping(1, 2))
    assert np.array_equal(rule.table, [0, 0])


def test_optimal_rule_identity_when_z_copies_h():
    model = copy_h_model()
    rule = rule_of(model, identity_mapping(1, 2))
    assert np.array_equal(rule.table, [0, 1])


def test_optimal_rule_matches_exhaustive_search():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 3))
        model = random_model(rng, s, int(rng.integers(2, 4)), 1)
        mapping = random_mapping(seed, s, model.x_size, 2)
        pushed = push_forward(model, mapping)
        best_err, _ = best_rule_exhaustive(pushed)
        rule = optimal_rule_from_pushed(pushed)
        assert brute_error_with_rule(pushed, rule.table) == pytest.approx(best_err, abs=1e-12)
        assert bayes_error_H_pushed(pushed) == pytest.approx(best_err, abs=1e-12)


def test_bayes_error_H_independent_uniform_half():
    prior = np.full((2, 2), 0.25)
    cond = np.full((2, 2, 2), 0.5)
    model = JointModel(1, 2, 1, prior, (cond,))
    rule = FusionRule(np.array([0, 1]), 1, 2)
    assert error_h(model, identity_mapping(1, 2), rule) == pytest.approx(0.5)


def test_bayes_error_H_perfect_copy_zero():
    model = copy_h_model()
    rule = FusionRule(np.array([0, 1]), 1, 2)
    assert error_h(model, identity_mapping(1, 2), rule) == 0.0


def test_bayes_error_H_constant_rules_hit_prior():
    model = biased_h_model(0.7)
    mapping = identity_mapping(1, 2)
    errs = [
        error_h(model, mapping, FusionRule(np.array([b, b]), 1, 2))
        for b in (0, 1)
    ]
    assert min(errs) == pytest.approx(0.3, abs=1e-12)


def test_bayes_error_H_optimal_beats_random_rules():
    rng = np.random.default_rng(11)
    model = random_model(rng, 2, 3, 1)
    mapping = random_mapping(2, 2, 3, 2)
    best = error_h(model, mapping)
    for seed in range(50):
        table = np.random.default_rng(seed).integers(0, 2, size=4)
        err = error_h(model, mapping, FusionRule(table, 2, 2))
        assert best <= err + 1e-12


def test_bayes_error_H_bounded_by_prior():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 2, 3, 1)
        mapping = random_mapping(seed, 2, 3, 2)
        p_h = model.prior.sum(axis=1)
        assert error_h(model, mapping) <= min(p_h) + 1e-12


def test_bayes_error_H_matches_brute_sum():
    rng = np.random.default_rng(3)
    model = random_model(rng, 2, 3, 2)
    mapping = random_mapping(5, 2, 3, 2)
    pushed = push_forward(model, mapping)
    table = optimal_rule_from_pushed(pushed).table
    assert error_h(model, mapping) == pytest.approx(
        brute_error_with_rule(pushed, table), abs=1e-14
    )


def test_bayes_error_G_independent_uniform():
    prior = np.full((2, 2), 0.25)
    cond = np.full((2, 2, 3), 1 / 3)
    model = JointModel(1, 3, 1, prior, (cond,))
    assert bayes_error_G_pushed(push_forward(model, identity_mapping(1, 3))) == pytest.approx(0.5)


def test_bayes_error_G_copy_zero():
    prior = np.full((2, 2), 0.25)
    cond = np.zeros((2, 2, 2))
    cond[:, 0, :] = [1.0, 0.0]
    cond[:, 1, :] = [0.0, 1.0]
    model = JointModel(1, 2, 1, prior, (cond,))
    assert bayes_error_G_pushed(push_forward(model, identity_mapping(1, 2))) == 0.0


def test_bayes_error_G_q2_independent():
    prior = np.full((2, 4), 0.125)
    cond = np.full((2, 4, 2), 0.5)
    model = JointModel(1, 2, 2, prior, (cond,))
    assert bayes_error_G_pushed(push_forward(model, identity_mapping(1, 2))) == pytest.approx(0.75)


# -- pairwise detection risks -------------------------------------------------


def risks_of(model, mapping):
    """g -> min risk R_g on the pushed law, p(g) read from the pushed table."""
    p_gy = push_forward(model, mapping).p_gz()
    return min_risks(p_gy, p_gy.sum(axis=1))


def test_min_risks_independent_half():
    prior = np.full((2, 2), 0.25)
    cond = np.full((2, 2, 3), 1 / 3)
    model = JointModel(1, 3, 1, prior, (cond,))
    assert risks_of(model, identity_mapping(1, 3))[1] == pytest.approx(0.5, abs=1e-15)


def test_min_risks_perfect_indicator_zero():
    prior = np.full((2, 2), 0.25)
    cond = np.zeros((2, 2, 2))
    cond[:, 0, :] = [1.0, 0.0]
    cond[:, 1, :] = [0.0, 1.0]
    model = JointModel(1, 2, 1, prior, (cond,))
    assert risks_of(model, identity_mapping(1, 2))[1] == 0.0


def test_min_risks_match_exhaustive_on_pushed_models():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        model = random_model(rng, s, int(rng.integers(2, 4)), q)
        mapping = random_mapping(seed, s, model.x_size, 2)
        p_gy = push_forward(model, mapping).p_gz()
        p_g = p_gy.sum(axis=1)
        risks = risks_of(model, mapping)
        assert sorted(risks) == list(range(1, model.n_g))
        for g, risk in risks.items():
            brute = best_detector_exhaustive(p_gy[0] / p_g[0], p_gy[g] / p_g[g])
            assert risk == pytest.approx(brute, abs=1e-12)


def test_min_risks_over_candidate_axes_match_exhaustive():
    """Leading axes index candidates; dead values of g are left out."""
    rng = np.random.default_rng(5)
    p_gy = rng.random((3, 2, 4, 3))  # (candidate, candidate, g, y)
    p_gy[..., 2, :] = 0.0
    p_g = np.array([0.3, 0.25, 0.0, 0.45])
    p_gy *= p_g[:, None] / p_gy.sum(axis=-1, keepdims=True).clip(1e-300)
    risks = min_risks(p_gy, p_g)
    assert sorted(risks) == [1, 3]
    for g, r in risks.items():
        assert r.shape == (3, 2)
        for idx in itertools.product(range(3), range(2)):
            brute = best_detector_exhaustive(p_gy[idx][0] / p_g[0], p_gy[idx][g] / p_g[g])
            assert r[idx] == pytest.approx(brute, abs=1e-12)
    assert min_risks(p_gy, np.array([0.0, 0.5, 0.0, 0.5])) == {}


def test_min_risk_invariant_under_output_relabeling():
    rng = np.random.default_rng(4)
    model = random_model(rng, 2, 3, 1)
    mapping = random_mapping(8, 2, 3, 2)
    flipped = NetworkMapping(
        tuple(SensorChannel(ch.rows[:, ::-1]) for ch in mapping.channels)
    )
    assert risks_of(model, mapping)[1] == pytest.approx(risks_of(model, flipped)[1], abs=1e-12)


def test_min_risks_leave_out_the_reference_value():
    """G = 0 is every risk's reference, never its own alternative."""
    model = random_model(np.random.default_rng(0), 1, 3, 2)
    assert sorted(risks_of(model, identity_mapping(1, 3))) == [1, 2, 3]


# -- c_G and theta -------------------------------------------------------------


def test_theta_zero_budget_is_half():
    for c in (0.0, 0.3, 1.0):
        assert theta(0.0, c) == pytest.approx(0.5)


def test_theta_zero_constant_is_half():
    for eps in (0.1, 1.0, 50.0):
        assert theta(eps, 0.0) == pytest.approx(0.5)


def test_theta_limit_zero():
    assert theta(math.inf, 1.0) == pytest.approx(0.0)
    assert theta(200.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_theta_validates_inputs():
    with pytest.raises(ValueError):
        theta(-0.1, 0.5)
    with pytest.raises(ValueError):
        theta(1.0, 1.5)


def test_c_g_constant_mapping_is_one():
    model = random_model(np.random.default_rng(1), 2, 3, 1)
    assert compute_c_G(push_forward(model, uniform_mapping(2, 3, 2))) == pytest.approx(1.0)


def test_c_g_matches_the_nan_sentinel_form_on_tables_with_zeros_and_ties():
    """Bit for bit the NaN-filled form, with no float warning, p(G=0) = 0 included."""
    rng = np.random.default_rng(7)
    dead_reference = 0
    for _ in range(3000):
        n_g = int(rng.choice([2, 4]))
        table = rng.integers(0, 4, size=(n_g, int(rng.integers(1, 7)))).astype(float)
        if not table.any():
            continue
        table /= table.sum()
        dead_reference += not table[0].any()
        pushed = types.SimpleNamespace(p_gz=lambda t=table: t, n_g=n_g)
        with np.errstate(all="raise"):
            got = compute_c_G(pushed)
        assert got == sentinel_c_G(table)
    assert dead_reference > 100


def test_c_g_lies_in_unit_interval():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 2, 3, int(rng.integers(1, 3)))
        c = compute_c_G(push_forward(model, random_mapping(seed, 2, 3, 2)))
        assert 0.0 <= c <= 1.0
