import ast
import dataclasses
import itertools
import math
import pathlib
import types

import numpy as np
import pytest

from privdet import design as design_mod
from privdet import metrics
from privdet.channels import (
    MAX_EPS_LD,
    NetworkMapping,
    SensorChannel,
    random_mapping,
    randomized_response,
)
from privdet.design import (
    OptimizerConfig,
    _solve_mixture_lp,
    block_objective_coefficients,
    chain_designs,
    design,
    design_ill,
    design_info_stage,
    design_inp,
    design_ldp,
    design_lip,
    ldp_closed_form_step,
    ldp_lp_step,
)
from privdet.detection import (
    FusionRule,
    bayes_error_H_pushed,
    optimal_rule_from_pushed,
    theta,
)
from privdet.metrics import full_report
from privdet.model import JointModel, generate_correlated_model, push_forward
from privdet.simplex import LPInfeasible

from _oracles import (
    best_detector_exhaustive,
    brute_bayes_error_raw,
    brute_error_with_rule,
    brute_push,
    joint_block_coefficients,
    random_model,
)


def rule_of(model, chans):
    return optimal_rule_from_pushed(push_forward(model, NetworkMapping(tuple(chans))))


def error_h(model, mapping):
    return bayes_error_H_pushed(push_forward(model, mapping))


def block_value(f, channel):
    """sum_{z,x} p(z|x) f(z, x): the block objective of one sensor's channel."""
    return float(np.einsum("zx,xz->", f, channel.rows))


def converged_step_instances(n_instances, seed=2026):
    """(model, rule, channels, eps, t) tuples taken at converged designs.

    This is the natural domain of the per-sensor steps: the binary
    closed form is the block optimum exactly where the algorithm visits it.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_instances:
        s = int(rng.integers(1, 4))
        x_size = int(rng.integers(2, 7))
        model = random_model(rng, s, x_size, 1)
        eps = float(rng.choice([0.5, 1.0, 2.0]))
        cfg = OptimizerConfig(
            eps_ld=eps, seed=int(rng.integers(1 << 30)), restarts=2, max_outer_iters=40
        )
        res = design_ldp(model, cfg)
        chans = list(res.mapping.channels)
        for t in range(s):
            out.append((model, res.rule, chans, eps, t))
            if len(out) >= n_instances:
                break
    return out


def test_objective_coefficients_reproduce_error():
    # P(rule(Z) != H) == p_H(1) + sum p_t(z|x) f(z, x) for every sensor; the
    # inputs are seeds whose optimal rule is not constant, so f depends on z
    for seed in (0, 3, 7, 9):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 4))
        model = random_model(rng, s, int(rng.integers(2, 5)), 1)
        chans = list(random_mapping(seed, s, model.x_size, 2).channels)
        pushed = push_forward(model, NetworkMapping(tuple(chans)))
        rule = optimal_rule_from_pushed(pushed)
        assert 0 < rule.table.sum() < rule.table.size
        direct = brute_error_with_rule(pushed, rule.table)
        p_h1 = model.prior[1].sum()
        for t in range(s):
            f = block_objective_coefficients(model, rule, chans, t)
            via_f = p_h1 + block_value(f, chans[t])
            assert via_f == pytest.approx(direct, abs=1e-12)


def test_objective_coefficients_full_form_agrees():
    # s = 4, z = 3 at t = 2 has sensors on both sides of t: the (left, z, right) split
    for seed, s, z_size, ts in ((20, 2, 2, range(2)), (18, 4, 3, (2,))):
        model = random_model(np.random.default_rng(seed), s, 3, 1)
        chans = list(random_mapping(seed - 14, s, 3, z_size).channels)
        rule = rule_of(model, chans)
        assert 0 < rule.table.sum() < rule.table.size
        for t in ts:
            a = block_objective_coefficients(model, rule, chans, t)
            b = joint_block_coefficients(model, rule, chans, t)
            assert np.allclose(a, b, atol=1e-12)


def test_closed_form_uniform_sign_gives_constant_channel():
    # s = 1 with rule z -> z gives f(0, x) = 0 and f(1, x) = p(H=0, x) - p(H=1, x),
    # so a prior leaning to H = 0 at every x makes f(0, x) < f(1, x) everywhere:
    # the formula puts the high value on output 0 in every row
    cond = np.random.default_rng(0).dirichlet(np.ones(3), size=(2, 2))
    prior = np.array([[0.45, 0.45], [0.05, 0.05]])
    model = JointModel(1, 3, 1, prior, (cond,))
    rule = FusionRule(np.array([0, 1]), 1, 2)
    chans = list(random_mapping(0, 1, 3, 2).channels)
    f = block_objective_coefficients(model, rule, chans, 0)
    assert (f[0] < f[1]).all()
    e = math.exp(1.0)
    ch = ldp_closed_form_step(model, rule, chans, 0, 1.0)
    assert np.allclose(ch.rows, [[e / (1 + e), 1 / (1 + e)]] * 3, rtol=0, atol=1e-15)
    assert metrics.ldp_budget(NetworkMapping((ch,))) == 0.0


def test_closed_form_zero_budget_uniform_rows():
    model = random_model(np.random.default_rng(1), 2, 4, 1)
    chans = list(random_mapping(1, 2, 4, 2).channels)
    rule = rule_of(model, chans)
    ch = ldp_closed_form_step(model, rule, chans, 0, 0.0)
    assert np.allclose(ch.rows, 0.5, atol=1e-15)


def test_closed_form_derived_case_matches_lp():
    # uniform H, X = H, identity fusion rule, eps = 1
    prior = np.full((2, 2), 0.25)
    cond = np.zeros((2, 2, 2))
    cond[0, :, :] = [1.0, 0.0]
    cond[1, :, :] = [0.0, 1.0]
    model = JointModel(1, 2, 1, prior, (cond,))
    chans = [randomized_response(2, 1.0)]
    rule = FusionRule(np.array([0, 1]), 1, 2)
    f = block_objective_coefficients(model, rule, chans, 0)
    cf = ldp_closed_form_step(model, rule, chans, 0, 1.0)
    lp = ldp_lp_step(model, rule, chans, 0, 1.0)
    assert block_value(f, cf) == pytest.approx(
        block_value(f, lp), abs=1e-10
    )
    e = math.e
    assert cf.rows[0, 0] == pytest.approx(e / (1 + e), abs=1e-12)
    assert cf.rows[1, 0] == pytest.approx(1 / (1 + e), abs=1e-12)


def test_closed_form_requires_binary_output():
    model = random_model(np.random.default_rng(2), 1, 3, 1)
    chans = list(random_mapping(2, 1, 3, 3).channels)
    rule = rule_of(model, chans)
    with pytest.raises(ValueError):
        ldp_closed_form_step(model, rule, chans, 0, 1.0)


def test_lp_step_never_infeasible_and_feasible_output():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 2, 3, 1)
        chans = list(random_mapping(seed, 2, 3, 3).channels)
        rule = rule_of(model, chans)
        eps = float(rng.choice([0.3, 1.0, 4.0]))
        ch = ldp_lp_step(model, rule, chans, 0, eps)
        assert np.abs(ch.rows.sum(axis=1) - 1.0).max() <= 1e-12
        assert metrics.ldp_budget(NetworkMapping((ch,))) <= eps + 1e-9


def test_lp_step_unconstrained_is_deterministic_and_dominates():
    for seed in range(6):
        rng = np.random.default_rng(seed + 40)
        model = random_model(rng, 2, 4, 1)
        chans = list(random_mapping(seed, 2, 4, 2).channels)
        rule = rule_of(model, chans)
        f = block_objective_coefficients(model, rule, chans, 0)
        free = ldp_lp_step(model, rule, chans, 0, math.inf)
        assert np.isin(free.rows, (0.0, 1.0)).all()
        for eps in (0.5, 2.0):
            capped = ldp_lp_step(model, rule, chans, 0, eps)
            assert block_value(f, free) <= block_value(f, capped) + 1e-12


def test_closed_form_matches_lp_at_converged_states():
    for model, rule, chans, eps, t in converged_step_instances(30, seed=99):
        f = block_objective_coefficients(model, rule, chans, t)
        cf = ldp_closed_form_step(model, rule, chans, t, eps)
        lp = ldp_lp_step(model, rule, chans, t, eps)
        diff = block_value(f, cf) - block_value(f, lp)
        assert abs(diff) <= 1e-8


#: budgets up to the largest finite one; the closed form's second column once
#: cancelled from about 20 on, and the ratio rows' LP was unbounded from 37 on
LARGE_EPS_LD = (0.5, 1, 2, 5, 10, 15, 18, 20, 25, 30, 36, 37, 40, 60, 100, 300, 700, MAX_EPS_LD)


@pytest.mark.parametrize("z_size", [2, 3])
def test_ldp_design_meets_every_finite_budget(z_size):
    """The closed form (z = 2) and the block LP (z = 3) audit within their budget at any eps_LD."""
    for seed in range(6):
        model = generate_correlated_model(seed, s=2 + seed % 2, x_size=3 + seed % 3)
        for eps in LARGE_EPS_LD:
            res = design_ldp(model, OptimizerConfig(eps_ld=eps, z_size=z_size, restarts=1))
            assert res.report.eps_ldp <= eps + 1e-9, (seed, eps)


@pytest.mark.parametrize("eps", [np.nextafter(MAX_EPS_LD, np.inf), 800.0, 1e300])
def test_a_budget_past_the_largest_finite_one_is_refused(eps):
    with pytest.raises(ValueError, match=r"^eps_ld must be inf or at most 709\.78"):
        OptimizerConfig(eps_ld=eps)
    assert OptimizerConfig(eps_ld=math.inf).eps_ld == math.inf


def test_closed_form_is_the_block_lp_optimum_only_inside_its_band():
    """With P and N the summed positive and negative parts of f(0, x) - f(1, x), the
    two-level rows are the block LP's optimum when N e^-eps <= P <= N e^eps; outside
    that band the LP's optimum is the lower deterministic constant row."""
    rng = np.random.default_rng(0)
    regimes = {True: 0, False: 0}
    for k in range(40):  # 40 draws give 303 blocks, 9 of them outside the band
        s, x_size = int(rng.integers(2, 4)), int(rng.integers(2, 6))
        model = random_model(rng, s, x_size, 1)
        chans = list(random_mapping(k, s, x_size, 2).channels)
        rule = rule_of(model, chans)
        for eps, t in itertools.product((0.5, 1.0, 2.0), range(s)):
            f = block_objective_coefficients(model, rule, chans, t)
            d = f[0] - f[1]
            pos, neg = d[d > 0].sum(), -d[d < 0].sum()
            cf = block_value(f, ldp_closed_form_step(model, rule, chans, t, eps))
            lp_step = ldp_lp_step(model, rule, chans, t, eps)
            lp = block_value(f, lp_step)
            inside = neg * math.exp(-eps) <= pos <= neg * math.exp(eps)
            regimes[inside] += 1
            if inside:
                assert cf == pytest.approx(lp, abs=1e-9)
            else:
                first = lp_step.rows[:, 0]
                assert np.isin(first, (0.0, 1.0)).all() and (first == first[0]).all()
                assert lp == pytest.approx(f[1].sum() + min(0.0, pos - neg), abs=1e-12)
                assert lp < cf - 1e-6
    assert regimes == {True: 294, False: 9}


# -- full designs -----------------------------------------------------------------


def test_design_ldp_zero_budget_constant():
    model = generate_correlated_model(seed=4, s=2, x_size=3, target_corr=0.2)
    res = design_ldp(model, OptimizerConfig(eps_ld=0.0, seed=1, restarts=2))
    p_h = model.prior.sum(axis=1)
    assert res.objective == pytest.approx(min(p_h), abs=1e-12)
    for ch in res.mapping.channels:
        assert np.abs(ch.rows - ch.rows[0]).max() <= 1e-12


def test_design_ldp_trace_non_increasing():
    model = generate_correlated_model(seed=5, s=3, x_size=4, target_corr=0.3)
    res = design_ldp(model, OptimizerConfig(eps_ld=1.0, seed=2, restarts=3))
    trace = res.trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert res.report.eps_ldp <= 1.0 + 1e-9


def test_design_ldp_beats_randomized_response_baseline():
    model = generate_correlated_model(seed=6, s=2, x_size=3, target_corr=0.2)
    eps = 1.5
    # same output alphabet as the square baseline channel
    res = design_ldp(model, OptimizerConfig(eps_ld=eps, seed=3, restarts=3, z_size=3))
    baseline = NetworkMapping(tuple(randomized_response(3, eps) for _ in range(2)))
    assert res.objective <= error_h(model, baseline) + 1e-12


def test_design_info_stage_independent_g_returns_quantizer():
    # X independent of G: every mapping satisfies the risk floor
    prior = np.full((2, 2), 0.25)
    cond = np.zeros((2, 2, 3))
    cond[0, :, :] = [0.7, 0.2, 0.1]
    cond[1, :, :] = [0.1, 0.2, 0.7]
    model = JointModel(2, 3, 1, prior, (cond, cond))
    res = design_info_stage(model, OptimizerConfig(eps_i=5.0, seed=1, z_size=2))
    for g, risk in res.profile.min_risks.items():
        assert risk == pytest.approx(0.5, abs=1e-12)
    assert res.profile.theta <= 0.5


def test_design_info_stage_risk_rows_match_detector_audit():
    """The vectorized LP column risks equal the exhaustive detector search."""
    from privdet.design import _deterministic_candidates, _stage_column_stats

    model = generate_correlated_model(seed=7, s=2, x_size=4, target_corr=0.2)
    chans = [SensorChannel(np.tile([1.0, 0.0], (4, 1))) for _ in range(2)]
    cands = _deterministic_candidates(4, 2, 0)
    rule = rule_of(model, chans)
    err, risks = _stage_column_stats(model, chans, 0, cands, rule)
    rng = np.random.default_rng(0)
    for idx in rng.choice(cands.shape[0], size=6, replace=False):
        trial = [SensorChannel(cands[idx]), chans[1]]
        p_gy = brute_push(model, NetworkMapping(tuple(trial))).sum(axis=0)
        p_g = p_gy.sum(axis=1)
        risk = best_detector_exhaustive(p_gy[0] / p_g[0], p_gy[1] / p_g[1])
        assert risks[1][idx] == pytest.approx(risk, abs=1e-9)


@pytest.mark.parametrize("x_size, z_size, cap", [(13, 2, 4096)])
def test_deterministic_candidates_over_the_cap_are_a_seeded_subset(x_size, z_size, cap):
    """Past the cap (13 symbols into 2 is paper scale): distinct one-hot quantizers, constants kept."""
    from privdet.design import _deterministic_candidates

    assert cap == design_mod.PHI_CAP and z_size ** x_size > cap
    cands = _deterministic_candidates(x_size, z_size, 4)
    assert cands.shape[1:] == (x_size, z_size) and z_size < cands.shape[0] <= cap + z_size
    assert set(np.unique(cands)) == {0.0, 1.0}
    assert np.array_equal(cands.sum(axis=2), np.ones(cands.shape[:2]))
    maps = {tuple(row) for row in cands.argmax(axis=2)}
    assert len(maps) == cands.shape[0]
    assert {(y,) * x_size for y in range(z_size)} <= maps
    assert np.array_equal(cands, _deterministic_candidates(x_size, z_size, 4))
    assert not np.array_equal(cands, _deterministic_candidates(x_size, z_size, 5))


def test_design_info_stage_budget_audit_holds():
    model = generate_correlated_model(seed=8, s=2, x_size=4, target_corr=0.4)
    for eps_i in (0.05, 0.3, 1.0):
        res = design_info_stage(model, OptimizerConfig(eps_i=eps_i, seed=2, z_size=2))
        pushed = push_forward(model, res.mapping)
        assert metrics.info_privacy_budget(pushed) <= eps_i + 1e-9
        for g, risk in res.profile.min_risks.items():
            assert risk >= res.profile.theta - 1e-6


@pytest.mark.parametrize("z_size", [2, 3])
def test_utility_step_takes_the_least_error_quantizer(z_size):
    """One utility sweep: each sensor's step errs as little as the best of all z^x quantizers."""
    cfg = OptimizerConfig(z_size=z_size, max_outer_iters=1)
    rng = np.random.default_rng(40 + z_size)
    for x_size in (2, 3, 4, 5):
        model = random_model(rng, 2, x_size, 1)
        start = design_mod._likelihood_sign_quantizers(model, z_size)
        rule = rule_of(model, start)  # the one sweep's rule
        stepped = design_mod._utility_stage(model, cfg)
        for t in range(model.s):
            others = stepped[:t] + start[t:]  # sensors before t already stepped

            def error(rows):
                chans = others[:t] + [SensorChannel(rows)] + others[t + 1:]
                joint = brute_push(model, NetworkMapping(tuple(chans)))
                return brute_error_with_rule(types.SimpleNamespace(joint=joint), rule.table)

            best = min(
                error(np.eye(z_size)[list(q)])
                for q in itertools.product(range(z_size), repeat=x_size)
            )
            assert error(stepped[t].rows) == pytest.approx(best, abs=1e-12)


def random_models_with_skewed_priors(n, seed):
    """Random models; every other one has a prior that puts 95% on H = 0.

    Under the skewed prior every sensor's marginal favours H = 0, so the
    per-sensor likelihood-sign quantizers are all constant.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)), 1)
        if k % 2:
            prior = model.prior / model.prior.sum(axis=1, keepdims=True)
            prior = prior * np.array([[0.95], [0.05]])
            model = JointModel(model.s, model.x_size, 1, prior, model.conditionals)
        out.append(model)
    return out


def test_design_info_stage_unbounded_budget_reaches_raw_bayes_error():
    # with no floor and z_size >= x_size nothing beats passing X through
    for k, model in enumerate(random_models_with_skewed_priors(8, seed=31)):
        raw = brute_bayes_error_raw(model)
        for z_size in (model.x_size, model.x_size + 1):
            cfg = OptimizerConfig(seed=k, z_size=z_size, max_outer_iters=30)
            res = design_info_stage(model, cfg)
            assert error_h(model, res.mapping) == pytest.approx(raw, abs=1e-9)
        # a smaller alphabet never does worse than the likelihood-sign quantizers
        sign = []
        for t in range(model.s):
            p_hx = np.einsum("hg,hgx->hx", model.prior, model.conditionals[t])
            sign.append(SensorChannel(np.eye(2)[(p_hx[1] > p_hx[0]).astype(int)]))
        res = design_info_stage(model, OptimizerConfig(seed=k, max_outer_iters=30))
        sign_err = error_h(model, NetworkMapping(tuple(sign)))
        assert error_h(model, res.mapping) <= sign_err + 1e-12


def test_design_lip_unbounded_info_budget_matches_ldp_on_random_models():
    for k, model in enumerate(random_models_with_skewed_priors(6, seed=32)):
        for eps_ld in (0.5, 2.0):
            cfg = OptimizerConfig(eps_ld=eps_ld, seed=k, restarts=2, max_outer_iters=30)
            lip = design_lip(model, cfg)
            assert lip.objective == pytest.approx(design_ldp(model, cfg).objective, abs=1e-9)


def test_design_profiles_meet_the_theta_they_report():
    # the profile's theta is the floor enforced, so the min risks clear it
    for k, model in enumerate(random_models_with_skewed_priors(4, seed=33)):
        for eps_i in (0.1, 1.0):
            cfg = OptimizerConfig(eps_i=eps_i, eps_ld=1.0, seed=k, restarts=2, max_outer_iters=30)
            profiles = [design_info_stage(model, cfg).profile]
            profiles += [d(model, cfg).profile for d in (design_ill, design_lip, design_inp)]
            for profile in profiles:
                if profile is None:
                    continue
                assert profile.theta == theta(eps_i, profile.c_g)
                assert min(profile.min_risks.values()) >= profile.theta - 1e-6


@pytest.mark.parametrize("field", ["restarts", "max_outer_iters", "z_size"])
def test_optimizer_config_requires_counts_of_at_least_one(field):
    with pytest.raises(ValueError, match=f"^'{field}' must be an integer of at least 1, got 0$"):
        OptimizerConfig(**{field: 0})
    assert getattr(OptimizerConfig(**{field: 1}), field) == 1


@pytest.mark.parametrize("field", ["eps_i", "eps_ld"])
@pytest.mark.parametrize("value", [math.nan, -0.5])
def test_optimizer_config_rejects_a_nan_or_negative_budget(field, value):
    with pytest.raises(ValueError, match=f"^'{field}' must be nonnegative"):
        OptimizerConfig(**{field: value})


def test_mixture_lp_infeasible_raises_lp_infeasible():
    """No mixture meets the floor: the LP's own error reaches ``design_info_stage``."""
    err = np.array([0.1, 0.2])
    risks = {1: np.array([0.1, 0.2]), 3: np.array([0.3, 0.05])}
    with pytest.raises(LPInfeasible):
        _solve_mixture_lp(err, risks, 0.45)


def test_design_info_stage_keeps_its_start_when_no_sweep_step_is_feasible(monkeypatch):
    """An infeasible block LP at sweep 0 ends the descent at the start, which meets its floor."""
    model = generate_correlated_model(seed=5, s=2, x_size=3, target_corr=0.4)
    cfg = OptimizerConfig(eps_i=0.5, seed=1)
    start, enforced, _ = design_mod._info_stage_start(model, cfg.eps_i, cfg.z_size)

    def infeasible(err, risks, th):
        raise LPInfeasible("no mixture meets the floor")

    monkeypatch.setattr(design_mod, "_solve_mixture_lp", infeasible)
    res = design_info_stage(model, cfg)
    kept = design_mod._enforce_info_budget(model, start, cfg.eps_i)
    assert [c.rows.tolist() for c in res.mapping.channels] == [c.rows.tolist() for c in kept]
    assert (res.profile.c_g, res.profile.theta) == enforced
    assert len(res.trace) == 1 and not res.converged



def test_the_information_stage_pushes_its_start_once(monkeypatch):
    """``_descend`` reads sweep 0 from the push ``_info_stage_start`` made, and pushes no start of its own."""
    model = generate_correlated_model(seed=5, s=2, x_size=3, target_corr=0.4)
    descents = []
    descend = design_mod._descend

    def recorded(*args):
        descents.append(args)
        return descend(*args)

    monkeypatch.setattr(design_mod, "_descend", recorded)
    design_info_stage(model, OptimizerConfig(eps_i=0.5, seed=1))
    ((_, start, *_, pushed),) = descents
    assert pushed.mapping.channels == tuple(start)

    def infeasible(prepared, chans, t):
        raise LPInfeasible("no step")

    pushes, prepared = [], []
    monkeypatch.setattr(design_mod, "push_forward", lambda *args: pushes.append(args))
    assert descend(model, start, 10, prepared.append, infeasible, pushed) == (start, [], False, None)
    assert prepared == [pushed] and pushes == []


@pytest.mark.parametrize("eps_i", [1e-20, 1e-16])
def test_info_stage_starts_where_theta_rounds_to_one_half(eps_i):
    """At a vanishing budget theta is 1/2; the constant start, of risk exactly 1/2, still starts."""
    rng = np.random.default_rng(0)
    for _ in range(40):
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6)), 1)
        res = design_info_stage(model, OptimizerConfig(eps_i=eps_i, max_outer_iters=5))
        assert metrics.info_privacy_budget(push_forward(model, res.mapping)) <= 1e-15


def _descent_model():
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    sign = design_mod._likelihood_sign_quantizers(model, 2)
    return model, list(random_mapping(3, model.s, model.x_size, 2).channels), sign


def test_descend_rejects_a_sweep_whose_error_rises():
    """Sweep 0 moves to the sign quantizers; sweep 1 blinds every sensor and is rejected."""
    model, start, sign = _descent_model()
    blind = SensorChannel(np.array([[1.0, 0.0]] * model.x_size))
    sign_err = error_h(model, NetworkMapping(tuple(sign)))
    assert sign_err < min(model.prior.sum(axis=1)) - 1e-3  # the blind sweep's error is higher
    sweeps = []

    def prepare(pushed):
        sweeps.append(pushed)
        return len(sweeps) - 1

    def block(k, chans, t):
        return sign[t] if k == 0 else blind

    chans, trace, converged, kept = design_mod._descend(model, start, 10, prepare, block)
    assert chans == sign and trace == [sign_err] and not converged and kept == 0
    assert len(sweeps) == 2


def test_descend_keeps_its_start_when_sweep_zero_is_infeasible():
    model, start, _ = _descent_model()

    def block(prepared, chans, t):
        raise LPInfeasible("no step")

    assert design_mod._descend(model, start, 10, lambda p: "rule", block) == (start, [], False, None)


def test_descend_ends_converged_on_an_unchanged_sweep():
    model, start, _ = _descent_model()
    chans, trace, converged, kept = design_mod._descend(
        model, start, 10, lambda p: "rule", lambda prepared, chans, t: chans[t]
    )
    assert chans == start and converged and kept == "rule"
    assert trace == [error_h(model, NetworkMapping(tuple(start)))]


def test_only_the_descent_holds_the_stop_rules():
    """No function of ``design`` but ``_descend`` reads CONVERGENCE_TOL or catches LPInfeasible."""
    tree = ast.parse(pathlib.Path(design_mod.__file__).read_text(encoding="utf-8"))
    holders = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "CONVERGENCE_TOL":
                holders.add((fn.name, "CONVERGENCE_TOL"))
            if isinstance(node, ast.ExceptHandler) and node.type is not None and "LPInfeasible" in {
                n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)
            }:
                holders.add((fn.name, "LPInfeasible"))
    assert holders == {("_descend", "CONVERGENCE_TOL"), ("_descend", "LPInfeasible")}

def test_design_ill_budget_audits():
    model = generate_correlated_model(seed=9, s=2, x_size=3, target_corr=0.2)
    for eps_i, eps_ld in ((0.1, 0.5), (1.0, 2.0)):
        cfg = OptimizerConfig(eps_i=eps_i, eps_ld=eps_ld, seed=4, restarts=2)
        res = design_ill(model, cfg)
        assert res.report.eps_ldp <= eps_ld + 1e-9
        assert res.report.eps_info <= eps_i + 1e-9
        assert res.mapping.arch == "ill"


def test_design_lip_budget_audits():
    model = generate_correlated_model(seed=9, s=2, x_size=3, target_corr=0.2)
    for eps_i, eps_ld in ((0.1, 0.5), (1.0, 2.0)):
        cfg = OptimizerConfig(eps_i=eps_i, eps_ld=eps_ld, seed=4, restarts=2)
        res = design_lip(model, cfg)
        assert res.report.eps_ldp <= eps_ld + 1e-9
        assert res.report.eps_info <= eps_i + 1e-9



def test_design_lip_keeps_a_local_stage_that_meets_eps_i_on_the_s6_bench_cell():
    """The bench's s=6 local stage at eps_LD 0.5 audits at eps_info 0.608 <= 1, so lip is ldp."""
    model = generate_correlated_model(seed=0, s=6, x_size=6)
    cfg = OptimizerConfig(eps_i=1.0, seed=1)
    lip, ldp = (chain_designs(model, arch, [0.5, 1.0], cfg)[0] for arch in ("lip", "ldp"))
    assert ldp.report.eps_info <= 1.0
    assert lip.objective == pytest.approx(0.33110503965176696, abs=1e-12)
    assert lip.objective == pytest.approx(ldp.objective, abs=1e-12)
    assert lip.profile is None and lip.converged == ldp.converged
    for ch in lip.mapping.stage2.channels:
        assert np.array_equal(ch.rows, np.eye(2))


def test_design_lip_objective_is_its_local_stage_error_when_that_meets_eps_i():
    rng = np.random.default_rng(7)
    met = 0
    for k in range(12):
        model = random_model(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6)), 1)
        for eps_i in (0.3, 1.0):
            cfg = OptimizerConfig(eps_i=eps_i, eps_ld=1.0, seed=k, restarts=2, max_outer_iters=30)
            ldp = design_ldp(model, cfg)
            lip = design_lip(model, cfg)
            assert lip.objective <= ldp.objective + 1e-12 or ldp.report.eps_info > eps_i
            if ldp.report.eps_info <= eps_i:
                met += 1
                assert lip.objective == pytest.approx(ldp.objective, abs=1e-12)
                assert lip.trace == ldp.trace
    assert met >= 6

def test_design_ill_runs_its_local_stage_at_the_full_budget():
    """The composed local budget is bounded by stage 2's alone, so halving it wastes budget."""
    model = generate_correlated_model(seed=5, s=3, x_size=5)
    res = design_ill(model, OptimizerConfig(eps_i=1.0, eps_ld=0.5))
    assert 0.25 + 1e-9 < res.report.eps_ldp <= 0.5 + 1e-9
    assert res.report.eps_info <= 1.0 + 1e-9


def test_design_ill_unbounded_local_budget_keeps_info_guarantee():
    model = generate_correlated_model(seed=10, s=2, x_size=3, target_corr=0.2)
    cfg = OptimizerConfig(eps_i=0.2, eps_ld=math.inf, seed=5, restarts=2)
    res = design_ill(model, cfg)
    # post-processing closure: any second stage preserves the budget
    assert res.report.eps_info <= 0.2 + 1e-9
    for ch in res.mapping.stage2.channels:
        assert np.isin(ch.rows, (0.0, 1.0)).all()


def test_design_two_stage_zero_local_budget_blinds_everything():
    model = generate_correlated_model(seed=11, s=2, x_size=3, target_corr=0.2)
    p_min = min(model.prior.sum(axis=1))
    for designer in (design_ill, design_lip):
        cfg = OptimizerConfig(eps_i=0.5, eps_ld=0.0, seed=6, restarts=2)
        res = designer(model, cfg)
        assert res.objective == pytest.approx(p_min, abs=1e-9)
        assert res.report.eps_info <= 1e-9


def test_design_lip_vacuous_info_constraint_reduces_to_ldp():
    model = generate_correlated_model(seed=12, s=2, x_size=3, target_corr=0.2)
    cfg = OptimizerConfig(eps_i=math.inf, eps_ld=1.0, seed=7, restarts=3)
    lip = design_lip(model, cfg)
    ldp = design_ldp(model, cfg)
    assert lip.objective == pytest.approx(ldp.objective, abs=1e-9)


def test_design_inp_respects_budget_and_improves_on_theta_stage():
    model = generate_correlated_model(seed=13, s=3, x_size=4, target_corr=0.2)
    cfg = OptimizerConfig(eps_i=0.2, seed=8)
    res = design_inp(model, cfg)
    assert res.report.eps_info <= 0.2 + 1e-9
    stage = design_info_stage(model, cfg)
    stage_err = error_h(model, stage.mapping)
    assert res.objective <= stage_err + 1e-12


@pytest.mark.parametrize("eps_i", [0.5, 1.0])
def test_design_inp_trace_ends_at_the_returned_objective(eps_i):
    """The water-filled mapping wins at 0.5, the shrunk info-stage mapping at 1.0."""
    model = generate_correlated_model(seed=3, s=2, x_size=3)
    cfg = OptimizerConfig(eps_i=eps_i, restarts=3)
    res = design_inp(model, cfg)
    assert (res.profile is None) == (eps_i == 0.5)
    assert res.trace[-1] == res.objective
    stage = design_info_stage(model, cfg)
    assert stage.trace[-1] == bayes_error_H_pushed(push_forward(model, stage.mapping))


def test_mix_toward_mean_with_a_shared_memo_matches_a_fresh_call():
    """Water-fill trials share a memo of mixed channels; each result is a fresh call's."""
    model = generate_correlated_model(seed=2, s=4, x_size=5)
    rows = [ch.rows for ch in random_mapping(3, 4, 5, 3).channels]
    memo, seen = {}, set()
    weights = np.zeros(4)
    for t, w in [(0, 0.1), (2, 0.1), (0, 0.2), (3, 0.02), (2, 0.12), (0, 0.1)]:
        weights[t] = w
        seen |= set(enumerate(weights.tolist()))
        shared = design_mod._mix_toward_mean(model, rows, weights, memo)
        fresh = design_mod._mix_toward_mean(model, rows, weights)
        assert shared[0] == fresh[0]
        assert all(a.rows.tobytes() == b.rows.tobytes() for a, b in zip(shared[1], fresh[1]))
    assert set(memo) == seen  # one channel per (sensor, weight) ever asked for


def _sixty_step_bisection(model, chans, eps_i):
    """``_enforce_info_budget``'s bisection run all 60 steps, then ``audit(lo)``:
    (channels, the number of steps whose midpoint differs from both ends, lo)."""
    rows = [c.rows for c in chans]
    lo, hi, fresh = 0.0, 1.0, 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fresh += mid not in (lo, hi)
        if design_mod._mix_toward_mean(model, rows, np.full(model.s, mid))[0] <= eps_i:
            lo = mid
        else:
            hi = mid
    return design_mod._mix_toward_mean(model, rows, np.full(model.s, lo))[1], fresh, lo


def test_enforce_info_budget_audits_each_midpoint_once(monkeypatch):
    """The same channels as the 60-step loop; one audit at w = 1, one per fresh
    midpoint, and one at w = 0 only where no midpoint passed."""
    mix = design_mod._mix_toward_mean
    calls = []
    monkeypatch.setattr(design_mod, "_mix_toward_mean", lambda *a: calls.append(a) or mix(*a))
    rng = np.random.default_rng(41)
    rounded = False
    for i in range(24):
        s = int(rng.integers(1, 4))
        model = random_model(rng, s, int(rng.integers(2, 5)), 1)
        chans = list(random_mapping(i, s, model.x_size, 2).channels)
        full = metrics.info_privacy_budget(push_forward(model, NetworkMapping(tuple(chans))))
        eps_i = (0.5 * full, 0.05 * full, 0.0)[i % 3]
        want, fresh, lo = _sixty_step_bisection(model, chans, eps_i)
        calls.clear()
        got = design_mod._enforce_info_budget(model, chans, eps_i)
        assert [c.rows.tolist() for c in got] == [c.rows.tolist() for c in want]
        assert len(calls) == 1 + fresh + (lo == 0.0)
        rounded |= fresh < 60
    assert rounded


def test_chain_designs_monotone_objective():
    model = generate_correlated_model(seed=14, s=2, x_size=4, target_corr=0.2)
    grid = [0.5, 1.0, 2.0, math.inf]
    for arch in ("ldp", "ill", "lip"):
        cfg = OptimizerConfig(eps_i=0.3, seed=9, restarts=2, max_outer_iters=30)
        results = chain_designs(model, arch, grid, cfg)
        objs = [r.objective for r in results]
        assert all(b <= a + 1e-6 for a, b in zip(objs, objs[1:])), (arch, objs)


@pytest.mark.parametrize("arch", ["ldp", "ill", "lip", "inp"])
@pytest.mark.parametrize("eps_i", [0.5, 1.0])
def test_design_report_is_the_audit_of_the_returned_mapping(arch, eps_i):
    """For inp the water-filled mapping wins at 0.5, the info-stage mapping at 1.0."""
    model = generate_correlated_model(seed=3, s=2, x_size=3)
    res = design(model, arch, OptimizerConfig(eps_i=eps_i, eps_ld=1.0, restarts=3))
    if arch == "inp":
        assert (res.profile is None) == (eps_i == 0.5)
    assert res.report == full_report(model, res.mapping.network())


@pytest.mark.parametrize("arch", ["ldp", "ill", "lip"])
def test_chain_fallback_keeps_the_audit_of_the_reused_mapping(monkeypatch, arch):
    model = generate_correlated_model(seed=14, s=2, x_size=4, target_corr=0.2)
    real = design_mod.design

    def blind_at_one(model, arch, cfg, **kwargs):
        # a fresh design held to budget zero is worse than the previous grid point
        if cfg.eps_ld == 1.0:
            cfg = dataclasses.replace(cfg, eps_ld=0.0)
        return real(model, arch, cfg, **kwargs)

    monkeypatch.setattr(design_mod, "design", blind_at_one)
    cfg = OptimizerConfig(eps_i=0.3, seed=9, restarts=2, max_outer_iters=30)
    low, high = chain_designs(model, arch, [0.5, 1.0], cfg)
    assert high.mapping is low.mapping  # the previous mapping was reused
    assert high.report == full_report(model, high.mapping.network())


def test_design_results_serialize(tmp_path):
    import json

    model = generate_correlated_model(seed=15, s=2, x_size=3, target_corr=0.2)
    cfg = OptimizerConfig(eps_i=0.3, eps_ld=1.0, seed=10, restarts=2)
    res = design_ill(model, cfg)
    payload = res.to_dict()
    text = json.dumps(payload)
    assert "stage1" in payload["mapping"]
    assert json.loads(text)["converged"] in (True, False)


def _count_calls(monkeypatch, name):
    """The list that grows by one on each call of ``design.<name>`` from now on."""
    calls, real = [], getattr(design_mod, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(design_mod, name, counted)
    return calls


@pytest.mark.parametrize("change, shared", [
    ({}, True),
    ({"eps_i": 0.5}, True),  # the local stage reads no eps_i
    ({"seed": 1}, False),
    ({"eps_ld": 2.0}, False),
    ({"z_size": 3}, False),
    ({"restarts": 2}, False),
])
def test_a_local_stage_is_designed_once_per_model_and_input(monkeypatch, change, shared):
    model = generate_correlated_model(seed=4, s=2, x_size=3)
    cfg = OptimizerConfig(eps_ld=1.0, restarts=1, max_outer_iters=10)
    first = design_ldp(model, cfg)
    steps = _count_calls(monkeypatch, "block_objective_coefficients")  # in either block step
    second = design_ldp(model, dataclasses.replace(cfg, **change))
    assert (not steps) == shared
    assert (second.mapping is first.mapping) == shared


def test_a_warm_start_or_a_replaced_model_designs_the_local_stage_afresh(monkeypatch):
    model = generate_correlated_model(seed=4, s=2, x_size=3)
    cfg = OptimizerConfig(eps_ld=1.0, restarts=1, max_outer_iters=10)
    first = design_ldp(model, cfg)
    assert design_lip(model, cfg).mapping.stage1 is first.mapping
    steps = _count_calls(monkeypatch, "ldp_closed_form_step")
    warm = design_ldp(model, cfg, warm=first)
    assert steps and warm.mapping is not first.mapping
    steps.clear()
    again = design_ldp(dataclasses.replace(model), cfg)
    assert steps and again.mapping is not first.mapping
    assert [c.rows.tolist() for c in again.mapping.channels] == [
        c.rows.tolist() for c in first.mapping.channels
    ]


@pytest.mark.parametrize("change, shared", [
    ({"eps_ld": 2.0}, True),  # the information stage reads no eps_ld
    ({"eps_i": 0.5}, False),
    ({"seed": 1}, False),
    ({"z_size": 3}, False),
])
def test_an_information_stage_is_designed_once_per_model_and_input(monkeypatch, change, shared):
    model = generate_correlated_model(seed=4, s=2, x_size=3)
    cfg = OptimizerConfig(eps_i=1.0, eps_ld=1.0, max_outer_iters=10)
    first = design_info_stage(model, cfg)
    lps = _count_calls(monkeypatch, "_solve_mixture_lp")
    second = design_info_stage(model, dataclasses.replace(cfg, **change))
    assert (not lps) == shared
    assert (second is first) == shared
    lps.clear()
    assert design_info_stage(dataclasses.replace(model), cfg) is not first
    assert lps
