import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from privdet import metrics, relations
from privdet.channels import (
    NetworkMapping,
    SensorChannel,
    identity_mapping,
    random_mapping,
    randomized_response,
    uniform_mapping,
)
from privdet.metrics import (
    BudgetReport,
    avg_info_leakage,
    delta_x,
    empirical_budgets,
    full_report,
    identifiability_budget,
    inference_dp_budget,
    info_privacy_budget,
    ldp_budget,
    max_abs_log_posterior_ratio,
    mutual_info_privacy_budget,
    mutual_information,
)
from privdet.model import (
    JointModel,
    generate_correlated_model,
    push_forward,
    table3_model,
)
from privdet.relations import example1_joint, random_model

from _oracles import (
    empirical_eps_i_dict,
    kron_joint_xz,
    mutual_information_direct,
    oracle_report,
    pairwise_inference_dp,
    pairwise_neighbor_budget,
)

LOG2 = math.log(2.0)


def gz_model(p_gz):
    """Embed a (G, Z)-like table as a 1-sensor model with identity channel.

    H is independent uniform so every pushed view reduces to the table.
    """
    p_gz = np.asarray(p_gz, dtype=float)
    n_g, n_x = p_gz.shape
    q = int(math.log2(n_g))
    prior = np.stack([p_gz.sum(axis=1) / 2] * 2)
    cond = np.zeros((2, n_g, n_x))
    for g in range(n_g):
        if p_gz[g].sum() > 0:
            cond[:, g, :] = p_gz[g] / p_gz[g].sum()
        else:
            cond[:, g, :] = 1.0 / n_x
    model = JointModel(1, n_x, q, prior, (cond,))
    return push_forward(model, identity_mapping(1, n_x))


# -- local budget ---------------------------------------------------------------


def test_ldp_budget_identical_rows_zero():
    mapping = uniform_mapping(2, 3, 2)
    assert ldp_budget(mapping) == 0.0


def test_ldp_budget_identity_infinite():
    assert ldp_budget(identity_mapping(1, 2)) == math.inf


def test_ldp_budget_randomized_response_exact():
    mapping = NetworkMapping((randomized_response(2, 1.0),))
    assert ldp_budget(mapping) == pytest.approx(1.0, abs=1e-12)


def _seeded_tables():
    """400 (table, axes): 1 to 4 axes with zeros, all-zero fibers and -0.0, over a random set of axes."""
    rng = np.random.default_rng(17)
    for _ in range(400):
        shape = tuple(int(n) for n in rng.integers(1, 4, size=rng.integers(1, 5)))
        table = rng.random(shape) * (rng.random(shape) > rng.choice([0.0, 0.3, 0.7]))
        table[(table == 0) & (rng.random(shape) < 0.5)] = -0.0
        axes = tuple(int(t) for t in np.flatnonzero(rng.random(len(shape)) < 0.6)) or (0,)
        yield table, axes


def test_neighbor_axis_budget_matches_the_pair_loop_exactly():
    kinds = set()
    for table, axes in _seeded_tables():
        oracle = max(pairwise_neighbor_budget(np.moveaxis(table, t, 0)) for t in axes)
        assert metrics._neighbor_axis_budget(table, axes) == oracle
        kinds.add(math.isinf(oracle) or oracle > 0)
        kinds.add("dead fiber" if (table.max(axes[0]) == 0).any() else "live")
    assert kinds == {False, True, "dead fiber", "live"}


def test_the_reductions_over_a_stack_equal_a_loop_of_unstacked_calls():
    """Each seeded table, stacked with the others of its shape on one and on two leading axes."""
    seeded = list(_seeded_tables())
    by_shape = {}
    for table, _ in seeded:
        by_shape.setdefault(table.shape, []).append(table)
    assert {len(group) for group in by_shape.values()} >= {1, 2, 3}
    for table, axes in seeded:
        group = by_shape[table.shape]
        stack = np.stack(group)
        loop = [metrics._neighbor_axis_budget(t, axes) for t in group]
        assert metrics._neighbor_axis_budget(stack, axes, lead=1).tolist() == loop
        assert metrics._neighbor_axis_budget(np.stack([stack] * 2), axes, lead=2).tolist() == [loop] * 2
        flat = [t.reshape(t.shape[0], -1) for t in group]
        for reduce in (mutual_information, max_abs_log_posterior_ratio):
            loop = [reduce(t) for t in flat]
            assert reduce(np.stack(flat)).tolist() == loop
            assert reduce(np.stack([np.stack(flat)] * 2)).tolist() == [loop] * 2


@pytest.mark.parametrize(
    "table, expected",
    [
        ([[0.5, 0.0], [0.5, 0.2]], math.inf),  # a column mixing zero and positive
        ([[0.0, 0.2], [0.0, 0.8]], math.log(4.0)),  # an all-zero column is skipped
        ([[0.0, 0.0], [0.0, 0.0]], 0.0),
        ([[0.3, 0.7]], 0.0),  # fewer than two entries to compare
    ],
)
def test_neighbor_axis_budget_zero_conventions(table, expected):
    table = np.array(table)
    assert metrics._neighbor_axis_budget(table) == pairwise_neighbor_budget(table)
    assert metrics._neighbor_axis_budget(table) == pytest.approx(expected, abs=1e-15)


# -- posterior-ratio budget -------------------------------------------------------


def test_info_budget_independent_is_zero():
    pushed = gz_model(np.outer([0.3, 0.7], [0.6, 0.4]))
    assert info_privacy_budget(pushed) == pytest.approx(0.0, abs=1e-14)


def test_info_budget_uniform_conditionals_any_mapping():
    prior = np.full((2, 2), 0.25)
    conds = tuple(np.full((2, 2, 3), 1.0 / 3) for _ in range(2))
    model = JointModel(2, 3, 1, prior, conds)
    for seed in range(5):
        pushed = push_forward(model, random_mapping(seed, 2, 3, 2))
        assert info_privacy_budget(pushed) <= 1e-10


def test_info_budget_corner_mass_half():
    pushed = gz_model(example1_joint(0.5))
    assert info_privacy_budget(pushed) == pytest.approx(LOG2, abs=1e-12)


# -- neighboring-hypothesis budget ------------------------------------------------


def test_inference_dp_independent_zero():
    pushed = gz_model(np.outer([0.5, 0.5], [0.25, 0.75]))
    assert inference_dp_budget(pushed) == pytest.approx(0.0, abs=1e-14)


def test_inference_dp_symmetric_channel():
    c = 1.0 / (1.0 + math.e)
    p_gz = 0.5 * np.array([[1 - c, c], [c, 1 - c]])
    assert inference_dp_budget(gz_model(p_gz)) == pytest.approx(1.0, abs=1e-12)


def test_inference_dp_matches_the_pair_loop_exactly():
    """Random (G, Z) tables with zero cells and dead values of g, q = 1 to 3."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        q = int(rng.integers(1, 4))
        n_z = int(rng.integers(1, 5))
        zeros = rng.choice([0.0, 0.1, 0.3])
        table = rng.random((2 ** q, n_z)) * (rng.random((2 ** q, n_z)) >= zeros)
        table[rng.random(2 ** q) < 0.25] = 0.0  # dead rows: p(g) = 0
        if table.sum() == 0:
            continue
        pushed = gz_model(table / table.sum())
        assert metrics.inference_dp_budget(pushed) == pairwise_inference_dp(pushed.p_gz(), q)


def test_inference_dp_at_most_twice_info_budget():
    rng = np.random.default_rng(0)
    for _ in range(500):
        s = int(rng.integers(1, 3))
        model = random_model(rng, s, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        mapping = random_mapping(int(rng.integers(1 << 30)), s, model.x_size, 2)
        pushed = push_forward(model, mapping)
        assert inference_dp_budget(pushed) <= 2 * info_privacy_budget(pushed) + 1e-9


# -- mutual informations ----------------------------------------------------------


def test_mutual_information_independent_zero():
    assert mutual_information(np.outer([0.4, 0.6], [0.1, 0.9])) == pytest.approx(
        0.0, abs=1e-15
    )


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.01])
def test_mutual_information_corner_mass_formula(alpha):
    expected = alpha * math.log(1 / alpha) + (1 - alpha) * math.log(1 / (1 - alpha))
    assert mutual_information(example1_joint(alpha)) == pytest.approx(expected, abs=1e-12)


def test_mutual_information_perfect_correlation():
    assert mutual_information(np.diag([0.5, 0.5])) == pytest.approx(LOG2, abs=1e-15)


def test_mutual_information_symmetric_nonnegative():
    rng = np.random.default_rng(1)
    gapped = []
    for _ in range(20):  # one all-zero row and one all-zero column
        joint = rng.dirichlet(np.ones(20)).reshape(4, 5)
        joint[rng.integers(4)] = 0.0
        joint[:, rng.integers(5)] = 0.0
        gapped.append(joint / joint.sum())
    full = [rng.dirichlet(np.ones(12)).reshape(3, 4) for _ in range(50)]
    for joint in full + gapped:
        a = mutual_information(joint)
        assert a >= -1e-15
        assert a == pytest.approx(mutual_information(joint.T), abs=1e-12)
        assert a == pytest.approx(mutual_information_direct(joint), abs=1e-12)


# -- the (X, Z) table against its Kronecker build ------------------------------------


def _quantizer_mapping(s, x_size):
    """Each sensor reports whether its symbol lies in the upper half: a deterministic channel."""
    rows = np.eye(2)[(np.arange(x_size) >= x_size // 2).astype(int)]
    return NetworkMapping((SensorChannel(rows),) * s)


def _assert_xz_table_is_the_kron_table(model):
    s, x_size = model.s, model.x_size
    mappings = [random_mapping(7, s, x_size, z) for z in (2, 3)]
    mappings += [identity_mapping(s, x_size), _quantizer_mapping(s, x_size)]
    for mapping in mappings:
        pushed = push_forward(model, mapping)
        oracle = kron_joint_xz(pushed)
        assert np.array_equal(metrics._joint_xz(pushed), oracle)
        assert mutual_info_privacy_budget(pushed) == mutual_information(oracle)
        shaped = oracle.reshape((x_size,) * s + (pushed.n_z,))
        assert identifiability_budget(pushed) == metrics._neighbor_axis_budget(shaped, range(s))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("x_size", [3, 5])
def test_xz_table_matches_the_kron_table_on_generated_models(seed, s, x_size):
    _assert_xz_table_is_the_kron_table(generate_correlated_model(seed=seed, s=s, x_size=x_size))


def test_xz_table_matches_the_kron_table_on_a_positive_model():
    """Strictly positive bound-suite draws of 1 to 3 sensors take the Kronecker build."""
    rng = np.random.default_rng(11)
    for s, x_size, q in [(3, 4, 1), (1, 2, 1), (2, 5, 2), (3, 3, 2), (2, 2, 1)]:
        model = random_model(rng, s, x_size, q)
        assert np.all(model.p_x() > 0)
        _assert_xz_table_is_the_kron_table(model)


def test_full_report_matches_the_oracle_report_on_bound_suite_draws():
    """Neighbor budgets bit for bit, information terms to 1e-12, on 500 draws of each mapping kind."""
    rng = np.random.default_rng(31)
    infinite = set()
    for i in range(1500):
        s, x_size = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        model = random_model(rng, s, x_size, int(rng.integers(1, 3)))
        mapping = relations._random_mapping(rng, i % 3, s, x_size, int(rng.integers(2, 4)))
        report = full_report(model, mapping)
        neighbors, information = oracle_report(push_forward(model, mapping))
        for field, value in neighbors.items():
            assert getattr(report, field) == value, field
            infinite.add((field, math.isinf(value)))
        for field, value in information.items():
            assert getattr(report, field) == pytest.approx(value, abs=1e-12), field
    assert ("eps_ldp", True) in infinite and ("eps_identifiability", False) in infinite


def _dead_g_model(rng, s, x_size):
    """A q = 2 bound-suite model whose prior has a zero column: g = 2 never occurs."""
    model = random_model(rng, s, x_size, 2)
    prior = model.prior.copy()
    prior[:, 2] = 0.0
    return JointModel(s, x_size, 2, prior / prior.sum(), model.conditionals)


def test_a_report_stack_equals_full_report_on_every_pair():
    """Suite-style draws of all three mapping kinds, stacked by shape and one at a time, with dead-g priors."""
    rng = np.random.default_rng(41)
    groups = {}
    for i in range(720):
        s, x_size, z_size = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(2, 4))
        q = int(rng.integers(1, 3))
        model = _dead_g_model(rng, s, x_size) if i % 10 == 9 else random_model(rng, s, x_size, q)
        mapping = relations._random_mapping(rng, i % 3, s, x_size, z_size)
        groups.setdefault((s, x_size, z_size, model.q), []).append((model, mapping))
    sizes, seen = set(), set()
    for pairs in [stack for group in groups.values() for stack in (group, group[:1])]:
        report = metrics.report_stack(
            np.stack([m.prior for m, _ in pairs]),
            np.stack([np.stack(m.conditionals) for m, _ in pairs]),
            np.stack([np.stack([ch.rows for ch in mp.channels]) for _, mp in pairs]),
        )
        sizes.add(len(pairs))
        for i, (model, mapping) in enumerate(pairs):
            one = full_report(model, mapping)
            for field in dataclasses.fields(BudgetReport):
                value = getattr(one, field.name)
                assert getattr(report, field.name)[i] == value, field.name
                seen.add((field.name, math.isinf(value)))
            seen.add(("dead g", not model.prior.sum(axis=0).all()))
    assert 1 in sizes and max(sizes) > 20
    assert {("eps_ldp", True), ("eps_identifiability", True), ("dead g", True)} <= seen


# -- the support rules against the full-table scan ----------------------------------


def _box_support_model(rng, s, x_size, q):
    """A strictly positive random model whose sensor 0 never emits symbol 0."""
    model = random_model(rng, s, x_size, q)
    first = model.conditionals[0].copy()
    first[:, :, 0] = 0.0
    first /= first.sum(axis=-1, keepdims=True)
    return JointModel(s, x_size, q, model.prior, (first,) + model.conditionals[1:])


def _support_rule_cases():
    """(model, mapping) pairs from the four families the support rules must match."""
    rng = np.random.default_rng(24)
    models = [generate_correlated_model(seed=seed, s=s, x_size=x_size)
              for seed in range(4) for s in (1, 2, 3, 4) for x_size in (3, 5, 6)]
    models += [random_model(rng, s, x_size, q)
               for q in (1, 2) for s in (1, 2, 3) for x_size in (2, 3, 4)]
    models += [_box_support_model(rng, s, x_size, q)
               for q in (1, 2) for s in (1, 2, 3) for x_size in (2, 3, 4)]
    for model in models:
        s, x_size = model.s, model.x_size
        mappings = [random_mapping(5, s, x_size, z) for z in (2, 3)]
        mappings += [relations._random_mapping(rng, 0, s, x_size, z) for z in (2, 3)]
        mappings.append(identity_mapping(s, x_size))
        for mapping in mappings:
            yield model, mapping


def test_support_rules_equal_the_full_table_scan():
    """Each budget is the scan of the whole Kronecker-built table, bit for bit."""
    verdicts = set()
    cases = 0
    for model, mapping in _support_rule_cases():
        pushed = push_forward(model, mapping)
        oracle = kron_joint_xz(pushed)
        shape = (model.x_size,) * model.s
        eps_id = identifiability_budget(pushed)
        assert eps_id == metrics._neighbor_axis_budget(oracle.reshape(shape + (-1,)), range(model.s))
        assert mutual_info_privacy_budget(pushed) == mutual_information(oracle)
        gap = delta_x(model)
        assert gap == metrics._neighbor_axis_budget(model.p_x().reshape(shape), range(model.s))
        verdicts |= {("id", math.isinf(eps_id)), ("dx", math.isinf(gap))}
        cases += 1
    assert cases >= 400
    assert verdicts == {(k, v) for k in ("id", "dx") for v in (False, True)}


def test_a_report_on_a_fresh_model_builds_the_joint_once(monkeypatch):
    calls = []
    build = JointModel.joint_hgx

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(JointModel, "joint_hgx", counted)
    model = generate_correlated_model(seed=2, s=3, x_size=4)
    full_report(model, random_mapping(1, 3, 4, 2))
    assert len(calls) == 1


@pytest.mark.parametrize("model, mapping", [
    (generate_correlated_model(seed=0, s=6, x_size=6), random_mapping(1, 6, 6, 2)),
    (table3_model(4), random_mapping(1, 4, 11, 3)),
], ids=["s6-x6-z2", "table3-s4-z3"])
def test_a_report_allocates_at_most_two_xz_tables(model, mapping):
    """The audit's peak allocation stays under two n_x by n_z float tables."""
    tracemalloc.start()
    try:
        full_report(model, mapping)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = model.n_x * push_forward(model, mapping).n_z * 8
    assert peak <= 2 * table_bytes


# -- identifiability and the prior gap ---------------------------------------------


def test_delta_x_uniform_prior_zero():
    prior = np.full((2, 2), 0.25)
    conds = tuple(np.full((2, 2, 3), 1.0 / 3) for _ in range(2))
    model = JointModel(2, 3, 1, prior, conds)
    assert delta_x(model) == pytest.approx(0.0, abs=1e-12)


def test_identifiability_bounded_by_budget_under_uniform_prior():
    prior = np.full((2, 2), 0.25)
    conds = tuple(np.full((2, 2, 3), 1.0 / 3) for _ in range(2))
    model = JointModel(2, 3, 1, prior, conds)
    for eps in (0.5, 1.0, 2.0):
        mapping = NetworkMapping(tuple(randomized_response(3, eps) for _ in range(2)))
        pushed = push_forward(model, mapping)
        assert identifiability_budget(pushed) <= eps + 1e-9


def test_identifiability_skewed_prior_identity_channel():
    prior = np.array([[0.4, 0.0], [0.1, 0.5]])
    cond = np.zeros((2, 2, 2))
    cond[0] = [0.8, 0.2]  # p(x | h = 0) regardless of g
    cond[1] = [0.2, 0.8]
    # arrange p_X = (0.8, 0.2): p(x=0) = 0.4*0.8 + 0.6*... use custom rows
    cond[:, :, :] = [[0.8, 0.2]]
    model = JointModel(1, 2, 1, prior, (cond,))
    pushed = push_forward(model, identity_mapping(1, 2))
    assert identifiability_budget(pushed) == math.inf
    assert delta_x(model) == pytest.approx(math.log(4.0), abs=1e-12)


# -- empirical estimators -----------------------------------------------------------


def test_empirical_budgets_constant_output():
    eps_i, eps_ld = empirical_budgets([0, 1, 0, 1, 1], [[0]] * 5, uniform_mapping(1, 2, 2))
    assert eps_i == 0.0
    assert eps_ld == 0.0


def test_empirical_budgets_single_sample():
    eps_i, _ = empirical_budgets([1], [[0, 1]], uniform_mapping(2, 2, 2))
    assert eps_i == 0.0


def test_empirical_budgets_empty_rejected():
    with pytest.raises(ValueError):
        empirical_budgets([], np.zeros((0, 1), dtype=int), uniform_mapping(1, 2, 2))


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("s", [1, 4])
@pytest.mark.parametrize("seed", range(3))
def test_empirical_budgets_match_a_per_sample_count(q, s, seed):
    """Random samples, plus a g value never drawn and a z vector seen under one g only."""
    rng = np.random.default_rng(seed)
    mapping = random_mapping(seed, s, 3, 3)
    n = 200
    drawn = [v for v in range(2 ** q) if v != 2]  # at q = 2, g = 2 is never sampled
    g = np.append(rng.choice(drawn, size=n), 0)
    z = np.vstack([rng.integers(0, 2, size=(n, s)), np.full((1, s), 2)])  # all-2 z: once, g = 0
    eps_i, eps_ld = empirical_budgets(g, z, mapping)
    assert eps_i == pytest.approx(empirical_eps_i_dict(g, z), rel=1e-12)
    assert eps_i > 0
    assert eps_ld == ldp_budget(mapping)


def test_empirical_budget_converges_to_log2():
    # exact posterior-ratio budget log 2: diagonal (G, X) through identity
    prior = np.array([[0.25, 0.25], [0.25, 0.25]])
    cond = np.zeros((2, 2, 2))
    cond[:, 0, :] = [1.0, 0.0]
    cond[:, 1, :] = [0.0, 1.0]
    model = JointModel(1, 2, 1, prior, (cond,))
    mapping = identity_mapping(1, 2)
    assert info_privacy_budget(push_forward(model, mapping)) == pytest.approx(LOG2)
    rng = np.random.default_rng(7)
    h, g, x = model.sample(100_000, rng)
    z = mapping.sample(x, rng)
    eps_i, eps_ld = empirical_budgets(g, z, mapping)
    assert abs(eps_i - LOG2) <= 0.1
    assert eps_ld == ldp_budget(mapping)


# -- aggregate report ----------------------------------------------------------------


def test_full_report_uniform_rows_all_zero_except_prior_terms():
    model = random_model(np.random.default_rng(3), 2, 3, 1)
    report = full_report(model, uniform_mapping(2, 3, 2))
    assert report.eps_info <= 1e-12
    assert report.eps_inference_dp <= 1e-12
    assert report.eps_avg_leakage <= 1e-12
    assert report.eps_ldp == 0.0
    assert report.eps_mutual_info <= 1e-12
    # with Z independent of X, the observation posterior equals the prior
    assert report.eps_identifiability == pytest.approx(report.delta_x, abs=1e-10)
    assert report.delta_x > 0


def test_full_report_identity_mapping_infinite_local_budget():
    model = random_model(np.random.default_rng(4), 1, 3, 1)
    report = full_report(model, identity_mapping(1, 3))
    assert report.eps_ldp == math.inf


def test_full_report_matches_individual_metrics():
    model = random_model(np.random.default_rng(5), 2, 3, 2)
    mapping = NetworkMapping(tuple(randomized_response(3, 1.5) for _ in range(2)))
    report = full_report(model, mapping)
    pushed = push_forward(model, mapping)
    assert report.eps_info == info_privacy_budget(pushed)
    assert report.eps_inference_dp == inference_dp_budget(pushed)
    assert report.eps_avg_leakage == avg_info_leakage(pushed)
    assert report.eps_ldp == ldp_budget(mapping)
    assert report.eps_mutual_info == mutual_info_privacy_budget(pushed)
    assert report.eps_identifiability == identifiability_budget(pushed)
    assert report.delta_x == delta_x(model)


def test_budgets_invariant_under_relabeling():
    rng = np.random.default_rng(6)
    model = random_model(rng, 2, 4, 1)
    mapping = random_mapping(9, 2, 4, 3)
    report = full_report(model, mapping)
    # permute the observation alphabet consistently in model and channels
    perm = np.array([2, 0, 3, 1])
    conds = tuple(c[:, :, perm] for c in model.conditionals)
    model_p = JointModel(2, 4, 1, model.prior, conds)
    zperm = np.array([1, 2, 0])
    chans = tuple(SensorChannel(ch.rows[perm][:, zperm]) for ch in mapping.channels)
    report_p = full_report(model_p, NetworkMapping(chans))
    for field in (
        "eps_info",
        "eps_inference_dp",
        "eps_avg_leakage",
        "eps_ldp",
        "eps_mutual_info",
        "eps_identifiability",
        "delta_x",
    ):
        assert getattr(report, field) == pytest.approx(
            getattr(report_p, field), abs=1e-10
        )


def test_report_serialization_round_trip():
    report = BudgetReport(0.1, 0.2, 0.05, math.inf, 0.3, math.inf, 0.7)
    data = report.to_dict()
    assert data["eps_ldp"] == "inf"
    fields = report.csv_fields()
    assert fields["eps_info_bits"] == pytest.approx(0.1 / LOG2)
