import ast
import math
from pathlib import Path

import numpy as np
import pytest

from privdet import metrics, relations
from privdet.channels import ModelFormatError
from privdet.metrics import mutual_information
from privdet.relations import (
    BOUND_SPECS,
    BOUND_TOL,
    DEFAULT_ALPHAS,
    STACK_CELLS,
    VERDICT_BOUND_HOLDS,
    VERDICT_NO_COMPARISON,
    VERDICT_NON_GUARANTEE,
    all_witnesses,
    check_bound_suite,
    example1_joint,
    mi_witness_joint,
    witness_ai_not_info,
    witness_info_not_ldp,
    witness_mi_not_info,
)

from _oracles import bound_suite_loop, random_model, random_suite_mapping

LOG2 = math.log(2.0)


# -- corner-mass family ---------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.01, 1e-4])
@pytest.mark.parametrize("shape", [(2, 2), (3, 4)])
def test_example1_total_mass(alpha, shape):
    assert example1_joint(alpha, *shape).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.01, 1e-4])
def test_example1_mutual_information_formula(alpha):
    expected = alpha * math.log(1 / alpha) + (1 - alpha) * math.log(1 / (1 - alpha))
    for shape in ((2, 2), (4, 3)):
        got = mutual_information(example1_joint(alpha, *shape))
        assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.1, 0.01, 1e-4])
def test_example1_corner_density_ratio(alpha):
    joint = example1_joint(alpha, 3, 3)
    p_u = joint.sum(axis=1)
    p_v = joint.sum(axis=0)
    assert p_u[0] == pytest.approx(alpha, abs=0)
    assert p_v[0] == pytest.approx(alpha, abs=0)
    ratio = joint[0, 0] / (p_u[0] * p_v[0])
    assert ratio == pytest.approx(1.0 / alpha, rel=1e-12)


def test_example1_rejects_bad_alpha():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            example1_joint(bad)


# -- witnesses -------------------------------------------------------------------


def test_ai_witness_half_point():
    w = witness_ai_not_info(alphas=(0.5,))
    _, eps_a, eps_b = w.points[0]
    assert eps_a == pytest.approx(LOG2, abs=1e-12)
    assert eps_b == pytest.approx(LOG2, abs=1e-12)


def test_ai_witness_hundredth_point():
    w = witness_ai_not_info(alphas=(0.01,))
    _, eps_a, eps_b = w.points[0]
    expected_a = 0.01 * math.log(100) + 0.99 * math.log(1 / 0.99)
    assert eps_a == pytest.approx(expected_a, abs=1e-12)
    assert eps_a == pytest.approx(0.0560, abs=5e-4)
    assert eps_b >= math.log(100) - 1e-12


def test_ai_witness_default_verdict():
    assert witness_ai_not_info().verdict == VERDICT_NON_GUARANTEE


def test_mi_witness_ratio_value():
    joint = mi_witness_joint(0.1, x_size=2, s=2, n_g=2)
    p_g = joint.sum(axis=1)
    p_z = joint.sum(axis=0)
    ratio = (joint[0, 0] / p_z[0]) / p_g[0]
    assert ratio == pytest.approx(4.0 / 7.0, abs=1e-12)


def test_mi_witness_vanishing_ratio_blows_budget():
    w = witness_mi_not_info()
    eps_b = [p[2] for p in w.points]
    assert eps_b[-1] > eps_b[0]
    assert w.verdict == VERDICT_NON_GUARANTEE


def test_mi_witness_mutual_information_at_half():
    w = witness_mi_not_info(alphas=(0.5,))
    assert w.points[0][1] == pytest.approx(LOG2, abs=1e-12)


def test_info_not_ldp_witness_exact():
    w = witness_info_not_ldp()
    _, eps_a, eps_b = w.points[0]
    assert eps_a == 0.0
    assert eps_b == math.inf
    assert w.verdict == VERDICT_NON_GUARANTEE


def test_info_not_mutual_info_witness_entropy():
    from privdet.relations import witness_info_not_mutual_info

    for x_size, s in ((2, 1), (2, 2), (4, 1)):
        w = witness_info_not_mutual_info(x_size=x_size, s=s)
        _, eps_a, eps_b = w.points[0]
        assert eps_a <= 1e-12
        assert eps_b == pytest.approx(s * math.log(x_size), abs=1e-10)


def test_all_witnesses_satisfy_negated_implication():
    for w in all_witnesses():
        eps_a = [p[1] for p in w.points]
        eps_b = [p[2] for p in w.points]
        assert all(b < a for a, b in zip(eps_a, eps_a[1:])), w.metric_a
        assert eps_a[-1] < 1e-6, (w.metric_a, w.metric_b)
        assert min(eps_b) > 0.5, (w.metric_a, w.metric_b)
        assert w.verdict == VERDICT_NON_GUARANTEE


# -- randomized bound suite --------------------------------------------------------


def test_bound_suite_rejects_zero_trials():
    with pytest.raises(ValueError):
        check_bound_suite(seed=0, trials=0)


def test_bound_suite_two_hundred_trials_clean():
    report = check_bound_suite(seed=123, trials=200)
    assert report.ok
    assert report.trials == 200
    for key, viol in report.max_violation.items():
        assert viol <= BOUND_TOL, key


def test_bound_suite_covers_every_bound():
    report = check_bound_suite(seed=5, trials=40)
    assert set(report.max_violation) == {key for key, *_ in BOUND_SPECS}
    # the deterministic-quantizer trials must have exercised vacuous cases
    assert report.vacuous["ldp->info"] > 0


@pytest.mark.parametrize("trials", [1, 2, 7, 200])
@pytest.mark.parametrize("seed", range(6))
def test_bound_suite_equals_the_per_trial_loop(seed, trials):
    assert check_bound_suite(seed, trials) == bound_suite_loop(seed, trials)


def test_bound_suite_equals_the_per_trial_loop_over_stacks_of_one_and_split_shapes(monkeypatch):
    """7 trials audit stacks of one; at 1,000 the cell cap splits the largest shapes."""
    stacks = []
    audit = metrics.report_stack

    def recorded(prior, conditionals, channels):
        stacks[-1].append(channels.shape[:1] + (prior.shape[1],) + channels.shape[1:])
        return audit(prior, conditionals, channels)

    monkeypatch.setattr(metrics, "report_stack", recorded)
    for seed, trials in ((0, 7), (1, 1000)):
        stacks.append([])
        assert check_bound_suite(seed, trials) == bound_suite_loop(seed, trials)
        assert sum(n for n, *_ in stacks[-1]) == trials
    small, large = stacks
    assert 1 in {n for n, *_ in small}
    shapes = [tuple(shape) for _, *shape in large]
    for n, n_g, s, x_size, z_size in large:
        assert n <= STACK_CELLS // (x_size * z_size) ** s
    assert len(set(shapes)) < len(shapes)  # some shape audited in more than one stack


@pytest.mark.parametrize("seed", range(3))
def test_a_bound_with_no_finite_comparison_does_not_hold(seed):
    """Trial 0 is a deterministic quantizer: eps_LDP = inf, so four bounds compare nothing."""
    untested = {"ldp->info", "ldp->mutual_info", "ldp->identifiability", "identifiability->ldp"}
    suite = check_bound_suite(seed, 1)
    assert {k for k, v in suite.max_violation.items() if v == -math.inf} == untested
    assert not suite.ok
    rows, ok = relations.implication_table(seed, 1)
    verdicts = {f"{r[0]}->{r[1]}": r[4] for r in rows if r[2] == "implies"}
    assert {k for k, v in verdicts.items() if v == VERDICT_NO_COMPARISON} == untested
    assert {v for k, v in verdicts.items() if k not in untested} == {VERDICT_BOUND_HOLDS}
    assert not ok


@pytest.mark.parametrize("seed", range(1, 6))
def test_bound_suite_equals_the_per_trial_loop_at_a_thousand_trials(seed):
    assert check_bound_suite(seed, 1000) == bound_suite_loop(seed, 1000)


@pytest.mark.parametrize("seed", range(3))
def test_a_drawn_trial_is_the_objects_tables_bit_for_bit(seed):
    """Each table is one rng call that draws what the per-sensor calls drew, and no more."""
    batched, per_sensor = np.random.default_rng(seed), np.random.default_rng(seed)
    for i in range(200):
        key, tables = relations._draw_trial(batched, i)
        bounds = ((1, 4), (2, 6), (2, 4), (1, 3))
        s, x_size, z_size, q = (int(per_sensor.integers(lo, hi)) for lo, hi in bounds)
        model = random_model(per_sensor, s, x_size, q)
        mapping = random_suite_mapping(per_sensor, min(i % 4, 2), s, x_size, z_size)
        assert key == (s, x_size, z_size, q)
        chans = [ch.rows for ch in mapping.channels]
        want = (model.prior, np.stack(model.conditionals), np.stack(chans))
        for got, table in zip(tables, want):
            assert got.shape == table.shape and got.tobytes() == table.tobytes()
        assert batched.bit_generator.state == per_sensor.bit_generator.state


def _faulted(which, fault):
    """``_draw_trial`` with one entry of trial 2's table ``which`` broken.

    ``which`` is 0 for the prior, 1 for the conditionals, 2 for the channels.
    """
    draw = relations._draw_trial

    def faulted(rng, i):
        key, tables = draw(rng, i)
        if i == 2:  # generic Dirichlet rows: every entry positive
            tables = [np.array(t) for t in tables]
            row = tables[which].reshape(-1, tables[which].shape[-1])[0]  # a view of the first row
            if fault == "nan":
                row[0] = math.nan
            elif fault == "negative":  # the row still sums to 1
                row[0], row[1] = row[0] - 1.0, row[1] + 1.0
            else:
                row[0] += 1e-9
        return key, tables

    return faulted


@pytest.mark.parametrize("fault, message", [
    ("nan", "has entry nan"), ("negative", "has entry -"), ("off", "sums to")])
@pytest.mark.parametrize("which, name", [(0, "prior"), (1, "conditional"), (2, "channel")])
def test_the_suite_refuses_a_stack_with_one_bad_entry(monkeypatch, which, name, fault, message):
    monkeypatch.setattr(relations, "_draw_trial", _faulted(which, fault))
    with pytest.raises(ModelFormatError, match=f"bound-suite {name}.*{message}"):
        check_bound_suite(0, 40)


def test_the_suite_draws_no_model_or_mapping_object():
    """``check_bound_suite`` and every function of ``relations`` it calls handle tables only."""
    tree = ast.parse(Path(relations.__file__).read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached, todo, built = set(), ["check_bound_suite"], set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in {"JointModel", "SensorChannel", "NetworkMapping"}:
                    built.add((name, node.func.id))
                elif node.func.id in functions and node.func.id not in reached:
                    todo.append(node.func.id)
    assert "_draw_trial" in reached
    assert built == set()


def test_default_alpha_sequence_reaches_below_tolerance():
    last = DEFAULT_ALPHAS[-1]
    eps_a = last * math.log(1 / last) + (1 - last) * math.log(1 / (1 - last))
    assert eps_a < 1e-6
