import dataclasses
import json
import re

import numpy as np
import pytest

from privdet.channels import (
    NetworkMapping,
    SensorChannel,
    identity_mapping,
    random_mapping,
    randomized_response,
    uniform_mapping,
)
from privdet.model import (
    JointModel,
    ModelFormatError,
    PushedModel,
    generate_correlated_model,
    load_model,
    push_forward,
    push_forward_model,
    save_model,
)

from _oracles import brute_push, kron_push, moment_prior, random_model


def hand_model():
    """1 sensor, H-X joint with 0.4 diagonal cells, G independent uniform."""
    prior = np.array([[0.25, 0.25], [0.25, 0.25]])
    # p(x | h): diag cells 0.4 of p(h, x) with p(h) = 0.5 -> rows (0.8, 0.2)
    cond = np.zeros((2, 2, 2))
    cond[0, :, :] = [0.8, 0.2]
    cond[1, :, :] = [0.2, 0.8]
    return JointModel(1, 2, 1, prior, (cond,))


# Hand enumeration of hand_model pushed through a 0.25-flip channel:
# p(h, z) entries 0.325/0.175, split evenly over g.
HAND_PUSHED = {
    (0, 0, 0): 0.1625,
    (0, 0, 1): 0.0875,
    (0, 1, 0): 0.1625,
    (0, 1, 1): 0.0875,
    (1, 0, 0): 0.0875,
    (1, 0, 1): 0.1625,
    (1, 1, 0): 0.0875,
    (1, 1, 1): 0.1625,
}


def test_push_forward_identity_channel_is_identity():
    model = generate_correlated_model(seed=3, s=2, x_size=4, target_corr=0.2)
    pushed = push_forward(model, identity_mapping(2, 4))
    assert np.allclose(pushed.joint, model.joint_hgx(), atol=1e-15)


def test_push_forward_constant_channel_factorizes():
    model = generate_correlated_model(seed=3, s=2, x_size=4, target_corr=0.2)
    u = np.array([0.3, 0.7])
    rows = np.tile(u, (4, 1))
    mapping = NetworkMapping(tuple(SensorChannel(rows) for _ in range(2)))
    pushed = push_forward(model, mapping)
    expected = model.prior[:, :, None] * np.outer(u, u).reshape(-1)[None, None, :]
    assert np.allclose(pushed.joint, expected, atol=1e-14)


def test_push_forward_hand_enumeration():
    model = hand_model()
    mapping = NetworkMapping((SensorChannel([[0.75, 0.25], [0.25, 0.75]]),))
    pushed = push_forward(model, mapping)
    for (h, g, z), val in HAND_PUSHED.items():
        assert pushed.joint[h, g, z] == pytest.approx(val, abs=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_push_forward_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    s = int(rng.integers(1, 4))
    x_size = int(rng.integers(2, 5))
    model = random_model(rng, s, x_size, int(rng.integers(1, 3)))
    mapping = random_mapping(seed + 100, s, x_size, int(rng.integers(2, 4)))
    pushed = push_forward(model, mapping)
    assert np.allclose(pushed.joint, brute_push(model, mapping), atol=1e-12)


def test_push_forward_dimension_mismatch():
    model = hand_model()
    with pytest.raises(ModelFormatError):
        push_forward(model, identity_mapping(2, 2))
    with pytest.raises(ModelFormatError):
        push_forward(model, identity_mapping(1, 3))


def test_cond_indep_and_full_forms_agree():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 4))
        x_size = int(rng.integers(2, 5))
        model = random_model(rng, s, x_size, 1)
        mapping = random_mapping(seed, s, x_size, 2)
        a = push_forward(model, mapping).joint
        b = kron_push(model, mapping)
        assert np.abs(a - b).max() <= 1e-12


def test_push_forward_preserves_hg_marginal():
    for seed in range(5):
        rng = np.random.default_rng(seed + 50)
        model = random_model(rng, 3, 4, 2)
        mapping = random_mapping(seed, 3, 4, 2)
        pushed = push_forward(model, mapping)
        assert np.abs(pushed.joint.sum(axis=2) - model.prior).max() <= 1e-10


def test_push_forward_model_round_trip():
    model = generate_correlated_model(seed=9, s=3, x_size=5, target_corr=0.3)
    mapping = random_mapping(4, 3, 5, 2)
    as_model = push_forward_model(model, mapping)
    assert np.allclose(
        as_model.joint_hgx(), push_forward(model, mapping).joint, atol=1e-12
    )


# -- generator ---------------------------------------------------------------


def test_generator_zero_correlation_is_product():
    model = generate_correlated_model(seed=1, s=2, x_size=4, target_corr=0.0)
    p_h = model.prior.sum(axis=1)
    p_g = model.prior.sum(axis=0)
    assert np.allclose(model.prior, np.outer(p_h, p_g), atol=1e-15)


def test_generator_perfect_correlation_diagonal():
    model = generate_correlated_model(seed=1, s=1, x_size=4, target_corr=1.0)
    assert np.allclose(model.prior, np.diag([0.5, 0.5]), atol=1e-15)


def test_generator_correlation_point_two_table():
    model = generate_correlated_model(seed=1, s=1, x_size=4, target_corr=0.2)
    assert np.allclose(model.prior, [[0.3, 0.2], [0.2, 0.3]], atol=1e-15)


@pytest.mark.parametrize("corr", [-0.8, -0.3, 0.0, 0.17, 0.5, 0.95])
def test_generator_hits_requested_correlation(corr):
    model = generate_correlated_model(seed=5, s=2, x_size=6, target_corr=corr)
    p = model.prior
    p_h1 = p[1].sum()
    p_g1 = p[:, 1].sum()
    cov = p[1, 1] - p_h1 * p_g1
    achieved = cov / np.sqrt(p_h1 * (1 - p_h1) * p_g1 * (1 - p_g1))
    assert achieved == pytest.approx(corr, abs=1e-9)


def test_generator_is_deterministic():
    a = generate_correlated_model(seed=7, s=3, x_size=8, target_corr=0.2)
    b = generate_correlated_model(seed=7, s=3, x_size=8, target_corr=0.2)
    assert np.array_equal(a.prior, b.prior)
    for ca, cb in zip(a.conditionals, b.conditionals):
        assert np.array_equal(ca, cb)


def test_generator_prior_is_the_moment_solution_at_uniform_marginals():
    corrs = np.concatenate([np.linspace(-1.0, 1.0, 401), [0.2, 1 / 3, -0.7, 1e-9]])
    assert {-1.0, 0.0, 1.0} <= set(corrs.tolist())
    for corr in corrs:
        model = generate_correlated_model(seed=0, s=1, x_size=2, target_corr=float(corr))
        assert np.array_equal(model.prior, moment_prior(float(corr), 0.5, 0.5))


@pytest.mark.parametrize("corr", [1.0 + 1e-12, -1.5, float("nan")])
def test_generator_rejects_a_correlation_outside_the_unit_interval(corr):
    with pytest.raises(ValueError, match="target_corr must lie in"):
        generate_correlated_model(seed=0, s=1, x_size=4, target_corr=corr)


@pytest.mark.parametrize("jitter", [-1.0, -1e-12, float("nan"), float("inf")])
def test_generator_rejects_a_negative_or_non_finite_jitter(jitter):
    with pytest.raises(ValueError, match="jitter must be a finite nonnegative number"):
        generate_correlated_model(seed=0, s=2, x_size=3, jitter=jitter)


def test_sampling_matches_model_frequencies():
    model = generate_correlated_model(seed=3, s=2, x_size=5, target_corr=0.2)
    h, g, x = model.sample(200_000, np.random.default_rng(0))
    assert np.mean(h) == pytest.approx(model.prior[1].sum(), abs=5e-3)
    p_x0 = np.einsum("hg,hgx->x", model.prior, model.conditionals[0])
    freq = np.bincount(x[:, 0], minlength=5) / x.shape[0]
    assert np.abs(freq - p_x0).max() < 5e-3


# -- file I/O ------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    model = generate_correlated_model(seed=11, s=2, x_size=5, target_corr=0.4)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.prior, model.prior)
    for a, b in zip(loaded.conditionals, model.conditionals):
        assert np.array_equal(a, b)
    # second round trip is bitwise identical on disk
    path2 = tmp_path / "model2.json"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_saved_file_holds_the_cond_indep_form(tmp_path):
    model = generate_correlated_model(seed=11, s=2, x_size=3, target_corr=0.0)
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    assert data["form"] == "cond_indep"
    assert np.array(data["conditionals"]).shape == (2, 2, 2, 3)


def test_load_rejects_the_full_form(tmp_path):
    """A table over the whole vector X^s is not a model file any more."""
    model = generate_correlated_model(seed=11, s=2, x_size=3, target_corr=0.0)
    data = model.to_dict()
    data["form"] = "full"
    data["conditionals"] = [(model.joint_hgx() / model.prior[:, :, None]).tolist()]
    path = tmp_path / "full.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError, match="form 'full'"):
        load_model(path)


def test_load_rejects_negative_entry(tmp_path):
    model = generate_correlated_model(seed=11, s=1, x_size=3, target_corr=0.0)
    data = model.to_dict()
    row = data["conditionals"][0][0][0]
    row[0], row[1] = -0.1, float(row[1]) + float(row[0]) + 0.1
    path = tmp_path / "bad.json"
    path.write_text(__import__("json").dumps(data))
    with pytest.raises(ModelFormatError, match="negative"):
        load_model(path)


def test_load_rejects_mass_deficit(tmp_path):
    model = generate_correlated_model(seed=11, s=1, x_size=3, target_corr=0.0)
    data = model.to_dict()
    data["prior"] = [[0.25, 0.25], [0.25, 0.249]]
    path = tmp_path / "bad.json"
    path.write_text(__import__("json").dumps(data))
    with pytest.raises(ModelFormatError, match="deficit"):
        load_model(path)


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"s": 1,\n  "x_size": }')
    with pytest.raises(ModelFormatError, match="line 2"):
        load_model(path)


def test_immutability():
    model = hand_model()
    with pytest.raises(ValueError):
        model.prior[0, 0] = 0.9


def test_p_x_is_computed_once_and_read_only():
    model = generate_correlated_model(seed=4, s=3, x_size=4)
    p_x = model.p_x()
    assert model.p_x() is p_x
    assert np.array_equal(p_x, model.joint_hgx().sum(axis=(0, 1)))
    with pytest.raises(ValueError):
        p_x[0] = 0.5


def test_a_replaced_or_reloaded_model_computes_p_x_again(tmp_path):
    model = generate_correlated_model(seed=4, s=3, x_size=4)
    p_x = model.p_x()
    save_model(model, tmp_path / "m.json")
    for other in (dataclasses.replace(model), load_model(tmp_path / "m.json")):
        assert other.p_x() is not p_x
        assert np.array_equal(other.p_x(), p_x)
    shifted = dataclasses.replace(model, prior=model.prior[::-1])
    assert np.array_equal(shifted.p_x(), shifted.joint_hgx().sum(axis=(0, 1)))
    assert not np.array_equal(shifted.p_x(), p_x)


@pytest.mark.parametrize("make, message", [
    (lambda m: SensorChannel([[0.5, 0.4], [0.5, 0.5]]), "channel row 0 sums to 0.9"),
    (lambda m: JointModel(1, 2, 1, m.prior, (np.full((2, 2, 2), [0.5, 0.4]),)),
     "conditional table 0 row (0, 0) sums to 0.9 ("),
    (lambda m: JointModel(1, 2, 1, [[0.2, 0.2], [0.25, 0.25]], m.conditionals),
     "prior mass is 0.9 ("),
    (lambda m: PushedModel(np.full((2, 2, 2), 0.1125), m, identity_mapping(1, 2)),
     "pushed joint mass is 0.9"),
])
def test_a_mass_off_one_is_reported_as_a_plain_float(make, message):
    """A message shows the sum as 0.9, not as a numpy scalar's repr."""
    model = generate_correlated_model(seed=11, s=1, x_size=2)
    with pytest.raises(ValueError, match=re.escape(message)):
        make(model)


@pytest.mark.parametrize("make, message", [
    (lambda m: SensorChannel([[np.nan, 0.5], [0.5, 0.5]]), "channel has a negative or NaN entry"),
    (lambda m: JointModel(1, 2, 1, [[np.nan, 0.5], [0.25, 0.25]], m.conditionals),
     "prior has a negative or NaN entry"),
    (lambda m: JointModel(1, 2, 1, m.prior, (np.full((2, 2, 2), [np.nan, 0.5]),)),
     "conditional table 0 has entry nan at (0, 0, 0), negative or NaN"),
    (lambda m: JointModel(1, 2, 1, m.prior, (np.full((2, 2, 2), [-0.5, 1.5]),)),
     "conditional table 0 has entry -0.5 at (0, 0, 0), negative or NaN"),
])
def test_a_nan_or_negative_entry_is_refused(make, message):
    """A NaN passes both a `< 0` test and a sum test, so each sign test asks for `>= 0`."""
    model = generate_correlated_model(seed=11, s=1, x_size=2)
    with pytest.raises(ValueError, match=re.escape(message)):
        make(model)
