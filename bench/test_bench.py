"""Fast tests of the benchmark's own checks and tracer."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
from privdet import epic, metrics, model as model_mod  # noqa: E402
from privdet.channels import NetworkMapping, SensorChannel, random_mapping  # noqa: E402
from privdet.detection import bayes_error_H_pushed  # noqa: E402


def _model_file(tmp_path, seed=3, s=3, x_size=4):
    m = model_mod.generate_correlated_model(seed=seed, s=s, x_size=x_size)
    path = tmp_path / "model.json"
    model_mod.save_model(m, path)
    return m, checks.Model(path)


def test_raw_bayes_error_matches_a_loop_over_x(tmp_path):
    m, cm = _model_file(tmp_path)
    total = 0.0
    for flat in range(m.x_size ** m.s):
        xs = np.unravel_index(flat, (m.x_size,) * m.s)
        p_h = [
            sum(m.prior[h, g] * np.prod([m.conditionals[t][h, g, xs[t]] for t in range(m.s)])
                for g in range(m.n_g))
            for h in (0, 1)
        ]
        total += min(p_h)
    assert cm.raw_bayes_error() == pytest.approx(total, abs=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_budgets_agree_with_the_program(tmp_path, seed):
    m, cm = _model_file(tmp_path, seed=seed)
    mapping = random_mapping(seed, m.s, m.x_size, 2)
    rows = [ch.rows for ch in mapping.channels]
    pushed = model_mod.push_forward(m, mapping)
    assert checks.eps_ld(rows) == pytest.approx(metrics.ldp_budget(mapping), abs=1e-12)
    assert checks.eps_info(cm.p_hgz(rows).sum(axis=0)) == pytest.approx(
        metrics.info_privacy_budget(pushed), abs=1e-12
    )
    row = {"arch": "ldp", "eps_ld": "", "bayes_error_H": repr(bayes_error_H_pushed(pushed))}
    assert checks.check_bayes_error(cm, rows, row) == []
    row["bayes_error_H"] = repr(bayes_error_H_pushed(pushed) * 0.5)
    assert checks.check_bayes_error(cm, rows, row)


def test_eps_ld_zero_conventions():
    assert checks.eps_ld([np.array([[1.0, 0.0], [0.5, 0.5]])]) == math.inf
    assert checks.eps_ld([np.array([[1.0, 0.0], [1.0, 0.0]])]) == 0.0


def test_adversary_risk_is_the_representer_minimum():
    m = model_mod.generate_correlated_model(seed=1, s=3, x_size=5)
    data = epic.dataset_from_model(m, 12, 0)
    mapping = random_mapping(2, 3, 5, 2)
    _, risk = epic.min_adversary_risk(mapping, data, 1, 0.05, tol=1e-9, max_iter=3000)
    mine = checks.adversary_risk([ch.rows for ch in mapping.channels], data.x, data.g, 1, 0.05)
    assert mine == pytest.approx(risk, abs=1e-12)


def test_leakage_witness_closed_form():
    assert checks.check_leakage_witness([(0.1, checks.binary_entropy(0.1), math.log(10.0))]) == []
    assert checks.check_leakage_witness([(0.1, 0.3, math.log(10.0))])


def test_tracer_wraps_every_binding_and_restores_it():
    tracer = tracing.Tracer()
    mods = [mod for name, mod in sys.modules.items() if name.startswith("privdet")]
    originals = {id(fn) for *_, fn in tracer._targets}

    def bound():
        return {(mod.__name__, k) for mod in mods for k, v in vars(mod).items() if id(v) in originals}

    before = bound()
    assert ("privdet.design", "full_report") in before
    assert ("privdet.cli", "push_forward") in before
    with tracer.installed():
        assert bound() == set()
        m = model_mod.generate_correlated_model(seed=0, s=2, x_size=3)
        metrics.full_report(m, NetworkMapping((SensorChannel(np.eye(3)),) * 2))
    assert bound() == before
    spans = tracer.take()
    names = [sp.name for sp in spans]
    assert names.count("metrics.full_report") == 1
    out = tracing.pass_metrics(spans, 1)
    assert out["metrics.reports"] == 1
    assert out["metrics.xz_cells"] == 2 * 81
    total = sum(sp.t1 - sp.t0 for sp in spans if sp.parent < 0)
    assert sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(total)


def test_tracer_marks_missing_layers_absent(tmp_path, monkeypatch):
    pkg = tmp_path / "halfpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("def main(argv=None):\n    return 0\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = tracing.Tracer("halfpkg")
    assert tracer.absent_layers() == [layer for layer in tracing.LAYERS if layer != "cli"]
    assert "cli.run_sweep" in tracer.absent
    import halfpkg.cli

    with tracer.installed():
        assert halfpkg.cli.main() == 0
    assert [sp.name for sp in tracer.take()] == ["cli.main"]
