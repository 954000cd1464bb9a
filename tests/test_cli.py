"""End-to-end tests of the command-line entry points."""

import csv
import json
import time

import pytest

from privdet import cli, design


def test_design_inp_audit_ignores_the_local_budget(tmp_path):
    """inp has no local budget, so --eps-ld must not fail its audit."""
    model, out = tmp_path / "model.json", tmp_path / "design.json"
    gen = ["gen-model", "--seed", "3", "--sensors", "2", "--x-size", "3", "--out", str(model)]
    assert cli.main(gen) == 0
    argv = ["design", "--arch", "inp", "--model", str(model), "--eps-i", "0.5", "--eps-ld", "1.0"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["audit_ok"] is True
    assert payload["report"]["eps_info"] <= 0.5
    assert payload["report"]["eps_ldp"] > 1.0


def test_epic_sweep_cell_end_to_end(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({
        "model": {"generator": {"seed": 1, "s": 3, "x_size": 4}},
        "architectures": ["epic"],
        "eps_ld": [1.0],
        "r": [0.9],
        "epic": {"n_train": 30, "n_test": 500, "max_sweeps": 2},
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert (row["arch"], row["status"], row["audit_ok"]) == ("epic", "ok", "1")
    assert float(row["eps_ldp_nats"]) <= 1.0 + 1e-9


@pytest.mark.parametrize("fails", [False, True])
def test_sweep_wall_time_counts_the_chain_design(tmp_path, monkeypatch, fails):
    """The chain's design time is charged to its rows, also when the chain fails."""
    real = design.chain_designs

    def slow_chain(*args, **kwargs):
        time.sleep(0.1)
        out = real(*args, **kwargs)
        time.sleep(0.1)
        if fails:
            raise RuntimeError("chain failed")
        return out

    monkeypatch.setattr(design, "chain_designs", slow_chain)
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({
        "model": {"generator": {"seed": 1, "s": 2, "x_size": 3}},
        "architectures": ["ldp"],
        "eps_ld": [0.5, 1.0],
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == int(fails)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["error" if fails else "ok"] * 2
    assert sum(float(r["wall_time_s"]) for r in rows) >= 0.2
