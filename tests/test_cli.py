"""End-to-end tests of the command-line entry points."""

import csv
import json

from privdet import cli


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
