"""End-to-end tests of the command-line entry points."""

import ast
import csv
import dataclasses
import json
import math
import pathlib
import re
import time

import numpy as np
import pytest

from privdet import cli, design, metrics, relations
from privdet import epic as epic_mod
from privdet.channels import (
    NetworkMapping,
    TwoStageMapping,
    identity_mapping,
    random_channel,
    random_mapping,
    save_mapping,
)
from privdet.epic import dataset_from_model
from privdet.model import JointModel, generate_correlated_model, load_model, save_model

from _oracles import (
    brute_push,
    empirical_eps_i_dict,
    mutual_information_direct,
    pairwise_neighbor_budget,
    posterior_ratio_budget_direct,
)


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


def _small_spec(tmp_path, **fields):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "model": {"generator": {"seed": 1, "s": 2, "x_size": 3}},
        "eps_i": [1.0],
        "eps_ld": [0.5, 1.0],
        "design": {"restarts": 2, "max_outer_iters": 30},
        **fields,
    }))
    return spec


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_audits_each_result_once(tmp_path, monkeypatch):
    calls = []
    real = metrics.full_report

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (metrics, design):
        monkeypatch.setattr(module, "full_report", counted)
    spec = _small_spec(tmp_path, architectures=["ldp", "ill", "lip", "inp", "identity"])
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert [r["arch"] for r in rows] == ["ldp"] * 2 + ["ill"] * 2 + ["lip"] * 2 + ["inp", "identity"]
    assert len(calls) == sum(r["status"] == "ok" for r in rows) == 8


def test_sweep_output_does_not_depend_on_jobs(tmp_path):
    """One job shares the stages of a (corr, seed) unit across its groups, two jobs do not."""
    archs = ["ldp", "ill", "lip", "inp", "identity"]
    spec = _small_spec(tmp_path, architectures=archs, seeds=[0, 1])
    text = {}
    for jobs in (1, 2):
        out = tmp_path / f"sweep{jobs}.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out), "--jobs", str(jobs)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",wall_time_s")
        text[jobs] = [line.rsplit(",", 1)[0] for line in lines]
    assert len(text[1]) == 1 + 2 * 8
    assert text[1] == text[2]


def _count_calls(monkeypatch, module, name):
    """The list that grows by one on each call of ``module.name`` from now on."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _sweep(tmp_path, archs):
    spec, out = _small_spec(tmp_path, architectures=archs), tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    return _read_rows(out)


def test_lip_in_a_sweep_reads_the_local_stage_ldp_designed(tmp_path, monkeypatch):
    steps = _count_calls(monkeypatch, design, "ldp_closed_form_step")
    _sweep(tmp_path, ["ldp"])
    ldp_steps = len(steps)
    steps.clear()
    _sweep(tmp_path, ["ldp", "lip"])
    assert len(steps) == ldp_steps > 0


def test_ill_and_inp_in_a_sweep_share_one_information_stage(tmp_path, monkeypatch):
    lps = _count_calls(monkeypatch, design, "_solve_mixture_lp")
    _sweep(tmp_path, ["ill", "inp"])
    swept = len(lps)
    lps.clear()
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    design.design_info_stage(model, design.OptimizerConfig(eps_i=1.0, restarts=2,
                                                           max_outer_iters=30))
    assert swept == len(lps) > 0


def test_sweep_with_an_audit_miss_exits_nonzero(tmp_path, monkeypatch):
    real = design.chain_designs

    def over_budget(*args, **kwargs):
        return [
            dataclasses.replace(res, report=dataclasses.replace(res.report, eps_ldp=math.inf))
            for res in real(*args, **kwargs)
        ]

    monkeypatch.setattr(design, "chain_designs", over_budget)
    spec, out = _small_spec(tmp_path, architectures=["ldp"]), tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
    rows = _read_rows(out)
    assert [(r["status"], r["audit_ok"], r["eps_ldp_nats"]) for r in rows] == [("ok", "0", "inf")] * 2


def test_toml_spec_writes_the_json_spec_csv(tmp_path):
    json_spec = _small_spec(tmp_path, architectures=["ldp", "inp", "identity"])
    toml_spec = tmp_path / "spec.toml"
    toml_spec.write_text(
        'architectures = ["ldp", "inp", "identity"]\n'
        "eps_i = [1.0]\n"
        "eps_ld = [0.5, 1.0]\n"
        "[model.generator]\n"
        "seed = 1\n"
        "s = 2\n"
        "x_size = 3\n"
        "[design]\n"
        "restarts = 2\n"
        "max_outer_iters = 30\n"
    )
    text = {}
    for spec in (json_spec, toml_spec):
        out = tmp_path / f"{spec.suffix[1:]}.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",wall_time_s")
        text[spec.suffix] = [line.rsplit(",", 1)[0] for line in lines]
    assert len(text[".json"]) == 1 + 4
    assert text[".toml"] == text[".json"]


def test_sweep_with_a_failing_group_writes_its_error_row_and_exits_nonzero(tmp_path, monkeypatch):
    """inp at eps_i = 0.5 raises in the design; the row says so and the others stay ok."""
    real = design.design_inp

    def fails_at_half(model, config):
        if config.eps_i == 0.5:
            raise ValueError("no design at eps_i 0.5")
        return real(model, config)

    monkeypatch.setattr(design, "design_inp", fails_at_half)
    spec = _small_spec(tmp_path, architectures=["ldp", "inp"], eps_i=[0.5, 1.0])
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
    rows = _read_rows(out)
    got = [(r["arch"], r["eps_i"], r["status"], r["audit_ok"], r["error"]) for r in rows]
    assert got == [
        ("ldp", "", "ok", "1", ""),
        ("ldp", "", "ok", "1", ""),
        ("inp", "0.5", "error", "0", "ValueError: no design at eps_i 0.5"),
        ("inp", "1.0", "ok", "1", ""),
    ]
    assert rows[2]["bayes_error_H"] == ""


@pytest.mark.parametrize("fields, key", [
    ({"restart": 1}, "restart"),
    ({"model": {"generator": {"seed": 1}, "path": "m.json"}}, "model.path"),
    ({"model": {"generator": {"sensors": 2}}}, "model.generator.sensors"),
    ({"design": {"restart": 1}}, "design.restart"),
    ({"design": {"lp_tol": 1e-9}}, "design.lp_tol"),
    ({"epic": {"n_trian": 30}}, "epic.n_trian"),
    ({"design": 5}, "design"),
    ({"output": "sweep.csv"}, "output"),
    ({"model": {"generator": {"seed": 1, "q": 1}}}, "model.generator.q"),
    ({"epic": {"utility_slack": 0.3}}, "epic.utility_slack"),
    ({"design": {"z_size": "two"}}, "design.z_size"),
    ({"model": {"generator": {"seed": [1]}}}, "model.generator.seed"),
    ({"eps_ld": "inf"}, "eps_ld"),
    ({"r": 0.9}, "r"),
    ({"eps_ld": ["nan"]}, "nan"),
    ({"eps_i": ["-1"]}, "-1"),
    ({"design": {"max_outer_iters": 0}}, "max_outer_iters"),
    ({"design": {"y_size": 0}}, "design.y_size"),
    ({"eps_ld": [None]}, "eps_ld"),
    ({"seeds": [None]}, "seeds"),
    ({"r": [None]}, "r"),
    ({"architectures": ["ill"], "eps_i": [0.0]}, "eps_i"),
    ({"architectures": ["ldp", "lip"], "eps_i": [1.0, 0.0]}, "eps_i"),
    ({"architectures": ["inp"], "eps_i": [-0.0]}, "eps_i"),
    ({"seeds": [0, -1]}, "seeds"),
    ({"model": {"generator": {"seed": -1}}}, "model.generator.seed"),
    ({"architectures": ["epic"], "epic": {"lambda": 0}}, "epic.lambda"),
    ({"architectures": ["e-ldp"], "epic": {"n_train": 0}}, "epic.n_train"),
    ({"architectures": ["ldp", "e-ldp"], "epic": {"n_test": 0}}, "epic.n_test"),
    ({"architectures": ["ldp", "epic"], "r": [0.9, 1.5]}, "r"),
    ({"architectures": ["epic"], "r": [0.0]}, "r"),
    ({"epic": {"max_sweeps": 0}}, "max_sweeps"),
    ({"epic": {"max_sweeps": 2.5}}, "epic.max_sweeps"),
    ({"architectures": ["epic"], "epic": {"n_train": 30.7}}, "epic.n_train"),
    ({"design": {"restarts": 1.9}}, "design.restarts"),
    ({"seeds": [1.5]}, "seeds"),
    ({"model": {"generator": {"seed": 1.5}}}, "model.generator.seed"),
    ({"model": {"file": 0}}, "model.file"),
    ({"model": {"file": ""}}, "model.file"),
    ({"model": {"file": 7}}, "model.file"),
])
def test_sweep_spec_rejects_unknown_keys(tmp_path, fields, key):
    """Unknown keys and entries of the wrong kind or value are named; the sweep exits 2 before any work."""
    data = {"model": {"generator": {"seed": 1, "s": 2, "x_size": 3}}, "architectures": ["ldp"]}
    data.update(fields)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        cli.SweepSpec.from_dict(data)
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps(data))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "epic"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_a_nan_or_negative_budget_flag_is_rejected(tmp_path, capsys, command, value):
    inputs = ["--arch", "ldp", "--model"] if command == "design" else ["--train", "t.csv", "--test"]
    argv = [command, *inputs, "m.csv", "--eps-ld", value, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"privdet {command}: --eps-ld: a privacy budget must be a nonnegative number, got {value!r}\n"
    )
    assert not list(tmp_path.iterdir())


def test_a_zero_eps_i_is_a_spec_value_only_where_no_design_reads_it():
    data = {"architectures": ["identity", "ldp", "e-ldp", "epic"], "eps_i": [0.0]}
    assert cli.SweepSpec.from_dict(data).eps_i == (0.0,)


def test_the_empirical_spec_values_are_checked_only_where_an_empirical_cell_reads_them():
    epic = {"n_train": 0, "n_test": 0, "lambda": 0.0}
    spec = cli.SweepSpec.from_dict({"architectures": ["ldp", "inp"], "r": [1.5], "epic": epic})
    assert (spec.r, spec.epic) == ((1.5,), epic)
    assert cli.SweepSpec.from_dict({"architectures": ["e-ldp"], "r": [1.5]}).r == (1.5,)


@pytest.mark.parametrize("command, flag", [("sweep", "--jobs"), ("epic", "--q")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_a_count_flag_below_one_is_rejected(tmp_path, capsys, command, flag, value):
    """Exit 2 naming the flag, and no output, on inputs that run with a valid count."""
    data = tmp_path / "data.csv"
    _write_labeled_csv(data, dataset_from_model(generate_correlated_model(seed=1, s=2, x_size=3), 30, 0))
    inputs = {
        "sweep": ["--spec", str(_small_spec(tmp_path, architectures=["identity"]))],
        "epic": ["--train", str(data), "--test", str(data)],
    }[command]
    assert cli.main([command, *inputs, flag, value, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"privdet {command}: {flag}: a count must be a positive integer, got {value!r}\n"
    )
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command, inputs", [
    ("gen-model", []),
    ("design", ["--arch", "ldp", "--model", "m.json"]),
    ("relations", []),
    ("epic", ["--train", "t.csv", "--test", "t.csv"]),
])
def test_a_negative_seed_flag_is_rejected(tmp_path, capsys, command, inputs):
    assert cli.main([command, *inputs, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"privdet {command}: --seed: a seed must be a nonnegative integer, got '-1'\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("z_size", ["2", "3"])
def test_a_design_at_a_large_budget_meets_it(tmp_path, z_size):
    model, out = tmp_path / "model.json", tmp_path / "design.json"
    save_model(generate_correlated_model(seed=1, s=2, x_size=4), model)
    argv = ["design", "--arch", "ldp", "--model", str(model), "--z-size", z_size, "--eps-ld", "20"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["audit_ok"] is True


@pytest.mark.parametrize("argv", [
    ["design", "--arch", "ldp", "--z-size", "2", "--model", "m.json"],
    ["design", "--arch", "lip", "--z-size", "3", "--model", "m.json"],
    ["epic", "--train", "t.csv", "--test", "t.csv"],
])
def test_a_finite_budget_without_a_float_ratio_is_a_usage_error(tmp_path, capsys, argv):
    """e^eps_ld overflows a float past 709.78: one line and exit 2, before any input is read."""
    out = tmp_path / "out"
    assert cli.main([*argv, "--eps-ld", "710", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"privdet {argv[0]}: --eps-ld: eps_ld must be inf or at most 709.782713 "
        "(where e^eps_ld is a float), got 710.0\n"
    )
    assert not list(tmp_path.iterdir())


def test_a_sweep_with_a_finite_budget_without_a_float_ratio_exits_before_any_work(tmp_path, capsys):
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({"architectures": ["ldp"], "eps_ld": [1.0, 800.0]}))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 2
    assert "sweep spec key 'eps_ld': eps_ld must be inf or at most" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, field", [
    ("--restarts", "restarts"), ("--z-size", "z_size"),
])
def test_a_design_count_below_one_is_a_usage_error(tmp_path, capsys, flag, field):
    model, out = tmp_path / "model.json", tmp_path / "design.json"
    save_model(generate_correlated_model(seed=1, s=2, x_size=3), model)
    argv = ["design", "--arch", "ldp", "--model", str(model), flag, "0", "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"{field!r} must be an integer of at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("epic", ["--bins", "1"], "bins must be >= 2, got 1"),
    ("epic", ["--lambda", "0"], "lam must be positive"),
    ("epic", ["--lambda", "0", "--e-ldp"], "lam must be positive"),
    ("epic", ["--lambda", "-1", "--e-ldp"], "lam must be positive"),
    ("epic", ["--r", "1.5"], "the floor ratio r must lie in (0, 1), got 1.5"),
    ("relations", ["--trials", "0"], "trials must be >= 1, got 0"),
    ("epic", ["--bins", "0"], "bins must be >= 2, got 0"),
])
def test_a_flag_out_of_range_is_a_usage_error(tmp_path, capsys, command, flags, message):
    """Exit 2 with the library's message and no output, not a traceback."""
    data, model = tmp_path / "data.csv", generate_correlated_model(seed=1, s=2, x_size=3)
    _write_labeled_csv(data, dataset_from_model(model, 30, 0))
    inputs = ["--train", str(data), "--test", str(data)] if command == "epic" else []
    assert cli.main([command, *inputs, *flags, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"privdet {command}: {message}\n"
    assert not list(tmp_path.glob("out*"))


def _bad_input(tmp_path, case):
    """(argv, expected stderr) of a run whose input is missing, malformed, out of range or too large."""
    model, mapping, missing = tmp_path / "model.json", tmp_path / "mapping.json", tmp_path / "none"
    save_model(generate_correlated_model(seed=1, s=3, x_size=3), model)
    save_mapping(random_mapping(0, 3, 3, 2), mapping)
    out = missing / "out" if case == "gen-model --out" else tmp_path / "out"
    no_file = f"[Errno 2] No such file or directory: {str(missing)!r}"
    if case == "two-channel mapping":
        save_mapping(random_mapping(0, 2, 3, 2), mapping)
        message = "mapping has 2 channels for a 3-sensor model"
    elif case == "model lacks a field":
        data = json.loads(model.read_text())
        del data["q"]
        model.write_text(json.dumps(data))
        message = f"{model}: model file is missing field 'q'"
    elif case == "table over the cap":  # (10**4 inputs) x (10**4 outputs) > EXPANSION_CAP
        save_model(generate_correlated_model(seed=1, s=4, x_size=10), model)
        save_mapping(identity_mapping(4, 10), mapping)
        message = ("(X, Z) joint needs 100000000 cells (cap 50000000); "
                   "observation-side budgets are only computed at desk scale")
    elif case == "design --eps-i 0":
        message = "eps_i must be positive"
    elif case == "gen-model --out":
        message = f"[Errno 2] No such file or directory: {str(out)!r}"
    elif case.endswith("size 0"):
        message = "x_size must be >= 1, got 0"
    elif "jitter" in case:
        message = f"jitter must be a finite nonnegative number, got {case.split()[-1]}"
    else:
        message = no_file
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"model": {"file": str(missing)}}))
    no_symbols = tmp_path / "no-symbols.json"
    no_symbols.write_text(json.dumps({"model": {"generator": {"x_size": 0}}}))
    negative_jitter = tmp_path / "negative-jitter.json"
    negative_jitter.write_text(json.dumps({"model": {"generator": {"jitter": -1}}}))
    argv = {
        "report --model": ["report", "--model", str(missing), "--mapping", str(mapping)],
        "report --mapping": ["report", "--model", str(model), "--mapping", str(missing)],
        "design --model": ["design", "--arch", "ldp", "--model", str(missing)],
        "design --eps-i 0": ["design", "--arch", "inp", "--model", str(model), "--eps-i", "0"],
        "sweep --spec": ["sweep", "--spec", str(missing)],
        "sweep model.file": ["sweep", "--spec", str(spec)],
        "epic --train": ["epic", "--train", str(missing), "--test", str(missing)],
        "gen-model --out": ["gen-model"],
        "gen-model --x-size 0": ["gen-model", "--x-size", "0"],
        "sweep generator x_size 0": ["sweep", "--spec", str(no_symbols)],
        "gen-model --jitter nan": ["gen-model", "--jitter", "nan"],
        "sweep generator jitter -1.0": ["sweep", "--spec", str(negative_jitter)],
    }.get(case, ["report", "--model", str(model), "--mapping", str(mapping)])
    return argv + ["--out", str(out)], f"privdet {argv[0]}: {message}\n"


@pytest.mark.parametrize("case", [
    "two-channel mapping", "model lacks a field", "table over the cap", "report --model",
    "report --mapping", "design --model", "design --eps-i 0", "sweep --spec",
    "sweep model.file", "epic --train", "gen-model --out", "gen-model --x-size 0",
    "sweep generator x_size 0", "gen-model --jitter nan", "sweep generator jitter -1.0",
])
def test_a_bad_input_file_is_a_usage_error(tmp_path, capsys, case):
    """Exit 2 with the library's message and no output, not a traceback."""
    argv, err = _bad_input(tmp_path, case)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == err
    assert not list(tmp_path.glob("out*")) and not (tmp_path / "none").exists()


def _malformed(tmp_path, case):
    """(argv, the malformed file) of a run whose model, mapping, spec or labeled CSV breaks its format."""
    model, mapping, spec = tmp_path / "model.json", tmp_path / "mapping.json", tmp_path / "spec.json"
    save_model(generate_correlated_model(seed=1, s=2, x_size=3), model)
    save_mapping(random_mapping(0, 2, 3, 2), mapping)
    argv, bad = ["report", "--model", str(model), "--mapping", str(mapping)], mapping
    if case == "mapping of numbers":
        mapping.write_text("[1, 2]")
    elif case == "mapping of bare rows":
        mapping.write_text("[[0.5, 0.5]]")
    elif case == "channel lacks z_size":
        data = json.loads(mapping.read_text())
        del data[0]["z_size"]
        mapping.write_text(json.dumps(data))
    elif case == "two-stage mapping lacks its stages":
        mapping.write_text('{"arch": "ill"}')
    elif case == "invalid mapping JSON":
        mapping.write_text('[{"x_size": 3,\n')
    elif case == "mapping row sums to 0.9":
        data = json.loads(mapping.read_text())
        data[0]["rows"][0] = [0.5, 0.4]
        mapping.write_text(json.dumps(data))
    elif case == "mapping row holds NaN":
        data = json.loads(mapping.read_text())
        data[0]["rows"][0] = [math.nan, 0.5]
        mapping.write_text(json.dumps(data))
    elif case == "model prior holds NaN":
        data = json.loads(model.read_text())
        data["prior"][0][0] = math.nan
        model.write_text(json.dumps(data))
        bad = model
    elif case in ("report: model conditionals", "sweep: model conditionals"):
        data = json.loads(model.read_text())
        data["conditionals"] = 3
        model.write_text(json.dumps(data))
        bad = model
        if case.startswith("sweep"):
            spec.write_text(json.dumps({"model": {"file": str(model)}}))
            argv = ["sweep", "--spec", str(spec)]
    elif case == "invalid spec JSON":
        spec.write_text('{"architectures": ["ldp"],\n')
        argv, bad = ["sweep", "--spec", str(spec)], spec
    elif case == "invalid spec TOML":
        bad = tmp_path / "spec.toml"
        bad.write_text('architectures = ["ldp"\n')
        argv = ["sweep", "--spec", str(bad)]
    elif case == "binned labeled CSV holds a NaN feature":
        bad = tmp_path / "data.csv"
        bad.write_text("h,g,x0,x1\n0,1,0.5,2.5\n1,0,nan,1.5\n")
        argv = ["epic", "--train", str(bad), "--test", str(bad), "--bins", "3"]
    elif case == "labeled CSV of unequal rows":
        bad = tmp_path / "data.csv"
        bad.write_text("h,g,x0\n0,1,2\n\n1,0\n")
        argv = ["epic", "--train", str(bad), "--test", str(bad)]
    return argv + ["--out", str(tmp_path / "out")], bad


@pytest.mark.parametrize("case, detail", [
    ("mapping of numbers", ": "),
    ("mapping of bare rows", ": "),
    ("channel lacks z_size", ": missing field 'z_size'"),
    ("two-stage mapping lacks its stages", ": missing field 'stage1'"),
    ("invalid mapping JSON", ": invalid JSON at line 2: "),
    ("mapping row sums to 0.9", ": channel row 0 sums to 0.9\n"),
    ("mapping row holds NaN", ": channel has a negative or NaN entry\n"),
    ("model prior holds NaN", ": prior has a negative or NaN entry\n"),
    ("report: model conditionals", ": "),
    ("sweep: model conditionals", ": "),
    ("invalid spec JSON", ": invalid JSON at line 2: "),
    ("invalid spec TOML", ": "),
    ("labeled CSV of unequal rows", ", line 4: 2 fields, the first data line has 3"),
    ("binned labeled CSV holds a NaN feature", ", line 3: a feature is nan; every feature needs a value\n"),
])
def test_a_malformed_file_is_a_usage_error_that_names_it(tmp_path, capsys, case, detail):
    """Exit 2 with one line that starts with the file's path, and no output: not a traceback."""
    argv, bad = _malformed(tmp_path, case)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"privdet {argv[0]}: {bad}{detail}")
    assert err.endswith("\n") and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_design_has_no_y_size_flag(tmp_path, capsys):
    argv = ["design", "--arch", "ill", "--model", "m.json", "--y-size", "2", "--out", "d.json"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --y-size 2" in capsys.readouterr().err


def test_sweep_loads_its_model_file_once_per_group(tmp_path, monkeypatch):
    model = tmp_path / "model.json"
    gen = ["gen-model", "--seed", "1", "--sensors", "2", "--x-size", "3", "--out", str(model)]
    assert cli.main(gen) == 0
    loads = []
    real = cli.load_model

    def counted(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_model", counted)
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({
        "model": {"file": str(model)},
        "architectures": ["ldp"],
        "eps_ld": [0.5, 1.0],
        "seeds": [0, 1],
        "design": {"restarts": 1, "max_outer_iters": 10},
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(_read_rows(out)) == 4
    assert len(loads) == 2


def test_design_and_sweep_run_one_set_of_defaults(tmp_path, monkeypatch):
    configs = {}
    real_design, real_inp = design.design, design.design_inp

    def record_design(model, arch, config, warm=None):
        configs["design"] = config
        return real_design(model, arch, config, warm)

    def record_inp(model, config):
        configs["sweep"] = config
        return real_inp(model, config)

    monkeypatch.setattr(design, "design", record_design)
    monkeypatch.setattr(design, "design_inp", record_inp)
    model = tmp_path / "model.json"
    gen = ["gen-model", "--seed", "3", "--sensors", "2", "--x-size", "3", "--out", str(model)]
    assert cli.main(gen) == 0
    argv = ["design", "--arch", "inp", "--model", str(model), "--eps-i", "0.5"]
    assert cli.main(argv + ["--out", str(tmp_path / "design.json")]) == 0
    design_config = configs["design"]  # the sweep calls design() too
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "model": {"file": str(model)}, "architectures": ["inp"], "eps_i": [0.5],
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep.csv")]) == 0
    assert design_config == configs["sweep"]


def test_the_cli_decides_bad_input_and_each_file_format_once():
    """One handler turns bad input into exit 2, in ``main``; one CSV writer; and
    ``channels``, home of the one JSON writer and document reader, is the only
    module of the package that imports ``json``.

    A handler that re-raises (a more precise message for the same error) does
    not decide anything and is not counted.
    """
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    usage = [
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)} & {"OSError", "ValueError"}
        and not any(isinstance(n, ast.Raise) for n in ast.walk(node))
    ]
    assert usage == ["main"]

    assert sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "writer"
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "csv"
        for n in ast.walk(tree)
    ) == 1

    def imports_json(path):
        return any(
            isinstance(n, ast.Import) and any(a.name == "json" for a in n.names)
            or isinstance(n, ast.ImportFrom) and n.module == "json"
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )

    package = pathlib.Path(cli.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py")) if imports_json(p)] == ["channels.py"]


def test_the_cli_makes_each_empirical_solve_at_one_site():
    """``_empirical_solve`` is the one caller of each empirical solver, and a
    sweep builds its ``EpicConfig`` where the spec loads, not per cell."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    sites = sorted(
        (node.func.attr, top.name)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("epic_solve", "eldp_solve", "EpicConfig")
    )
    assert sites == [("EpicConfig", "SweepSpec"), ("EpicConfig", "_cmd_epic"),
                     ("eldp_solve", "_empirical_solve"), ("epic_solve", "_empirical_solve")]


def test_a_sweep_builds_its_epic_config_once(tmp_path, monkeypatch):
    built = []
    real = epic_mod.EpicConfig.__post_init__

    def counted(config):
        built.append(config)
        real(config)

    monkeypatch.setattr(epic_mod.EpicConfig, "__post_init__", counted)
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({
        "model": {"generator": {"seed": 1, "s": 2, "x_size": 3}},
        "architectures": ["e-ldp", "epic"],
        "eps_ld": [0.5, 1.0],
        "epic": {"n_train": 30, "n_test": 100, "max_sweeps": 2},
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert [r["status"] for r in _read_rows(out)] == ["ok"] * 4
    assert len(built) == 1 and built[0].max_sweeps == 2


def test_a_sweep_draws_each_data_set_once_and_shares_each_eldp_descent(tmp_path, monkeypatch):
    """e-ldp and epic cells at two local budgets: the 4 cells draw their training and test
    sets 2 times, not 8, and run the no-adversary descent once per budget, not once per cell."""
    draws, descents = [], []
    real_sample, real_descend = JointModel.sample, epic_mod._descend

    def sample(model, n, rng):
        draws.append(n)
        return real_sample(model, n, rng)

    def descend(dataset, chans, eps_ld, *args):
        if not dataset.g.any():
            descents.append(eps_ld)
        return real_descend(dataset, chans, eps_ld, *args)

    monkeypatch.setattr(JointModel, "sample", sample)
    monkeypatch.setattr(epic_mod, "_descend", descend)
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({
        "model": {"generator": {"seed": 1, "s": 2, "x_size": 3}},
        "architectures": ["e-ldp", "epic"],
        "eps_ld": [0.5, 1.0], "r": [0.9], "seeds": [3],
        "epic": {"n_train": 30, "n_test": 100, "max_sweeps": 2},
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert [r["status"] for r in _read_rows(out)] == ["ok"] * 4
    assert sorted(draws) == [30, 100]
    assert descents == [0.5, 1.0]


def test_sweep_rows_match_the_brute_force_oracles(tmp_path, monkeypatch):
    """Each ok row's H error, I(H; Z), eps_ldp and eps_info, recomputed by full
    enumeration over X^s and Z^s from the model and the mapping the row reports on."""
    made = {}  # (arch, the row's eps_ld field) -> (model, mapping)
    real = design.chain_designs

    def captured(model, arch, eps_ld_grid, config):
        results = real(model, arch, eps_ld_grid, config)
        for eps_ld, res in zip(eps_ld_grid, results):
            made[arch, repr(float(eps_ld))] = model, res.mapping.network()
        return results

    monkeypatch.setattr(design, "chain_designs", captured)
    out = tmp_path / "sweep.csv"
    spec = _small_spec(tmp_path, architectures=["ldp", "lip", "identity"])
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    rows = _read_rows(out)
    model = made["ldp", "0.5"][0]
    assert (model.s, model.x_size) == (2, 3)
    made["identity", ""] = model, identity_mapping(model.s, model.x_size)
    assert [r["status"] for r in rows] == ["ok"] * 5
    for row in rows:
        model, mapping = made[row["arch"], row["eps_ld"]]
        p_hgz = brute_push(model, mapping)
        p_hz, p_gz = p_hgz.sum(axis=1), p_hgz.sum(axis=0)
        want = {
            "bayes_error_H": sum(min(p_hz[:, z]) for z in range(p_hz.shape[1])),
            "mi_H_Z": mutual_information_direct(p_hz),
            "eps_ldp_nats": max(pairwise_neighbor_budget(ch.rows) for ch in mapping.channels),
            "eps_info_nats": posterior_ratio_budget_direct(p_gz),
        }
        for column, value in want.items():
            got = float(row[column])
            assert got == value or abs(got - value) <= 1e-12, (row["arch"], row["eps_ld"], column)


def test_report_on_a_saved_two_stage_mapping(tmp_path):
    model_path, mapping_path = tmp_path / "model.json", tmp_path / "mapping.json"
    save_model(generate_correlated_model(seed=2, s=2, x_size=3), model_path)
    two = TwoStageMapping(random_mapping(0, 2, 3, 2), random_mapping(1, 2, 2, 2), "ill")
    save_mapping(two, mapping_path)
    out = tmp_path / "report"
    argv = ["report", "--model", str(model_path), "--mapping", str(mapping_path), "--out", str(out)]
    assert cli.main(argv) == 0
    expected = metrics.full_report(load_model(model_path), two.network()).to_dict()
    assert json.loads((tmp_path / "report.json").read_text()) == expected


def test_report_refuses_a_bare_channel_file(tmp_path, capsys):
    model_path, mapping_path = tmp_path / "model.json", tmp_path / "channel.json"
    save_model(generate_correlated_model(seed=2, s=1, x_size=3), model_path)
    channel = random_channel(0, 3, 2)
    with pytest.raises(TypeError):
        save_mapping(channel, mapping_path)
    mapping_path.write_text(json.dumps(channel.to_dict()))
    argv = ["report", "--model", str(model_path), "--mapping", str(mapping_path)]
    assert cli.main(argv + ["--out", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert err == f"privdet report: {mapping_path}: unrecognized mapping layout\n"
    assert not list(tmp_path.glob("report*"))


def test_sweep_budget_columns_are_the_report_csv_fields():
    keys = list(metrics.BudgetReport(0.1, 0.2, 0.05, math.inf, 0.3, math.inf, 0.7).csv_fields())
    for s in (1, 3):
        assert [c for c in cli.sweep_columns(s) if c.endswith(("_nats", "_bits"))] == keys


def _write_labeled_csv(path, data, x=None):
    x = data.x if x is None else x
    lines = ["h,g," + ",".join(f"x{t}" for t in range(data.s))]
    lines += [",".join(map(str, [h, g, *xi])) for h, g, xi in zip(data.h, data.g, x.tolist())]
    path.write_text("\n".join(lines) + "\n")


def _not_strict_json(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("e_ldp", [False, True])
def test_epic_on_labeled_csvs(tmp_path, e_ldp):
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_labeled_csv(train, dataset_from_model(model, 30, 0))
    _write_labeled_csv(test, dataset_from_model(model, 300, 1))
    out = tmp_path / "epic"
    argv = ["epic", "--train", str(train), "--test", str(test), "--eps-ld", "1.0", "--out", str(out)]
    assert cli.main(argv + ["--e-ldp"] * e_ldp) == 0
    (row,) = _read_rows(tmp_path / "epic.csv")
    assert 0.0 <= float(row["error_H"]) <= 1.0
    assert 0.0 <= float(row["error_G"]) <= 1.0
    assert float(row["eps_ld_hat"]) <= 1.0 + 1e-9
    payload = json.loads((tmp_path / "epic.json").read_text(), parse_constant=_not_strict_json)
    assert payload["eps_ld"] == 1.0
    if e_ldp:
        assert payload["theta_star"] == "nan"
    mapping = NetworkMapping.from_list(payload["mapping"])
    assert metrics.ldp_budget(mapping) == float(row["eps_ld_hat"])


def _quantile_symbols(train, test, bins):
    """Per column: edges are training quantiles, and a value's symbol counts the edges below it."""
    out = [np.zeros(train.shape, dtype=int), np.zeros(test.shape, dtype=int)]
    for j in range(train.shape[1]):
        edges = np.quantile(train[:, j], np.arange(1, bins) / bins)
        for table, sym in zip((train, test), out):
            for i in range(table.shape[0]):
                sym[i, j] = sum(1 for e in edges if e < table[i, j])
    return out


def test_epic_bins_equals_a_run_on_binned_symbols(tmp_path):
    """--bins on real features gives the run on the features binned by hand."""
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    train, test = dataset_from_model(model, 30, 0), dataset_from_model(model, 300, 1)
    rng = np.random.default_rng(5)
    raw = [d.x + rng.random(d.x.shape) for d in (train, test)]
    for name, xs in (("binned", raw), ("by_hand", _quantile_symbols(*raw, 3))):
        for split, data, x in zip(("train", "test"), (train, test), xs):
            _write_labeled_csv(tmp_path / f"{name}_{split}.csv", data, x)
        argv = ["epic", "--train", str(tmp_path / f"{name}_train.csv"),
                "--test", str(tmp_path / f"{name}_test.csv"),
                "--eps-ld", "1.0", "--seed", "2", "--out", str(tmp_path / name)]
        assert cli.main(argv + ["--bins", "3"] * (name == "binned")) == 0
    for ext in (".json", ".csv"):
        assert (tmp_path / f"binned{ext}").read_text() == (tmp_path / f"by_hand{ext}").read_text()


def test_an_infinite_feature_is_kept_under_bins(tmp_path):
    """A NaN feature is refused, but +-inf is a value: it bins into an end bin."""
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    paths = [tmp_path / "train.csv", tmp_path / "test.csv"]
    rng = np.random.default_rng(5)
    for path, n, inf in zip(paths, (60, 100), (math.inf, -math.inf)):
        data = dataset_from_model(model, n, n)
        raw = data.x + rng.random(data.x.shape)
        raw[6, 1] = inf
        _write_labeled_csv(path, data, raw)
    argv = ["epic", "--train", str(paths[0]), "--test", str(paths[1]), "--bins", "3",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("bins", [[], ["--bins", "3"]])
def test_train_and_test_csvs_of_unequal_feature_counts_are_refused(tmp_path, capsys, bins):
    """The pair is refused before the solve with one line naming both files, not an IndexError."""
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
    _write_labeled_csv(wide, dataset_from_model(model, 30, 0))
    data = dataset_from_model(model, 100, 1)
    _write_labeled_csv(narrow, data, data.x[:, :1])
    for (train, n_train), (test, n_test) in (((wide, 2), (narrow, 1)), ((narrow, 1), (wide, 2))):
        argv = ["epic", "--train", str(train), "--test", str(test), *bins,
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"privdet epic: {train} has {n_train} feature columns and {test} has {n_test}; "
            "both need the same features\n"
        )
    assert not list(tmp_path.glob("out*"))


def test_epic_and_a_sweep_epic_cell_run_one_set_of_defaults(tmp_path, monkeypatch):
    calls = []  # privdet epic's, then the sweep cell's
    real = epic_mod.epic_solve

    def record(dataset, eps_ld, r, lam, config):
        calls.append((eps_ld, r, lam, config))
        return real(dataset, eps_ld, r, lam, config)

    monkeypatch.setattr(epic_mod, "epic_solve", record)
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_labeled_csv(train, dataset_from_model(model, 30, 0))
    _write_labeled_csv(test, dataset_from_model(model, 100, 1))
    argv = ["epic", "--train", str(train), "--test", str(test), "--out", str(tmp_path / "epic")]
    assert cli.main(argv) == 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "model": {"generator": {"seed": 1, "s": 2, "x_size": 3}},
        "architectures": ["epic"],
        "epic": {"n_train": 30, "n_test": 100},
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len(calls) == 2 and calls[0] == calls[1]
    assert calls[0][3].max_sweeps == 12


#: every key a sweep spec may set, at the default the program documents for it
_ALL_DEFAULTS = {
    "model": {"file": None, "generator": {"seed": 0, "s": 4, "x_size": 8, "jitter": 0.5}},
    "architectures": ["ldp"],
    "eps_i": ["inf"],
    "eps_ld": ["inf"],
    "r": [0.999],
    "corr": [0.2],
    "seeds": [0],
    "design": {"z_size": 2, "max_outer_iters": 60, "restarts": 3},
    "epic": {"n_train": 40, "n_test": 5000, "lambda": 0.05, "max_sweeps": 12},
}


def _keys(table, where=""):
    out = set()
    for key, value in table.items():
        out.add(where + key)
        if isinstance(value, dict):
            out |= _keys(value, where + key + ".")
    return out


@pytest.mark.parametrize("archs", [None, ["inp", "e-ldp", "epic"]])
def test_a_spec_of_every_default_writes_the_empty_spec_csv(tmp_path, archs):
    assert _keys(_ALL_DEFAULTS) == _keys(cli.SPEC_DEFAULTS)
    given = {} if archs is None else {"architectures": archs}
    text = []
    for name, data in (("empty", given), ("full", {**_ALL_DEFAULTS, **given})):
        spec, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        spec.write_text(json.dumps(data))
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        text.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    assert len(text[0]) == 1 + (1 if archs is None else 3)
    assert text[0] == text[1]


def test_sweep_requires_an_output_path(tmp_path, capsys):
    spec = _small_spec(tmp_path, architectures=["identity"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--spec", str(spec)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def _with_symbol(path, line, value):
    """The labeled CSV at ``path`` with its last feature on ``line`` (1-based) set to ``value``."""
    lines = path.read_text().splitlines()
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("split, value", [("train", "1.7"), ("test", "-1"), ("train", "-1")])
def test_epic_without_bins_reads_only_nonnegative_integer_symbols(tmp_path, capsys, split, value):
    """Without --bins a feature is a symbol: anything else is exit 2 naming the file
    and line, and no output.  With --bins the same files run."""
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    paths = {"train": tmp_path / "train.csv", "test": tmp_path / "test.csv"}
    _write_labeled_csv(paths["train"], dataset_from_model(model, 30, 0))
    _write_labeled_csv(paths["test"], dataset_from_model(model, 100, 1))
    _with_symbol(paths[split], 4, value)
    argv = ["epic", "--train", str(paths["train"]), "--test", str(paths["test"]),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"privdet epic: {paths[split]}, line 4: feature {float(value)!r} is not a "
        "nonnegative integer symbol; --bins bins real values\n"
    )
    assert not list(tmp_path.glob("out*"))
    assert cli.main(argv + ["--bins", "2"]) == 0


@pytest.mark.parametrize("command", ["gen-model", "report", "design", "relations", "sweep", "epic"])
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: privdet {command}")


def test_relations_writes_the_table_and_exits_zero(tmp_path):
    out = tmp_path / "relations.csv"
    assert cli.main(["relations", "--seed", "3", "--trials", "40", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert tuple(rows[0]) == relations.TABLE_COLUMNS
    kinds = [r["kind"] for r in rows]
    n_bounds, n_witnesses = len(relations.BOUND_SPECS), len(relations.all_witnesses())
    assert kinds == (["implies"] * n_bounds + ["does-not-guarantee"] * n_witnesses
                     + ["does-not-guarantee (q->inf)"] * 2)
    assert {r["verdict"] for r in rows[:n_bounds]} == {relations.VERDICT_BOUND_HOLDS}
    assert {r["verdict"] for r in rows[n_bounds:-2]} == {relations.VERDICT_NON_GUARANTEE}


def test_relations_exits_nonzero_when_a_bound_gets_no_finite_comparison(tmp_path):
    """One trial, a deterministic quantizer: the local budget is inf, so four bounds are vacuous."""
    out = tmp_path / "relations.csv"
    assert cli.main(["relations", "--seed", "3", "--trials", "1", "--out", str(out)]) == 1
    verdicts = [r["verdict"] for r in _read_rows(out) if r["kind"] == "implies"]
    assert verdicts.count(relations.VERDICT_NO_COMPARISON) == 4
    assert set(verdicts) == {relations.VERDICT_BOUND_HOLDS, relations.VERDICT_NO_COMPARISON}


def test_relations_names_a_violated_bound_and_exits_nonzero(tmp_path, monkeypatch):
    """A bound tightened to zero leakage fails on the first random mapping that leaks."""
    key = "mutual_info->avg_leakage"
    tightened = tuple(
        (k, lhs, (lambda r, s, q: 0.0) if k == key else rhs, const)
        for k, lhs, rhs, const in relations.BOUND_SPECS
    )
    monkeypatch.setattr(relations, "BOUND_SPECS", tightened)
    out = tmp_path / "relations.csv"
    assert cli.main(["relations", "--seed", "3", "--trials", "40", "--out", str(out)]) == 1
    verdicts = {f"{r['metric_a']}->{r['metric_b']}": r["verdict"]
                for r in _read_rows(out) if r["kind"] == "implies"}
    worst = relations.check_bound_suite(3, 40).max_violation[key]
    assert worst > relations.BOUND_TOL
    assert verdicts.pop(key) == f"violated ({worst:.3e})"
    assert set(verdicts.values()) == {relations.VERDICT_BOUND_HOLDS}


def test_labeled_csv_takes_a_header_only_on_its_first_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# h, g, one feature\nh,g,x0\n0,1,2\n\n1,0,0\n")
    h, g, feats = cli._read_labeled_csv(path, 1)
    assert (h.tolist(), g.tolist(), feats.tolist()) == ([0, 1], [1, 0], [[2.0], [0.0]])
    path.write_text("0,1,2\n1,0,0\n")
    assert cli._read_labeled_csv(path, 1)[0].tolist() == [0, 1]


@pytest.mark.parametrize("text, line", [
    ("h,g,x0\n0,0,1\n1,1,O\n0,1,2\n", 3),  # a letter O typed for a zero
    ("0,0,1\nh,g,x0\n", 2),  # a header below the data
    ("h,g,x0\n# x0 is binned\nh,g,x0\n", 3),  # a second header
])
def test_labeled_csv_rejects_a_non_numeric_row(tmp_path, text, line):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}:")):
        cli._read_labeled_csv(path, 1)


def test_a_spec_integer_may_be_written_as_an_integral_float():
    data = {"seeds": [2.0], "design": {"restarts": 3.0}, "epic": {"max_sweeps": 4.0}}
    spec = cli.SweepSpec.from_dict(data)
    assert (spec.seeds, spec.design.restarts, spec.epic_config.max_sweeps) == ((2,), 3, 4)
    assert all(type(v) is int for v in (spec.seeds[0], spec.design.restarts))


def test_the_sweep_parses_each_spec_value_once_and_makes_each_row_on_one_path():
    """``_resolve`` is the one walk that parses a spec: ``SweepSpec.from_dict``
    calls no value parser.  ``_run_group`` lays out rows in one loop, with
    one ``_blank_row`` call, failed chains included."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    top = {node.name: node for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    parsers = {name for name in top if name.startswith("_parse")}
    parsers |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)
                and target.id.endswith("PARSERS")}
    (from_dict,) = [node for node in top["SweepSpec"].body
                    if isinstance(node, ast.FunctionDef) and node.name == "from_dict"]
    used = {n.id for n in ast.walk(from_dict) if isinstance(n, ast.Name)}
    assert parsers and not used & (parsers | {"int", "float", "str"})

    run_group = top["_run_group"]
    calls = [n for n in ast.walk(run_group) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "_blank_row"]
    assert len(calls) == 1
    assert sum(isinstance(n, ast.For) for n in ast.walk(run_group)) == 1


@pytest.mark.parametrize("column, value", [(0, "0.6"), (1, "0.5"), (0, "2"), (1, "-1")])
def test_epic_reads_only_binary_labels(tmp_path, capsys, column, value):
    """An h or g bit that is not 0 or 1 is exit 2 naming the file and line, not truncated."""
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_labeled_csv(train, dataset_from_model(model, 30, 0))
    _write_labeled_csv(test, dataset_from_model(model, 100, 1))
    lines = train.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = value
    lines[2] = ",".join(fields)
    train.write_text("\n".join(lines) + "\n")
    argv = ["epic", "--train", str(train), "--test", str(test), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"privdet epic: {train}, line 3: label {float(value)!r} is not 0 or 1; "
        "h and each g bit are binary\n"
    )
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("arch", ["ldp", "lip"])
def test_report_reads_the_mapping_a_design_file_holds(tmp_path, arch):
    model, designed, out = tmp_path / "model.json", tmp_path / "design.json", tmp_path / "report"
    save_model(generate_correlated_model(seed=3, s=2, x_size=3), model)
    argv = ["design", "--arch", arch, "--model", str(model), "--eps-i", "1.0", "--eps-ld", "1.0"]
    assert cli.main(argv + ["--restarts", "2", "--out", str(designed)]) == 0
    argv = ["report", "--model", str(model), "--mapping", str(designed), "--out", str(out)]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == json.loads(designed.read_text())["report"]


def test_report_reads_the_mapping_an_epic_file_holds(tmp_path):
    model = generate_correlated_model(seed=1, s=2, x_size=3)
    model_path, train, test = tmp_path / "model.json", tmp_path / "train.csv", tmp_path / "test.csv"
    save_model(model, model_path)
    _write_labeled_csv(train, dataset_from_model(model, 30, 0))
    _write_labeled_csv(test, dataset_from_model(model, 300, 1))
    argv = ["epic", "--train", str(train), "--test", str(test), "--eps-ld", "1.0"]
    assert cli.main(argv + ["--out", str(tmp_path / "epic")]) == 0
    argv = ["report", "--model", str(model_path), "--mapping", str(tmp_path / "epic.json")]
    assert cli.main(argv + ["--out", str(tmp_path / "report")]) == 0
    mapping = NetworkMapping.from_list(json.loads((tmp_path / "epic.json").read_text())["mapping"])
    expected = metrics.full_report(model, mapping).to_dict()
    assert json.loads((tmp_path / "report.json").read_text()) == expected


def _inverse_cdf_outputs(rows_by_sensor, x, seed):
    """Sanitized outputs of the rows x, drawn sensor by sensor from one generator at ``seed``:
    the first output whose cumulative probability reaches the uniform draw."""
    rng = np.random.default_rng(seed)
    z = [[0] * len(rows_by_sensor) for _ in range(len(x))]
    for t, rows in enumerate(rows_by_sensor):
        draws = rng.random(len(x))
        for i, u in enumerate(draws.tolist()):
            k, cdf = 0, float(rows[x[i][t]][0])
            while k < len(rows[0]) - 1 and u > cdf:
                k += 1
                cdf += float(rows[x[i][t]][k])
            z[i][t] = k
    return z


def _score(weights, zvec):
    return sum(float(weights[t][zt]) for t, zt in enumerate(zvec))


def test_sweep_empirical_rows_match_the_oracles(tmp_path, monkeypatch):
    """Each ok e-ldp and epic row's holdout errors and empirical budgets, recomputed from
    the solution the row reports on: the test set redrawn, the outputs drawn by an
    inverse-CDF loop, decisions from explicit score sums and the budgets by pair loops."""
    solved = {}  # (arch, the row's eps_ld field) -> solution

    def captured(name, arch):
        real = getattr(epic_mod, name)

        def solve(*args, **kwargs):
            sol = real(*args, **kwargs)
            solved[arch, repr(float(sol.eps_ld))] = sol
            return sol

        monkeypatch.setattr(epic_mod, name, solve)

    captured("eldp_solve", "e-ldp")
    captured("epic_solve", "epic")
    model, model_path = generate_correlated_model(seed=2, s=2, x_size=3), tmp_path / "model.json"
    save_model(model, model_path)
    seed, n_test = 3, 400
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({
        "model": {"file": str(model_path)}, "architectures": ["e-ldp", "epic"],
        "eps_ld": [0.5, 1.0], "r": [0.9], "seeds": [seed],
        "epic": {"n_train": 30, "n_test": n_test, "max_sweeps": 2},
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert [r["status"] for r in rows] == ["ok"] * 4 and len(solved) == 4

    h, g, x = model.sample(n_test, np.random.default_rng(seed + 1_000_000))
    h, g, x = h.tolist(), g.tolist(), x.tolist()
    for row in rows:
        sol = solved[row["arch"], row["eps_ld"]]
        rows_by_sensor = [ch.rows.tolist() for ch in sol.mapping.channels]
        z = _inverse_cdf_outputs(rows_by_sensor, x, seed + 2_000_000)
        wrong_h = sum(int(_score(sol.coeffs, zi) > 0) != hi for zi, hi in zip(z, h))
        error_g = math.inf
        for g_value, weights in sol.adversaries.items():
            pairs = [(gi, zi) for gi, zi in zip(g, z) if gi in (0, g_value)]
            if pairs:
                wrong = sum((g_value if _score(weights, zi) > 0 else 0) != gi for gi, zi in pairs)
                error_g = min(error_g, wrong / len(pairs))
        z_budget = _inverse_cdf_outputs(rows_by_sensor, x, seed + 3_000_000)
        want = {
            "holdout_error_H": wrong_h / n_test,
            "holdout_error_G": error_g,
            "eps_i_hat": empirical_eps_i_dict(g, z_budget),
            "eps_ld_hat": max(pairwise_neighbor_budget(ch.rows) for ch in sol.mapping.channels),
        }
        for column, value in want.items():
            got = float(row[column])
            assert got == value or abs(got - value) <= 1e-12, (row["arch"], row["eps_ld"], column)
