"""End-to-end tests of the command-line entry points."""

import csv
import dataclasses
import json
import math
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
from privdet.model import generate_correlated_model, load_model, save_model


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
    spec = _small_spec(tmp_path, architectures=["ldp", "inp", "identity"], seeds=[0, 1])
    text = {}
    for jobs in (1, 2):
        out = tmp_path / f"sweep{jobs}.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out), "--jobs", str(jobs)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",wall_time_s")
        text[jobs] = [line.rsplit(",", 1)[0] for line in lines]
    assert len(text[1]) == 1 + 2 * 4
    assert text[1] == text[2]


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


def test_sweep_with_a_failing_group_writes_its_error_row_and_exits_nonzero(tmp_path):
    """inp at eps_i = 0 raises in the design; the row says so and the others stay ok."""
    spec = _small_spec(tmp_path, architectures=["ldp", "inp"], eps_i=[0.0, 1.0])
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
    rows = _read_rows(out)
    got = [(r["arch"], r["eps_i"], r["status"], r["audit_ok"], r["error"]) for r in rows]
    assert got == [
        ("ldp", "", "ok", "1", ""),
        ("ldp", "", "ok", "1", ""),
        ("inp", "0.0", "error", "0", "ValueError: eps_i must be positive"),
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
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"--eps-ld: invalid _parse_eps value: {value!r}" in capsys.readouterr().err


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
    """(argv, expected stderr) of a run whose input file is missing, malformed or too large."""
    model, mapping, missing = tmp_path / "model.json", tmp_path / "mapping.json", tmp_path / "none"
    save_model(generate_correlated_model(seed=1, s=3, x_size=3), model)
    save_mapping(random_mapping(0, 3, 3, 2), mapping)
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
    else:
        message = no_file
    argv = {
        "report --model": ["report", "--model", str(missing), "--mapping", str(mapping)],
        "report --mapping": ["report", "--model", str(model), "--mapping", str(missing)],
        "design --model": ["design", "--arch", "ldp", "--model", str(missing)],
        "sweep --spec": ["sweep", "--spec", str(missing)],
        "epic --train": ["epic", "--train", str(missing), "--test", str(missing)],
    }.get(case, ["report", "--model", str(model), "--mapping", str(mapping)])
    where = str(missing) if argv[0] == "sweep" else f"privdet {argv[0]}"
    return argv + ["--out", str(tmp_path / "out")], f"{where}: {message}\n"


@pytest.mark.parametrize("case", [
    "two-channel mapping", "model lacks a field", "table over the cap", "report --model",
    "report --mapping", "design --model", "sweep --spec", "epic --train",
])
def test_a_bad_input_file_is_a_usage_error(tmp_path, capsys, case):
    """Exit 2 with the library's message and no output, not a traceback."""
    argv, err = _bad_input(tmp_path, case)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == err
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

    def record_design(model, arch, config):
        configs["design"] = config
        return real_design(model, arch, config)

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
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "model": {"file": str(model)}, "architectures": ["inp"], "eps_i": [0.5],
    }))
    assert cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep.csv")]) == 0
    assert configs["design"] == configs["sweep"]


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
