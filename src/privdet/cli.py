"""Command-line experiment harness.

Subcommands: gen-model, report, design, relations, sweep, epic.  Sweeps are
driven by a JSON or TOML spec file, whose keys and defaults are
``SPEC_DEFAULTS``, and write one CSV row per grid cell; re-running with the
same spec and seeds reproduces the file byte for byte (except the trailing
wall-time column).

Exit codes: 0 on success; 1 when a sweep cell failed, a designed mapping
missed its declared budget audit or the bound suite found a violated bound;
2 for bad input (a missing or malformed file, a flag or spec value out of
range), which ``main`` reports in one line, ``privdet <command>: <message>``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import itertools
import math
import sys
import time

import numpy as np

from . import design as design_mod
from . import epic as epic_mod
from . import metrics, relations
from .channels import check_eps_ld, identity_mapping, load_mapping, read_document, write_json
from .detection import bayes_error_G_pushed, bayes_error_H_pushed
from .model import (
    JointModel,
    generate_correlated_model,
    load_model,
    push_forward,
    save_model,
)

AUDIT_SLACK = 1e-9

#: the architectures a sweep runs, each with the grid axes that matter to it
_AXES = {
    "identity": (),
    "ldp": ("eps_ld",),
    "inp": ("eps_i",),
    "ill": ("eps_i", "eps_ld"),
    "lip": ("eps_i", "eps_ld"),
    "e-ldp": ("eps_ld",),
    "epic": ("eps_ld", "r"),
}
#: the architectures whose mapping is learned from samples, through ``_empirical_solve``
_EMPIRICAL = ("e-ldp", "epic")


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def _parse_eps(v) -> float:
    """A privacy budget: a nonnegative number, ``inf`` included."""
    eps = float(v)
    if not eps >= 0:
        raise ValueError(f"a privacy budget must be a nonnegative number, got {v!r}")
    return eps


def _parse_eps_ld(v) -> float:
    """A local budget: a privacy budget that ``check_eps_ld`` accepts."""
    return check_eps_ld(_parse_eps(v))


def _parse_int(v) -> int:
    """An integer: an integral number, or a string of one; a fraction is refused, not cut off."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _parse_seed(v) -> int:
    """A seed: a nonnegative integer."""
    seed = _parse_int(v)
    if seed < 0:
        raise ValueError(f"a seed must be a nonnegative integer, got {v!r}")
    return seed


def _parse_count(v) -> int:
    """A count: a positive integer."""
    count = _parse_int(v)
    if count < 1:
        raise ValueError(f"a count must be a positive integer, got {v!r}")
    return count


def _parse_path(v) -> str | None:
    """A file path: a nonempty string, or null for none."""
    if v is not None and not (isinstance(v, str) and v):
        raise ValueError(f"a file path must be a nonempty string or null, got {v!r}")
    return v


def _parse_arch(v) -> str:
    """An architecture a sweep runs: a key of ``_AXES``."""
    if v not in _AXES:
        raise ValueError(f"unknown architecture {v!r}")
    return v


# -- sweep spec ------------------------------------------------------------

#: Every key a sweep spec may set, with its default; a dict value is a table
#: of its own, and any other key is rejected.  The ``gen-model``, ``design``
#: and ``epic`` subcommands take their flag defaults from here, so each runs
#: the settings of the sweep cell it stands for.
SPEC_DEFAULTS = {
    "model": {
        "file": None,
        "generator": {"seed": 0, "s": 4, "x_size": 8, "jitter": 0.5},
    },
    "architectures": ("ldp",),
    "eps_i": (math.inf,),
    "eps_ld": (math.inf,),
    "r": (0.999,),
    "corr": (0.2,),
    "seeds": (0,),
    "design": {key: getattr(design_mod.OptimizerConfig, key)
               for key in ("z_size", "max_outer_iters", "restarts")},
    "epic": {"n_train": 40, "n_test": 5000, "lambda": 0.05,
             "max_sweeps": epic_mod.EpicConfig.max_sweeps},
}

#: how a spec key reads its value, or each entry of its grid, by the key's name;
#: a key not named here reads as its default's number type
_PARSERS = {
    "architectures": _parse_arch, "eps_i": _parse_eps, "eps_ld": _parse_eps_ld,
    "seeds": _parse_seed, "seed": _parse_seed, "file": _parse_path,
}
_NUMBER_PARSERS = {int: _parse_int, float: float}


def _resolve(data, defaults, where=""):
    """``data`` checked against ``defaults``, completed from it and parsed, table by table.

    The one place a spec value is parsed, by its key's parser (``_PARSERS``).
    Raises ValueError naming the first key ``defaults`` does not declare, or
    the key of an entry that is not a table or list where its default is one,
    or that its parser refuses; a table is checked before the tables inside it.
    """
    if not isinstance(data, dict):
        raise ValueError(f"sweep spec entry {where or 'top level'!r} must be a table")
    prefix = f"{where}." if where else ""
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        raise ValueError(f"unknown sweep spec key {prefix + unknown[0]!r}")
    out = {}
    for key, default in defaults.items():
        value, name = data.get(key, default), prefix + key
        if isinstance(default, dict):
            out[key] = _resolve(value, default, name)
            continue
        grid = isinstance(default, tuple)
        if grid and not isinstance(value, (list, tuple)):
            raise ValueError(f"sweep spec key {name!r} must be a list")
        parse = _PARSERS.get(key) or _NUMBER_PARSERS.get(type(default[0] if grid else default))
        try:
            out[key] = tuple(map(parse, value)) if grid else parse(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"sweep spec key {name!r}: {exc}") from None
    return out


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    model_file: str | None
    generator: dict  # keyword arguments of generate_correlated_model, target_corr aside
    architectures: tuple
    eps_i: tuple
    eps_ld: tuple
    r: tuple
    corr: tuple
    seeds: tuple
    epic: dict  # n_train, n_test and lambda of every empirical cell
    epic_config: epic_mod.EpicConfig
    design: design_mod.OptimizerConfig  # each cell sets its own seed and budgets

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """The spec ``_resolve`` reads from ``data``, with the checks that read more than one key."""
        grids = _resolve(data, SPEC_DEFAULTS)
        model, design, epic = grids.pop("model"), grids.pop("design"), grids.pop("epic")
        for a in grids["architectures"]:
            if "eps_i" in _AXES[a] and 0.0 in grids["eps_i"]:
                raise ValueError(f"sweep spec key 'eps_i': {a!r} needs every eps_i positive")
            if "r" in _AXES[a] and not all(0.0 < r < 1.0 for r in grids["r"]):
                raise ValueError(f"sweep spec key 'r': {a!r} needs every r in (0, 1)")
            for key in ("n_train", "n_test", "lambda") if a in _EMPIRICAL else ():
                if not epic[key] > 0:
                    raise ValueError(f"sweep spec key 'epic.{key}': {a!r} needs it positive, "
                                     f"got {epic[key]!r}")
        if not all(grids.values()):
            raise ValueError("every sweep grid must be nonempty")
        return cls(
            model_file=model["file"],
            generator=model["generator"],
            epic=epic,
            epic_config=epic_mod.EpicConfig(max_sweeps=epic.pop("max_sweeps")),
            design=design_mod.OptimizerConfig(**design),
            **grids,
        )


def load_sweep_spec(path) -> SweepSpec:
    """The spec in a JSON file, or a TOML one by its ``.toml`` suffix, read by ``read_document``."""
    if str(path).endswith(".toml"):
        import tomllib  # only a TOML spec pays for the import
        return read_document(path, SweepSpec.from_dict, tomllib.loads)
    return read_document(path, SweepSpec.from_dict)


def _spec_model(spec: SweepSpec, corr: float) -> JointModel:
    if spec.model_file:
        return load_model(spec.model_file)
    return generate_correlated_model(**spec.generator, target_corr=corr)


#: the budget columns of a sweep row, named and ordered as ``BudgetReport.csv_fields``
CSV_BUDGET_FIELDS = list(
    metrics.BudgetReport(*[0.0] * len(dataclasses.fields(metrics.BudgetReport))).csv_fields()
)


def sweep_columns(s: int) -> list:
    cols = ["arch", "corr", "seed", "eps_i", "eps_ld", "r", "status"]
    cols += ["bayes_error_H", "bayes_error_G", "mi_H_Z", "mi_G_Z"]
    cols += [f"mi_X{t}_Z{t}" for t in range(s)]
    cols += CSV_BUDGET_FIELDS
    cols += ["holdout_error_H", "holdout_error_G", "eps_i_hat", "eps_ld_hat"]
    cols += ["converged", "audit_ok", "error", "wall_time_s"]
    return cols


def _evaluate_mapping(model, mapping, row, report=None):
    """Fill ``row`` with the detection, mutual-information and budget columns.

    ``report`` is the mapping's audit when the caller already has it (a
    designed row passes ``DesignResult.report``).  Otherwise the mapping is
    audited here, once, after the other columns are filled, so a row whose
    audit raises keeps them.  Returns the report.
    """
    pushed = push_forward(model, mapping)
    row["bayes_error_H"] = bayes_error_H_pushed(pushed)
    row["bayes_error_G"] = bayes_error_G_pushed(pushed)
    row["mi_H_Z"] = metrics.mutual_information(pushed.p_hz())
    row["mi_G_Z"] = metrics.mutual_information(pushed.p_gz())
    for t, mi in enumerate(metrics.per_sensor_mutual_information(model, mapping)):
        row[f"mi_X{t}_Z{t}"] = mi
    if report is None:
        report = metrics.full_report(model, mapping)
    row.update(report.csv_fields())
    return report


def _audit(report, arch, eps_i, eps_ld) -> bool:
    ok = True
    if "eps_ld" in _AXES[arch]:
        ok &= report.eps_ldp <= eps_ld + AUDIT_SLACK
    if "eps_i" in _AXES[arch]:
        ok &= report.eps_info <= eps_i + AUDIT_SLACK
    return bool(ok)


def _run_group(spec: SweepSpec, model: JointModel, arch: str, corr: float, seed: int,
               eps_i: float, r: float):
    """One warm-start chain on ``model``: all eps_ld values for fixed other axes.

    A row's ``wall_time_s`` is its own evaluation time plus an even share of
    the chain's design time, so the column sums to the group's time.
    """
    t_start = time.perf_counter()
    eps_ld_axis = spec.eps_ld if "eps_ld" in _AXES[arch] else (math.inf,)
    chain = None  # the designed results of the eps_ld axis, or the exception that ended them
    try:
        if arch in design_mod.ARCHITECTURES:
            cfg = dataclasses.replace(spec.design, seed=seed, eps_i=eps_i)
            chain = design_mod.chain_designs(model, arch, list(eps_ld_axis), cfg)
    except Exception as exc:  # it fails each cell of the chain, in the row loop
        chain = exc
    design_share = (time.perf_counter() - t_start) / len(eps_ld_axis)
    rows = []
    for idx, eps_ld in enumerate(eps_ld_axis):
        t0 = time.perf_counter()
        row = _blank_row(spec, model.s, arch, corr, seed, eps_i, eps_ld, r)
        try:
            if isinstance(chain, Exception):
                raise chain
            if arch == "identity":
                mapping = identity_mapping(model.s, model.x_size)
                report = _evaluate_mapping(model, mapping, row)
                row["converged"] = True
            elif arch in design_mod.ARCHITECTURES:
                res = chain[idx]
                report = _evaluate_mapping(model, res.mapping.network(), row, res.report)
                row["converged"] = res.converged
            else:  # one of _EMPIRICAL
                report = _run_epic_cell(spec, arch, model, seed, eps_ld, r, row)
            row["audit_ok"] = _audit(report, arch, eps_i, eps_ld)
            row["status"] = "ok"
        except Exception as exc:  # per-cell failures stay in-row
            _fail_row(row, exc)
        row["wall_time_s"] = design_share + time.perf_counter() - t0
        rows.append(row)
    return rows


def _empirical_solve(arch, train, eps_ld, r, lam, config):
    """The one empirical solve, of sweep cells and ``privdet epic``: ``e-ldp`` reads no r."""
    if arch == "epic":
        return epic_mod.epic_solve(train, eps_ld, r, lam, config)
    return epic_mod.eldp_solve(train, eps_ld, lam, config)


def _run_epic_cell(spec, arch, model, seed, eps_ld, r, row):
    ep = spec.epic
    train = epic_mod.dataset_from_model(model, ep["n_train"], seed)
    test = epic_mod.dataset_from_model(model, ep["n_test"], seed + 1_000_000)
    sol = _empirical_solve(arch, train, eps_ld, r, ep["lambda"], spec.epic_config)
    report = _evaluate_mapping(model, sol.mapping, row)
    fields = ("holdout_error_H", "holdout_error_G", "eps_i_hat", "eps_ld_hat")
    row.update(zip(fields, _holdout_and_empirical(sol, test, seed)))
    row["converged"] = True
    return report


def _holdout_and_empirical(sol, test, seed):
    """(error_H, error_G, eps_i_hat, eps_ld_hat) of an EPIC solution on held-out data.

    The holdout decisions draw from seed + 2e6, the sanitized test outputs
    that the empirical budgets read from seed + 3e6.
    """
    err_h, err_g = epic_mod.holdout_errors(sol, test, seed + 2_000_000)
    z = sol.mapping.sample(test.x, np.random.default_rng(seed + 3_000_000))
    eps_i_hat, eps_ld_hat = metrics.empirical_budgets(test.g, z, sol.mapping)
    return err_h, err_g, eps_i_hat, eps_ld_hat


def _blank_row(spec, s, arch, corr, seed, eps_i, eps_ld, r):
    """A row with every column of an s-sensor sweep, in CSV order, and its grid cell set."""
    row = {c: "" for c in sweep_columns(s)}
    row["arch"] = arch
    row["corr"] = "" if spec.model_file else corr
    row["seed"] = seed
    row["eps_i"] = eps_i if "eps_i" in _AXES[arch] else ""
    row["eps_ld"] = eps_ld if "eps_ld" in _AXES[arch] else ""
    row["r"] = r if "r" in _AXES[arch] else ""
    return row


def _fail_row(row, exc) -> None:
    row["status"] = "error"
    row["error"] = f"{type(exc).__name__}: {exc}"
    row["audit_ok"] = False


def _group_keys(spec: SweepSpec):
    """(arch, corr, seed, eps_i, r) of every warm-start chain, in grid order."""
    keys = []
    corrs = spec.corr if not spec.model_file else (0.0,)
    for arch in spec.architectures:
        eps_is = spec.eps_i if "eps_i" in _AXES[arch] else (math.inf,)
        rs = spec.r if "r" in _AXES[arch] else (None,)
        keys += itertools.product((arch,), corrs, spec.seeds, eps_is, rs)
    return keys


def run_sweep(spec: SweepSpec, jobs: int = 1):
    """Execute every grid cell; returns rows in deterministic grid order.

    Each (corr, seed) unit's model is made once, before any group runs.  With
    one job the groups of a unit share it, and so the stages it holds (see
    ``design``); with more, each group gets a copy.  The rows are the same.
    """
    keys = _group_keys(spec)
    models = {unit: _spec_model(spec, unit[0]) for unit in dict.fromkeys(k[1:3] for k in keys)}
    tasks = [(spec, models[key[1:3]], *key) for key in keys]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_group, *task) for task in tasks]
            groups = [fut.result() for fut in futures]
    else:
        groups = [_run_group(*task) for task in tasks]
    return [row for rows in groups for row in rows]


def _write_csv(path, header, rows) -> None:
    """The one CSV writer: a header line, then each row's values through ``_fmt``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


# -- subcommand entry points -------------------------------------------------


def _cmd_gen_model(args) -> int:
    model = generate_correlated_model(
        seed=args.seed,
        s=args.sensors,
        x_size=args.x_size,
        target_corr=args.corr,
        jitter=args.jitter,
    )
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    model = load_model(args.model)
    report = metrics.full_report(model, load_mapping(args.mapping).network())
    fields = report.csv_fields()
    write_json(args.out + ".json", report.to_dict())
    _write_csv(args.out + ".csv", list(fields), [list(fields.values())])
    print(f"wrote {args.out}.json and {args.out}.csv")
    return 0


def _cmd_design(args) -> int:
    model = load_model(args.model)
    cfg = design_mod.OptimizerConfig(eps_i=args.eps_i, eps_ld=args.eps_ld, z_size=args.z_size,
                                     seed=args.seed, restarts=args.restarts)
    res = design_mod.design(model, args.arch, cfg)
    payload = res.to_dict()
    payload["arch"] = args.arch
    payload["eps_i"] = metrics.json_float(cfg.eps_i)
    payload["eps_ld"] = metrics.json_float(cfg.eps_ld)
    audit_ok = _audit(res.report, args.arch, cfg.eps_i, cfg.eps_ld)
    payload["audit_ok"] = audit_ok
    write_json(args.out, payload)
    print(f"wrote {args.out} (objective {res.objective:.6f}, audit {'ok' if audit_ok else 'FAILED'})")
    return 0 if audit_ok else 1


def _cmd_relations(args) -> int:
    rows, ok = relations.implication_table(args.seed, args.trials)
    _write_csv(args.out, relations.TABLE_COLUMNS, rows)
    print(f"wrote {args.out}; {args.trials} bound-suite trials: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    rows = run_sweep(load_sweep_spec(args.spec), jobs=args.jobs)
    cols = list(rows[0])  # every row is laid out by _blank_row, all columns in order
    _write_csv(args.out, cols, [[row[c] for c in cols] for row in rows])
    n_err = sum(1 for r in rows if r.get("status") != "ok")
    n_audit = sum(1 for r in rows if r.get("status") == "ok" and not r.get("audit_ok"))
    print(f"wrote {args.out}: {len(rows)} rows, {n_err} failures, {n_audit} audit misses")
    return 0 if n_err == 0 and n_audit == 0 else 1


def _cmd_epic(args) -> int:
    symbols = args.bins is None
    train_h, train_g, train_feats = _read_labeled_csv(args.train, args.q, symbols)
    test_h, test_g, test_feats = _read_labeled_csv(args.test, args.q, symbols)
    if train_feats.shape[1] != test_feats.shape[1]:
        raise ValueError(f"{args.train} has {train_feats.shape[1]} feature columns and {args.test} "
                         f"has {test_feats.shape[1]}; both need the same features")
    if symbols:
        train_x = train_feats.astype(np.int64)
        test_x = test_feats.astype(np.int64)
        x_size = int(max(train_x.max(), test_x.max())) + 1
    else:
        train_x, edges = epic_mod.discretize(train_feats, args.bins)
        test_x, _ = epic_mod.discretize(test_feats, args.bins, edges=edges)
        x_size = args.bins
    train = epic_mod.Dataset(train_h, train_g, train_x, x_size, args.q)
    test = epic_mod.Dataset(test_h, test_g, test_x, x_size, args.q)
    arch = "e-ldp" if args.e_ldp else "epic"
    sol = _empirical_solve(arch, train, args.eps_ld, args.r, args.lam, epic_mod.EpicConfig())
    err_h, err_g, eps_i_hat, eps_ld_hat = _holdout_and_empirical(sol, test, args.seed)
    write_json(args.out + ".json", sol.to_dict())
    _write_csv(args.out + ".csv", ["error_H", "error_G", "eps_i_hat", "eps_ld_hat"],
               [[err_h, err_g, eps_i_hat, eps_ld_hat]])
    print(
        f"wrote {args.out}.json/.csv: error_H={err_h:.4f} error_G={err_g:.4f} "
        f"eps_i_hat={eps_i_hat:.4f} eps_ld_hat={_fmt(eps_ld_hat)}"
    )
    return 0


def _read_labeled_csv(path, q, symbols=False):
    """(h, g, features) from a CSV of rows h, the q bits of g, then the features.

    Blank lines and ``#`` comments are skipped.  The first other line may be
    a header; a later line with a non-numeric field, with another field count
    than the first data line, with h or a g bit other than 0 or 1, with a NaN
    feature, or with ``symbols`` a feature that is not a nonnegative integer,
    raises ValueError naming the file and line.  An infinite real feature
    stays: it bins into an end bin.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = True
        for rec in reader:
            if not rec or rec[0].strip().startswith("#"):
                continue
            may_be_header, first = first, False
            try:
                row = [float(v) for v in rec]
            except ValueError:
                if may_be_header:
                    continue
                raise ValueError(
                    f"{path}, line {reader.line_num}: non-numeric field in {rec}"
                ) from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}, line {reader.line_num}: {len(rec)} fields, "
                                 f"the first data line has {len(rows[0])}")
            bad = [v for v in row[:1 + q] if v not in (0.0, 1.0)]
            if bad:
                raise ValueError(f"{path}, line {reader.line_num}: label {bad[0]!r} is not 0 or 1; "
                                 "h and each g bit are binary")
            if any(math.isnan(v) for v in row[1 + q:]):
                raise ValueError(f"{path}, line {reader.line_num}: a feature is nan; "
                                 "every feature needs a value")
            bad = [v for v in row[1 + q:] if not (v >= 0 and v.is_integer())] if symbols else []
            if bad:
                raise ValueError(f"{path}, line {reader.line_num}: feature {bad[0]!r} is not a "
                                 "nonnegative integer symbol; --bins bins real values")
            rows.append(row)
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2 + q:
        raise ValueError(f"{path}: expected h, {q} g columns and features")
    h = data[:, 0].astype(np.int64)
    g_bits = data[:, 1:1 + q].astype(np.int64)
    g = np.zeros(data.shape[0], dtype=np.int64)
    for j in range(q):
        g = g * 2 + g_bits[:, j]
    return h, g, data[:, 1 + q:]


class _ParsedFlag(argparse.Action):
    """A flag whose ``type`` reads its value here, once argparse has matched it.

    A value the ``type`` refuses is then a ValueError naming the flag, which
    ``main`` reports in its one line, not argparse's usage message.
    """

    def __init__(self, option_strings, dest, type=None, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.parse = type or str

    def __call__(self, parser, namespace, value, option_string=None):
        try:
            setattr(namespace, self.dest, self.parse(value))
        except ValueError as exc:
            raise ValueError(f"{option_string}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse with every stored flag a ``_ParsedFlag``, in each subcommand too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _ParsedFlag)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="privdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    gen, des, ep = (SPEC_DEFAULTS["model"]["generator"], SPEC_DEFAULTS["design"],
                    SPEC_DEFAULTS["epic"])

    def first(key):  # a subcommand runs one cell: the first value of the spec's default grid
        return SPEC_DEFAULTS[key][0]

    p = sub.add_parser("gen-model", help="generate a synthetic correlated model")
    p.add_argument("--seed", type=_parse_seed, default=gen["seed"])
    p.add_argument("--sensors", type=int, default=gen["s"])
    p.add_argument("--x-size", type=int, default=gen["x_size"])
    p.add_argument("--corr", type=float, default=first("corr"))
    p.add_argument("--jitter", type=float, default=gen["jitter"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_model)

    p = sub.add_parser("report", help="budget report for a (model, mapping) pair")
    p.add_argument("--model", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--out", required=True, help="output prefix (.json/.csv appended)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("design", help="optimize a privacy mapping")
    p.add_argument("--arch", choices=design_mod.ARCHITECTURES, required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--eps-i", type=_parse_eps, default=first("eps_i"))
    p.add_argument("--eps-ld", type=_parse_eps_ld, default=first("eps_ld"))
    p.add_argument("--seed", type=_parse_seed, default=first("seeds"))
    p.add_argument("--z-size", type=int, default=des["z_size"])
    p.add_argument("--restarts", type=int, default=des["restarts"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("relations", help="metric-implication table and bound suite")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("sweep", help="run a configuration-driven experiment sweep")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_parse_count, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("epic", help="empirical design from labeled CSV data")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--q", type=_parse_count, default=1)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--eps-ld", type=_parse_eps_ld, default=first("eps_ld"))
    p.add_argument("--r", type=float, default=first("r"))
    p.add_argument("--lambda", dest="lam", type=float, default=ep["lambda"])
    p.add_argument("--e-ldp", action="store_true", help="drop the inference-privacy floor")
    p.add_argument("--seed", type=_parse_seed, default=first("seeds"))
    p.add_argument("--out", required=True, help="output prefix (.json/.csv appended)")
    p.set_defaults(func=_cmd_epic)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  The one place bad input, an OSError or a ValueError,
    becomes exit 2; a sweep cell's failure stays in its row, and any other
    exception is a program fault and propagates.  A flag value its parser
    refuses is bad input too: the subcommand is named in ``args`` before its
    flags are read."""
    args = argparse.Namespace()
    try:
        build_parser().parse_args(argv, args)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"privdet {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
