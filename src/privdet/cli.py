"""Command-line experiment harness.

Subcommands: gen-model, report, design, relations, sweep, epic.  Sweeps are
driven by a JSON or TOML spec file, whose keys and defaults are
``SPEC_DEFAULTS``, and write one CSV row per grid cell; re-running with the
same spec and seeds reproduces the file byte for byte (except the trailing
wall-time column).  The process exits nonzero if any
cell failed or any designed mapping missed its declared budget audit.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import itertools
import json
import math
import sys
import time

import numpy as np

from . import design as design_mod
from . import epic as epic_mod
from . import metrics, relations
from .channels import identity_mapping, load_mapping
from .detection import bayes_error_G_pushed, bayes_error_H_pushed
from .model import (
    JointModel,
    generate_correlated_model,
    load_model,
    push_forward,
    save_model,
)

AUDIT_SLACK = 1e-9

ARCHITECTURES = ("ldp", "ill", "lip", "inp", "e-ldp", "epic", "identity")

#: grid axes that matter per architecture
_AXES = {
    "identity": (),
    "ldp": ("eps_ld",),
    "inp": ("eps_i",),
    "ill": ("eps_i", "eps_ld"),
    "lip": ("eps_i", "eps_ld"),
    "e-ldp": ("eps_ld",),
    "epic": ("eps_ld", "r"),
}


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
    "design": {"z_size": 2, "max_outer_iters": 60, "restarts": 3},
    "epic": {"n_train": 40, "n_test": 5000, "lambda": 0.05, "max_sweeps": 12},
}

#: how each grid axis of a spec reads its values
_GRID_PARSERS = {
    "architectures": str, "eps_i": _parse_eps, "eps_ld": _parse_eps,
    "r": float, "corr": float, "seeds": int,
}


def _resolve(data, defaults, where=""):
    """``data`` checked against ``defaults`` and completed from it, table by table.

    A value whose default is a number is converted to the default's type.
    Raises ValueError naming the first key ``defaults`` does not declare, or
    an entry that is not a table, list or number where its default is one;
    a table is checked before the tables inside it.
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
            value = _resolve(value, default, name)
        elif isinstance(default, (int, float)):
            try:
                value = type(default)(value)
            except (TypeError, ValueError):
                raise ValueError(f"sweep spec key {name!r} must be a number") from None
        elif isinstance(default, tuple) and not isinstance(value, (list, tuple)):
            raise ValueError(f"sweep spec key {name!r} must be a list")
        out[key] = value
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
    epic: dict
    design: design_mod.OptimizerConfig  # each cell sets its own seed and budgets

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        d = _resolve(data, SPEC_DEFAULTS)
        grids = {}
        for key, parse in _GRID_PARSERS.items():
            try:
                grids[key] = tuple(map(parse, d[key]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"sweep spec key {key!r}: {exc}") from None
        for a in grids["architectures"]:
            if a not in ARCHITECTURES:
                raise ValueError(f"unknown architecture {a!r}")
        if not all(grids.values()):
            raise ValueError("every sweep grid must be nonempty")
        return cls(
            model_file=d["model"]["file"],
            generator=d["model"]["generator"],
            epic=d["epic"],
            design=design_mod.OptimizerConfig(**d["design"]),
            **grids,
        )


def load_sweep_spec(path) -> SweepSpec:
    text = open(path, "rb").read()
    if str(path).endswith(".toml"):
        import tomllib

        data = tomllib.loads(text.decode("utf-8"))
    else:
        data = json.loads(text.decode("utf-8"))
    return SweepSpec.from_dict(data)


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


def _run_group(spec: SweepSpec, arch: str, corr: float, seed: int, eps_i: float, r: float):
    """One warm-start chain: all eps_ld values for fixed other axes.

    A row's ``wall_time_s`` is its own evaluation time plus an even share of
    the chain's design time, so the column sums to the group's time.
    """
    t_start = time.perf_counter()
    model = _spec_model(spec, corr)
    rows = []
    eps_ld_axis = spec.eps_ld if "eps_ld" in _AXES[arch] else (math.inf,)
    results = [None] * len(eps_ld_axis)
    try:
        cfg = dataclasses.replace(spec.design, seed=seed, eps_i=eps_i)
        if arch in ("ldp", "ill", "lip"):
            results = design_mod.chain_designs(model, arch, list(eps_ld_axis), cfg)
        elif arch == "inp":
            results = [design_mod.design_inp(model, cfg)]
    except Exception as exc:  # per-cell failures stay in-row
        share = (time.perf_counter() - t_start) / len(eps_ld_axis)
        for eps_ld in eps_ld_axis:
            row = _blank_row(spec, model.s, arch, corr, seed, eps_i, eps_ld, r)
            _fail_row(row, exc)
            row["wall_time_s"] = share
            rows.append(row)
        return rows
    design_share = (time.perf_counter() - t_start) / len(eps_ld_axis)
    for idx, eps_ld in enumerate(eps_ld_axis):
        t0 = time.perf_counter()
        row = _blank_row(spec, model.s, arch, corr, seed, eps_i, eps_ld, r)
        try:
            if arch == "identity":
                mapping = identity_mapping(model.s, model.x_size)
                report = _evaluate_mapping(model, mapping, row)
                row["converged"] = True
            elif arch in ("ldp", "ill", "lip", "inp"):
                res = results[idx]
                report = _evaluate_mapping(model, res.mapping.network(), row, res.report)
                row["converged"] = res.converged
            else:  # epic / e-ldp
                report = _run_epic_cell(spec, arch, model, seed, eps_ld, r, row)
            row["audit_ok"] = _audit(report, arch, eps_i, eps_ld)
            row["status"] = "ok"
        except Exception as exc:
            _fail_row(row, exc)
        row["wall_time_s"] = design_share + time.perf_counter() - t0
        rows.append(row)
    return rows


def _run_epic_cell(spec, arch, model, seed, eps_ld, r, row):
    ep = spec.epic
    cfg = epic_mod.EpicConfig(max_sweeps=ep["max_sweeps"])
    train = epic_mod.dataset_from_model(model, ep["n_train"], seed)
    test = epic_mod.dataset_from_model(model, ep["n_test"], seed + 1_000_000)
    if arch == "epic":
        sol = epic_mod.epic_solve(train, eps_ld, r, ep["lambda"], cfg)
    else:
        sol = epic_mod.eldp_solve(train, eps_ld, ep["lambda"], cfg)
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
    """Execute every grid cell; returns rows in deterministic grid order."""
    keys = _group_keys(spec)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_group, spec, *key) for key in keys]
            groups = [fut.result() for fut in futures]
    else:
        groups = [_run_group(spec, *key) for key in keys]
    return [row for rows in groups for row in rows]


def write_sweep_csv(rows, path) -> None:
    cols = list(rows[0])  # every row is laid out by _blank_row, all columns in order
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in cols])


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
    try:  # a missing or malformed input file, or a table over the size cap
        model = load_model(args.model)
        report = metrics.full_report(model, load_mapping(args.mapping).network())
    except (OSError, ValueError) as exc:
        print(f"privdet report: {exc}", file=sys.stderr)
        return 2
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1)
        fh.write("\n")
    fields = report.csv_fields()
    with open(args.out + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(fields))
        writer.writerow([_fmt(v) for v in fields.values()])
    print(f"wrote {args.out}.json and {args.out}.csv")
    return 0


def _cmd_design(args) -> int:
    settings = dict(SPEC_DEFAULTS["design"], z_size=args.z_size, restarts=args.restarts)
    try:  # a missing or malformed model file, or a flag out of range
        model = load_model(args.model)
        cfg = design_mod.OptimizerConfig(
            **settings, seed=args.seed, eps_i=args.eps_i, eps_ld=args.eps_ld
        )
    except (OSError, ValueError) as exc:
        print(f"privdet design: {exc}", file=sys.stderr)
        return 2
    res = design_mod.design(model, args.arch, cfg)
    payload = res.to_dict()
    payload["arch"] = args.arch
    payload["eps_i"] = metrics.json_float(cfg.eps_i)
    payload["eps_ld"] = metrics.json_float(cfg.eps_ld)
    audit_ok = _audit(res.report, args.arch, cfg.eps_i, cfg.eps_ld)
    payload["audit_ok"] = audit_ok
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out} (objective {res.objective:.6f}, audit {'ok' if audit_ok else 'FAILED'})")
    return 0 if audit_ok else 1


def _cmd_relations(args) -> int:
    try:
        rows, ok = relations.implication_table(args.seed, args.trials)
    except ValueError as exc:  # a flag out of range
        print(f"privdet relations: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(relations.TABLE_COLUMNS)
        writer.writerows(rows)
    print(f"wrote {args.out}; {args.trials} bound-suite trials: {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    try:
        spec = load_sweep_spec(args.spec)
    except (OSError, ValueError) as exc:
        print(f"{args.spec}: {exc}", file=sys.stderr)
        return 2
    rows = run_sweep(spec, jobs=args.jobs)
    write_sweep_csv(rows, args.out)
    n_err = sum(1 for r in rows if r.get("status") != "ok")
    n_audit = sum(1 for r in rows if r.get("status") == "ok" and not r.get("audit_ok"))
    print(f"wrote {args.out}: {len(rows)} rows, {n_err} failures, {n_audit} audit misses")
    return 0 if n_err == 0 and n_audit == 0 else 1


def _cmd_epic(args) -> int:
    try:  # a flag out of range, or a missing or malformed data file
        train_h, train_g, train_feats = _read_labeled_csv(args.train, args.q)
        test_h, test_g, test_feats = _read_labeled_csv(args.test, args.q)
        if args.bins:
            train_x, edges = epic_mod.discretize(train_feats, args.bins)
            test_x, _ = epic_mod.discretize(test_feats, args.bins, edges=edges)
            x_size = args.bins
        else:
            train_x = train_feats.astype(np.int64)
            test_x = test_feats.astype(np.int64)
            x_size = int(max(train_x.max(), test_x.max())) + 1
        train = epic_mod.Dataset(train_h, train_g, train_x, x_size, args.q)
        test = epic_mod.Dataset(test_h, test_g, np.clip(test_x, 0, x_size - 1), x_size, args.q)
        cfg = epic_mod.EpicConfig(max_sweeps=SPEC_DEFAULTS["epic"]["max_sweeps"])
        if args.e_ldp:
            sol = epic_mod.eldp_solve(train, args.eps_ld, args.lam, cfg)
        else:
            sol = epic_mod.epic_solve(train, args.eps_ld, args.r, args.lam, cfg)
    except (OSError, ValueError) as exc:
        print(f"privdet epic: {exc}", file=sys.stderr)
        return 2
    err_h, err_g, eps_i_hat, eps_ld_hat = _holdout_and_empirical(sol, test, args.seed)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(sol.to_dict(), fh, indent=1)
        fh.write("\n")
    with open(args.out + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["error_H", "error_G", "eps_i_hat", "eps_ld_hat"])
        writer.writerow([_fmt(v) for v in (err_h, err_g, eps_i_hat, eps_ld_hat)])
    print(
        f"wrote {args.out}.json/.csv: error_H={err_h:.4f} error_G={err_g:.4f} "
        f"eps_i_hat={eps_i_hat:.4f} eps_ld_hat={_fmt(eps_ld_hat)}"
    )
    return 0


def _read_labeled_csv(path, q):
    """(h, g, features) from a CSV of rows h, the q bits of g, then the features.

    Blank lines and ``#`` comments are skipped.  The first other line may be
    a header; any later line with a non-numeric field raises ValueError.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = True
        for rec in reader:
            if not rec or rec[0].strip().startswith("#"):
                continue
            try:
                rows.append([float(v) for v in rec])
            except ValueError:
                if not first:
                    raise ValueError(
                        f"{path}, line {reader.line_num}: non-numeric field in {rec}"
                    ) from None
            first = False
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2 + q:
        raise ValueError(f"{path}: expected h, {q} g columns and features")
    h = data[:, 0].astype(np.int64)
    g_bits = data[:, 1:1 + q].astype(np.int64)
    g = np.zeros(data.shape[0], dtype=np.int64)
    for j in range(q):
        g = g * 2 + g_bits[:, j]
    return h, g, data[:, 1 + q:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    gen, des, ep = (SPEC_DEFAULTS["model"]["generator"], SPEC_DEFAULTS["design"],
                    SPEC_DEFAULTS["epic"])

    def first(key):  # a subcommand runs one cell: the first value of the spec's default grid
        return SPEC_DEFAULTS[key][0]

    p = sub.add_parser("gen-model", help="generate a synthetic correlated model")
    p.add_argument("--seed", type=int, default=gen["seed"])
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
    p.add_argument("--arch", choices=("ldp", "ill", "lip", "inp"), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--eps-i", type=_parse_eps, default=first("eps_i"))
    p.add_argument("--eps-ld", type=_parse_eps, default=first("eps_ld"))
    p.add_argument("--seed", type=int, default=first("seeds"))
    p.add_argument("--z-size", type=int, default=des["z_size"])
    p.add_argument("--restarts", type=int, default=des["restarts"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("relations", help="metric-implication table and bound suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("sweep", help="run a configuration-driven experiment sweep")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("epic", help="empirical design from labeled CSV data")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--eps-ld", type=_parse_eps, default=first("eps_ld"))
    p.add_argument("--r", type=float, default=first("r"))
    p.add_argument("--lambda", dest="lam", type=float, default=ep["lambda"])
    p.add_argument("--e-ldp", action="store_true", help="drop the inference-privacy floor")
    p.add_argument("--seed", type=int, default=first("seeds"))
    p.add_argument("--out", required=True, help="output prefix (.json/.csv appended)")
    p.set_defaults(func=_cmd_epic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
