"""Correctness checks written independently of privdet.

Nothing here imports the package: models are read from the JSON file the
benchmark hands to the program, and mappings arrive as plain row arrays.
Each function returns a list of failure messages (empty when the check
holds).
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9


class Model:
    """p(h, g) and the per-sensor p(x_t | h, g) tables of a cond_indep model file."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data["form"] != "cond_indep":
            raise ValueError("the checks expect a cond_indep model")
        self.prior = np.asarray(data["prior"], dtype=float)  # (2, n_g)
        self.conds = [np.asarray(c, dtype=float) for c in data["conditionals"]]
        self.s = int(data["s"])
        self.x_size = int(data["x_size"])

    def min_p_h(self) -> float:
        return float(self.prior.sum(axis=1).min())

    def raw_bayes_error(self) -> float:
        """sum over x in X^s of min_h p(h, x): the error of deciding H from raw X."""
        joint = self.prior[:, :, None]
        for c in self.conds:
            joint = (joint[:, :, :, None] * c[:, :, None, :]).reshape(2, self.prior.shape[1], -1)
        p_hx = joint.sum(axis=1)
        return float(np.minimum(p_hx[0], p_hx[1]).sum())

    def p_hgz(self, channels) -> np.ndarray:
        """p(h, g, z) over flattened Z^s, built as a product over sensors."""
        n_g = self.prior.shape[1]
        joint = self.prior[:, :, None]
        for c, rows in zip(self.conds, channels):
            pushed = c @ rows  # (2, n_g, z)
            joint = (joint[:, :, :, None] * pushed[:, :, None, :]).reshape(2, n_g, -1)
        return joint


def eps_ld(channels) -> float:
    """max over sensors, outputs z and inputs x != x' of log P[x, z] / P[x', z]."""
    best = 0.0
    for rows in channels:
        for col in np.asarray(rows, dtype=float).T:
            pos = col[col > 0]
            if pos.size == 0:
                continue
            if pos.size < col.size:
                return math.inf
            best = max(best, math.log(pos.max() / pos.min()))
    return best


def eps_info(p_gz: np.ndarray) -> float:
    """max over cells with p(g, z) > 0 of |log p(g, z) / (p(g) p(z))|."""
    p_g = p_gz.sum(axis=1, keepdims=True)
    p_z = p_gz.sum(axis=0, keepdims=True)
    live = p_gz > 0
    return float(np.abs(np.log(p_gz[live] / (p_g * p_z)[live])).max())


def _float(v: str) -> float:
    return float(v) if v != "" else math.nan


def check_parametric_rows(rows, model: Model) -> list:
    """Data processing on every completed parametric row, and monotone chains.

    raw-X Bayes error <= bayes_error_H <= min(p_H); along each eps_LD chain
    the error does not rise as the budget grows.
    """
    raw = model.raw_bayes_error()
    floor = model.min_p_h()
    errs = []
    chains = {}
    for row in rows:
        if row["arch"] not in ("ldp", "ill", "lip", "inp") or row["status"] != "ok":
            continue
        e = _float(row["bayes_error_H"])
        if not raw - TOL <= e <= floor + TOL:
            errs.append(f"{row['arch']} eps_ld={row['eps_ld']}: bayes_error_H {e} "
                        f"outside [raw {raw}, min p_H {floor}]")
        if row["eps_ld"] != "":
            chains.setdefault((row["arch"], row["eps_i"]), []).append((_float(row["eps_ld"]), e))
    for key, chain in chains.items():
        chain.sort()
        for (b0, e0), (b1, e1) in zip(chain, chain[1:]):
            if e1 > e0 + TOL:
                errs.append(f"{key}: bayes_error_H rose from {e0} at eps_ld {b0} to {e1} at {b1}")
    return errs


def check_epic_rows(rows, model: Model) -> list:
    """Holdout error below min(p_H) and the audited local budget within its target."""
    floor = model.min_p_h()
    errs = []
    for row in rows:
        if row["arch"] not in ("e-ldp", "epic") or row["status"] != "ok":
            continue
        e = _float(row["holdout_error_H"])
        if not e < floor:
            errs.append(f"{row['arch']} eps_ld={row['eps_ld']}: holdout_error_H {e} >= min p_H {floor}")
        if not _float(row["eps_ldp_nats"]) <= _float(row["eps_ld"]) + TOL:
            errs.append(f"{row['arch']} eps_ld={row['eps_ld']}: eps_ldp {row['eps_ldp_nats']} over target")
    return errs


def _matches(val: float, csv_val: float) -> bool:
    return val == csv_val or abs(val - csv_val) <= TOL


def check_bayes_error(model: Model, channels, row) -> list:
    """sum over z of min_h p(h, z) through the returned mapping equals the CSV's bayes_error_H."""
    p_hz = model.p_hgz(channels).sum(axis=1)
    err = float(np.minimum(p_hz[0], p_hz[1]).sum())
    if not _matches(err, _float(row["bayes_error_H"])):
        return [f"{row['arch']} eps_ld={row['eps_ld']}: recomputed bayes_error_H {err} "
                f"!= CSV {row['bayes_error_H']}"]
    return []


def check_budgets(model: Model, channels, row, eps_ld_target, eps_i_target) -> list:
    """Budgets and Bayes error recomputed from a returned mapping, against targets and the CSV."""
    where = f"{row['arch']} eps_ld={row['eps_ld']}"
    errs = check_bayes_error(model, channels, row)
    ld = eps_ld(channels)
    info = eps_info(model.p_hgz(channels).sum(axis=0))
    for name, val, target, col in (
        ("eps_LD", ld, eps_ld_target, "eps_ldp_nats"),
        ("eps_I", info, eps_i_target, "eps_info_nats"),
    ):
        if target is not None and not val <= target + TOL:
            errs.append(f"{where}: recomputed {name} {val} over target {target}")
        csv_val = _float(row[col])
        if not _matches(val, csv_val):
            errs.append(f"{where}: recomputed {name} {val} != CSV {csv_val}")
    return errs


def adversary_risk(channels, x, labels, g: int, lam: float) -> float:
    """Minimum regularized logistic risk of an adversary telling g from 0.

    With features phi(x) = (P_1[x_1], ..., P_s[x_s]) the count-kernel Gram
    matrix is Phi Phi^T, so the representer problem over n coefficients is
    the same problem over w = Phi^T a in s*z dimensions:
    min_w sum_i c_i log(1 + exp(-y_i phi_i . w)) + (lam / 2) |w|^2, with
    class-balanced weights c_i = 1 / (2 n_class).  Solved by damped Newton.
    """
    phi = np.hstack([np.asarray(rows)[x[:, t]] for t, rows in enumerate(channels)])
    c = np.zeros(len(labels))
    y = np.zeros(len(labels))
    for cls, sign in ((0, -1.0), (g, 1.0)):
        idx = labels == cls
        c[idx] = 0.5 / idx.sum()
        y[idx] = sign

    def objective(w):
        return float(c @ np.logaddexp(0.0, -y * (phi @ w))) + 0.5 * lam * float(w @ w)

    w = np.zeros(phi.shape[1])
    obj = objective(w)
    for _ in range(100):
        m = y * (phi @ w)
        p = 0.5 * (1.0 + np.tanh(-0.5 * m))  # sigmoid(-m)
        grad = phi.T @ (-c * y * p) + lam * w
        if np.linalg.norm(grad) <= 1e-13:
            break
        hess = (phi.T * (c * p * (1.0 - p))) @ phi + lam * np.eye(w.size)
        step = np.linalg.solve(hess, grad)
        t = 1.0
        while t > 1e-12 and objective(w - t * step) > obj:
            t *= 0.5
        if t <= 1e-12:
            break
        w = w - t * step
        obj = objective(w)
    return obj


def check_epic_solution(model: Model, channels, x, labels, lam, r, theta_star, risk_slack,
                        eps_ld_target, row) -> list:
    """The re-audited worst-g adversary risk meets the floor r * theta_star."""
    where = f"{row['arch']} eps_ld={row['eps_ld']}"
    errs = check_bayes_error(model, channels, row)
    if row["arch"] == "epic":
        present = sorted(int(v) for v in np.unique(labels) if v != 0)
        worst = min(adversary_risk(channels, x, labels, g, lam) for g in present)
        floor = r * theta_star - risk_slack
        if not worst >= floor - 1e-7:
            errs.append(f"{where}: re-audited adversary risk {worst} below floor {floor}")
    ld = eps_ld(channels)
    if not ld <= eps_ld_target + TOL:
        errs.append(f"{where}: recomputed eps_LD {ld} over target {eps_ld_target}")
    if not _matches(ld, _float(row["eps_ldp_nats"])):
        errs.append(f"{where}: recomputed eps_LD {ld} != CSV {row['eps_ldp_nats']}")
    return errs


def binary_entropy(a: float) -> float:
    return -a * math.log(a) - (1.0 - a) * math.log(1.0 - a)


def check_leakage_witness(points) -> list:
    """avg_leakage -> info witness: I = h(alpha), posterior-ratio budget = log(1/alpha)."""
    errs = []
    for a, mi, info in points:
        want_mi, want_info = binary_entropy(a), math.log(1.0 / a)
        if not abs(mi - want_mi) <= 1e-12 + 1e-9 * want_mi:
            errs.append(f"alpha={a}: I(G;Z) {mi} != binary entropy {want_mi}")
        if not abs(info - want_info) <= 1e-9 * want_info:
            errs.append(f"alpha={a}: eps_info {info} != log(1/alpha) {want_info}")
    return errs
