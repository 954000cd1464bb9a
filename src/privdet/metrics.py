"""Privacy budget computations.

All budgets are reported in nats (natural logarithms throughout).  Ratio
conventions: a pair whose numerator and denominator are both zero lies
outside the support and is skipped; a positive numerator over a zero
denominator yields +inf.  Posterior ratios are only evaluated at outputs
with positive probability.

The six budgets:

* information privacy     -- max |log p(g|z) / p(g)|
* inference differential  -- max log p(z|g) / p(z|g') over neighboring g, g'
* average leakage         -- I(G; Z)
* local differential      -- max log p_t(z|x) / p_t(z|x') per sensor
* mutual information      -- I(X; Z)
* identifiability         -- max log p(x|z) / p(x'|z) over neighboring x, x'

plus delta_x, the max log prior ratio over neighboring observation vectors.

The empirical eps_I of a sample is the information-privacy budget of the
empirical (G, Z) table: max_abs_log_posterior_ratio of its counts over n.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .channels import NetworkMapping
from .model import EXPANSION_CAP, JointModel, PushedModel, push_forward

LOG2 = math.log(2.0)


# -- table-level primitives --------------------------------------------------


def mutual_information(joint: np.ndarray) -> float:
    """I(A; B) in nats from a 2-D joint table, with the 0 log 0 = 0 convention."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("mutual_information expects a 2-D joint table")
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = np.ones_like(joint)
    np.divide(joint, pa * pb, out=ratio, where=mask)
    return float(max(0.0, np.sum(joint[mask] * np.log(ratio[mask]))))


def max_abs_log_posterior_ratio(joint: np.ndarray) -> float:
    """max over the joint support of |log p(a|b) / p(a)|.

    Rows index the protected variable, columns the observed one.  The
    maximum runs over cells with p(a, b) > 0: outputs of probability zero
    can never be observed, and a protected value with zero posterior mass
    at an observed output is treated the same way (the support-restricted
    reading of the posterior-ratio budget).
    """
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    if not mask.any():
        return 0.0
    denom = pa[:, None] * pb[None, :]
    return float(np.abs(np.log(joint[mask] / denom[mask])).max())


def _neighbor_axis_budget(table: np.ndarray) -> float:
    """max log ratio between entries differing in one leading-axis index.

    ``table`` has shape (k, ...): entries along axis 0 with identical
    trailing indices are compared.  Per trailing index the largest ratio is
    log(max / min) over the positive entries; a column holding both a
    positive entry and a zero gives inf, and a column with no positive
    entry is skipped.
    """
    flat = table.reshape(table.shape[0], -1)
    pos = flat > 0
    live = pos.any(axis=0)
    if not live.any():
        return 0.0
    if np.any(live & (flat == 0).any(axis=0)):
        return math.inf
    hi = np.where(pos, flat, 0.0).max(axis=0)[live]
    lo = np.where(pos, flat, np.inf).min(axis=0)[live]
    return float(np.log(hi / lo).max())


def _max_neighbor_budget(tables) -> float:
    """The largest ``_neighbor_axis_budget`` over ``tables``, stopping at the first inf."""
    best = 0.0
    for table in tables:
        best = max(best, _neighbor_axis_budget(table))
        if best == math.inf:
            return best
    return best


def _max_sensor_axis_budget(table: np.ndarray, s: int) -> float:
    """Neighbor budget over vectors differing in one of the leading ``s`` (sensor) axes."""
    return _max_neighbor_budget(np.moveaxis(table, t, 0) for t in range(s))


# -- per-metric operations ----------------------------------------------------


def ldp_budget(mapping: NetworkMapping) -> float:
    """Worst-case per-sensor log likelihood ratio across inputs."""
    return _max_neighbor_budget(ch.rows for ch in mapping.channels)


def info_privacy_budget(pushed: PushedModel) -> float:
    return max_abs_log_posterior_ratio(pushed.p_gz())


def inference_dp_budget(pushed: PushedModel) -> float:
    """max log p(z|g)/p(z|g') over g, g' differing in one component.

    Per bit, the conditional rows of every pair (g, g with that bit set)
    whose values both have positive probability are stacked on a leading
    axis of two, so ``_neighbor_axis_budget`` compares each pair in both
    directions at once.
    """
    p_gz = pushed.p_gz()
    p_g = p_gz.sum(axis=1)
    live = p_g > 0
    cond = np.zeros_like(p_gz)
    cond[live] = p_gz[live] / p_g[live, None]
    g = np.arange(pushed.n_g)
    pairs = []
    for bit in (1 << b for b in range(pushed.q)):
        lo = g[(g & bit) == 0]
        lo = lo[live[lo] & live[lo | bit]]
        if lo.size:
            pairs.append((lo, lo | bit))
    return _max_neighbor_budget(np.stack([cond[lo], cond[hi]]) for lo, hi in pairs)


def avg_info_leakage(pushed: PushedModel) -> float:
    return mutual_information(pushed.p_gz())


def mutual_info_privacy_budget(pushed: PushedModel) -> float:
    """I(X; Z) in nats; materializes the (X, Z) joint (capped)."""
    return mutual_information(_joint_xz(pushed))


def identifiability_budget(pushed: PushedModel) -> float:
    """max log p(x|z)/p(x'|z) over observation vectors differing in one sensor."""
    model = pushed.source
    shaped = _joint_xz(pushed).reshape((model.x_size,) * model.s + (pushed.n_z,))
    return _max_sensor_axis_budget(shaped, model.s)


def delta_x(model: JointModel) -> float:
    """max log p(x)/p(x') over neighboring observation vectors."""
    return _max_sensor_axis_budget(model.p_x().reshape((model.x_size,) * model.s), model.s)


def _joint_xz(pushed: PushedModel) -> np.ndarray:
    """p(x, z) = p(x) p(z|x) over flattened vectors (Z depends on X only)."""
    model = pushed.source
    cells = model.n_x * pushed.n_z
    if cells > EXPANSION_CAP:
        raise ValueError(
            f"(X, Z) joint needs {cells} cells (cap {EXPANSION_CAP}); "
            "observation-side budgets are only computed at desk scale"
        )
    big = functools.reduce(np.kron, [ch.rows for ch in pushed.mapping.channels])
    return model.p_x()[:, None] * big


# -- empirical estimators -----------------------------------------------------


def empirical_budgets(g: np.ndarray, z: np.ndarray, mapping: NetworkMapping):
    """(eps_I_hat, eps_LD_hat) from n sampled private values and sanitized outputs.

    ``g`` holds the private values as integers, ``z`` the sanitized vectors
    (shape (n, s)) drawn through ``mapping``.  eps_I_hat is the
    posterior-ratio budget of the empirical (G, Z) count table; the local
    budget is exact because the channels are known.
    """
    g = np.asarray(g, dtype=np.int64)
    if g.size == 0:
        raise ValueError("empirical_budgets needs at least one sample")
    dims = tuple(ch.z_size for ch in mapping.channels)
    n_z = math.prod(dims)
    cells = g * n_z + np.ravel_multi_index(np.asarray(z).T, dims)
    counts = np.bincount(cells, minlength=(int(g.max()) + 1) * n_z).reshape(-1, n_z)
    return max_abs_log_posterior_ratio(counts / g.size), ldp_budget(mapping)


# -- aggregate report ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BudgetReport:
    """All seven quantities for one (model, mapping) pair, in nats."""

    eps_info: float
    eps_inference_dp: float
    eps_avg_leakage: float
    eps_ldp: float
    eps_mutual_info: float
    eps_identifiability: float
    delta_x: float

    def to_dict(self) -> dict:
        return {k: json_float(v) for k, v in dataclasses.asdict(self).items()}

    def csv_fields(self) -> dict:
        """Flat dict with a nats and a bits column per budget."""
        out = {}
        for k, v in dataclasses.asdict(self).items():
            out[f"{k}_nats"] = v
            out[f"{k}_bits"] = v / LOG2 if math.isfinite(v) else v
        return out


def json_float(v: float):
    """``v`` for a JSON file, where strict JSON has no inf or nan: "inf", "-inf", "nan" instead."""
    return v if math.isfinite(v) else str(float(v))


def full_report(model: JointModel, mapping: NetworkMapping) -> BudgetReport:
    """Compute every budget for one (model, mapping) pair."""
    pushed = push_forward(model, mapping)
    return BudgetReport(
        eps_info=info_privacy_budget(pushed),
        eps_inference_dp=inference_dp_budget(pushed),
        eps_avg_leakage=avg_info_leakage(pushed),
        eps_ldp=ldp_budget(mapping),
        eps_mutual_info=mutual_info_privacy_budget(pushed),
        eps_identifiability=identifiability_budget(pushed),
        delta_x=delta_x(model),
    )


def per_sensor_mutual_information(model: JointModel, mapping: NetworkMapping):
    """[I(X_t; Z_t)] for each sensor, computed factor-wise."""
    out = []
    for t in range(model.s):
        p_x_t = np.einsum("hg,hgx->x", model.prior, model.conditionals[t])
        joint = p_x_t[:, None] * mapping.channels[t].rows
        out.append(mutual_information(joint))
    return out
