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
I(X; Z) and identifiability read the (X, Z) joint table, whose rows are
computed only on the support of p(x), and both read only those rows; a
p(x) > 0 everywhere gets the table as p(x) times the channels' Kronecker
product, with no zero fill.  Every neighbor budget is one max and one min
per compared axis.
Identifiability and delta_x are decided from supports where they can be:
changing one sensor at a time connects all of X^s (a Hamming graph), so
when the live observation vectors are a proper, nonempty subset, some
neighboring pair joins a live vector to a dead one and the budget is inf.
Only where p(x) > 0 everywhere is a table scanned sensor by sensor.

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
    """I(A; B) in nats from a 2-D joint table, with the 0 log 0 = 0 convention.

    Rows of zero mass hold no positive cell, so they are dropped before the
    cells are masked: a support-only table costs its support rows.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("mutual_information expects a 2-D joint table")
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    live = pa > 0
    if not live.all():
        joint, pa = joint[live], pa[live]
    mask = joint > 0
    cells = joint[mask]
    return float(max(0.0, np.sum(cells * np.log(cells / (pa[:, None] * pb)[mask]))))


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


def _neighbor_axis_budget(table: np.ndarray, axes=(0,)) -> float:
    """max log ratio between entries differing in one index along one of ``axes``.

    The entries are probabilities (>= 0).  Along each axis every fiber is
    reduced to its max ``hi`` and min ``lo``, both exact, so the largest
    ratio of two of its entries is log(hi / lo): a fiber with hi > 0 = lo
    gives inf, and an all-zero fiber (hi == 0) is skipped.
    """
    best = 0.0
    for axis in axes:
        hi, lo = table.max(axis), table.min(axis)
        if not lo.all():
            live = hi > 0
            if np.any(live & (lo == 0)):
                return math.inf
            hi, lo = hi[live], lo[live]
            if not hi.size:
                continue
        best = max(best, float(np.log(hi / lo).max()))
    return best


# -- per-metric operations ----------------------------------------------------


def ldp_budget(mapping: NetworkMapping) -> float:
    """Worst-case per-sensor log likelihood ratio across inputs."""
    return max(_neighbor_axis_budget(ch.rows) for ch in mapping.channels)


def info_privacy_budget(pushed: PushedModel) -> float:
    return max_abs_log_posterior_ratio(pushed.p_gz())


def inference_dp_budget(pushed: PushedModel) -> float:
    """max log p(z|g)/p(z|g') over g, g' differing in one component.

    The conditional rows of every pair (g, g with one bit set) whose values
    both have positive probability are stacked, over all bits at once, into
    one (2, pairs, n_z) table, so ``_neighbor_axis_budget`` compares each
    pair in both directions in one pass.
    """
    p_gz = pushed.p_gz()
    p_g = p_gz.sum(axis=1)
    pairs = _bit_pairs(pushed.q)
    if not p_g.all():
        pairs = pairs[:, (p_g[pairs] > 0).all(axis=0)]
        if not pairs.size:
            return 0.0
    return _neighbor_axis_budget(p_gz[pairs] / p_g[pairs, None])


@functools.cache
def _bit_pairs(q: int) -> np.ndarray:
    """(2, q 2**(q-1)) read-only array: each g with one bit clear, over g with that bit set."""
    g, bits = np.arange(2 ** q)[:, None], 1 << np.arange(q)
    clear = (g & bits) == 0
    pairs = np.stack([np.broadcast_to(g, clear.shape)[clear], (g | bits)[clear]])
    pairs.setflags(write=False)
    return pairs


def avg_info_leakage(pushed: PushedModel) -> float:
    return mutual_information(pushed.p_gz())


def mutual_info_privacy_budget(pushed: PushedModel) -> float:
    """I(X; Z) in nats, from the rows of the (X, Z) joint on the support of p(x).

    The rows off the support are zero, and numpy's axis-0 sum adds a zero
    row exactly, so p(z) and the value are the whole table's bit for bit.
    """
    return mutual_information(_xz_support_rows(pushed))


def identifiability_budget(pushed: PushedModel) -> float:
    """max log p(x|z)/p(x'|z) over observation vectors differing in one sensor.

    A live x is one with a positive cell p(x, z).  When p(x) has zeros, the
    live x lie among the support rows and the rest are dead; X^s is
    connected by one-sensor changes, so a live x has a dead neighbor x',
    and at an output z with p(x, z) > 0 = p(x', z) the ratio is inf.  Only
    a table with p(x) > 0 everywhere is scanned sensor by sensor.
    """
    model = pushed.source
    rows = _xz_support_rows(pushed)
    if rows.shape[0] < model.n_x:
        return math.inf if rows.any() else 0.0
    shaped = rows.reshape((model.x_size,) * model.s + (pushed.n_z,))
    return _neighbor_axis_budget(shaped, range(model.s))


def delta_x(model: JointModel) -> float:
    """max log p(x)/p(x') over neighboring observation vectors.

    X^s is connected by one-sensor changes (a Hamming graph), so when p(x)
    is zero somewhere some x with p(x) > 0 (there is one: p(x) sums to one)
    has a neighbor x' with p(x') = 0, and the value is inf.  Only a strictly
    positive p(x) is scanned sensor by sensor.
    """
    p_x = model.p_x()
    if np.count_nonzero(p_x) < p_x.size:
        return math.inf
    return _neighbor_axis_budget(p_x.reshape((model.x_size,) * model.s), range(model.s))


def _xz_support_rows(pushed: PushedModel) -> np.ndarray:
    """The rows of ``_joint_xz`` on the support of p(x), in order: the whole
    table when p(x) is positive everywhere."""
    table = _joint_xz(pushed)
    p_x = pushed.source.p_x()
    return table if p_x.all() else table[np.flatnonzero(p_x)]


def _joint_xz(pushed: PushedModel) -> np.ndarray:
    """p(x, z) = p(x) p(z|x) over flattened vectors (Z depends on X only).

    Every cell is the channels' entries multiplied in from sensor 0 up, then
    times p(x): the cell of the channels' Kronecker product.  When p(x) > 0
    everywhere the table is built whole in Kronecker order.  Otherwise only
    the rows on the support of p(x) are computed, one output column of each
    new sensor at a time, and the other rows stay zero: on the s = 6, x = 6
    generated model (p(x) > 0 on 6% of X^s) the whole build is about ten
    times slower.  The table is n_x by n_z all the same, and its consumers
    (mutual information, identifiability) read it on its support rows.
    ``full_report`` builds one table per consumer, the two builds the
    benchmark's tracer test counts.  The cap is on n_x * n_z, not on the
    support, so no table grows past that size: a support-only cap would let
    the identity mapping on ``table3_model(4)`` build a 2,257 by 14,641
    table.
    """
    model = pushed.source
    cells = model.n_x * pushed.n_z
    if cells > EXPANSION_CAP:
        raise ValueError(
            f"(X, Z) joint needs {cells} cells (cap {EXPANSION_CAP}); "
            "observation-side budgets are only computed at desk scale"
        )
    p_x = model.p_x()
    if p_x.all():
        rows = np.ones((1, 1))
        for g in (ch.rows for ch in pushed.mapping.channels):
            rows = (rows[:, None, :, None] * g[:, None, :]).reshape(rows.shape[0] * g.shape[0], -1)
        return p_x[:, None] * rows
    support = np.flatnonzero(p_x)
    xs = np.unravel_index(support, (model.x_size,) * model.s)
    rows = np.ones((support.size, 1))
    for ch, x_t in zip(pushed.mapping.channels, xs):
        g = ch.rows[x_t]
        out = np.empty((support.size, rows.shape[1], g.shape[1]))
        for j in range(g.shape[1]):
            np.multiply(rows, g[:, j:j + 1], out=out[:, :, j])
        rows = out.reshape(support.size, -1)
    table = np.zeros((model.n_x, pushed.n_z))
    table[support] = p_x[support, None] * rows
    return table


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
