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
Every neighbor budget is one max and one min per compared axis.
Identifiability and delta_x are decided from supports where they can be:
changing one sensor at a time connects all of X^s (a Hamming graph), so
when the live observation vectors are a proper, nonempty subset, some
neighboring pair joins a live vector to a dead one and the budget is inf.
Only where p(x) > 0 everywhere is a table scanned sensor by sensor.

Stacks.  The table reductions (``mutual_information``,
``max_abs_log_posterior_ratio``, ``_neighbor_axis_budget`` and the pair
stacking of ``_inference_dp``) take optional leading axes that stack
tables of one shape, and return an array of values for a stack, a float
for one table.  ``_report`` composes all seven budgets from tables, once:
``full_report`` is its one-pair case with no stack axis, and
``report_stack`` its case for a stack of (model, mapping) pairs of one
shape, as the bound suite in ``relations`` audits them.  Each entry of a
stacked field is the one-pair value bit for bit: elementwise arithmetic,
max and min do not depend on where a table sits in a stack, and each
table's I(A; B) terms are summed as one run of its own (``_table_sums``).

The one-pair path reads the (X, Z) joint table only on the support of
p(x), and builds it once for each of its two consumers, I(X; Z) and
identifiability.  On a generated model p(x) is often mostly zero (6% of
X^s at s = 6, x = 6), and building only the support rows is about ten
times faster than the whole table; each build is dropped before the next,
so one report holds at most one such table (and the benchmark's tracer
test counts both builds).  A p(x) > 0 everywhere gets
the table as p(x) times the channels' Kronecker product, with no zero
fill; a stack's tables are always whole, and callers cap a stack's size.

The empirical eps_I of a sample is the information-privacy budget of the
empirical (G, Z) table: max_abs_log_posterior_ratio of its counts over n.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .channels import NetworkMapping
from .model import EXPANSION_CAP, JointModel, PushedModel, _sensor_product, push_forward

LOG2 = math.log(2.0)


# -- table-level primitives --------------------------------------------------


def _value(values):
    """A float for one table, the array of values for a stack of tables."""
    return float(values) if np.ndim(values) == 0 else values


def mutual_information(joint: np.ndarray):
    """I(A; B) in nats from a 2-D joint table, with the 0 log 0 = 0 convention.

    Leading axes stack tables of one shape.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim < 2:
        raise ValueError("mutual_information expects a 2-D joint table")
    pa = joint.sum(axis=-1)
    pb = joint.sum(axis=-2)
    mask = joint > 0
    cells = joint[mask]
    terms = cells * np.log(cells / (pa[..., :, None] * pb[..., None, :])[mask])
    return _value(np.maximum(0.0, _table_sums(terms, mask)))


def max_abs_log_posterior_ratio(joint: np.ndarray):
    """max over the joint support of |log p(a|b) / p(a)|.

    Rows index the protected variable, columns the observed one.  The
    maximum runs over cells with p(a, b) > 0: outputs of probability zero
    can never be observed, and a protected value with zero posterior mass
    at an observed output is treated the same way (the support-restricted
    reading of the posterior-ratio budget).  A table with no positive cell
    gives 0.  Leading axes stack tables of one shape.
    """
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=-1)
    pb = joint.sum(axis=-2)
    mask = joint > 0
    ratios = np.abs(np.log(joint[mask] / (pa[..., :, None] * pb[..., None, :])[mask]))
    return _value(_table_maxima(ratios, mask))


def _table_sums(terms: np.ndarray, mask: np.ndarray):
    """Each table's sum of its terms, one term per True cell of ``mask``, in order.

    ``mask`` is (..., rows, cols).  numpy sums pairwise, in groups that
    depend on the number of terms, so each table's terms are summed as a
    run of their own, exactly as ``np.sum`` sums them for that table alone:
    the tables with one number of terms are summed as the rows of one
    array.  One sum over a whole stack's terms, or over zero-padded runs,
    would group them differently and move the last bits.
    """
    if mask.ndim == 2:
        return np.sum(terms)
    counts = mask.sum(axis=(-2, -1))
    flat = counts.ravel()
    lengths = set(flat.tolist())
    if len(lengths) == 1:  # the runs are the rows of one array, with no gather
        return terms.reshape(counts.shape + tuple(lengths)).sum(axis=-1)
    starts = np.cumsum(flat) - flat
    sums = np.empty(flat.shape)
    for n in lengths:
        runs = flat == n
        sums[runs] = terms[starts[runs][:, None] + np.arange(n)].sum(axis=1)
    return sums.reshape(counts.shape)


def _table_maxima(values: np.ndarray, mask: np.ndarray):
    """Each table's largest value, one value (>= 0) per True cell of ``mask``; 0 with none."""
    if mask.ndim == 2:
        return values.max(initial=0.0)
    tables = np.zeros(mask.shape)
    tables[mask] = values
    return tables.max(axis=(-2, -1))


def _neighbor_axis_budget(table: np.ndarray, axes=(0,), lead: int = 0):
    """max log ratio between entries differing in one index along one of ``axes``.

    The first ``lead`` axes of ``table`` stack tables of one shape, and
    ``axes`` counts each table's own axes from 0.  The entries are
    probabilities (>= 0).  Along each axis every fiber is reduced to its
    max ``hi`` and min ``lo``, both exact, so the largest ratio of two of
    its entries is log(hi / lo): a fiber with hi > 0 = lo gives inf, and an
    all-zero fiber (hi == 0) is skipped.
    """
    best = np.zeros(table.shape[:lead])
    for axis in axes:
        hi, lo = table.max(lead + axis), table.min(lead + axis)
        ratio = np.divide(hi, lo, out=np.ones(hi.shape), where=lo > 0)
        ratio[(hi > 0) & (lo == 0)] = math.inf
        best = np.maximum(best, np.log(ratio).max(axis=tuple(range(lead, ratio.ndim))))
    return _value(best)


def _inference_dp(p_gz: np.ndarray):
    """max log p(z|g)/p(z|g') over g, g' differing in one component, from a (G, Z) table.

    The conditional rows of every pair (g, g with one bit set) are
    stacked, over all bits at once, into one (2, pairs, n_z) table, so
    ``_neighbor_axis_budget`` compares each pair in both directions in one
    pass.  A pair holding a value of g with p(g) = 0 takes no part: both
    its rows are zeroed, so its fibers are skipped.  Leading axes stack
    tables of one shape.
    """
    p_g = p_gz.sum(axis=-1)
    live = p_g > 0
    cond = np.divide(p_gz, p_g[..., None], out=np.zeros(p_gz.shape), where=live[..., None])
    pairs = _bit_pairs(p_gz.shape[-2].bit_length() - 1)
    both = live[..., pairs].all(axis=-2)
    table = np.where(both[..., None, :, None], cond[..., pairs, :], 0.0)
    return _neighbor_axis_budget(table, lead=p_gz.ndim - 2)


@functools.cache
def _bit_pairs(q: int) -> np.ndarray:
    """(2, q 2**(q-1)) read-only array: each g with one bit clear, over g with that bit set."""
    g, bits = np.arange(2 ** q)[:, None], 1 << np.arange(q)
    clear = (g & bits) == 0
    pairs = np.stack([np.broadcast_to(g, clear.shape)[clear], (g | bits)[clear]])
    pairs.setflags(write=False)
    return pairs


def _identifiability(rows: np.ndarray, s: int, x_size: int):
    """max log p(x|z)/p(x'|z) over neighbors x, x', from the (X, Z) rows on the support of p(x).

    A live x is one with a positive cell p(x, z).  When p(x) has zeros
    (fewer rows than n_x), the live x lie among the support rows and the
    rest are dead; X^s is connected by one-sensor changes, so a live x has
    a dead neighbor x', and at an output z with p(x, z) > 0 = p(x', z) the
    ratio is inf.  Only a whole table is scanned sensor by sensor.  Leading
    axes stack whole tables of one shape.
    """
    if rows.shape[-2] < x_size ** s:
        return math.inf if rows.any() else 0.0
    shaped = rows.reshape(rows.shape[:-2] + (x_size,) * s + rows.shape[-1:])
    return _neighbor_axis_budget(shaped, range(s), rows.ndim - 2)


def _delta_x(p_x: np.ndarray, s: int, x_size: int):
    """max log p(x)/p(x') over neighboring observation vectors, from p(x).

    X^s is connected by one-sensor changes (a Hamming graph), so when p(x)
    is zero somewhere some x with p(x) > 0 (there is one: p(x) sums to one)
    has a neighbor x' with p(x') = 0, and the value is inf.  Only a
    strictly positive p(x) needs the scan sensor by sensor; in a stack
    holding one, every p(x) is scanned.  Leading axes stack p(x) vectors.
    """
    positive = p_x.all(axis=-1)
    if not positive.any():
        return _value(np.full(positive.shape, math.inf))
    scan = _neighbor_axis_budget(p_x.reshape(p_x.shape[:-1] + (x_size,) * s), range(s), p_x.ndim - 1)
    return _value(np.where(positive, scan, math.inf))


def _kron_xz(p_x: np.ndarray, chans: np.ndarray) -> np.ndarray:
    """p(x) times the channels' Kronecker product: the whole (X, Z) table.

    ``chans`` holds the channel rows (..., s, x_size, z_size) and ``p_x``
    (..., n_x), with leading axes that stack pairs of one shape.  Every cell
    is the channels' entries multiplied in from sensor 0 up, then times
    p(x).  Sensor t's rows fold in with their input on an axis of its own,
    so one ``_sensor_product`` builds the output axis in Kronecker order
    while the input axes broadcast, and they flatten row-major into X^s.
    """
    *stack, s, x_size, z_size = chans.shape
    factors = []
    for t in range(s):
        digits = [1] * s
        digits[t] = x_size
        factors.append(chans[..., t, :, :].reshape(*stack, *digits, z_size))
    rows = _sensor_product(np.ones((1,) * (s + 1)), factors)
    return p_x[..., None] * rows.reshape(*stack, x_size ** s, -1)


# -- per-metric operations ----------------------------------------------------


def ldp_budget(mapping: NetworkMapping) -> float:
    """Worst-case per-sensor log likelihood ratio across inputs."""
    return max(_neighbor_axis_budget(ch.rows) for ch in mapping.channels)


def info_privacy_budget(pushed: PushedModel) -> float:
    return max_abs_log_posterior_ratio(pushed.p_gz())


def inference_dp_budget(pushed: PushedModel) -> float:
    """max log p(z|g)/p(z|g') over g, g' differing in one component (``_inference_dp``)."""
    return _inference_dp(pushed.p_gz())


def avg_info_leakage(pushed: PushedModel) -> float:
    return mutual_information(pushed.p_gz())


def mutual_info_privacy_budget(pushed: PushedModel) -> float:
    """I(X; Z) in nats, from the rows of the (X, Z) joint on the support of p(x).

    The rows off the support are zero, and numpy's axis-0 sum adds a zero
    row exactly, so p(z) and the value are the whole table's bit for bit.
    """
    return mutual_information(_xz_support_rows(pushed))


def identifiability_budget(pushed: PushedModel) -> float:
    """max log p(x|z)/p(x'|z) over observation vectors differing in one sensor (``_identifiability``)."""
    model = pushed.source
    return _identifiability(_xz_support_rows(pushed), model.s, model.x_size)


def delta_x(model: JointModel) -> float:
    """max log p(x)/p(x') over neighboring observation vectors (``_delta_x``)."""
    return _delta_x(model.p_x(), model.s, model.x_size)


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
    everywhere the table is ``_kron_xz``, built whole.  Otherwise only
    the rows on the support of p(x) are computed, one output column of each
    new sensor at a time, and the other rows stay zero: on the s = 6, x = 6
    generated model (p(x) > 0 on 6% of X^s) the whole build is about ten
    times slower.  The table is n_x by n_z all the same, and its consumers
    (mutual information, identifiability) read it on its support rows.  The
    cap is on n_x * n_z, not on the support, so no table grows past that
    size: a support-only cap would let the identity mapping on
    ``table3_model(4)`` build a 2,257 by 14,641 table.
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
        return _kron_xz(p_x, np.stack([ch.rows for ch in pushed.mapping.channels]))
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
    """All seven quantities for one (model, mapping) pair, in nats.

    ``report_stack`` fills each field with an array, one value per pair.
    """

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
    """Compute every budget for one (model, mapping) pair: ``_report`` with no stack axis."""
    pushed = push_forward(model, mapping)
    chans = np.stack([ch.rows for ch in mapping.channels])
    return _report(pushed.p_gz(), chans, model.p_x(), lambda: _xz_support_rows(pushed))


def report_stack(prior: np.ndarray, conditionals: np.ndarray, channels: np.ndarray) -> BudgetReport:
    """Every budget of a stack of (model, mapping) pairs of one shape, each field an array.

    ``prior`` is (n, 2, n_g), ``conditionals`` (n, s, 2, n_g, x_size) and
    ``channels`` (n, s, x_size, z_size): the tables of n models and
    mappings that their constructors have validated.  Entry i of each field
    is ``full_report``'s value for pair i, bit for bit: the stack is pushed
    forward, marginalized to p(x) and Kronecker-multiplied by the same
    ``_sensor_product`` folds, and reduced by the same rules.  The (X, Z)
    tables are whole, n of n_x by n_z cells built once, so the caller
    caps n.
    """
    conds = [conditionals[:, t] for t in range(channels.shape[1])]
    pushed = [c @ channels[:, t, None] for t, c in enumerate(conds)]
    p_gz = _sensor_product(prior[..., None], pushed).sum(axis=-3)
    p_x = _sensor_product(prior[..., None], conds).sum(axis=(-3, -2))
    xz = _kron_xz(p_x, channels)
    return _report(p_gz, channels, p_x, lambda: xz)


def _report(p_gz, chans, p_x, xz_rows) -> BudgetReport:
    """The seven budgets from the tables of one pair, or of a stack of pairs of one shape.

    ``p_gz`` is the (G, Z) joint (..., n_g, n_z), ``chans`` the channel
    rows (..., s, x_size, z_size), ``p_x`` (..., n_x), and ``xz_rows()``
    returns the (X, Z) rows on the support of p(x), (..., rows, n_z); it is
    called once by each of its two consumers.
    """
    s, x_size = chans.shape[-3:-1]
    return BudgetReport(
        eps_info=max_abs_log_posterior_ratio(p_gz),
        eps_inference_dp=_inference_dp(p_gz),
        eps_avg_leakage=mutual_information(p_gz),
        eps_ldp=_neighbor_axis_budget(chans, (1,), chans.ndim - 3),
        eps_mutual_info=mutual_information(xz_rows()),
        eps_identifiability=_identifiability(xz_rows(), s, x_size),
        delta_x=_delta_x(p_x, s, x_size),
    )


def per_sensor_mutual_information(model: JointModel, mapping: NetworkMapping):
    """[I(X_t; Z_t)] for each sensor, computed factor-wise."""
    out = []
    for t in range(model.s):
        p_x_t = np.einsum("hg,hgx->x", model.prior, model.conditionals[t])
        joint = p_x_t[:, None] * mapping.channels[t].rows
        out.append(mutual_information(joint))
    return out
