"""Executable evidence for the relationships between privacy metrics.

Two kinds of artifacts live here:

* parametric counterexample families showing that one metric can be driven
  to zero while another stays bounded away from zero (a "non-guarantee"
  witness: budgets eps_a decrease to zero along the sequence while
  inf eps_b stays positive), and
* a randomized checker that evaluates every quantitative bound between the
  metrics on seeded random (model, mapping) pairs and reports the worst
  slack observed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import metrics
from .channels import ROW_ATOL, NetworkMapping, SensorChannel, identity_mapping
from .metrics import BudgetReport, max_abs_log_posterior_ratio, mutual_information
from .model import JointModel, _check_rows_stochastic, push_forward

#: Default parameter sequence for the witness families.  Spans enough
#: decades for the leakage side to drop below 1e-6 while staying clear of
#: underflow.
DEFAULT_ALPHAS = tuple(10.0 ** -k for k in range(1, 9))

VERDICT_NON_GUARANTEE = "non-guarantee-witnessed"
VERDICT_BOUND_HOLDS = "implies-bound-holds"
VERDICT_NO_COMPARISON = "no-finite-comparison"


def example1_joint(alpha: float, n_u: int = 2, n_v: int = 2) -> np.ndarray:
    """Corner-mass joint over (U, V): cell (0,0) holds alpha, the rest of
    row 0 and column 0 are zero, and the remaining block is uniform.

    Both marginals put exactly alpha on symbol 0.  As alpha -> 0 the mutual
    information vanishes while the posterior ratio at (0, 0) diverges,
    which is what makes this family a universal counterexample generator.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n_u < 2 or n_v < 2:
        raise ValueError("alphabets must have at least two symbols")
    table = np.full((n_u, n_v), (1.0 - alpha) / ((n_u - 1) * (n_v - 1)))
    table[0, :] = 0.0
    table[:, 0] = 0.0
    table[0, 0] = alpha
    return table


@dataclasses.dataclass(frozen=True)
class ImplicationWitness:
    """A (parameter, eps_a, eps_b) sequence for one ordered metric pair."""

    metric_a: str
    metric_b: str
    points: tuple  # of (parameter, eps_a, eps_b)
    verdict: str


def _verdict(points) -> str:
    eps_a = [p[1] for p in points]
    eps_b = [p[2] for p in points]
    decreasing = all(b <= a for a, b in zip(eps_a, eps_a[1:]))
    if decreasing and eps_a[-1] < 1e-6 and min(eps_b) > 0.5:
        return VERDICT_NON_GUARANTEE
    return VERDICT_BOUND_HOLDS


def witness_ai_not_info(alphas=DEFAULT_ALPHAS) -> ImplicationWitness:
    """Average leakage can vanish while the information-privacy budget blows up.

    Reads the corner-mass joint as p(G, Z): the leakage I(G; Z) follows the
    alpha log(1/alpha) formula while the posterior ratio at the corner is
    1/alpha.
    """
    points = []
    for a in alphas:
        joint = example1_joint(a)
        points.append((a, mutual_information(joint), max_abs_log_posterior_ratio(joint)))
    return ImplicationWitness("avg_leakage", "info", tuple(points), _verdict(points))


def mi_witness_joint(alpha: float, x_size: int = 2, s: int = 2, n_g: int = 2) -> np.ndarray:
    """The (G, Z) joint of the mutual-information counterexample.

    One distinguished private value g0 = 0 concentrates mass alpha of its
    observation law on the zero vector; all other g values observe
    uniformly; G is uniform; the channel copies the zero vector and spreads
    everything else.  Returns the (n_g, x_size**s) joint of (G, Z).
    """
    n = x_size ** s
    joint = np.full((n_g, n), 1.0 / (n_g * n))
    joint[0, 0] = alpha / n_g
    joint[0, 1:] = (1.0 - alpha) / (n_g * (n - 1))
    return joint


def witness_mi_not_info(
    alphas=DEFAULT_ALPHAS, x_size: int = 2, s: int = 2, n_g: int = 2
) -> ImplicationWitness:
    """Mutual-information privacy of the data does not cap the posterior
    ratio of the private hypothesis.

    eps_a is the corner-mass mutual information I(X; Z) at each alpha;
    eps_b is the information-privacy budget of the induced (G, Z) joint,
    whose ratio at (g0, 0) equals alpha*n_g / (alpha + (n_g-1)/x_size**s)
    and vanishes with alpha.
    """
    n = x_size ** s
    points = []
    for a in alphas:
        eps_a = mutual_information(example1_joint(a, n, n))
        eps_b = max_abs_log_posterior_ratio(mi_witness_joint(a, x_size, s, n_g))
        points.append((a, eps_a, eps_b))
    return ImplicationWitness("mutual_info", "info", tuple(points), _verdict(points))


def _uniform_observation_push(x_size: int, s: int, q: int):
    """Uniform observations under every hypothesis, pushed through identity channels.

    The posterior ratio is identically one for any mapping, so the
    information-privacy budget is zero while the raw observations leak
    everything about X.  Dyadic defaults keep that zero exact.
    """
    n_g = 2 ** q
    prior = np.full((2, n_g), 1.0 / (2 * n_g))
    conds = tuple(np.full((2, n_g, x_size), 1.0 / x_size) for _ in range(s))
    return push_forward(JointModel(s, x_size, q, prior, conds), identity_mapping(s, x_size))


def witness_info_not_ldp(x_size: int = 2, s: int = 1, q: int = 1) -> ImplicationWitness:
    """Zero information-privacy budget coexists with an infinite local budget."""
    pushed = _uniform_observation_push(x_size, s, q)
    points = ((0.0, metrics.info_privacy_budget(pushed), metrics.ldp_budget(pushed.mapping)),)
    return ImplicationWitness("info", "ldp", points, _verdict(points))


def witness_info_not_mutual_info(x_size: int = 2, s: int = 1, q: int = 1) -> ImplicationWitness:
    """Zero information-privacy budget coexists with I(X; Z) = H(X)."""
    pushed = _uniform_observation_push(x_size, s, q)
    eps_b = metrics.mutual_info_privacy_budget(pushed)
    points = ((0.0, metrics.info_privacy_budget(pushed), eps_b),)
    return ImplicationWitness("info", "mutual_info", points, _verdict(points))


def witness_mi_not_ldp(alphas=DEFAULT_ALPHAS, n: int = 2) -> ImplicationWitness:
    """Corner-mass channel: vanishing I(X; Z) with an infinite local ratio."""
    points = []
    for a in alphas:
        joint = example1_joint(a, n, n)
        eps_a = mutual_information(joint)
        cond = joint / joint.sum(axis=1, keepdims=True)
        eps_b = metrics.ldp_budget(NetworkMapping((SensorChannel(cond),)))
        points.append((a, eps_a, eps_b))
    return ImplicationWitness("mutual_info", "ldp", tuple(points), _verdict(points))


def witness_ai_not_inference_dp(alphas=DEFAULT_ALPHAS) -> ImplicationWitness:
    """Average leakage does not cap the neighboring-hypothesis ratio."""
    points = []
    for a in alphas:
        joint = example1_joint(a)
        eps_a = mutual_information(joint)
        cond = joint / joint.sum(axis=1, keepdims=True)
        eps_b = metrics._neighbor_axis_budget(cond)
        points.append((a, eps_a, eps_b))
    return ImplicationWitness("avg_leakage", "inference_dp", tuple(points), _verdict(points))


# -- randomized bound checking -------------------------------------------------

#: (key, lhs field, rhs as fn(report, s, q), human-readable constant)
BOUND_SPECS = (
    ("info->inference_dp", "eps_inference_dp", lambda r, s, q: 2.0 * r.eps_info, "2"),
    ("info->avg_leakage", "eps_avg_leakage", lambda r, s, q: r.eps_info / metrics.LOG2, "1/log 2"),
    ("inference_dp->info", "eps_info", lambda r, s, q: q * r.eps_inference_dp, "q"),
    (
        "inference_dp->avg_leakage",
        "eps_avg_leakage",
        lambda r, s, q: q * r.eps_inference_dp / metrics.LOG2,
        "q/log 2",
    ),
    ("ldp->info", "eps_info", lambda r, s, q: 2.0 * s * r.eps_ldp, "2s"),
    ("mutual_info->avg_leakage", "eps_avg_leakage", lambda r, s, q: r.eps_mutual_info, "1"),
    (
        "ldp->mutual_info",
        "eps_mutual_info",
        lambda r, s, q: s * r.eps_ldp / metrics.LOG2,
        "s/log 2",
    ),
    (
        "ldp->identifiability",
        "eps_identifiability",
        lambda r, s, q: r.eps_ldp + r.delta_x,
        "1 + delta_X",
    ),
    (
        "identifiability->ldp",
        "eps_ldp",
        lambda r, s, q: r.eps_identifiability + r.delta_x,
        "1 + delta_X",
    ),
)

BOUND_TOL = 1e-9

#: Most (X, Z) cells audited in one stack of ``check_bound_suite``: a
#: stack's tables and their temporaries stay under a megabyte, however many
#: trials share a shape.
STACK_CELLS = 16_384


def _bound_verdict(violation: float) -> str:
    """A bound's verdict from its worst violation; -inf means no finite comparison was made."""
    if violation == -math.inf:
        return VERDICT_NO_COMPARISON
    return VERDICT_BOUND_HOLDS if violation <= BOUND_TOL else f"violated ({violation:.3e})"


@dataclasses.dataclass(frozen=True)
class BoundSuiteReport:
    trials: int
    max_violation: dict  # bound key -> worst lhs - rhs over finite comparisons (-inf: none)
    vacuous: dict  # bound key -> number of trials with an infinite right side
    ok: bool  # every bound got a finite comparison, and none was violated


def _draw_trial(rng: np.random.Generator, i: int) -> tuple:
    """Trial i's shape key (s, x_size, z_size, q) and its tables, one rng call each.

    The prior (2, n_g), the conditionals (s, 2, n_g, x_size) and, by i % 4,
    the channels (s, x_size, z_size) of a deterministic quantizer (0),
    input-independent rows (1) or generic rows (2, 3); every row Dirichlet(1).
    """
    s = int(rng.integers(1, 4))
    x_size = int(rng.integers(2, 6))
    z_size = int(rng.integers(2, 4))
    q = int(rng.integers(1, 3))
    prior = rng.dirichlet(np.ones(2 * 2 ** q)).reshape(2, -1)
    conds = rng.dirichlet(np.ones(x_size), size=(s, 2, 2 ** q))
    if i % 4 == 0:
        chans = np.eye(z_size)[rng.integers(z_size, size=(s, x_size))]
    elif i % 4 == 1:
        chans = np.broadcast_to(rng.dirichlet(np.ones(z_size)), (s, x_size, z_size))
    else:
        chans = rng.dirichlet(np.ones(z_size), size=(s, x_size))
    return (s, x_size, z_size, q), (prior, conds, chans)


def bound_violations(report: BudgetReport, s: int, q: int) -> dict:
    """Per-bound (lhs - rhs); -inf marks a vacuous (infinite rhs) comparison.

    The fields of a stacked report (``metrics.report_stack``) give an array
    of violations per bound, one per pair.
    """
    out = {}
    for key, lhs_field, rhs_fn, _ in BOUND_SPECS:
        rhs = rhs_fn(report, s, q)
        vacuous = np.isinf(rhs)
        finite = getattr(report, lhs_field) - np.where(vacuous, 0.0, rhs)
        out[key] = np.where(vacuous, -math.inf, finite)
    return out


def check_bound_suite(seed: int, trials: int) -> BoundSuiteReport:
    """Evaluate every quantitative bound on seeded random instances.

    Each trial draws with ``_draw_trial``, from one rng stream in trial
    order, the tables of a small strictly positive model (s <= 3, x_size <=
    5, z_size <= 3, q <= 2) and of one of three mapping flavors; no model or
    mapping object is built.  The tables are packed as bytes one trial after
    another in a buffer per shape (s, x_size, z_size, q).  Each shape is
    audited by ``metrics.report_stack`` in stacks of at most ``STACK_CELLS``
    (X, Z) cells, whose values are ``full_report``'s bit for bit, after one
    check of the stack by the constructors' rule (no negative or NaN entry,
    each prior and row summing to 1 within 1e-12: ``ModelFormatError``).
    The worst violation and the vacuous count of each bound fold over the
    trials in any order.  Fails (ok=False) if any finite comparison is
    violated by more than 1e-9, or if a bound got no finite comparison.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    shapes = {}  # (s, x_size, z_size, q) -> its trials' tables, packed in draw order
    for i in range(trials):
        key, tables = _draw_trial(rng, i)
        packed = shapes.setdefault(key, bytearray())
        for table in tables:
            packed += table.tobytes()
    worst = {key: -math.inf for key, *_ in BOUND_SPECS}
    vacuous = {key: 0 for key, *_ in BOUND_SPECS}
    for (s, x_size, z_size, q), packed in shapes.items():
        layout = ((2, 2 ** q), (s, 2, 2 ** q, x_size), (s, x_size, z_size))
        ends = np.cumsum([math.prod(shape) for shape in layout])
        rows = np.frombuffer(packed).reshape(-1, ends[-1])
        size = max(1, STACK_CELLS // (x_size * z_size) ** s)
        for lo in range(0, len(rows), size):
            tables = np.split(rows[lo:lo + size], ends[:-1], axis=1)
            prior, conds, chans = (
                np.ascontiguousarray(t).reshape(-1, *shape) for t, shape in zip(tables, layout)
            )
            _check_rows_stochastic(tables[0], "bound-suite prior")
            _check_rows_stochastic(conds, "bound-suite conditional table")
            _check_rows_stochastic(chans, "bound-suite channel", ROW_ATOL)
            report = metrics.report_stack(prior, conds, chans)
            for key, viol in bound_violations(report, s, q).items():
                vacuous[key] += int(np.count_nonzero(viol == -math.inf))
                worst[key] = max(worst[key], float(viol.max()))
    ok = all(_bound_verdict(v) == VERDICT_BOUND_HOLDS for v in worst.values())
    return BoundSuiteReport(trials, worst, vacuous, ok)


def all_witnesses() -> list:
    """The full set of shipped non-guarantee witnesses (default parameters)."""
    return [
        witness_ai_not_info(),
        witness_ai_not_inference_dp(),
        witness_info_not_ldp(),
        witness_info_not_mutual_info(),
        witness_mi_not_info(),
        witness_mi_not_ldp(),
    ]


# -- the implication table -------------------------------------------------------

TABLE_COLUMNS = ("metric_a", "metric_b", "kind", "bound_constant", "verdict", "witness_params")

#: non-guarantees that need q -> inf; listed in the table but not checked here
UNVERIFIED_NON_GUARANTEES = (("inference_dp", "info"), ("inference_dp", "avg_leakage"))


def implication_table(seed: int, trials: int) -> tuple:
    """(rows, ok): the metric-implication table, one tuple of ``TABLE_COLUMNS`` a row.

    One "implies" row per bound of ``BOUND_SPECS``, judged on
    ``check_bound_suite(seed, trials)`` (its worst violation when it fails,
    ``VERDICT_NO_COMPARISON`` when every trial's right side was infinite),
    one "does-not-guarantee" row per witness of ``all_witnesses`` with the
    parameters of its points, then the unverified non-guarantees.  ``ok``
    says every bound was compared and held, and every witness witnessed its
    non-guarantee.
    """
    suite = check_bound_suite(seed, trials)
    rows = []
    for key, _, _, constant in BOUND_SPECS:
        verdict = _bound_verdict(suite.max_violation[key])
        rows.append((*key.split("->"), "implies", constant, verdict, ""))
    witnesses = all_witnesses()
    for w in witnesses:
        params = ";".join(repr(float(p[0])) for p in w.points)
        rows.append((w.metric_a, w.metric_b, "does-not-guarantee", "", w.verdict, params))
    for a, b in UNVERIFIED_NON_GUARANTEES:
        rows.append((a, b, "does-not-guarantee (q->inf)", "", "external, unverified", ""))
    ok = suite.ok and all(w.verdict == VERDICT_NON_GUARANTEE for w in witnesses)
    return rows, ok
