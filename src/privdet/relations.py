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
from .channels import NetworkMapping, SensorChannel, identity_mapping
from .metrics import (
    BudgetReport,
    full_report,
    max_abs_log_posterior_ratio,
    mutual_information,
)
from .model import JointModel, push_forward

#: Default parameter sequence for the witness families.  Spans enough
#: decades for the leakage side to drop below 1e-6 while staying clear of
#: underflow.
DEFAULT_ALPHAS = tuple(10.0 ** -k for k in range(1, 9))

VERDICT_NON_GUARANTEE = "non-guarantee-witnessed"
VERDICT_BOUND_HOLDS = "implies-bound-holds"


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


def _bound_holds(violation: float) -> bool:
    return violation <= BOUND_TOL


@dataclasses.dataclass(frozen=True)
class BoundSuiteReport:
    trials: int
    max_violation: dict  # bound key -> worst lhs - rhs over finite comparisons
    vacuous: dict  # bound key -> number of trials with an infinite right side
    ok: bool


def random_model(rng: np.random.Generator, s: int, x_size: int, q: int) -> JointModel:
    """Strictly positive random model with Dirichlet(1) prior and rows."""
    n_g = 2 ** q
    prior = rng.dirichlet(np.ones(2 * n_g)).reshape(2, n_g)
    conds = tuple(rng.dirichlet(np.ones(x_size), size=(2, n_g)) for _ in range(s))
    return JointModel(s, x_size, q, prior, conds)


def _random_mapping(rng: np.random.Generator, kind: int, s, x_size, z_size) -> NetworkMapping:
    if kind == 0:  # deterministic quantizer: exercises the infinite budgets
        chans = []
        for _ in range(s):
            rows = np.zeros((x_size, z_size))
            rows[np.arange(x_size), rng.integers(z_size, size=x_size)] = 1.0
            chans.append(SensorChannel(rows))
        return NetworkMapping(tuple(chans))
    if kind == 1:  # input-independent rows: every budget collapses to zero
        row = rng.dirichlet(np.ones(z_size))
        rows = np.tile(row, (x_size, 1))
        return NetworkMapping(tuple(SensorChannel(rows) for _ in range(s)))
    chans = []
    for _ in range(s):
        rows = rng.dirichlet(np.ones(z_size), size=x_size)
        chans.append(SensorChannel(rows))
    return NetworkMapping(tuple(chans))


def bound_violations(report: BudgetReport, s: int, q: int) -> dict:
    """Per-bound (lhs - rhs); -inf marks a vacuous (infinite rhs) comparison."""
    out = {}
    for key, lhs_field, rhs_fn, _ in BOUND_SPECS:
        lhs = getattr(report, lhs_field)
        rhs = rhs_fn(report, s, q)
        out[key] = -math.inf if math.isinf(rhs) else lhs - rhs
    return out


def check_bound_suite(seed: int, trials: int) -> BoundSuiteReport:
    """Evaluate every quantitative bound on seeded random instances.

    Each trial draws a small strictly positive model (s <= 3, x_size <= 5,
    z_size <= 3, q <= 2) and one of three mapping flavors (generic random,
    deterministic quantizer, input-independent).  Fails (ok=False) if any
    finite comparison is violated by more than 1e-9.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = {key: -math.inf for key, *_ in BOUND_SPECS}
    vacuous = {key: 0 for key, *_ in BOUND_SPECS}
    for i in range(trials):
        s = int(rng.integers(1, 4))
        x_size = int(rng.integers(2, 6))
        z_size = int(rng.integers(2, 4))
        q = int(rng.integers(1, 3))
        model = random_model(rng, s, x_size, q)
        mapping = _random_mapping(rng, i % 4 if i % 4 < 2 else 2, s, x_size, z_size)
        report = full_report(model, mapping)
        for key, viol in bound_violations(report, s, q).items():
            if viol == -math.inf:
                vacuous[key] += 1
            else:
                worst[key] = max(worst[key], viol)
    return BoundSuiteReport(trials, worst, vacuous, all(map(_bound_holds, worst.values())))


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
    ``check_bound_suite(seed, trials)`` (its worst violation when it fails),
    one "does-not-guarantee" row per witness of ``all_witnesses`` with the
    parameters of its points, then the unverified non-guarantees.  ``ok``
    says every bound held and every witness witnessed its non-guarantee.
    """
    suite = check_bound_suite(seed, trials)
    rows = []
    for key, _, _, constant in BOUND_SPECS:
        viol = suite.max_violation[key]
        verdict = VERDICT_BOUND_HOLDS if _bound_holds(viol) else f"violated ({viol:.3e})"
        rows.append((*key.split("->"), "implies", constant, verdict, ""))
    witnesses = all_witnesses()
    for w in witnesses:
        params = ";".join(repr(float(p[0])) for p in w.points)
        rows.append((w.metric_a, w.metric_b, "does-not-guarantee", "", w.verdict, params))
    for a, b in UNVERIFIED_NON_GUARANTEES:
        rows.append((a, b, "does-not-guarantee (q->inf)", "", "external, unverified", ""))
    ok = suite.ok and all(w.verdict == VERDICT_NON_GUARANTEE for w in witnesses)
    return rows, ok
