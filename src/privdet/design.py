"""Parametric privacy-mapping optimizers.

Four architectures are designed, all from one Gauss-Seidel skeleton,
``_descend``: alternate between the fusion rule and one sensor's channel at
a time, sweeping sensors in order, under one set of stop rules.

* ``design_ldp`` -- detection error minimization under a per-sensor local
  ratio budget only.  Binary outputs use an exact closed-form block step;
  larger outputs solve the block linear program.
* ``design_inp`` -- the posterior-ratio budget on G only.  Its stage,
  ``design_info_stage``, minimizes the detection error subject to the
  per-g detection-risk threshold theta that enforces that budget; each
  block step is a linear program over mixtures of deterministic per-sensor
  quantizers.  An audited water-filling allocation competes with it.
* ``design_ill`` / ``design_lip`` -- two-stage architectures concatenating
  the two designs.  "ill" sanitizes for G first and then adds local noise;
  "lip" adds local noise first and sanitizes its output for G.  Each stage
  runs at the full budget it enforces: composing raises neither budget
  (post-processing; each composed row mixes the later stage's rows).

Each sweep reads the fusion rule, the detection error, c_G and the min
risks of its iterate from one push-forward.  Every design ends in
``_result``, which pushes the returned mapping forward once and is the one
place a result is audited.  ``chain_designs`` warm-starts each grid point
from the previous point's result through one ``warm`` argument; each
design reads from it the stage it can reuse.

A stage design, the local stage ``_ldp_sweeps`` or the information stage
``design_info_stage``, is made once per model and input (``_once_per_model``):
``lip`` reads the local stage ``ldp`` made, and ``ill`` at every eps_LD point
and ``inp`` read one information stage.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from . import metrics
from .channels import (
    CONVERGENCE_TOL, NetworkMapping, SensorChannel, TwoStageMapping, check_eps_ld, solve_channel_lp,
)
from .detection import (
    FusionRule,
    PrivacyRiskProfile,
    bayes_error_H_pushed,
    compute_c_G,
    min_risks,
    optimal_rule_from_pushed,
    theta,
)
from .metrics import BudgetReport, full_report
from .model import JointModel, PushedModel, _sensor_product, push_forward, push_forward_model
from .simplex import LP_TOL, LPInfeasible, solve_lp

#: the parametric architectures: the names ``design`` takes and ``chain_designs`` chains
ARCHITECTURES = ("ldp", "ill", "lip", "inp")
#: most deterministic quantizers an information-stage LP takes as columns
PHI_CAP = 4096


@dataclasses.dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by every parametric design, read by each stage as given:
    every stage outputs ``z_size`` symbols and runs at its full budget."""

    eps_i: float = math.inf
    eps_ld: float = math.inf
    z_size: int = 2
    max_outer_iters: int = 60
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        for name in ("eps_i", "eps_ld"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name!r} must be nonnegative, got {value}")
        check_eps_ld(self.eps_ld)
        for name in ("z_size", "max_outer_iters", "restarts"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name!r} must be an integer of at least 1, got {value!r}")


@dataclasses.dataclass(frozen=True)
class DesignResult:
    """A designed mapping with its fusion rule, objective and audit.

    Made only by ``_result``.  ``report`` is the result's one audit:
    ``full_report`` of ``mapping.network()``, taken once when the result is
    made.  The sweep's budget columns and the ``design`` JSON read it;
    nothing audits the mapping again.
    """

    mapping: object  # NetworkMapping | TwoStageMapping
    rule: FusionRule
    trace: tuple  # detection error after each outer sweep (best restart)
    report: BudgetReport
    converged: bool
    objective: float  # detection error of the returned mapping
    profile: PrivacyRiskProfile | None = None

    def to_dict(self) -> dict:
        payload = {
            "mapping": self.mapping.to_json(),
            "rule": self.rule.table.tolist(),
            "objective_trace": list(self.trace),
            "converged": self.converged,
            "report": self.report.to_dict(),
        }
        if self.profile is not None:
            payload["risk_profile"] = {
                "min_risks": {str(k): v for k, v in self.profile.min_risks.items()},
                "c_g": self.profile.c_g,
                "theta": self.profile.theta,
            }
        return payload


def _once_per_model(**unread):
    """Make the decorated stage design ``fn(model, config, *warm)`` once per model and input.

    The stage runs on ``config`` with the fields it does not read, ``unread``,
    held fixed.  Its result is kept in ``model._stages``, keyed on the stage's
    name, that config and the channel rows of each warm-start mapping (None
    for none).  Results are immutable, so a later call may share them.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def stage(model, config, *warm):
            config = dataclasses.replace(config, **unread)
            starts = (None if w is None else tuple(c.rows.tobytes() for c in w.channels)
                      for w in warm)
            key = (fn.__name__, config, *starts)
            if key not in model._stages:
                model._stages[key] = fn(model, config, *warm)
            return model._stages[key]

        return stage

    return decorate


# -- single-sensor block steps for the local-budget design -------------------


def _sensor_block(model: JointModel, channels, t: int):
    """(left, right): the pushed ``_sensor_product`` tables of the sensors before and after t.

    Each is (2, n_g, k) with k the size of its slice of Z^s, so a flattened
    output index splits row-major into (left, z_t, right).  Entry t of
    ``channels`` is ignored.
    """
    pushed = [model.conditionals[i] @ channels[i].rows for i in range(model.s) if i != t]
    ones = np.ones((2, model.n_g, 1))
    return _sensor_product(ones, pushed[:t]), _sensor_product(ones, pushed[t:])


def block_objective_coefficients(
    model: JointModel, rule: FusionRule, channels, t: int
) -> np.ndarray:
    """Coefficients f(z, x) so that P(rule(Z) != H) = p_H(1) + sum p_t(z|x) f(z, x).

    ``channels`` is the full per-sensor list; entry t is ignored.
    """
    left, right = _sensor_block(model, channels, t)
    accept = rule.table.reshape(left.shape[2], rule.z_size, right.shape[2])
    acc = np.einsum("hga,azb,hgb->hgz", left, accept, right)
    signed_prior = model.prior * np.array([[1.0], [-1.0]])
    return np.einsum("hg,hgz,hgx->zx", signed_prior, acc, model.conditionals[t])


def ldp_closed_form_step(
    model: JointModel, rule: FusionRule, channels, t: int, eps_ld: float
) -> SensorChannel:
    """Binary-output block minimizer over the two-level rows at ratio e^eps.

    Rows take the low value 1/(1+e^eps) on the first output exactly when
    f(0, x) >= f(1, x) (equality included), the high value otherwise.  With
    P and N the summed positive and negative parts of f(0, x) - f(1, x), this
    is also the block LP's minimizer exactly when N e^-eps <= P <= N e^eps;
    outside that band a deterministic constant row (every x sent to one
    output) is lower, and ``ldp_lp_step`` takes it.
    """
    if rule.z_size != 2:
        raise ValueError("the closed-form step requires a binary output alphabet")
    f = block_objective_coefficients(model, rule, channels, t)
    if math.isinf(eps_ld):
        lo, hi = 0.0, 1.0
    else:
        e = math.exp(eps_ld)
        lo, hi = 1.0 / (1.0 + e), e / (1.0 + e)
    low_first = (f[0] >= f[1])[:, None]
    return SensorChannel(np.where(low_first, [lo, hi], [hi, lo]))


def ldp_lp_step(
    model: JointModel, rule: FusionRule, channels, t: int, eps_ld: float
) -> SensorChannel:
    """Block linear program over one sensor's channel for any output size."""
    f = block_objective_coefficients(model, rule, channels, t).T
    return SensorChannel(solve_channel_lp(f.shape, check_eps_ld(eps_ld), f.reshape(-1)))


# -- the block descent ----------------------------------------------------------


def _descend(model: JointModel, chans, sweeps: int, prepare, block, pushed=None):
    """The one sweep loop of every parametric stage: (channels, trace, converged, prepared).

    ``pushed`` is the push of the start ``chans`` when the caller has made
    it already.  Each sweep reads ``prepare(pushed)`` from the push of the
    current iterate, sets each sensor t in order to ``block(prepared,
    channels, t)``, then pushes the new iterate once and scores its
    detection error.  A
    sweep whose block step raises ``LPInfeasible``, or whose error rises by
    more than ``LP_TOL``, is rejected: the descent ends at the last accepted
    iterate (the start, at sweep 0), whose prepared value it returns (None
    for the start).  An L1 move below ``CONVERGENCE_TOL`` ends it converged.
    """
    if pushed is None:
        pushed = push_forward(model, NetworkMapping(tuple(chans)))
    trace, kept = [], None
    for _ in range(sweeps):
        prepared = prepare(pushed)
        new = list(chans)  # ``chans`` stays the last accepted iterate
        try:
            for t in range(model.s):
                new[t] = block(prepared, new, t)
        except LPInfeasible:
            break
        pushed = push_forward(model, NetworkMapping(tuple(new)))
        obj = bayes_error_H_pushed(pushed)
        if trace and obj > trace[-1] + LP_TOL:
            break
        trace.append(obj)
        kept = prepared
        change = sum(float(np.abs(c.rows - p.rows).sum()) for c, p in zip(new, chans))
        chans = new
        if change < CONVERGENCE_TOL:
            return chans, trace, True, kept
    return chans, trace, False, kept


# -- local-differential-privacy design ---------------------------------------


def design_ldp(
    model: JointModel, config: OptimizerConfig, warm: DesignResult | None = None
) -> DesignResult:
    """Gauss-Seidel detection-error minimization under the local budget.

    Runs ``config.restarts`` seeded random starts (plus the mapping of
    ``warm``, an ``ldp`` result, if given) and keeps the best final
    objective.  The objective trace of the winning start is non-increasing
    per sweep: ``_descend`` rejects a sweep whose error rises.
    """
    initial = warm.mapping if warm is not None else None
    return _result(model, *_ldp_sweeps(model, config, initial))


@_once_per_model(eps_i=math.inf)
def _ldp_sweeps(model, config, initial):
    """The block sweeps of ``design_ldp``: (mapping, trace, converged) of the best start.

    One ``_descend`` per start; ``initial`` is the warm start's mapping, or None.
    """
    eps_ld, z_size = config.eps_ld, config.z_size
    starts: list[list[SensorChannel]] = []
    for ss in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(ss)
        raw = rng.exponential(size=(model.s, model.x_size, z_size))
        starts.append([SensorChannel(r / r.sum(axis=1, keepdims=True)) for r in raw])
    if initial is not None:
        starts.append(list(initial.channels))
    step = ldp_closed_form_step if z_size == 2 else ldp_lp_step

    def block(rule, chans, t):
        return step(model, rule, chans, t, eps_ld)

    best = None
    for start in starts:
        chans, trace, converged, _ = _descend(
            model, start, config.max_outer_iters, optimal_rule_from_pushed, block
        )
        if best is None or trace[-1] < best[1][-1] - 1e-15:
            best = (NetworkMapping(tuple(chans)), tuple(trace), converged)
    return best


# -- information-privacy stage ------------------------------------------------


@dataclasses.dataclass(frozen=True)
class InfoStageResult:
    mapping: NetworkMapping
    profile: PrivacyRiskProfile
    trace: tuple
    converged: bool


def _deterministic_candidates(x_size: int, z_size: int, seed: int) -> np.ndarray:
    """One-hot candidate channels (n_cand, x_size, z_size).

    All z_size**x_size deterministic quantizers when they fit under
    ``PHI_CAP``, otherwise a seeded random subset that always includes every
    constant quantizer (they keep the risk constraints satisfiable).
    """
    if z_size ** x_size <= PHI_CAP:
        maps = np.array(list(itertools.product(range(z_size), repeat=x_size)), dtype=int)
    else:
        rng = np.random.default_rng(seed)
        maps = rng.integers(z_size, size=(PHI_CAP, x_size))
        consts = np.tile(np.arange(z_size)[:, None], (1, x_size))
        maps = np.unique(np.vstack([consts, maps]), axis=0)
    cands = np.zeros((maps.shape[0], x_size, z_size))
    cands[np.arange(maps.shape[0])[:, None], np.arange(x_size)[None, :], maps] = 1.0
    return cands


def _stage_column_stats(model, chans, t, cands, rule):
    """Detection error and per-g min risks for every candidate at sensor t.

    Builds the (candidate, H, G, Z) joint from the other sensors'
    ``_sensor_block`` tables.  The error column sums it where the rule
    errs, and the risks are ``min_risks`` of its G rows under the prior's
    G marginal.  The error is not derived from ``block_objective_coefficients``:
    that agrees mathematically but rounds differently, and the rounding
    decides which of several tied quantizers the LP picks.
    """
    n_g = model.n_g
    left, right = _sensor_block(model, chans, t)
    cand_pushed = np.einsum("cxy,hgx->chgy", cands, model.conditionals[t])
    joint = np.einsum("hg,hga,chgy,hgb->chgayb", model.prior, left, cand_pushed, right)
    joint = joint.reshape(cands.shape[0], 2, n_g, -1)
    accept = rule.table.astype(bool)
    err = joint[:, 0, :, :][:, :, accept].sum(axis=(1, 2)) + joint[:, 1, :, :][
        :, :, ~accept
    ].sum(axis=(1, 2))
    return err, min_risks(joint.sum(axis=1), model.prior.sum(axis=0))


@_once_per_model(eps_ld=math.inf)
def design_info_stage(model: JointModel, config: OptimizerConfig) -> InfoStageResult:
    """Detection-error minimization under the per-g risk threshold at ``config.eps_i``.

    A ``_descend`` from ``_info_stage_start``: per sweep, refresh the fusion
    rule and the threshold theta (which depends on the current mapping
    through c_G), then solve one LP per sensor over mixtures of
    deterministic quantizers plus the incumbent channel.  The mapping is
    then audited against the posterior-ratio budget and, if numerically
    short, shrunk toward an input-independent channel until the audit
    passes.  The shrink garbles each sensor's output, so it can only raise
    the min risks, and the profile reports the (c_G, theta) pair enforced by
    the last accepted sweep (or the start).
    """
    eps_i = config.eps_i
    if eps_i <= 0:
        raise ValueError("eps_i must be positive")
    cands = _deterministic_candidates(model.x_size, config.z_size, config.seed)
    start, floor, start_push = _info_stage_start(model, eps_i, config.z_size)

    def prepare(pushed):
        return optimal_rule_from_pushed(pushed), _risk_floor(pushed, eps_i)

    def block(prepared, chans, t):
        rule, (_, th) = prepared
        cols = np.concatenate([cands, chans[t].rows[None, :, :]], axis=0)
        err, risks = _stage_column_stats(model, chans, t, cols, rule)
        rows = np.clip(np.einsum("c,cxy->xy", _solve_mixture_lp(err, risks, th), cols), 0.0, None)
        return SensorChannel(rows / rows.sum(axis=1, keepdims=True))

    chans, trace, converged, kept = _descend(
        model, start, config.max_outer_iters, prepare, block, start_push
    )
    enforced = floor if kept is None else kept[1]
    chans = _enforce_info_budget(model, chans, eps_i)
    mapping = NetworkMapping(tuple(chans))
    pushed = push_forward(model, mapping)
    obj = bayes_error_H_pushed(pushed)
    if not trace or trace[-1] != obj:
        trace.append(obj)  # the shrink moved the mapping after the last sweep
    profile = PrivacyRiskProfile(_min_risks(pushed), *enforced)
    return InfoStageResult(mapping, profile, tuple(trace), converged)


def _risk_floor(pushed: PushedModel, eps_i) -> tuple[float, float]:
    """(c_G, theta) for the block steps taken from the pushed iterate.

    An unbounded budget disables the floor outright (the closed-form
    threshold tends to (1 - c_G)/2, an artifact of its derivation).
    """
    c_g = compute_c_G(pushed)
    return c_g, 0.0 if math.isinf(eps_i) else theta(eps_i, c_g)


def _likelihood_sign_quantizers(model, z_size) -> list[SensorChannel]:
    """Per-sensor quantizers sending x to 1 where p(H=1, x) > p(H=0, x), else 0."""
    chans = []
    for t in range(model.s):
        d_h = np.einsum("hg,hgx->hx", model.prior, model.conditionals[t])
        sign = (d_h[1] > d_h[0]).astype(int)
        rows = np.zeros((model.x_size, z_size))
        rows[np.arange(model.x_size), sign % z_size] = 1.0
        chans.append(SensorChannel(rows))
    return chans


def _info_stage_start(model, eps_i, z_size):
    """Lowest-error start that meets its own sweep-0 risk floor.

    Candidates are the constant quantizers (risk exactly 1/2 >= theta, so
    taken untested: their push may round below a theta of 1/2), the
    likelihood-sign quantizers and, when z_size >= x_size, the injective
    quantizer x -> x, which by data processing no mapping beats once the
    floor is vacuous.  An all-constant start alone is a degenerate fixed
    point: the fusion rule is constant, so every LP column has one error.
    Returns the start channels, their (c_G, theta) pair and their push.
    """
    const = np.zeros((model.x_size, z_size))
    const[:, 0] = 1.0
    starts = [[SensorChannel(const)] * model.s, _likelihood_sign_quantizers(model, z_size)]
    if z_size >= model.x_size:
        starts.append([SensorChannel(np.eye(model.x_size, z_size))] * model.s)
    best = None
    for chans in starts:
        pushed = push_forward(model, NetworkMapping(tuple(chans)))
        c_g, th = _risk_floor(pushed, eps_i)
        if best is not None and any(r < th for r in _min_risks(pushed).values()):
            continue
        err = bayes_error_H_pushed(pushed)
        if best is None or err < best[0]:
            best = (err, chans, (c_g, th), pushed)
    return list(best[1]), best[2], best[3]


def _solve_mixture_lp(err, risks, th):
    """Least-error mixture weights over the LP columns with every risk >= th; else LPInfeasible."""
    rows = [-risks[g] for g in sorted(risks)]
    res = solve_lp(
        err,
        a_ub=np.array(rows) if rows else None,
        b_ub=np.full(len(rows), -th) if rows else None,
        a_eq=np.ones((1, err.shape[0])),
        b_eq=np.ones(1),
    )
    nu = np.clip(res.x, 0.0, None)
    return nu / nu.sum()


def _min_risks(pushed: PushedModel) -> dict:
    """g -> min over detectors of R_g on the pushed iterate, for every live g != 0.

    The risks are normalized by the model prior's G marginal.
    """
    risks = min_risks(pushed.p_gz(), pushed.source.prior.sum(axis=0))
    return {g: float(r) for g, r in risks.items()}


def _utility_stage(model, config):
    """Detection-error minimization with no privacy constraint at all.

    A ``_descend`` in which each sensor takes the error-minimizing
    deterministic quantizer given the rest: each x goes to the output of
    least ``block_objective_coefficients`` f(z, x), ties to the lowest z.
    Used as the relaxation target below.  Initialized from per-sensor
    likelihood-sign quantizers (an all-constant start is a degenerate fixed
    point).
    """
    eye = np.eye(config.z_size)

    def block(rule, chans, t):
        f = block_objective_coefficients(model, rule, chans, t)
        return SensorChannel(eye[np.argmin(f, axis=0)])

    start = _likelihood_sign_quantizers(model, config.z_size)
    return _descend(model, start, config.max_outer_iters, optimal_rule_from_pushed, block)[0]


def _mix_toward_mean(model, rows, weights, memo=None):
    """Blend each sensor toward its column-mean row, keeping ``weights[t]`` on its rows.

    Weight 0 makes every sensor input-independent (budget zero), weight 1
    leaves it as it is.  Returns (audited posterior-ratio budget, channels).
    ``memo``, a dict shared by calls on the same ``rows``, keeps each mixed
    channel by (sensor, weight), so a call builds only the sensors whose
    weight it has not seen; the channels are the ones a fresh call builds.
    """
    memo = {} if memo is None else memo
    mixed = []
    for t, (w, r) in enumerate(zip(weights, rows)):
        key = (t, float(w))
        if key not in memo:
            memo[key] = SensorChannel((1 - w) * np.tile(r.mean(axis=0), (r.shape[0], 1)) + w * r)
        mixed.append(memo[key])
    pushed = push_forward(model, NetworkMapping(tuple(mixed)))
    return metrics.info_privacy_budget(pushed), mixed


def _audited_waterfill(model, config):
    """Direct utility-vs-budget allocation for the no-data-privacy design.

    Starting from input-independent channels (budget zero), each sensor is
    blended toward its unconstrained utility quantizer as far as the
    audited posterior-ratio budget allows, cheapest leak first.  A sensor
    that is nearly uninformative about the private hypothesis costs almost
    no budget and gets passed through close to raw, which is exactly why a
    design without a data-privacy constraint leaks data privacy.
    """
    eps_i, util = config.eps_i, _utility_stage(model, config)
    if math.isinf(eps_i):
        return util
    target = [u.rows for u in util]
    memo = {}  # each trial moves one sensor's weight: the others' channels are kept
    # Incremental water-filling: repeatedly grant the cheapest affordable
    # marginal step until the budget binds everywhere.
    gammas = np.zeros(model.s)
    cur_b, _ = _mix_toward_mean(model, target, gammas, memo)
    for step in (0.1, 0.02):
        while True:
            candidates = []
            for t in range(model.s):
                if gammas[t] >= 1.0:
                    continue
                trial = gammas.copy()
                trial[t] = min(1.0, gammas[t] + step)
                b, _ = _mix_toward_mean(model, target, trial, memo)
                if b <= eps_i:
                    candidates.append((b - cur_b, t, trial[t], b))
            if not candidates:
                break
            _, t, g, cur_b = min(candidates)
            gammas[t] = g
    return _mix_toward_mean(model, target, gammas, memo)[1]


def _enforce_info_budget(model, chans, eps_i):
    """Shrink toward input-independent channels until the audit passes.

    The risk threshold is a sufficient condition only up to the constant
    c_G measured on the evolving mapping, so the final mapping is audited
    directly.  ``_mix_toward_mean`` with one common weight w on every
    sensor's rows reaches budget zero at w = 0, and the largest adequate w
    is located by bisection, which stops once the midpoint rounds to an end
    (no later step can move either).  The mixture of the last passing audit
    is returned; w = 0 is audited only if none passed, when eps_i lies below
    the rounding error of an input-independent channel's budget.
    """
    if math.isinf(eps_i):
        return chans
    rows = [c.rows for c in chans]

    def audit(w):
        return _mix_toward_mean(model, rows, np.full(model.s, w))

    val, mixed = audit(1.0)
    if val <= eps_i:
        return mixed
    lo, hi, passed = 0.0, 1.0, None  # the audit fails at hi, and passes at lo once lo > 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        val, mixed = audit(mid)
        if val <= eps_i:
            lo, passed = mid, mixed
        else:
            hi = mid
    return audit(lo)[1] if passed is None else passed


# -- two-stage architectures ---------------------------------------------------


def design_ill(
    model: JointModel, config: OptimizerConfig, warm: DesignResult | None = None
) -> DesignResult:
    """Information stage at the full posterior budget, then a local stage at
    the full local budget; post-processing keeps the composed budgets intact.

    ``warm``, an ``ill`` result, offers its local stage as a start."""
    info = design_info_stage(model, config)
    y_model = push_forward_model(model, info.mapping)
    initial = warm.mapping.stage2 if warm is not None else None
    stage2, trace, converged = _ldp_sweeps(y_model, config, initial)
    two = TwoStageMapping(info.mapping, stage2, "ill")
    # stage 2 runs on the stage-1 image, so its per-sweep objective is the
    # final detection error of the whole pipeline
    return _result(model, two, trace, converged and info.converged, info.profile)


def design_lip(
    model: JointModel, config: OptimizerConfig, warm: DesignResult | None = None
) -> DesignResult:
    """Local stage at the full local budget, then an information stage on
    its output; post-processing keeps the composed local budget intact.

    A stage 2 garbles stage 1's output, so by data processing none errs less
    than the identity: when stage 1's audited posterior-ratio budget already
    meets eps_I, stage 2 is the identity, with stage 1's trace and no risk
    profile.  ``warm``, a ``lip`` result, offers its local stage as a start."""
    initial = warm.mapping.stage1 if warm is not None else None
    stage1, trace, converged = _ldp_sweeps(model, config, initial)
    if metrics.info_privacy_budget(push_forward(model, stage1)) <= config.eps_i:
        identity = NetworkMapping((SensorChannel(np.eye(config.z_size)),) * model.s)
        return _result(model, TwoStageMapping(stage1, identity, "lip"), trace, converged)
    y_model = push_forward_model(model, stage1)
    info = design_info_stage(y_model, config)
    two = TwoStageMapping(stage1, info.mapping, "lip")
    return _result(model, two, info.trace, converged and info.converged, info.profile)


def design_inp(model: JointModel, config: OptimizerConfig) -> DesignResult:
    """Information-privacy-only design: the stage output is the wire output.

    With no data-privacy stage to follow, the binding contract is the
    audited posterior-ratio budget itself, so surplus protection left by
    the conservative risk threshold is traded back for detection accuracy.
    When the water-filled mapping wins no risk threshold was enforced on
    it, so ``profile`` is None; otherwise it is the information stage's.
    """
    info = design_info_stage(model, config)
    filled = NetworkMapping(tuple(_audited_waterfill(model, config)))
    err_fill = bayes_error_H_pushed(push_forward(model, filled))
    if err_fill <= info.trace[-1]:  # the stage's trace ends at its mapping's error
        return _result(model, filled, info.trace + (err_fill,), info.converged)
    return _result(model, info.mapping, info.trace, info.converged, info.profile)


def _result(model, mapping, trace, converged, profile=None) -> DesignResult:
    """The designed ``mapping`` with its rule, objective and audit.

    A two-stage mapping is composed first.  The composed mapping is pushed
    forward once for the rule and the objective, and this is the one place
    a design calls ``full_report``.
    """
    network = mapping.network()
    pushed = push_forward(model, network)
    return DesignResult(
        mapping=mapping,
        rule=optimal_rule_from_pushed(pushed),
        trace=tuple(trace),
        report=full_report(model, network),
        converged=converged,
        objective=bayes_error_H_pushed(pushed),
        profile=profile,
    )


def design(
    model: JointModel, arch: str, config: OptimizerConfig, warm: DesignResult | None = None
) -> DesignResult:
    """Dispatch by architecture name, one of ``ARCHITECTURES``.

    Each design is called through its module-level name, not through a table
    of functions, so a wrapper bound over that name (the bench tracer, a
    test's monkeypatch) sees the call.  ``warm`` is a result of the same
    architecture to start from; ``inp`` has no local stage to start and
    ignores it.
    """
    if arch == "ldp":
        return design_ldp(model, config, warm)
    if arch == "ill":
        return design_ill(model, config, warm)
    if arch == "lip":
        return design_lip(model, config, warm)
    if arch == "inp":
        return design_inp(model, config)
    raise ValueError(f"unknown architecture {arch!r}")


def chain_designs(model: JointModel, arch: str, eps_ld_grid, config: OptimizerConfig):
    """Designs of ``arch``, one of ``ARCHITECTURES``, along an ascending
    local-budget grid with warm starts.

    A mapping feasible at a smaller local budget stays feasible at a larger
    one, so each grid point also considers the previous solution (as a warm
    start and as a fallback candidate), making the achieved detection error
    non-increasing along the grid.  ``inp`` has no local budget: its grid is
    the one point eps_ld = inf.
    """
    order = sorted(range(len(eps_ld_grid)), key=lambda i: eps_ld_grid[i])
    results: dict[int, DesignResult] = {}
    prev: DesignResult | None = None
    for idx in order:
        cfg = dataclasses.replace(config, eps_ld=float(eps_ld_grid[idx]))
        res = design(model, arch, cfg, warm=prev)
        if prev is not None and prev.objective < res.objective - 1e-15:
            res = _reuse_previous(prev, res)
        results[idx] = prev = res
    return [results[i] for i in range(len(eps_ld_grid))]


def _reuse_previous(prev: DesignResult, fresh: DesignResult) -> DesignResult:
    """Keep the previous grid point's mapping when it is strictly better."""
    return dataclasses.replace(prev, trace=fresh.trace + (prev.objective,))
