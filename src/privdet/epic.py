"""Empirical privacy-constrained channel and classifier optimization.

For unknown observation distributions, the privacy mapping is learned from
labeled samples alone.  The solver designs binary channels: each sensor
sends one of ``Z_SIZE`` = 2 outputs.  Sample i enters through its
pushed-forward feature phi_i = (P_1[x_1^i], ..., P_s[x_s^i]), the expected
one-hot encoding of its sanitized vector, and every classifier is linear in
it: its score is sum_t P_t[x_t^i] . w_t for per-sensor weights w of shape
(s, z).  The fusion rule minimizes the mean logistic loss of H plus
(lam/2) |w|^2.  This is the count-kernel representer problem written in the
primal (w = Phi^T a, so the Gram matrix is Phi Phi^T and a^T K a = |w|^2),
an s*z-dimensional strongly convex fit solved by damped Newton.  The
inference-privacy constraint is an empirical detection-risk floor against
the best such adversary per private value, and the data-privacy constraint
is the usual per-sensor likelihood-ratio polytope.

The solver runs in two steps: (i) estimate the highest risk floor
``theta_star`` attainable by local-budget-feasible channels that still
leave the public hypothesis learnable, as the better audited of two
utility-capped starts, then (ii) minimize the empirical public risk subject
to the floor ``r * theta_star`` and the local-budget constraints, by block
coordinate descent over (classifier, per-sensor channels, adversaries).
With the weights held fixed, each score is linear in one sensor's channel
and the regularizer is constant, so channel blocks are linear programs on
the linearized risks with a backtracking damping step on the exact ones.
Each is one ``channels.solve_channel_lp`` over the channel entries.
``_descend`` is the one sweep loop: E-LDP, the utility-only design step (i)
starts from, is that descent with no adversary (every private label set to
0), so its linear programs carry only the local-budget polytope.  Step
(ii)'s programs are that polytope plus one row per adversary, so the
simplex starts them from the polytope's kept phase-1 start.

Each exact computation is made once: ``dataset_from_model`` draws each
(model, n, seed) data set once and keeps it on the model, and E-LDP runs
once per training set and input (``_eldp_start`` keeps it on the data
set), so the e-ldp and epic cells of one local budget share one descent.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .channels import (
    CONVERGENCE_TOL,
    ROW_ATOL,
    NetworkMapping,
    SensorChannel,
    check_eps_ld,
    repair_ratio_columns,
    solve_channel_lp,
    uniform_mapping,
)
from .metrics import LOG2, json_float
from .model import JointModel, _check_rows_stochastic
from .simplex import LPInfeasible

#: the output alphabet of every channel the solvers learn
Z_SIZE = 2

#: a Newton fit stops at this gradient norm, or once no step can lower its
#: objective by more than the objective's rounding error
FIT_TOL = 1e-12
FIT_MAX_ITER = 100
#: step halvings a block step tries toward its LP optimum before it gives up
DAMPING_STEPS = 6
#: share of the gap between the utility-only public risk and log 2 that the
#: risk-floor search may give up
UTILITY_SLACK = 0.3


# -- data ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Dataset:
    """Labeled samples (h, g, x): one row per observation vector.

    ``_stages`` holds the E-LDP descents made on this training set
    (``_eldp_start``), so that the e-ldp and epic cells of one local budget
    share one.  A replaced data set starts it empty.
    """

    h: np.ndarray  # (n,) in {0, 1}
    g: np.ndarray  # (n,) private-value index in [0, 2**q)
    x: np.ndarray  # (n, s) symbols in [0, x_size)
    x_size: int
    q: int
    _stages: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.int64)
        g = np.asarray(self.g, dtype=np.int64)
        x = np.asarray(self.x, dtype=np.int64)
        if h.ndim != 1 or h.size < 1:
            raise ValueError("need at least one sample")
        if x.ndim != 2 or x.shape[0] != h.size or g.shape != h.shape:
            raise ValueError("h, g and x row counts disagree")
        if not np.isin(h, (0, 1)).all():
            raise ValueError("h labels must be 0/1")
        if g.min() < 0 or g.max() >= 2 ** self.q:
            raise ValueError("g labels outside [0, 2**q)")
        if x.min() < 0 or x.max() >= self.x_size:
            raise ValueError("x symbols outside the declared alphabet")
        for arr in (h, g, x):
            arr.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.h.size

    @property
    def s(self) -> int:
        return self.x.shape[1]

    def h_signs(self) -> np.ndarray:
        return np.where(self.h == 1, 1.0, -1.0)

    def class_indices(self, g: int) -> np.ndarray:
        return np.flatnonzero(self.g == g)

    def present_g_values(self):
        return sorted(int(v) for v in np.unique(self.g) if v != 0)


def dataset_from_model(model: JointModel, n: int, seed: int) -> Dataset:
    """n samples of ``model`` drawn from ``seed``: drawn once per model, n and seed.

    The data set is kept in ``model._stages``; it is immutable, so the
    cells of a sweep that ask for it again share it.
    """
    key = ("dataset_from_model", n, seed)
    if key not in model._stages:
        h, g, x = model.sample(n, np.random.default_rng(seed))
        model._stages[key] = Dataset(h, g, x, model.x_size, model.q)
    return model._stages[key]


# -- losses and primal fits ----------------------------------------------------


def _logistic(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = np.log1p(np.exp(-u[pos]))
    out[~pos] = -u[~pos] + np.log1p(np.exp(u[~pos]))
    return out


def _sigmoid(u: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def _risk_terms(dataset: Dataset, g: int | None = None):
    """Per-sample weights and +-1 signs of one empirical risk.

    With g None this is the public risk (mean loss of deciding H); otherwise
    the class-balanced risk of an adversary telling private value g from 0.
    """
    if g is None:
        return np.full(dataset.n, 1.0 / dataset.n), dataset.h_signs()
    s0 = dataset.class_indices(0)
    sg = dataset.class_indices(g)
    if s0.size == 0 or sg.size == 0:
        raise ValueError(f"class set for g=0 or g={g} is empty")
    weights = np.zeros(dataset.n)
    weights[s0] = 0.5 / s0.size
    weights[sg] = 0.5 / sg.size
    signs = np.zeros(dataset.n)
    signs[s0] = -1.0
    signs[sg] = 1.0
    return weights, signs


def _newton_fit(phi, signs, weights, lam, tol=FIT_TOL, max_iter=FIT_MAX_ITER):
    """min over w of sum_i c_i log(1 + exp(-y_i phi_i . w)) + (lam/2) |w|^2.

    Damped Newton from w = 0; the objective is strongly convex and the
    Hessian is only (s*z) x (s*z).  The objective sums n = len(phi) terms,
    so n * eps * obj bounds its rounding error, and no change smaller than
    that can be measured.  Stops at gradient norm <= tol; when the Newton
    decrement grad . step (twice the decrease a full step predicts) is
    within that bound; or when no step of the halving line search lowers
    the objective by more than it.  Returns (w, objective).
    """

    def objective(w):
        return float(weights @ _logistic(signs * (phi @ w))) + 0.5 * lam * float(w @ w)

    w = np.zeros(phi.shape[1])
    obj = objective(w)
    for _ in range(max_iter):
        p = _sigmoid(-signs * (phi @ w))
        grad = phi.T @ (-weights * signs * p) + lam * w
        if np.linalg.norm(grad) <= tol:
            break
        hess = (phi.T * (weights * p * (1.0 - p))) @ phi + lam * np.eye(w.size)
        step = np.linalg.solve(hess, grad)
        noise = phi.shape[0] * np.finfo(float).eps * obj
        if float(grad @ step) <= noise:
            break
        eta = 1.0
        while eta > 1e-12 and obj - (trial := objective(w - eta * step)) <= noise:
            eta *= 0.5
        if eta <= 1e-12:
            break
        w, obj = w - eta * step, trial
    return w, obj


def _fit(dataset, chans, lam, g=None, tol=FIT_TOL, max_iter=FIT_MAX_ITER):
    """(weights (s, z), risk) of the best classifier of H, or of the adversary for g."""
    weights, signs = _risk_terms(dataset, g)
    phi = np.hstack([ch.rows[dataset.x[:, t]] for t, ch in enumerate(chans)])
    w, risk = _newton_fit(phi, signs, weights, lam, tol, max_iter)
    return w.reshape(len(chans), -1), risk


def min_adversary_risk(mapping, dataset, g, lam, tol=FIT_TOL, max_iter=FIT_MAX_ITER):
    """(weights, risk) of the best adversary for private value g."""
    return _fit(dataset, mapping.channels, lam, g, tol, max_iter)


def _fit_adversaries(dataset, chans, lam):
    """g -> weights of the best adversary for every present g, and the lowest risk."""
    fits = {g: _fit(dataset, chans, lam, g) for g in dataset.present_g_values()}
    worst = min((risk for _, risk in fits.values()), default=math.inf)
    return {g: w for g, (w, _) in fits.items()}, worst


# -- channel block machinery ---------------------------------------------------


def _block(dataset, chans, t, w, lam, g=None):
    """Sensor t's block of one risk (see ``_risk_terms``) with the weights w held fixed.

    For a trial channel P at sensor t the score of sample i is exactly
    base_i + P[x_t^i] . w_t, and the regularizer is the constant
    (lam/2) |w|^2.  Returns the gradient of the risk in P at the current
    channel, the current risk, and the exact risk as a function of P.
    """
    weights, signs = _risk_terms(dataset, g)
    xt = dataset.x[:, t]
    base = np.zeros(dataset.n)
    for tau, ch in enumerate(chans):
        if tau != t:
            base += ch.rows[dataset.x[:, tau]] @ w[tau]
    reg = 0.5 * lam * float((w * w).sum())

    def risk(p_rows):
        return float(weights @ _logistic(signs * (base + p_rows[xt] @ w[t]))) + reg

    p0 = chans[t].rows
    d_score = -weights * signs * _sigmoid(-signs * (base + p0[xt] @ w[t]))
    grad = np.outer(np.bincount(xt, weights=d_score, minlength=dataset.x_size), w[t])
    return grad, risk(p0), risk


def _adversary_block(dataset, chans, t, advs, lam):
    """Sensor t's blocks of every adversary risk, for the linear programs.

    Returns (rows, offsets, worst): the first-order risk of adversary k about
    the current channel is offsets[k] + rows[k] . vec(P), and worst(P) is the
    exact lowest risk over the adversaries with their weights held fixed.
    With no adversary there are no rows and worst is inf.
    """
    p0 = chans[t].rows
    parts = [_block(dataset, chans, t, w, lam, g) for g, w in advs.items()]
    rows = np.array([grad.reshape(-1) for grad, _, _ in parts]).reshape(len(parts), p0.size)
    offsets = np.array([cur - float((grad * p0).sum()) for grad, cur, _ in parts])
    return rows, offsets, lambda p_rows: min((risk(p_rows) for _, _, risk in parts), default=math.inf)


def _channel_step(chans, t, eps_ld, accept, cost, a_ub=None, b_ub=None) -> float:
    """Move sensor t toward its block LP's optimum by the first accepted damped step.

    The LP is ``solve_channel_lp`` with this cost and these extra rows.
    Steps of 1, 1/2, 1/4, ... toward its optimum are tried until ``accept``
    takes one.  Returns the L1 change of the channel (0 when none is taken).
    """
    p0 = chans[t].rows
    try:
        target = solve_channel_lp(p0.shape, eps_ld, cost, a_ub, b_ub)
    except LPInfeasible:
        return 0.0
    eta = 1.0
    for _ in range(DAMPING_STEPS):
        trial = repair_ratio_columns(p0 + eta * (target - p0), eps_ld)
        if accept(trial):
            chans[t] = SensorChannel(trial)
            return float(np.abs(trial - p0).sum())
        eta *= 0.5
    return 0.0


# -- configuration and solution -------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EpicConfig:
    max_sweeps: int = 12
    risk_slack: float = 1e-4  # audited floor tolerance on returned solutions

    def __post_init__(self):
        n = self.max_sweeps
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError(f"'max_sweeps' must be an integer of at least 1, got {n!r}")


@dataclasses.dataclass(frozen=True)
class EpicSolution:
    coeffs: np.ndarray  # (s, z) classifier weights: a sanitized z scores sum_t coeffs[t, z_t]
    adversaries: dict  # g -> (s, z) weights of the best adversary telling g from 0
    mapping: NetworkMapping
    theta_achieved: float  # min over g of the best-adversary risk on the mapping
    theta_star: float  # step-(i) risk floor; nan for E-LDP
    r: float
    lam: float
    eps_ld: float
    objective: float  # empirical public risk at the solution

    def to_dict(self) -> dict:
        return {
            "coeffs": self.coeffs.tolist(),
            "adversaries": {str(g): v.tolist() for g, v in self.adversaries.items()},
            "mapping": self.mapping.to_json(),
            "theta_achieved": json_float(self.theta_achieved),
            "theta_star": json_float(self.theta_star),
            "r": self.r,
            "lambda": self.lam,
            "eps_ld": json_float(self.eps_ld),
            "objective": self.objective,
        }


def _onehot_scores(w, z):
    """sum_t w[t, z_t] for sanitized vectors z of shape (..., s)."""
    return w[np.arange(w.shape[0]), z].sum(axis=-1)


def _solution(dataset, chans, lam, eps_ld, theta_star=math.nan, r=0.0) -> EpicSolution:
    """Fit the classifier and every adversary on ``chans`` and audit the floor."""
    coeffs, obj = _fit(dataset, chans, lam)
    advs, worst = _fit_adversaries(dataset, chans, lam)
    mapping = NetworkMapping(tuple(chans))
    return EpicSolution(coeffs, advs, mapping, worst, theta_star, r, lam, eps_ld, obj)


# -- solvers ---------------------------------------------------------------------


def _descend(dataset, chans, eps_ld, lam, sweeps, th, floor, theta_star=math.nan, r=0.0):
    """The one empirical block descent: yields the ``_solution`` of the start, then one per sweep.

    Each sweep takes one ``_channel_step`` per sensor under the last solution's fits: the public
    risk may not rise, linearized adversary risks stay >= th and exact ones >= floor.  Ends after
    ``sweeps`` sweeps or after one whose L1 move is below ``CONVERGENCE_TOL``.
    """
    chans = list(chans)
    sol = _solution(dataset, chans, lam, eps_ld, theta_star, r)
    yield sol
    for _ in range(sweeps):
        change = 0.0
        for t in range(dataset.s):
            h_grad, f_cur, f = _block(dataset, chans, t, sol.coeffs, lam)
            g_rows, g_offsets, worst = _adversary_block(dataset, chans, t, sol.adversaries, lam)
            change += _channel_step(
                chans, t, eps_ld, lambda p: f(p) <= f_cur + 1e-12 and worst(p) >= floor,
                h_grad.reshape(-1), -g_rows, g_offsets - th,
            )
        sol = _solution(dataset, chans, lam, eps_ld, theta_star, r)
        yield sol
        if change < CONVERGENCE_TOL:
            return


def _eldp_start(dataset, eps_ld, lam, config):
    """E-LDP's last iterate: the descent from uniform rows with no adversary (every g set to 0).

    Made once per training set and input: kept in ``dataset._stages``, keyed
    on eps_ld (its hex tells -0.0 from 0.0), lam and ``max_sweeps``, the one
    config field the descent reads.
    """
    check_eps_ld(eps_ld)
    if not lam > 0:
        raise ValueError("lam must be positive")
    key = ("_eldp_start", float(eps_ld).hex(), lam, config.max_sweeps)
    if key not in dataset._stages:
        no_adversary = dataclasses.replace(dataset, g=np.zeros_like(dataset.g))
        uniform = uniform_mapping(dataset.s, dataset.x_size, Z_SIZE).channels
        *_, last = _descend(no_adversary, uniform, eps_ld, lam, config.max_sweeps, -math.inf, -math.inf)
        dataset._stages[key] = last
    return dataset._stages[key]


def eldp_solve(
    dataset: Dataset, eps_ld: float, lam: float, config: EpicConfig = EpicConfig()
) -> EpicSolution:
    """Local-budget-only empirical design (the risk floor dropped), audited on every present g."""
    last = _eldp_start(dataset, eps_ld, lam, config)
    advs, worst = _fit_adversaries(dataset, last.mapping.channels, lam)
    return dataclasses.replace(last, adversaries=advs, theta_achieved=worst)


def _aligned(rows_a, rows_b):
    """Binary channel rows_b, its outputs flipped when that brings it closer to rows_a.

    Output relabeling is free (it changes neither risks nor budgets), but
    blending channels of opposite polarity cancels their signal.
    """
    flipped = rows_b[:, ::-1]
    return flipped if np.abs(rows_a - flipped).sum() < np.abs(rows_a - rows_b).sum() else rows_b


def _blend(chans_a, chans_b, beta):
    """Per-sensor convex combination, with b's output labels aligned to a (``_aligned``)."""
    return [SensorChannel((1.0 - beta) * a.rows + beta * _aligned(a.rows, b.rows))
            for a, b in zip(chans_a, chans_b)]


def _capped_path_point(dataset, from_chans, to_chans, f_cap, lam):
    """Most-sanitized point on the blend path meeting the utility cap.

    The path runs from ``from_chans`` (more sanitized) to ``to_chans``
    (better public risk), as ``_blend`` runs it; returns the endpoint
    closest to ``from_chans`` whose refit public risk is at most f_cap,
    located by bisection.  Each point is one blend of the stacked
    (s, x_size, 2) rows, the row check of the ``SensorChannel``
    constructor, and one gather into the fit's features; channels are made
    for the returned point alone.
    """
    start = np.stack([a.rows for a in from_chans])
    end = np.stack([_aligned(a.rows, b.rows) for a, b in zip(from_chans, to_chans)])
    weights, signs = _risk_terms(dataset)
    sensors = np.arange(dataset.s)

    def point(beta):
        rows = (1.0 - beta) * start + beta * end
        _check_rows_stochastic(rows, "blended channel", ROW_ATOL)
        return rows

    def capped(rows):
        phi = rows[sensors, dataset.x].reshape(dataset.n, -1)
        return _newton_fit(phi, signs, weights, lam)[1] <= f_cap

    hi = 0.0
    if not capped(point(hi)):
        lo, hi = 0.0, 1.0  # f(hi) <= cap by construction of to_chans
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            if capped(point(mid)):
                hi = mid
            else:
                lo = mid
    return [SensorChannel(rows) for rows in point(hi)]


def _risk_floor_search(dataset, start_chans, nulled, f_eldp, lam):
    """Step (i): the better of two capped starts, and its audited worst-g adversary risk.

    The starts are the most-sanitized points meeting the utility cap
    f_eldp + UTILITY_SLACK * (log 2 - f_eldp) along two paths from the
    utility-only solution: toward input-independent rows, and toward the
    per-sensor moment-matched channels ``nulled``.  Returns the one whose
    best adversaries have the higher lowest risk, and that risk.
    """
    f_cap = f_eldp + UTILITY_SLACK * (LOG2 - f_eldp)
    uniform = list(uniform_mapping(dataset.s, dataset.x_size, Z_SIZE).channels)
    starts = [
        _capped_path_point(dataset, uniform, start_chans, f_cap, lam),
        _capped_path_point(dataset, nulled, start_chans, f_cap, lam),
    ]
    floors = [_fit_adversaries(dataset, st, lam)[1] for st in starts]
    k = int(np.argmax(floors))
    return starts[k], floors[k]


def _moment_nulled_channels(dataset: Dataset, eps_ld: float):
    """Channels matching per-g empirical feature means while separating H.

    The adversary gradient at zero weights is the per-sensor class-mean
    feature difference, so matching those means per sensor pins the best
    adversary at zero (risk exactly log 2) regardless of the floor.  One LP
    per sensor maximizes the empirical H mean separation under the matching
    constraints and the ratio polytope; uniform rows are always feasible
    for it.  With binary outputs, matching the means of output 1 matches
    those of output 0 too.
    """
    xs = dataset.x_size
    nv = xs * Z_SIZE
    gs = dataset.present_g_values()

    def emp_cond(col, mask):
        c = np.bincount(col[mask], minlength=xs).astype(float)
        return c / max(c.sum(), 1.0)

    chans = []
    for t in range(dataset.s):
        col = dataset.x[:, t]
        d_h = emp_cond(col, dataset.h == 1) - emp_cond(col, dataset.h == 0)
        c = np.zeros(nv)
        c[0::Z_SIZE], c[1::Z_SIZE] = d_h, -d_h
        null_rows = np.zeros((len(gs), nv))
        for k, g in enumerate(gs):
            null_rows[k, 1::Z_SIZE] = emp_cond(col, dataset.g == g) - emp_cond(col, dataset.g == 0)
        try:
            rows = solve_channel_lp((xs, Z_SIZE), eps_ld, c, a_eq=null_rows, b_eq=np.zeros(len(gs)))
        except LPInfeasible:
            rows = np.full((xs, Z_SIZE), 1.0 / Z_SIZE)
        chans.append(SensorChannel(rows))
    return chans


def _better(best, sol, floor):
    """``sol`` when its audited risk meets the floor with a lower public risk than ``best``."""
    if sol.theta_achieved >= floor and (best is None or sol.objective < best.objective - 1e-15):
        return sol
    return best


def epic_solve(
    dataset: Dataset, eps_ld: float, r: float, lam: float, config: EpicConfig = EpicConfig()
) -> EpicSolution:
    """Two-step empirical design under both privacy constraints.

    Step (i) finds the risk floor theta_star; step (ii) minimizes the
    public risk subject to every adversary risk staying above
    r * theta_star, running the block descent from the step-(i) mapping
    and from a per-sensor moment-matched start, then polishing along the
    blend toward the utility-only mapping; the best audited-feasible
    iterate wins (the step-(i) start qualifies: its audit is theta_star).
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"the floor ratio r must lie in (0, 1), got {r}")
    eldp = _eldp_start(dataset, eps_ld, lam, config)  # warm start and utility reference
    if not dataset.present_g_values():
        return dataclasses.replace(eldp, theta_star=math.inf, r=r)

    eldp_chans = eldp.mapping.channels
    nulled = _moment_nulled_channels(dataset, eps_ld)
    chans_i, theta_star = _risk_floor_search(dataset, eldp_chans, nulled, eldp.objective, lam)
    th = r * theta_star
    floor = th - config.risk_slack

    best = None
    for start in (chans_i, nulled):
        for sol in _descend(dataset, start, eps_ld, lam, config.max_sweeps, th, floor, theta_star, r):
            best = _better(best, sol, floor)

    # One-dimensional polish: audited-feasible blends toward the
    # utility-only mapping often dominate the block iterates.
    anchor = list(best.mapping.channels)
    for beta in np.linspace(0.1, 0.9, 9):
        blend = _blend(anchor, eldp_chans, beta)
        trial = [SensorChannel(repair_ratio_columns(c.rows, eps_ld)) for c in blend]
        best = _better(best, _solution(dataset, trial, lam, eps_ld, theta_star, r), floor)
    return best


# -- discretization -------------------------------------------------------------


def discretize(raw: np.ndarray, bins: int, edges=None):
    """Quantize real-valued feature columns to integer symbols.

    Equal-frequency (quantile) binning; bin edges are computed
    on the given table unless ``edges`` is supplied (pass the training
    edges when transforming a test split).  Returns (symbols, edges).
    A constant column collapses to the single symbol 0 with a warning.
    +-inf interpolate as the column's finite extremes, and an edge whose lower
    order statistic is -inf is -inf: no edge is NaN, +-inf take the end bins.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError("expected a 2-D feature table")
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    n, d = raw.shape
    if edges is None:
        edges = []
        for j in range(d):
            col = raw[:, j]
            if col.max() == col.min():
                warnings.warn(f"feature column {j} is constant; using a single symbol")
                edges.append(np.zeros(0))
                continue
            qs, finite = np.arange(1, bins) / bins, col[np.isfinite(col)]
            ends = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
            col_edges = np.quantile(np.clip(col, *ends), qs)
            col_edges[np.quantile(col, qs, method="lower") == -np.inf] = -np.inf
            edges.append(col_edges)
    symbols = np.empty((n, d), dtype=np.int64)
    for j in range(d):  # no edges (a constant column) puts every value at symbol 0
        symbols[:, j] = np.searchsorted(edges[j], raw[:, j], side="left")
    return symbols, edges


# -- evaluation helpers -----------------------------------------------------------


def holdout_errors(solution: EpicSolution, test: Dataset, seed: int):
    """Held-out error rates of the trained classifier and adversaries.

    Sanitizes the test observations through the learned mapping (seeded),
    then measures the public-hypothesis error of the fusion classifier and,
    per private value g, the error of the trained adversary deciding g
    against 0 on the test rows with those labels.  Returns
    (error_h, error_g) with error_g the most successful adversary's rate
    (the worst case for privacy); error_g is inf when no adversary exists.
    """
    rng = np.random.default_rng(seed)
    z = solution.mapping.sample(test.x, rng)
    pred_h = (_onehot_scores(solution.coeffs, z) > 0).astype(np.int64)
    err_h = float(np.mean(pred_h != test.h))
    err_g = math.inf
    for g, v in solution.adversaries.items():
        mask = (test.g == 0) | (test.g == g)
        if not mask.any():
            continue
        pred = np.where(_onehot_scores(v, z)[mask] > 0, g, 0)
        err_g = min(err_g, float(np.mean(pred != test.g[mask])))
    return err_h, err_g
