"""Independent brute-force oracles used across the test suite.

Everything here enumerates explicitly (pure Python loops over full product
spaces) so the fast implementations are checked against a path they share
no code with; the one exception, ``bound_suite_loop``, says what it shares.
``random_model`` and ``random_suite_mapping`` draw the random models and
mappings of the tests as validated objects, one rng call per sensor table.
"""

import collections
import functools
import itertools
import math

import numpy as np

from privdet import relations
from privdet.channels import NetworkMapping, SensorChannel, ldp_polytope
from privdet.metrics import full_report
from privdet.model import JointModel
from privdet.simplex import FEAS_TOL, PIVOT_EPS, LPError, LPInfeasible, LPUnbounded


def brute_push(model, mapping):
    """p(h, g, z-vector) by full enumeration over X^s and Z^s."""
    z_size = mapping.channels[0].z_size
    n_g = model.n_g
    joint_hgx = model.joint_hgx()
    out = np.zeros((2, n_g, z_size ** model.s))
    for h in range(2):
        for g in range(n_g):
            for xi, xvec in enumerate(itertools.product(range(model.x_size), repeat=model.s)):
                p_x = joint_hgx[h, g, xi]
                if p_x == 0:
                    continue
                for zi, zvec in enumerate(itertools.product(range(z_size), repeat=model.s)):
                    w = 1.0
                    for t in range(model.s):
                        w *= mapping.channels[t].rows[xvec[t], zvec[t]]
                    out[h, g, zi] += p_x * w
    return out


def kron_push(model, mapping):
    """p(h, g, z-vector) through the Kronecker product of the sensor channels."""
    big = functools.reduce(np.kron, [ch.rows for ch in mapping.channels])
    return model.joint_hgx() @ big


def kron_joint_xz(pushed):
    """p(x-vector, z-vector): p(x) times the Kronecker product of the sensor channels."""
    big = functools.reduce(np.kron, [ch.rows for ch in pushed.mapping.channels])
    return pushed.source.p_x()[:, None] * big


def joint_block_coefficients(model, rule, channels, t):
    """f(z, x) of sensor t's block objective from the joint table over X^s.

    Contracts p(x, H=0) - p(x, H=1) against the other sensors' channel
    columns, once per accepted output vector; entry t of ``channels`` is
    ignored.
    """
    z_size = rule.z_size
    joint = model.joint_hgx()
    d = joint[0].sum(axis=0) - joint[1].sum(axis=0)
    d = d.reshape((model.x_size,) * model.s)
    f = np.zeros((z_size, model.x_size))
    for zflat in np.flatnonzero(rule.table == 1):
        zvec = np.unravel_index(zflat, (z_size,) * model.s)
        w = d
        # contract sensors above t first so axis positions stay stable
        for i in reversed(range(model.s)):
            if i != t:
                w = np.tensordot(w, channels[i].rows[:, zvec[i]], axes=([i], [0]))
        f[zvec[t]] += w
    return f


def brute_error_with_rule(pushed, rule_table):
    """P(rule(Z) != H) from the pushed joint by direct summation."""
    p_hz = pushed.joint.sum(axis=1)
    err = 0.0
    for z in range(p_hz.shape[1]):
        decided = rule_table[z]
        err += p_hz[1 - decided, z]
    return err


def best_rule_exhaustive(pushed):
    """Minimum-error deterministic rule by trying all 2**|Z^s| tables."""
    n_z = pushed.joint.shape[2]
    best_err, best_table = np.inf, None
    for bits in itertools.product((0, 1), repeat=n_z):
        err = brute_error_with_rule(pushed, bits)
        if err < best_err - 1e-15:
            best_err, best_table = err, bits
    return best_err, best_table


def best_detector_exhaustive(p0, pg):
    """min over all deterministic detectors of (P(say g|0) + P(say 0|g)) / 2."""
    n = p0.shape[0]
    best = np.inf
    for bits in itertools.product((0, 1), repeat=n):
        r = 0.5 * (
            sum(p0[y] for y in range(n) if bits[y] == 1)
            + sum(pg[y] for y in range(n) if bits[y] == 0)
        )
        best = min(best, r)
    return best


def mutual_information_direct(joint):
    """I(A;B) with explicit loops and the 0 log 0 convention."""
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * np.log(joint[i, j] / (pa[i] * pb[j]))
    return total


def posterior_ratio_budget_direct(joint):
    """max |log p(a, b) / (p(a) p(b))| over the cells with p(a, b) > 0, cell by cell."""
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    best = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                best = max(best, abs(math.log(joint[i, j] / (pa[i] * pb[j]))))
    return best


def empirical_eps_i_dict(g, z):
    """max |log p(g, z) / (p(g) p(z))| over the observed pairs, counted per sample in dicts."""
    n = len(g)
    counts, g_counts, z_counts = {}, {}, {}
    for gi, zi in zip(np.asarray(g).tolist(), np.asarray(z).tolist()):
        key = (gi, tuple(zi))
        counts[key] = counts.get(key, 0) + 1
        g_counts[gi] = g_counts.get(gi, 0) + 1
        z_counts[key[1]] = z_counts.get(key[1], 0) + 1
    eps_i = 0.0
    for (gi, zi), c in counts.items():
        ratio = (c / n) / ((g_counts[gi] / n) * (z_counts[zi] / n))
        eps_i = max(eps_i, abs(math.log(ratio)))
    return eps_i


def moment_prior(target_corr, p_h0, p_g0):
    """p(h, g) with the given marginals and corr(H, G), solved from the moment equations.

    The generator's prior before it fixed both marginals at 1/2, with the
    same float operations; raises ValueError where the correlation is
    infeasible for the marginals.
    """
    p_h1, p_g1 = 1.0 - p_h0, 1.0 - p_g0
    sd = np.sqrt(p_h0 * p_h1 * p_g0 * p_g1)
    p11 = p_h1 * p_g1 + target_corr * sd
    prior = np.array(
        [[1.0 - p_h1 - p_g1 + p11, p_g1 - p11], [p_h1 - p11, p11]]
    )
    if np.any(prior < -1e-12):
        raise ValueError(f"correlation {target_corr} is infeasible for p_h0={p_h0}, p_g0={p_g0}")
    prior = np.clip(prior, 0.0, None)
    return prior / prior.sum()


def sentinel_c_G(p_gy):
    """c_G of a (G, Y) table with NaN marking the ratios outside the support.

    ``privdet.detection.compute_c_G`` as it was before it dropped the NaN
    fill; with p(G=0) = 0 every ratio is NaN and the value is 1.
    """
    p_g = p_gy.sum(axis=1)
    best = 1.0
    for g in range(1, p_gy.shape[0]):
        if p_g[g] <= 0:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            p0 = p_gy[0] / p_g[0]
        pg = p_gy[g] / p_g[g]
        with np.errstate(invalid="ignore"):
            live = (p0 > 0) | (pg > 0)
            ell = np.full(p0.shape, np.nan)
            both = p0 > 0
            ell[both & live] = pg[both & live] / p0[both & live]
            ell[(p0 == 0) & (pg > 0)] = np.inf
        defined = live & ~np.isnan(ell)
        if not defined.any():
            continue
        vals = ell[defined]
        finite = vals[np.isfinite(vals)]
        lo = finite.min() if finite.size else np.inf
        if np.isfinite(lo):
            argmin = defined & (ell <= lo * (1 + 1e-12) + 1e-300)
        else:
            argmin = defined & np.isinf(ell)
        hi = vals.max()
        if np.isinf(hi):
            argmax = defined & np.isinf(ell)
        else:
            argmax = defined & (ell >= hi * (1 - 1e-12) - 1e-300)
        cand = min(float(p0[argmin].sum()), float(pg[argmax].sum()))
        best = min(best, cand)
    return best


def brute_bayes_error_raw(model):
    """Bayes error of H from the raw vector X, summing p(h, x) over X^s."""
    err = 0.0
    for xvec in itertools.product(range(model.x_size), repeat=model.s):
        p_h = [0.0, 0.0]
        for h in range(2):
            for g in range(model.n_g):
                w = model.prior[h, g]
                for t, x in enumerate(xvec):
                    w *= model.conditionals[t][h, g, x]
                p_h[h] += w
        err += min(p_h)
    return err


def pushed_features(channel_rows, x):
    """Rows phi_i = (P_1[x_1^i], ..., P_s[x_s^i]), built by a loop over samples."""
    return np.array([
        np.concatenate([np.asarray(rows)[xi[t]] for t, rows in enumerate(channel_rows)])
        for xi in np.asarray(x)
    ])


def logistic_risk_min(phi, signs, weights, lam, tol=1e-13, max_iter=200):
    """min_w sum_i c_i log(1 + exp(-y_i phi_i . w)) + (lam / 2) |w|^2 by damped Newton.

    Returns (w, objective).  The objective is strongly convex, so Newton steps
    with halving until the objective does not rise reach its unique minimum.
    """
    phi = np.asarray(phi, dtype=float)

    def objective(w):
        return float(weights @ np.logaddexp(0.0, -signs * (phi @ w))) + 0.5 * lam * float(w @ w)

    w = np.zeros(phi.shape[1])
    obj = objective(w)
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(signs * (phi @ w)))  # sigmoid of minus the margin
        grad = phi.T @ (-weights * signs * p) + lam * w
        if np.linalg.norm(grad) <= tol:
            break
        hess = phi.T @ np.diag(weights * p * (1.0 - p)) @ phi + lam * np.eye(w.size)
        step = np.linalg.solve(hess, grad)
        eta = 1.0
        while eta > 1e-12 and objective(w - eta * step) > obj:
            eta *= 0.5
        if eta <= 1e-12:
            break
        w = w - eta * step
        obj = objective(w)
    return w, obj


def adversary_risk(channel_rows, x, g_labels, g, lam):
    """Minimum class-balanced logistic risk of telling private value g from 0."""
    g_labels = np.asarray(g_labels)
    weights = np.zeros(g_labels.size)
    signs = np.zeros(g_labels.size)
    for cls, sign in ((0, -1.0), (g, 1.0)):
        idx = g_labels == cls
        weights[idx] = 0.5 / idx.sum()
        signs[idx] = sign
    return logistic_risk_min(pushed_features(channel_rows, x), signs, weights, lam)[1]


def pairwise_ldp_polytope(x_size, z_size, eps_ld):
    """The local-budget polytope with one ratio row per output and ordered input pair.

    Variables are p(z | x) flattened as x * z_size + z.  Returns
    (a_eq, b_eq, a_ub, b_ub) with rows p(z|x) - e^eps p(z|x') <= 0 for every
    z and x != x' (a_ub is None when eps_ld is infinite or x_size < 2).
    """
    nv = x_size * z_size
    a_eq = np.zeros((x_size, nv))
    for x in range(x_size):
        a_eq[x, x * z_size:(x + 1) * z_size] = 1.0
    b_eq = np.ones(x_size)
    if np.isinf(eps_ld) or x_size < 2:
        return a_eq, b_eq, None, None
    e = np.exp(eps_ld)
    rows = []
    for z in range(z_size):
        for x in range(x_size):
            for x2 in range(x_size):
                if x2 != x:
                    row = np.zeros(nv)
                    row[x * z_size + z] = 1.0
                    row[x2 * z_size + z] -= e
                    rows.append(row)
    return a_eq, b_eq, np.array(rows), np.zeros(len(rows))


def lifted_ldp_polytope(x_size, z_size, eps_ld):
    """The local-budget polytope over p itself, lifted by one envelope variable per output.

    Variables are p(z | x) flattened as x * z_size + z, then m_0 .. m_{z-1};
    for every z and x the rows m_z - p(z|x) <= 0 and p(z|x) - e^eps m_z <= 0,
    in (z, x) order, lower before upper.  Returns (a_eq, b_eq, a_ub, b_ub)
    (a_ub is None, with no envelope columns, when eps_ld is infinite or
    x_size < 2).
    """
    nv = x_size * z_size
    lifted = math.isfinite(eps_ld) and x_size >= 2
    n_cols = nv + z_size if lifted else nv
    a_eq = np.zeros((x_size, n_cols))
    for x in range(x_size):
        a_eq[x, x * z_size:(x + 1) * z_size] = 1.0
    b_eq = np.ones(x_size)
    if not lifted:
        return a_eq, b_eq, None, None
    a_ub = np.zeros((2 * nv, n_cols))
    k = 0
    for z in range(z_size):
        for x in range(x_size):
            a_ub[k, nv + z], a_ub[k, x * z_size + z] = 1.0, -1.0
            a_ub[k + 1, x * z_size + z], a_ub[k + 1, nv + z] = 1.0, -math.exp(eps_ld)
            k += 2
    return a_eq, b_eq, a_ub, np.zeros(2 * nv)


def floor_coefficients(a, x_size, z_size):
    """An array over p(z | x) (flattened as x * z_size + z) written over the
    floor-plus-excess variables of ``ldp_polytope``: its own entries on the
    excess, then for each floor m_z the sum of its entries p(z | x) over x."""
    a = np.asarray(a, dtype=float)
    floor = np.zeros(a.shape[:-1] + (z_size,))
    for z in range(z_size):
        for x in range(x_size):
            floor[..., z] += a[..., x * z_size + z]
    return np.concatenate([a, floor], axis=-1)


def padded_channel_lp(shape, eps_ld, cost, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """(c, a_ub, b_ub, a_eq, b_eq) of one channel's block LP over ``ldp_polytope``.

    Arguments as ``privdet.channels.solve_channel_lp``: the caller's arrays
    run over the channel entries.  Where the polytope has floor columns each
    array is written over them by ``floor_coefficients``, and the polytope's
    rows go above the extra rows.
    """
    x_size, z_size = shape
    p_eq, p_beq, p_ub, p_bub = ldp_polytope(x_size, z_size, eps_ld)
    shifted = p_eq.shape[1] > x_size * z_size

    def pad(a):
        a = np.asarray(a, dtype=float)
        return floor_coefficients(a, x_size, z_size) if shifted else a

    def with_polytope_rows(rows, rhs, poly, poly_rhs):
        if rows is None:
            return poly, poly_rhs
        if poly is None:
            return pad(rows), rhs
        return np.vstack([poly, pad(rows)]), np.concatenate([poly_rhs, rhs])

    return (pad(cost), *with_polytope_rows(a_ub, b_ub, p_ub, p_bub),
            *with_polytope_rows(a_eq, b_eq, p_eq, p_beq))


def pairwise_neighbor_budget(table):
    """max log(a / b) over every ordered pair of rows along axis 0, column by column.

    Zero conventions: a pair with a positive numerator over a zero
    denominator gives inf; a pair where either side is not positive is
    otherwise skipped.  Fewer than two rows give 0.
    """
    table = np.asarray(table, dtype=float)
    flat = table.reshape(table.shape[0], -1)
    best = 0.0
    for i in range(flat.shape[0]):
        for j in range(flat.shape[0]):
            if i == j:
                continue
            for a, b in zip(flat[i], flat[j]):
                if a > 0 and b == 0:
                    return np.inf
                if a > 0 and b > 0:
                    best = max(best, float(np.log(a / b)))
    return best


def pairwise_inference_dp(p_gz, q):
    """max log p(z|g) / p(z|g') over ordered pairs of live g, g' one bit apart.

    Pair by pair and entry by entry: a positive numerator over a zero
    denominator gives inf, and entries where either side is zero are
    otherwise skipped.  Values of g with p(g) = 0 take no part.
    """
    p_gz = np.asarray(p_gz, dtype=float)
    p_g = p_gz.sum(axis=1)
    best = 0.0
    for g in range(p_gz.shape[0]):
        for bit in range(q):
            g2 = g ^ (1 << bit)
            if p_g[g] <= 0 or p_g[g2] <= 0:
                continue
            for a, b in zip(p_gz[g] / p_g[g], p_gz[g2] / p_g[g2]):
                if a > 0 and b == 0:
                    return np.inf
                if a > 0 and b > 0:
                    best = max(best, float(np.log(a / b)))
    return best


def oracle_report(pushed):
    """(neighbor budgets, information terms) of ``pushed``, as dicts keyed by
    ``BudgetReport`` field, from the pair and cell loops above.

    The neighbor budgets compare entries pair by pair: inference DP on the
    pushed (G, Z) table, the local budget on each channel, identifiability
    and delta_x along each sensor axis of the Kronecker-built (X, Z) table
    and of p(x).  The information terms sum or scan cell by cell.
    """
    model = pushed.source
    shape = (model.x_size,) * model.s
    xz = kron_joint_xz(pushed)

    def sensor_axes(table):
        return max(pairwise_neighbor_budget(np.moveaxis(table, t, 0)) for t in range(model.s))

    neighbors = {
        "eps_inference_dp": pairwise_inference_dp(pushed.p_gz(), model.q),
        "eps_ldp": max(pairwise_neighbor_budget(ch.rows) for ch in pushed.mapping.channels),
        "eps_identifiability": sensor_axes(xz.reshape(shape + (-1,))),
        "delta_x": sensor_axes(model.p_x().reshape(shape)),
    }
    information = {
        "eps_info": posterior_ratio_budget_direct(pushed.p_gz()),
        "eps_avg_leakage": mutual_information_direct(pushed.p_gz()),
        "eps_mutual_info": mutual_information_direct(xz),
    }
    return neighbors, information


def random_model(rng, s, x_size, q):
    """Strictly positive random model with Dirichlet(1) prior and rows."""
    n_g = 2 ** q
    prior = rng.dirichlet(np.ones(2 * n_g)).reshape(2, n_g)
    conds = tuple(rng.dirichlet(np.ones(x_size), size=(2, n_g)) for _ in range(s))
    return JointModel(s, x_size, q, prior, conds)


def random_suite_mapping(rng, kind, s, x_size, z_size):
    """A mapping of the bound suite's kind 0, 1 or 2, drawn sensor by sensor."""
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


def bound_suite_loop(seed, trials):
    """``relations.check_bound_suite`` as a loop of one ``full_report`` per trial.

    Each trial's model and mapping are drawn object by object, one rng call
    per sensor table, by ``random_model`` and ``random_suite_mapping``, so
    their constructors validate them; each trial's bounds are compared on
    its own report as Python floats.  It shares only ``full_report`` with
    the program, so it checks the table drawing, the stacked audit, the
    grouping by shape and the fold, not the budgets themselves.
    """
    rng = np.random.default_rng(seed)
    worst = {key: -math.inf for key, *_ in relations.BOUND_SPECS}
    vacuous = {key: 0 for key, *_ in relations.BOUND_SPECS}
    for i in range(trials):
        s = int(rng.integers(1, 4))
        x_size = int(rng.integers(2, 6))
        z_size = int(rng.integers(2, 4))
        q = int(rng.integers(1, 3))
        model = random_model(rng, s, x_size, q)
        mapping = random_suite_mapping(rng, i % 4 if i % 4 < 2 else 2, s, x_size, z_size)
        report = full_report(model, mapping)
        for key, lhs_field, rhs_fn, _ in relations.BOUND_SPECS:
            rhs = rhs_fn(report, s, q)
            if math.isinf(rhs):
                vacuous[key] += 1
            else:
                worst[key] = max(worst[key], getattr(report, lhs_field) - rhs)
    ok = all(-math.inf < v <= relations.BOUND_TOL for v in worst.values())
    return relations.BoundSuiteReport(trials, worst, vacuous, ok)


# -- cold two-phase simplex --------------------------------------------------

ColdResult = collections.namedtuple("ColdResult", "x objective")


def cold_solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, tol: float = 1e-9) -> ColdResult:
    """``privdet.simplex.solve_lp`` as it was before it kept a feasible start.

    Every call runs phase 1 from scratch and pivots over the whole tableau,
    so a solve never depends on the calls before it.  The kept-start solver
    must agree with it bit for bit.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    if a_ub.shape != (b_ub.shape[0], n) or a_eq.shape != (b_eq.shape[0], n):
        raise ValueError("constraint shapes do not match the cost vector")

    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    if m == 0:
        # Pure sign-constrained problem: optimum at zero unless some cost
        # coefficient is negative, in which case it is unbounded.
        if np.any(c < -tol):
            raise LPUnbounded("no constraints and a negative cost coefficient")
        return ColdResult(np.zeros(n), 0.0)

    # Columns: n structural, m_ub slacks, then one artificial per row that
    # needs it.  Rows are normalized to b >= 0 first.
    a = np.hstack([np.vstack([a_ub, a_eq]), np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])])
    b = np.concatenate([b_ub, b_eq]).astype(float)
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    basis = np.empty(m, dtype=int)
    needs_art = []
    for i in range(m):
        slack_ok = i < m_ub and not neg[i]
        if slack_ok:
            basis[i] = n + i
        else:
            needs_art.append(i)
    n_art = len(needs_art)
    art_cols = np.zeros((m, n_art))
    for k, i in enumerate(needs_art):
        art_cols[i, k] = 1.0
        basis[i] = n + m_ub + k
    tableau = np.hstack([a, art_cols, b[:, None]])
    total = n + m_ub + n_art

    if n_art:
        cost1 = np.zeros(total)
        cost1[n + m_ub:] = 1.0
        cost_row = _cold_canonical_cost(cost1, tableau, basis)
        cost_row, obj1 = _cold_iterate(tableau, basis, cost_row, total, tol)
        if obj1 > FEAS_TOL:
            raise LPInfeasible(f"phase-1 optimum {obj1:.3e} > 0")
        _cold_drive_out_artificials(tableau, basis, n + m_ub, tol)

    # Phase 2 on structural + slack columns only.
    keep = n + m_ub
    live_rows = [i for i in range(m) if basis[i] < keep]
    tableau = tableau[live_rows][:, list(range(keep)) + [total]]
    basis = basis[live_rows]
    cost2 = np.concatenate([c, np.zeros(m_ub)])
    cost_row = _cold_canonical_cost(cost2, tableau, basis)
    cost_row, _ = _cold_iterate(tableau, basis, cost_row, keep, tol)

    x = np.zeros(keep)
    x[basis] = tableau[:, -1]
    x = x[:n]
    return ColdResult(x, float(c @ x))


def _cold_canonical_cost(cost: np.ndarray, tableau: np.ndarray, basis: np.ndarray) -> np.ndarray:
    row = np.concatenate([cost, [0.0]])
    for i, j in enumerate(basis):
        if abs(row[j]) > 0:
            row = row - row[j] * tableau[i]
    return row


def _cold_iterate(tableau, basis, cost_row, n_cols, tol):
    """Run Bland-rule pivots until optimal; returns (cost_row, objective).

    Entering: lowest-index column with a negative reduced cost.  Leaving:
    among the minimum-ratio rows, the one holding the lowest-index basis
    variable.  Bland's rule is what guarantees termination on the highly
    degenerate programs produced by the ratio-budget polytopes (whose
    right-hand sides are mostly zero).
    """
    max_pivots = 50000 + 200 * (tableau.shape[0] + n_cols)
    for _ in range(max_pivots):
        improving = np.flatnonzero(cost_row[:n_cols] < -tol)
        if improving.size == 0:
            return cost_row, -cost_row[-1]
        entering = int(improving[0])
        col = tableau[:, entering]
        rhs = tableau[:, -1]
        mask = col > PIVOT_EPS
        if not mask.any():
            raise LPUnbounded(f"column {entering} is unbounded")
        ratios = np.full(col.shape, np.inf)
        ratios[mask] = np.maximum(rhs[mask], 0.0) / col[mask]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-12)
        leaving = int(ties[np.argmin(basis[ties])])
        _cold_pivot(tableau, cost_row, leaving, entering)
        basis[leaving] = entering
    raise LPError("pivot limit exceeded")


def _cold_pivot(tableau, cost_row, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row][None, :]
    cost_row -= cost_row[col] * tableau[row]


def _cold_drive_out_artificials(tableau, basis, n_real, tol):
    """Pivot basic artificials onto real columns; redundant rows stay put
    (they are dropped by the caller when still artificial-basic)."""
    for i in range(tableau.shape[0]):
        if basis[i] >= n_real:
            for j in range(n_real):
                if abs(tableau[i, j]) > max(tol, PIVOT_EPS):
                    _cold_pivot(tableau, np.zeros(tableau.shape[1]), i, j)
                    basis[i] = j
                    break
