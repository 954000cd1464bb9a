"""Tests of the empirical solver (EPIC and E-LDP) against independent oracles."""

import ast
import collections
import json
import math
from pathlib import Path

import numpy as np
import pytest

from privdet import channels, epic, metrics, simplex
from privdet.channels import random_mapping
from privdet.model import generate_correlated_model

from _oracles import adversary_risk, masked_logistic, refit_newton

LAM = 0.05
R = 0.9


def _rows(mapping):
    return [ch.rows for ch in mapping.channels]


def _worst_adversary_risk(sol, data):
    return min(adversary_risk(_rows(sol.mapping), data.x, data.g, g, sol.lam)
               for g in data.present_g_values())


@pytest.fixture(scope="module")
def empirical():
    """The benchmark's empirical cell inputs, solved at two local budgets."""
    model = generate_correlated_model(seed=0, s=4, x_size=8)
    train = epic.dataset_from_model(model, 40, 0)
    cfg = epic.EpicConfig(max_sweeps=2)
    sols = {eps: epic.epic_solve(train, eps, R, LAM, cfg) for eps in (0.5, 1.0)}
    return model, train, cfg, sols


@pytest.mark.parametrize("seed,s,x_size,n,z_size", [(1, 3, 5, 12, 2), (4, 2, 4, 60, 3)])
def test_adversary_fit_reaches_the_newton_minimum(seed, s, x_size, n, z_size):
    model = generate_correlated_model(seed=seed, s=s, x_size=x_size)
    data = epic.dataset_from_model(model, n, seed)
    mapping = random_mapping(seed + 1, s, x_size, z_size)
    _, risk = epic.min_adversary_risk(mapping, data, 1, LAM, tol=1e-10, max_iter=20000)
    assert risk == pytest.approx(adversary_risk(_rows(mapping), data.x, data.g, 1, LAM), abs=1e-9)


def test_eldp_and_epic_meet_the_local_budget(empirical):
    _, train, cfg, sols = empirical
    for eps, sol in sols.items():
        assert metrics.ldp_budget(sol.mapping) <= eps + 1e-9
    sol = epic.eldp_solve(train, 0.5, LAM, cfg)
    assert metrics.ldp_budget(sol.mapping) <= 0.5 + 1e-9


def test_reaudited_worst_risk_meets_the_floor(empirical):
    _, train, cfg, sols = empirical
    for sol in sols.values():
        assert _worst_adversary_risk(sol, train) >= R * sol.theta_star - cfg.risk_slack - 1e-9


def test_theta_achieved_is_the_best_adversary_risk(empirical):
    _, train, _, sols = empirical
    for sol in sols.values():
        assert sol.theta_achieved == pytest.approx(_worst_adversary_risk(sol, train), abs=1e-8)


def test_holdout_errors_match_a_loop_over_rows(empirical):
    model, _, _, sols = empirical
    sol = sols[1.0]
    test = epic.dataset_from_model(model, 400, 7)
    z = sol.mapping.sample(test.x, np.random.default_rng(11))

    def score(w, zi):
        return sum(w[t, zt] for t, zt in enumerate(zi))

    wrong_h = sum(int(score(sol.coeffs, z[i]) > 0) != test.h[i] for i in range(test.n))
    err_g = np.inf
    for g, w in sol.adversaries.items():
        rows = [i for i in range(test.n) if test.g[i] in (0, g)]
        wrong = sum((g if score(w, z[i]) > 0 else 0) != test.g[i] for i in rows)
        err_g = min(err_g, wrong / len(rows))
    assert epic.holdout_errors(sol, test, 11) == (wrong_h / test.n, err_g)


def test_solution_is_deterministic():
    model = generate_correlated_model(seed=2, s=3, x_size=4)
    data = epic.dataset_from_model(model, 24, 5)
    cfg = epic.EpicConfig(max_sweeps=2)
    runs = [json.dumps(epic.epic_solve(data, 1.0, R, LAM, cfg).to_dict()) for _ in range(2)]
    assert runs[0] == runs[1]


def _recorded_lps(monkeypatch):
    """The list that gets (variables, inequality rows) of every LP solved from now on."""
    lps = []
    real = channels.solve_lp

    def recorded(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, start=None):
        lps.append((c.size, 0 if a_ub is None else a_ub.shape[0]))
        return real(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, start=start)

    monkeypatch.setattr(channels, "solve_lp", recorded)
    return lps


@pytest.mark.parametrize("eps_ld", [1.0, math.inf])
def test_an_epic_solve_runs_phase_one_once_per_polytope_and_nulled_sensor(eps_ld, monkeypatch):
    """Every LP over a polytope alone, or with adversary rows added, starts from the polytope's
    phase 1, at a finite budget and at inf; only the moment-nulled LPs (which add equality
    rows) and ratio-tie fallbacks run phase 1 cold."""
    channels._polytope.cache_clear()
    cold, real = [], simplex._phase_one

    def counted(*args):
        cold.append(1)
        return real(*args)

    monkeypatch.setattr(simplex, "_phase_one", counted)
    lps = _recorded_lps(monkeypatch)
    data = epic.dataset_from_model(generate_correlated_model(seed=0, s=4, x_size=8), 40, 0)
    epic.epic_solve(data, eps_ld, R, LAM, epic.EpicConfig(max_sweeps=2))
    assert len(lps) == 28
    assert len(cold) <= 10


@pytest.mark.parametrize("solver", ["epic", "e-ldp"])
def test_an_infinite_local_budget_solves_without_ratio_rows(solver, monkeypatch):
    """At eps_ld = inf the LPs carry no envelope columns and no ratio rows, only the extra rows."""
    model = generate_correlated_model(seed=3, s=2, x_size=4)
    data = epic.dataset_from_model(model, 30, 1)
    cfg = epic.EpicConfig(max_sweeps=2)
    lps = _recorded_lps(monkeypatch)
    if solver == "epic":
        sol = epic.epic_solve(data, math.inf, R, LAM, cfg)
        assert _worst_adversary_risk(sol, data) >= R * sol.theta_star - cfg.risk_slack - 1e-9
        assert sol.theta_achieved == pytest.approx(_worst_adversary_risk(sol, data), abs=1e-8)
    else:
        sol = epic.eldp_solve(data, math.inf, LAM, cfg)
    n_entries, n_extra = data.x_size * 2, len(data.present_g_values())  # one row per adversary
    assert lps and all(n == n_entries and rows <= n_extra for n, rows in lps)
    for rows in _rows(sol.mapping):
        assert rows.min() >= 0.0 and np.allclose(rows.sum(axis=1), 1.0)
    assert sol.eps_ld == math.inf


def test_eldp_and_epic_share_one_eldp_start(empirical, monkeypatch):
    """E-LDP's channels are the start EPIC descends from, made once per solve by one helper."""
    _, train, cfg, _ = empirical
    starts = []
    real = epic._eldp_start

    def recorded(*args):
        out = real(*args)
        starts.append([ch.rows.copy() for ch in out.mapping.channels])
        return out

    monkeypatch.setattr(epic, "_eldp_start", recorded)
    sol = epic.eldp_solve(train, 1.0, LAM, cfg)
    epic.epic_solve(train, 1.0, R, LAM, cfg)
    assert len(starts) == 2
    for start, rows, again in zip(starts[0], _rows(sol.mapping), starts[1]):
        assert np.array_equal(start, rows) and np.array_equal(start, again)


def test_only_the_descent_holds_the_empirical_sweep_loop():
    """No function of ``epic`` but ``_descend`` reads CONVERGENCE_TOL or takes a block step."""
    tree = ast.parse(Path(epic.__file__).read_text(encoding="utf-8"))
    holders = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "CONVERGENCE_TOL":
                holders.add((fn.name, "CONVERGENCE_TOL"))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_channel_step":
                holders.add((fn.name, "_channel_step"))
    assert holders == {("_descend", "CONVERGENCE_TOL"), ("_descend", "_channel_step")}


@pytest.mark.parametrize("move, sweeps, n_yields", [(0.0, 5, 2), (1.0, 3, 4)])
def test_descend_yields_the_start_then_one_solution_per_sweep(monkeypatch, move, sweeps, n_yields):
    """A sweep that moves nothing ends the descent; otherwise it runs to the sweep cap."""
    model = generate_correlated_model(seed=2, s=3, x_size=4)
    data = epic.dataset_from_model(model, 24, 5)
    start = list(random_mapping(3, data.s, data.x_size, epic.Z_SIZE).channels)
    steps = []

    def step(chans, t, *args):
        steps.append(t)
        return move

    monkeypatch.setattr(epic, "_channel_step", step)
    sols = list(epic._descend(data, start, 1.0, LAM, sweeps, -math.inf, -math.inf, 0.7, R))
    assert len(sols) == n_yields
    assert steps == list(range(data.s)) * (n_yields - 1)
    want = epic._solution(data, start, LAM, 1.0, 0.7, R)
    assert json.dumps(sols[0].to_dict()) == json.dumps(want.to_dict())


def test_eldp_linear_programs_carry_only_the_ratio_rows(monkeypatch):
    """At a finite eps_ld E-LDP has no adversary: its LPs hold the local-budget polytope alone,
    one ratio row per channel entry over the entries and the per-output floors."""
    model = generate_correlated_model(seed=3, s=2, x_size=4)
    data = epic.dataset_from_model(model, 30, 1)
    lps = _recorded_lps(monkeypatch)
    epic.eldp_solve(data, 1.0, LAM, epic.EpicConfig(max_sweeps=2))
    n_entries = data.x_size * epic.Z_SIZE
    assert lps and set(lps) == {(n_entries + epic.Z_SIZE, n_entries)}


@pytest.mark.parametrize("max_sweeps", [1, 2, 5])
def test_eldp_fits_the_classifier_once_per_iterate_and_each_adversary_once(monkeypatch, max_sweeps):
    model = generate_correlated_model(seed=0, s=4, x_size=8)
    data = epic.dataset_from_model(model, 40, 0)
    fitted = []
    real = epic._fit

    def recorded(dataset, chans, lam, g=None, *args):
        fitted.append(g)
        return real(dataset, chans, lam, g, *args)

    monkeypatch.setattr(epic, "_fit", recorded)
    epic.eldp_solve(data, 1.0, LAM, epic.EpicConfig(max_sweeps=max_sweeps))
    assert 2 <= fitted.count(None) <= max_sweeps + 1
    assert data.present_g_values()
    assert [g for g in fitted if g is not None] == data.present_g_values()


def test_the_empirical_solvers_read_no_output_size():
    """Every learned channel is binary by the one constant ``Z_SIZE``: no function
    of the module takes an output size or reads one from a channel."""
    tree = ast.parse(Path(epic.__file__).read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.arg for n in ast.walk(tree) if isinstance(n, ast.arguments) for a in n.args}
    assert "z_size" not in names
    assert epic.Z_SIZE == 2


def test_theta_star_is_the_better_audited_capped_start():
    """Step (i) returns the higher audited floor of its two capped starts, here log 2:
    the better start leaves no adversary better than a coin."""
    model = generate_correlated_model(seed=4, s=4, x_size=8)
    data = epic.dataset_from_model(model, 40, 0)
    eps_ld = 3.0
    sol = epic.epic_solve(data, eps_ld, R, LAM)
    eldp_chans = epic._eldp_start(data, eps_ld, LAM, epic.EpicConfig()).mapping.channels
    f_eldp = epic._fit(data, eldp_chans, LAM)[1]
    f_cap = f_eldp + epic.UTILITY_SLACK * (epic.LOG2 - f_eldp)
    uniform = list(channels.uniform_mapping(data.s, data.x_size, epic.Z_SIZE).channels)
    floors = [
        epic._fit_adversaries(data, epic._capped_path_point(data, src, eldp_chans, f_cap, LAM), LAM)[1]
        for src in (uniform, epic._moment_nulled_channels(data, eps_ld))
    ]
    assert sol.theta_star == max(floors)
    assert max(floors) == pytest.approx(math.log(2), abs=1e-9)



@pytest.mark.parametrize("data_seed", [0, 1, 2])
def test_step_ii_audits_the_step_i_start_at_theta_star_exactly(data_seed):
    """Step (ii)'s first audit of the step-(i) start fits the adversaries step (i) fitted, so
    it reads theta_star bit for bit and clears every floor r * theta_star - risk_slack, r < 1."""
    model = generate_correlated_model(seed=0, s=4, x_size=8)
    data = epic.dataset_from_model(model, 40, data_seed)
    for eps_ld in (0.5, 1.0):
        eldp_chans = epic._eldp_start(data, eps_ld, LAM, epic.EpicConfig()).mapping.channels
        f_eldp = epic._fit(data, eldp_chans, LAM)[1]
        nulled = epic._moment_nulled_channels(data, eps_ld)
        chans_i, theta_star = epic._risk_floor_search(data, eldp_chans, nulled, f_eldp, LAM)
        sol = epic._solution(data, list(chans_i), LAM, eps_ld, theta_star, R)
        assert sol.theta_achieved == theta_star

def _capped_path_point_loop(dataset, from_chans, to_chans, f_cap, lam):
    """The capped-path bisection over channel objects: each point made by ``_blend``
    and refit by ``_fit``, and the returned point refit once more."""

    def f_at(beta):
        chans = epic._blend(from_chans, to_chans, beta)
        return epic._fit(dataset, chans, lam)[1], chans

    obj0, chans0 = f_at(0.0)
    if obj0 <= f_cap:
        return chans0
    lo, hi = 0.0, 1.0
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if f_at(mid)[0] <= f_cap:
            hi = mid
        else:
            lo = mid
    return f_at(hi)[1]


@pytest.mark.parametrize("seed", range(4))
def test_the_capped_path_point_is_the_channel_object_loop_bit_for_bit(seed, monkeypatch):
    """At the cap of the path's start (no bisection), at caps that bisect toward its end, and
    at caps equal to the fit's objective at the midpoints 0.5 and 0.75, which no certificate
    can decide: there the cold fit decides, and both branches are taken."""
    decided = collections.Counter()
    certified = epic._certified_below

    def counted(*args):
        below, w = certified(*args)
        decided[below is not None] += 1
        return below, w

    monkeypatch.setattr(epic, "_certified_below", counted)
    model = generate_correlated_model(seed=seed, s=3, x_size=5)
    for n_train in (12, 40, 400):
        decided.clear()
        data = epic.dataset_from_model(model, n_train, seed)
        ends = [list(random_mapping(seed + k, data.s, data.x_size, epic.Z_SIZE).channels) for k in (10, 20)]
        ends.sort(key=lambda chans: -epic._fit(data, chans, LAM)[1])  # the path starts at the worse
        f_start, f_end = (epic._fit(data, chans, LAM)[1] for chans in ends)
        assert f_start > f_end
        f_mid = [epic._fit(data, epic._blend(*ends, beta), LAM)[1] for beta in (0.5, 0.75)]
        for cap in (f_start, f_end, 0.5 * (f_start + f_end), 0.9 * f_start + 0.1 * f_end, *f_mid):
            got = epic._capped_path_point(data, *ends, cap, LAM)
            want = _capped_path_point_loop(data, *ends, cap, LAM)
            assert [ch.rows.tobytes() for ch in got] == [ch.rows.tobytes() for ch in want]
        assert decided[True] > 0 and decided[False] > 0, n_train


@pytest.mark.parametrize("eps_ld, cold_fits", [(0.5, 36), (1.0, 35)])
def test_an_epic_solve_fits_cold_only_where_no_certificate_decides(eps_ld, cold_fits, monkeypatch):
    """The benchmark's empirical inputs: each of step (i)'s two bisections makes 26 cap
    tests, every one a certificate, and the cold fits are the solutions' and the fallbacks'."""
    calls = collections.Counter()
    for name in ("_newton_fit", "_certified_below"):
        def counted(*args, _real=getattr(epic, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(epic, name, counted)
    model = generate_correlated_model(seed=0, s=4, x_size=8)
    epic.epic_solve(epic.dataset_from_model(model, 40, 0), eps_ld, R, LAM, epic.EpicConfig(max_sweeps=2))
    assert calls == {"_newton_fit": cold_fits, "_certified_below": 2 * 26}


def _fit_problems(count, seed=0):
    """Random fit problems shaped like the solvers': pushed features of random channels
    (s 1-4, x 2-8, z 2-3), the public weights 1/n or an adversary's class-balanced ones
    (zero off its two classes), separable labels in a third, and n 4000 every tenth."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = 4000 if k % 10 == 0 else int(rng.choice([3, 12, 40, 400]))
        s, x_size, z_size = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(2, 4))
        x = rng.integers(0, x_size, (n, s))
        phi = np.hstack([rng.dirichlet(np.ones(z_size), x_size)[x[:, t]] for t in range(s)])
        labels = (phi @ rng.normal(size=phi.shape[1]) > 0) if k % 3 == 0 else rng.integers(0, 2, n)
        if k % 2:
            labels = np.where(rng.random(n) < 0.2, 2, labels)  # rows of neither class
            labels[:2] = 0, 1
            weights, signs = np.zeros(n), np.zeros(n)
            for cls, sign in ((0, -1.0), (1, 1.0)):
                weights[labels == cls] = 0.5 / np.count_nonzero(labels == cls)
                signs[labels == cls] = sign
        else:
            weights, signs = np.full(n, 1.0 / n), np.where(labels == 1, 1.0, -1.0)
        yield phi, signs, weights, float(rng.choice([1e-3, 0.05, 1.0]))


def test_the_newton_fit_is_the_plain_kernel_byte_for_byte():
    for phi, signs, weights, lam in _fit_problems(220):
        w, obj = epic._newton_fit(phi, signs, weights, lam)
        ref_w, ref_obj = refit_newton(phi, signs, weights, lam)
        assert w.tobytes() == ref_w.tobytes()
        assert np.float64(obj).tobytes() == np.float64(ref_obj).tobytes()


def test_the_logistic_is_the_masked_form_byte_for_byte():
    ends = np.array([0.0, 1e-300, 30.0, 745.0, 1e308])
    u = np.concatenate([ends, -ends, np.random.default_rng(0).normal(0.0, 40.0, 1001)])
    assert epic._logistic(u).tobytes() == masked_logistic(u).tobytes()
    for v in np.concatenate([ends, -ends]):  # each value alone, as a one-entry array
        one = np.array([v])
        assert epic._logistic(one).tobytes() == masked_logistic(one).tobytes()


def test_a_certificate_decides_as_the_cold_fit_would():
    """Caps within a few CERTIFY_MARGIN of the cold objective, and far from it, from a cold
    and from a warm start: every decided answer is the cold fit's."""
    outcomes = collections.Counter()
    for phi, signs, weights, lam in _fit_problems(60, seed=1):
        w_star, obj = epic._newton_fit(phi, signs, weights, lam)
        for offset in (-1e-2, -3e-9, -1e-10, 0.0, 1e-10, 3e-9, 1e-2):
            for w in (np.zeros(phi.shape[1]), w_star * 0.9):
                below, _ = epic._certified_below(phi, signs, weights, lam, obj + offset, w)
                outcomes[below] += 1
                assert below is None or below == (obj <= obj + offset)
    assert outcomes[True] and outcomes[False] and outcomes[None]


def test_the_risk_floor_search_solves_no_lp():
    """Step (i) audits its capped starts; it takes no block step and refits no solution."""
    tree = ast.parse(Path(epic.__file__).read_text(encoding="utf-8"))
    (search,) = [n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_risk_floor_search"]
    called = {n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
              for n in ast.walk(search) if isinstance(n, ast.Call)}
    assert not called & {"_channel_step", "solve_channel_lp", "_solution"}


@pytest.mark.parametrize("max_sweeps", [0, -1, 1.5])
def test_epic_config_needs_at_least_one_sweep(max_sweeps):
    with pytest.raises(ValueError, match="'max_sweeps' must be an integer of at least 1"):
        epic.EpicConfig(max_sweeps=max_sweeps)
    assert epic.EpicConfig(max_sweeps=np.int64(1)).max_sweeps == 1


@pytest.mark.parametrize("eps", [math.nan, -0.5])
def test_solvers_reject_a_nan_or_negative_local_budget(empirical, eps):
    _, train, cfg, _ = empirical
    with pytest.raises(ValueError, match="eps_ld must be nonnegative"):
        epic.epic_solve(train, eps, R, LAM, cfg)
    with pytest.raises(ValueError, match="eps_ld must be nonnegative"):
        epic.eldp_solve(train, eps, LAM, cfg)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_solvers_reject_a_regularization_weight_that_is_not_positive(empirical, lam):
    _, train, cfg, _ = empirical
    with pytest.raises(ValueError, match="^lam must be positive$"):
        epic.epic_solve(train, 1.0, R, lam, cfg)
    with pytest.raises(ValueError, match="^lam must be positive$"):
        epic.eldp_solve(train, 1.0, lam, cfg)


# -- discretization ----------------------------------------------------------------


def _symbols_loop(edges, table):
    """Per value, the number of its column's edges below it."""
    return np.array([[sum(e < v for e in edges[j]) for j, v in enumerate(row)] for row in table])


@pytest.mark.parametrize("bins", [2, 4])
def test_discretize_bins_by_training_quantiles(bins):
    rng = np.random.default_rng(bins)
    # a continuous column and one with ties, so values land exactly on edges
    train = np.column_stack([rng.normal(size=41), rng.integers(0, 5, size=41)]).astype(float)
    test = np.column_stack([rng.normal(size=30) * 2, rng.integers(-1, 7, size=30)]).astype(float)
    sym, edges = epic.discretize(train, bins)
    want = [np.quantile(train[:, j], np.arange(1, bins) / bins) for j in range(2)]
    assert all(np.array_equal(e, w) for e, w in zip(edges, want))
    assert np.array_equal(sym, _symbols_loop(want, train))
    test_sym, test_edges = epic.discretize(test, bins, edges=edges)
    assert test_edges is edges
    assert np.array_equal(test_sym, _symbols_loop(want, test))
    assert sym.dtype == np.int64 and sym.min() >= 0 and test_sym.max() <= bins - 1


def test_discretize_constant_column_is_one_symbol():
    train = np.column_stack([np.full(6, 2.5), np.arange(6.0)])
    with pytest.warns(UserWarning, match="column 0 is constant"):
        sym, edges = epic.discretize(train, 3)
    assert edges[0].size == 0
    assert np.array_equal(sym[:, 0], np.zeros(6))
    test_sym, _ = epic.discretize(np.array([[-1.0, 0.0], [9.0, 5.0]]), 3, edges=edges)
    assert np.array_equal(test_sym[:, 0], [0, 0])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_discretize_bins_an_infinite_block_apart(sign):
    """25 of 60 values at +inf (or -inf) fill a quantile: they take the end bin, alone."""
    rng = np.random.default_rng(7)
    col = rng.permutation(np.concatenate([rng.normal(size=35), np.full(25, math.inf)])) * sign
    sym, (edges,) = epic.discretize(col[:, None], 3)
    assert not np.isnan(edges).any()
    assert np.array_equal(sym, _symbols_loop([edges], col[:, None]))
    end = 2 if sign > 0 else 0
    assert np.array_equal(sym[:, 0] == end, np.isinf(col))
    assert np.array_equal(np.bincount(sym[:, 0], minlength=3), [20, 15, 25][::int(sign)])
    finite = col[np.isfinite(col)]
    inner = np.quantile(col, 1 / 3 if sign > 0 else 2 / 3)  # between two finite values
    assert edges.tolist() == ([inner, finite.max()] if sign > 0 else [-math.inf, inner])


#: Newton steps a fit or a certificate may take on the case below: every fit
#: there has stopped within 3 steps since the stop tests read the objective's
#: rounding error, where one fit in eight ran all FIT_MAX_ITER steps before.
MAX_NEWTON_STEPS = 6


def test_no_newton_fit_steps_below_the_objectives_rounding_error(monkeypatch):
    """At n_train 4000 the objective sums 4000 terms, and a fit that stops only at
    gradient norm FIT_TOL takes steps whose decrease its rounding error hides.  The case
    makes 37 cold fits; step (i)'s 52 cap tests are certificates, which no fit counts."""
    steps = {"_newton_fit": [], "_certified_below": []}
    evaluations = {"_newton_fit": 0, "_certified_below": 0}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            evaluations[name] += 1
            return real(*args, **kwargs)
        return wrapped

    # a fit evaluates its gradient once per step and once more to stop; a
    # certificate evaluates its objective once per iterate
    monkeypatch.setattr(epic, "_sigmoid", counting("_newton_fit", epic._sigmoid))
    monkeypatch.setattr(epic, "_logistic", counting("_certified_below", epic._logistic))
    for name in steps:
        def stepped(*args, _name=name, _real=getattr(epic, name), **kwargs):
            evaluations[_name] = 0
            out = _real(*args, **kwargs)
            steps[_name].append(evaluations[_name] - 1)
            return out
        monkeypatch.setattr(epic, name, stepped)
    model = generate_correlated_model(seed=0, s=4, x_size=8)
    epic.epic_solve(epic.dataset_from_model(model, 4000, 0), 0.5, R, LAM)
    assert len(steps["_newton_fit"]) == 37
    assert len(steps["_certified_below"]) == 52
    assert max(max(s) for s in steps.values()) <= MAX_NEWTON_STEPS
