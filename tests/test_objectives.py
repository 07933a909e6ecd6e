import dataclasses

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import minimize
from scipy.stats import chi2

from dmsgd.objectives import (
    StochasticOracle,
    UnifiedObjective,
    _lbfgs_multistart,
    agent_total,
    common_optimum,
    estimate_pl_constant,
    make_logistic,
    make_pl,
    make_quadratic,
    make_synthetic_dataset,
    partition_iid,
    partition_noniid,
    stochastic_grad,
    unified_optimum,
)
from dmsgd.bounds import BoundInputs
from dmsgd.harness import check_scenario, load_dataset_csv, parse_config_text
from dmsgd.optimizer import HyperParams, run
from dmsgd.topology import build_topology, metropolis_mixing, spectrum
from oracles import finite_diff_grad
from test_harness import MINIBATCH_SWEEP
from test_pins import CONFIGS as PIN_CONFIGS


def central_diff_ok(suite, j, points, rel=1e-5, h=1e-6):
    """Agent j's evaluated gradient matches central differences of its evaluated value."""
    for x in points:
        est = finite_diff_grad(lambda v: suite.evaluate(v)[0][j], x, h)
        g = suite.evaluate(x)[1][j]
        denom = max(np.linalg.norm(g), 1.0)
        if np.linalg.norm(est - g) / denom > rel:
            return False
    return True


def test_agent_total_adds_in_agent_order():
    # np.sum adds these 16 values pairwise and lands on a different last bit
    vals = np.random.default_rng(1).normal(size=16)
    assert agent_total(vals) == sum(vals.tolist()) != np.sum(vals)
    rows = np.random.default_rng(2).normal(size=(16, 3))
    assert np.array_equal(agent_total(rows), sum(list(rows)))


def running_total(per_agent):
    total = 0.0
    for term in per_agent:
        total = total + term
    return total


def extreme_values(rng, shape):
    """Signed magnitudes from 1e-300 to 1e300, with signed zeros and infinities mixed in."""
    vals = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    special = rng.choice([0.0, -0.0, np.inf, -np.inf], size=shape)
    return np.where(rng.random(shape) < 0.02, special, vals)


@pytest.mark.parametrize("width", [None, 10, 2001])
def test_agent_total_matches_the_running_sum_bit_for_bit(width):
    rng = np.random.default_rng(width or 0)
    sizes = range(1, 1001) if width is None else [1, 2, 3, 7, 8, 9, 16, 17, 64, 129, 1000]
    with np.errstate(invalid="ignore", over="ignore"):
        for n in sizes:
            shape = (n,) if width is None else (n, width)
            for per_agent in (extreme_values(rng, shape), np.full(shape, -0.0)):
                fast, slow = agent_total(per_agent), running_total(per_agent)
                assert type(fast) is type(slow) and np.asarray(fast).tobytes() == np.asarray(slow).tobytes()


# ---------------------------------------------------------------- quadratic


def test_quadratic_two_agent_optimum():
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1.0])
    assert suite.x_star == pytest.approx([1.0])
    assert suite.f_star == pytest.approx(1.0)  # 0.5*(1)^2 + 0.5*(1)^2
    assert suite.l_m == 1.0 and suite.mu_m == 1.0


def test_quadratic_single_agent():
    suite = make_quadratic([[3.0, -1.0]], [2.0])
    assert suite.x_star == pytest.approx([3.0, -1.0])
    assert suite.f_star == pytest.approx(0.0)


def test_quadratic_gradient_zero_at_target():
    suite = make_quadratic([[1.0, 2.0], [0.0, 0.0]], [1.0, 3.0])
    assert np.allclose(suite.evaluate([1.0, 2.0])[1][0], 0.0)
    assert np.allclose(suite.evaluate([0.0, 0.0])[1][1], 0.0)


def test_quadratic_rejects_nonpositive_curvature():
    with pytest.raises(ValueError):
        make_quadratic([[0.0]], [0.0])


def test_per_agent_constants_take_one_or_n_values():
    with pytest.raises(ValueError, match="curvatures need 1 or 3 values, got 2"):
        make_quadratic([[0.0], [1.0], [2.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="shifts need 1 or 3 values, got 2"):
        make_pl(3, shifts=[0.0, 1.0])


def test_quadratic_finite_differences():
    rng = np.random.default_rng(0)
    suite = make_quadratic(rng.normal(size=(3, 4)), [0.5, 1.0, 2.0])
    pts = rng.normal(size=(32, 4))
    for j in range(3):
        assert central_diff_ok(suite, j, pts)


def test_quadratic_common_stationarity():
    rng = np.random.default_rng(1)
    suite = make_quadratic(rng.normal(size=(4, 2)), [1.0, 2.0, 0.5, 3.0])
    assert np.linalg.norm(agent_total(suite.evaluate(suite.x_star)[1])) <= 1e-8


# ---------------------------------------------------------------- PL family


def test_pl_minimum_at_shift():
    suite = make_pl(1)
    assert suite.evaluate([0.0])[0][0] == pytest.approx(0.0)
    assert suite.evaluate([0.0])[1][0] == pytest.approx([0.0])
    shifted = make_pl(2, shifts=1.5)
    assert shifted.evaluate([1.5])[0][0] == pytest.approx(0.0)
    assert shifted.f_star == pytest.approx(0.0)


def test_pl_smoothness_constant():
    # oracle: max |f''| over a fine grid equals the declared 8
    x = np.arange(-10, 10, 1e-4)
    assert np.abs(2 + 6 * np.cos(2 * x)).max() == pytest.approx(8.0, abs=1e-6)
    assert make_pl(1).l_m == 8.0


def test_pl_constant_grid_value():
    # frozen from the independent grid oracle: min of g^2/(2 f) on
    # [-10, 10) step 1e-3 is 0.17553 at x ~ 2.202 (not the conservative
    # 1/32 sometimes quoted for this family)
    suite = make_pl(1)
    assert suite.pl_constant == pytest.approx(0.1755310956972124, abs=1e-9)
    # agent-count invariance of the estimator
    assert make_pl(3).pl_constant == pytest.approx(suite.pl_constant, abs=1e-12)


def test_pl_nonconvexity():
    # second derivative 2 + 6 cos 2x is negative around x = pi/2
    x = np.pi / 2
    assert 2 + 6 * np.cos(2 * x) < 0


def test_pl_finite_differences():
    suite = make_pl(2, shifts=[0.3, -0.7])
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(32, 1))
    for j in range(2):
        assert central_diff_ok(suite, j, pts)


def summed_mean(suite):
    """The mean local objective of a scalar suite and its derivative, as agent-order sums of ``suite.evaluate``."""
    def mean(x):
        values, grads = suite.evaluate(np.asarray(x, dtype=float).reshape(-1, 1, 1))  # every agent at each point
        return agent_total(values.T) / suite.n, agent_total(grads[..., 0].T) / suite.n
    return mean


def test_estimate_pl_identities():
    grid = np.arange(-5.0, 5.0, 1e-2)
    half_sq = make_quadratic([[0.0]], [1.0])
    assert estimate_pl_constant(summed_mean(half_sq), half_sq.f_star, grid) == pytest.approx(1.0, abs=1e-12)
    scaled = make_quadratic([[0.0]], [0.3])
    assert estimate_pl_constant(summed_mean(scaled), scaled.f_star, grid) == pytest.approx(0.3, abs=1e-12)


def test_estimate_pl_dominates_mu_m():
    grid = np.arange(-6.0, 6.0, 1e-2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.uniform(0.2, 3.0, size=3)
        t = rng.normal(size=(3, 1))
        suite = make_quadratic(t, a)
        assert estimate_pl_constant(summed_mean(suite), suite.f_star / suite.n, grid) >= suite.mu_m - 1e-9


def test_estimate_pl_empty_grid():
    with pytest.raises(ValueError, match="empty grid"):
        estimate_pl_constant(make_pl(1).params["mean"], 0.0, np.array([]))


def random_shifts(n):
    """Seeded PL shifts, uniform on [-1, 1), for n agents."""
    return np.random.default_rng(n).uniform(-1.0, 1.0, size=n)


@pytest.mark.parametrize("n", [1, 3, 16, 256])
def test_pl_closed_form_matches_the_agent_sum(n):
    """The closed-form mean and its PL constant match the per-agent sums over the suite's grid."""
    shifts = 0.3 if n == 1 else random_shifts(n)
    suite = make_pl(n, shifts=shifts)
    grid = agent_total(suite.params["shifts"][:, 0]) / n + np.arange(-10.0, 10.0, 1e-3)
    fbar, gbar, _ = suite.params["mean"](grid)
    fsum, gsum = summed_mean(suite)(grid)
    assert (np.abs(fbar - fsum) <= 1e-13 * (1.0 + np.abs(fbar))).all()
    assert (np.abs(gbar - gsum) <= 1e-13 * (1.0 + np.abs(fbar))).all()
    gap = fsum - suite.f_star / n
    away = gap > 1e-12
    oracle = np.min(gsum[away] ** 2 / (2.0 * gap[away]))
    assert suite.pl_constant == pytest.approx(oracle, rel=1e-12, abs=0.0)


# the shifts of the pinned 4-agent PL config, then seeded shift sets of 3 to 256 agents
@pytest.mark.parametrize("shifts", [[-0.6, -0.2, 0.3, 0.8]] + [random_shifts(n) for n in (3, 16, 64, 256)],
                         ids=lambda s: f"n{len(s)}")
def test_pl_common_optimum_is_stationary(shifts):
    suite = make_pl(len(shifts), shifts=shifts)
    assert abs(agent_total(suite.evaluate(suite.x_star)[1])[0]) <= 1e-12 * suite.n
    assert suite.f_star == agent_total(suite.evaluate(suite.x_star)[0])


@pytest.mark.parametrize("n, shifts", [(1, 0.0), (3, [-0.5, 0.0, 0.5]), (4, [-0.6, -0.2, 0.3, 0.8])])
def test_pl_constant_ignores_a_common_offset(n, shifts):
    """Moving every shift by 50 moves the grid with them: the PL constant and the optimum's value stay."""
    near, far = make_pl(n, shifts=shifts), make_pl(n, shifts=np.asarray(shifts) + 50.0)
    assert far.pl_constant == pytest.approx(near.pl_constant, rel=1e-9, abs=0.0)
    assert far.f_star == pytest.approx(near.f_star, rel=1e-9, abs=1e-12)
    assert far.x_star[0] - 50.0 == pytest.approx(near.x_star[0], abs=1e-9)


# ---------------------------------------------------------------- datasets


def test_synthetic_dataset_deterministic():
    a = make_synthetic_dataset(7, 100, 3, 2)
    b = make_synthetic_dataset(7, 100, 3, 2)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = make_synthetic_dataset(8, 100, 3, 2)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_dataset_balanced():
    ds = make_synthetic_dataset(0, 101, 4, 3)
    counts = np.bincount(ds.labels)
    assert counts.max() - counts.min() <= 1


def test_synthetic_dataset_separable():
    # train a reference logistic model; 4-sigma separation should classify
    # > 95% of the training set
    ds = make_synthetic_dataset(1, 200, 4, 2)
    y = np.where(ds.labels == 0, -1.0, 1.0)

    def loss(w):
        z = y * (ds.features @ w)
        return np.mean(np.logaddexp(0, -z))

    res = minimize(loss, np.zeros(4), method="L-BFGS-B")
    acc = np.mean(np.sign(ds.features @ res.x) == y)
    assert acc > 0.95


def test_partition_iid_sizes_and_cover():
    ds = make_synthetic_dataset(2, 100, 3, 2)
    parts = partition_iid(ds, 4, seed=0)
    assert [len(p) for p in parts] == [25, 25, 25, 25]
    merged = np.concatenate(parts)
    assert len(np.unique(merged)) == 100


def test_partition_iid_label_balance_chi2():
    ds = make_synthetic_dataset(3, 400, 3, 4)
    parts = partition_iid(ds, 4, seed=1)
    global_frac = np.bincount(ds.labels, minlength=4) / 400
    for p in parts:
        obs = np.bincount(ds.labels[p], minlength=4)
        exp = global_frac * len(p)
        stat = np.sum((obs - exp) ** 2 / exp)
        assert stat < chi2.ppf(0.999, df=3)


def test_partition_noniid_two_classes_two_agents():
    ds = make_synthetic_dataset(4, 100, 3, 2)
    parts = partition_noniid(ds, 2)
    assert set(ds.labels[parts[0]]) == {0}
    assert set(ds.labels[parts[1]]) == {1}


def test_partition_noniid_chunked_unique_labels():
    ds = make_synthetic_dataset(5, 200, 3, 10)
    parts = partition_noniid(ds, 5)
    seen = []
    for p in parts:
        labs = set(ds.labels[p].tolist())
        assert len(labs) == 2
        seen.append(labs)
    # chunks are disjoint in label space
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert not (seen[i] & seen[j])
    merged = np.concatenate(parts)
    assert len(np.unique(merged)) == 200


def test_partition_too_many_agents():
    ds = make_synthetic_dataset(6, 5, 2, 2)
    with pytest.raises(ValueError):
        partition_iid(ds, 6, seed=0)
    with pytest.raises(ValueError):
        partition_noniid(ds, 6)


def test_dataset_csv_roundtrip(tmp_path):
    ds = make_synthetic_dataset(9, 30, 3, 2)
    path = tmp_path / "data.csv"
    text = "x0,x1,x2,label\n" + "".join(",".join(map(repr, row)) + f",{label}\n"
                                       for row, label in zip(ds.features.tolist(), ds.labels))
    for newline in ("\n", "\r\n"):  # LF and CRLF files load to the same bits
        path.write_text(text, encoding="utf-8", newline=newline)
        back = load_dataset_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


# ---------------------------------------------------------------- logistic


def logistic_fixture(seed=0, reg=0.1):
    ds = make_synthetic_dataset(seed, 80, 3, 2)
    return make_logistic(ds, partition_iid(ds, 4, seed=seed), reg=reg)


def test_logistic_zero_weight_loss():
    ds = make_synthetic_dataset(0, 8, 2, 2)
    suite = make_logistic(ds, [np.array([i]) for i in range(8)], reg=0.0)
    values = suite.evaluate(np.zeros(2))[0]
    for j in range(8):
        assert values[j] == pytest.approx(np.log(2.0))


def test_logistic_declared_constants():
    suite = logistic_fixture(reg=0.1)
    assert suite.mu_m == pytest.approx(0.1)
    assert suite.l_m > 0.1


def test_logistic_finite_differences():
    suite = logistic_fixture()
    rng = np.random.default_rng(4)
    pts = rng.normal(scale=0.5, size=(32, 3))
    for j in range(suite.n):
        assert central_diff_ok(suite, j, pts)


def test_dataset_is_frozen():
    """A dataset is built whole: its agents' rows are make_logistic's argument, never a field set afterwards."""
    ds = make_synthetic_dataset(0, 8, 2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.labels = np.zeros(8, dtype=int)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.partitions = partition_iid(ds, 2, seed=0)


def test_dataset_compares_by_identity():
    """Two datasets built alike are two records: == is identity and each hashes, where comparing the feature
    arrays would raise."""
    a, b = make_synthetic_dataset(0, 8, 2, 2), make_synthetic_dataset(0, 8, 2, 2)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_logistic_empty_partition_rejected():
    ds = make_synthetic_dataset(0, 10, 2, 2)
    with pytest.raises(ValueError, match="non-empty"):
        make_logistic(ds, [np.arange(10), np.array([], dtype=int)])


def _per_agent_logistic(ds, partitions, reg):
    """Reference logistic suite with one matvec per agent over its own partition."""
    ys = np.where(ds.labels == 0, -1.0, 1.0)
    parts = [(ds.features[p], ys[p]) for p in partitions]

    def grad(xs, yy, w):
        with np.errstate(over="ignore"):
            coef = -yy / (1.0 + np.exp(yy * (xs @ w)))
        return xs.T @ coef / len(yy) + reg * w

    def values(W):
        return np.array([np.mean(np.logaddexp(0.0, -yy * (xs @ w))) + 0.5 * reg * np.dot(w, w)
                         for (xs, yy), w in zip(parts, W)])

    def grads(W):
        return np.stack([grad(xs, yy, w) for (xs, yy), w in zip(parts, W)])

    def draws(W, exact, batch, rngs):
        out = exact.copy()
        for j, ((xs, yy), rng) in enumerate(zip(parts, rngs)):
            if batch < len(yy):
                idx = rng.choice(len(yy), size=batch, replace=False)
                out[j] = grad(xs[idx], yy[idx], W[j])
        return out

    return values, grads, draws


@pytest.mark.parametrize("samples,classes,parts,lengths", [
    (61, 3, 4, {16, 15}),  # ragged iid: agent 0 has one sample more
    (401, 2, 16, {26, 25}),
    (45, 3, 3, {15}),
    # hand-made partitions: agents 1 and 3 share a length, agent 0 is unsorted
    (14, 3, [[0, 5, 9, 13, 2, 7], [1, 3, 4], [6], [8, 10, 12]], {1, 3, 6}),
])
def test_logistic_stacked_matches_per_agent_reference(samples, classes, parts, lengths):
    ds = make_synthetic_dataset(5, samples, 3, classes)
    partitions = partition_iid(ds, parts, seed=1) if isinstance(parts, int) else [np.array(p) for p in parts]
    agents = len(partitions)
    suite = make_logistic(ds, partitions, reg=0.05)
    assert set(suite.sample_counts) == lengths
    values, grads, draws = _per_agent_logistic(ds, partitions, 0.05)
    rng = np.random.default_rng(6)
    for t in range(20):
        W = rng.normal(scale=2.0, size=(agents, 3))
        ours, exact = suite.evaluate(W)
        assert np.array_equal(ours, values(W))
        assert np.array_equal(exact, grads(W))
        shared = np.tile(W[0], (agents, 1))  # one (d,) point broadcast to every agent
        ours, ours_grads = suite.evaluate(W[0])
        assert np.array_equal(ours, values(shared))
        assert np.array_equal(ours_grads, grads(shared))
        for batch in (1, min(suite.sample_counts)):
            oracle = StochasticOracle(mode="minibatch", batch=batch)
            ours = stochastic_grad(suite, oracle, W, exact, [np.random.default_rng((t, j)) for j in range(agents)])
            ref = draws(W, exact, batch, [np.random.default_rng((t, j)) for j in range(agents)])
            assert np.array_equal(ours, ref)


def test_common_optimum_writes_nothing():
    # a logistic suite's common optimum is solved on each call and returned, never kept in the suite
    suite = logistic_fixture()
    x, f = common_optimum(suite)
    assert suite.x_star is None and suite.f_star is None
    assert np.linalg.norm(agent_total(suite.evaluate(x)[1])) < 1e-6
    assert f == agent_total(suite.evaluate(x)[0])
    assert common_optimum(suite)[1] == f


def record_evaluations(suite):
    """A copy of ``suite`` whose ``evaluate`` appends every point it is called at to the list returned with it."""
    points = []

    def recorded(X):
        X = np.asarray(X, dtype=float)
        points.append((X.shape, X.tobytes()))
        return suite.evaluate(X)

    return dataclasses.replace(suite, evaluate=recorded), points


def test_logistic_suite_evaluated_once_per_point(monkeypatch):
    # the solvers hand L-BFGS one value-and-gradient callable, so each point the
    # solver asks for (its nfev, revisits included) costs one evaluation; run
    # evaluates each iterate once
    solver_points = []

    def counted_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        solver_points.append(res.nfev)
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", counted_minimize)
    suite, points = record_evaluations(logistic_fixture())
    mix = metropolis_mixing(build_topology("ring", suite.n))
    common_optimum(suite)
    assert len(solver_points) == 1 and len(points) == solver_points[0] > 2
    points.clear()
    objective = UnifiedObjective(suite, mix, alpha=0.1)
    _, f_star = unified_optimum(objective)  # solves the common optimum again, then the stacked one from its tile
    assert len(solver_points) == 3 and len(points) == sum(solver_points[1:])
    assert all(a != b for a, b in zip(points, points[1:]))  # no point evaluated twice in a row
    points.clear()
    hp = HyperParams(alpha=0.1, beta=0.5, omega=0.5, iters=25)
    trace = run(objective, StochasticOracle(mode="minibatch", batch=5), hp, f_star)
    assert trace.status == "completed"
    assert len(points) == hp.iters


def recorded_starts(monkeypatch):
    """The list of the start of every L-BFGS-B solve from here on, flat as the solver takes it, in call order."""
    starts = []

    def recording(fun, x0, **kwargs):
        starts.append(np.array(x0, copy=True))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    return starts


@pytest.mark.parametrize("alpha", [0.1, None], ids=["option-I", "option-II"])
def test_strongly_convex_stacked_optimum_has_one_start(monkeypatch, alpha):
    # mu_m > 0 gives one minimizer, so the stacked solve starts only at the tiled common minimizer
    suite = logistic_fixture(reg=0.1)
    assert suite.mu_m > 0
    tile = np.tile(common_optimum(suite)[0], (suite.n, 1))
    starts = recorded_starts(monkeypatch)
    unified_optimum(UnifiedObjective(suite, metropolis_mixing(build_topology("ring", suite.n)), alpha=alpha))
    assert len(starts) == 2  # the common solve, then one stacked solve
    assert np.array_equal(starts[0], np.zeros(suite.d))
    assert np.array_equal(starts[1], tile.ravel())


def test_convex_stacked_optimum_starts_from_zero_first(monkeypatch):
    suite = logistic_fixture(reg=0.0)
    assert suite.mu_m == 0
    tile = np.tile(common_optimum(suite)[0], (suite.n, 1))
    starts = recorded_starts(monkeypatch)
    unified_optimum(UnifiedObjective(suite, metropolis_mixing(build_topology("ring", suite.n)), alpha=0.1))
    assert len(starts) == 3  # the common solve, then the stacked solve from zero and from the tile
    assert np.array_equal(starts[1], np.zeros(suite.n * suite.d))
    assert np.array_equal(starts[2], tile.ravel())


def test_pl_stacked_optimum_keeps_three_starts(monkeypatch):
    suite = make_pl(4, [-0.6, -0.2, 0.3, 0.8])
    starts = recorded_starts(monkeypatch)
    unified_optimum(UnifiedObjective(suite, metropolis_mixing(build_topology("ring", 4), laziness=0.3), alpha=0.05))
    assert len(starts) == 3  # the builder holds the common optimum, so every solve is stacked
    assert np.array_equal(starts[0], np.zeros(4))
    assert np.array_equal(starts[1], np.tile(suite.x_star, (4, 1)).ravel())
    assert np.array_equal(starts[2], suite.params["shifts"].ravel())


@pytest.mark.parametrize("name", ["logistic_iid_full_batch", "logistic_iid_ragged", "logistic_iid_minibatch",
                                  "minibatch_sweep"])
def test_one_start_optimum_matches_both_starts(name):
    # a strongly convex stacked optimum solved from the tile alone lands where the zero and tile starts do
    # the benchmark's config: check_scenario reads neither its sweep keys nor its hp.seed
    text = MINIBATCH_SWEEP if name == "minibatch_sweep" else PIN_CONFIGS[name]
    objective = check_scenario(parse_config_text(text), {})[0]
    suite = objective.suite
    n, d = suite.n, suite.d
    assert suite.mu_m > 0
    tile = np.tile(common_optimum(suite)[0], (n, 1))

    def fun(v):
        value, grad = objective.value_and_grad(v.reshape(n, d))
        return value, grad.ravel()

    reference = _lbfgs_multistart(fun, [np.zeros(n * d), tile.ravel()]).fun
    f_star = unified_optimum(objective)[1]
    assert abs(f_star - reference) <= 1e-14 * abs(reference)


# ---------------------------------------------------------------- oracles


def test_additive_oracle_zero_sigma_exact():
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1.0])
    oracle = StochasticOracle(mode="additive", sigma=0.0)
    rng = np.random.default_rng(0)
    x = np.full((2, 1), 0.5)
    g = stochastic_grad(suite, oracle, x, suite.evaluate(x)[1], [rng, rng])[1]
    assert np.array_equal(g, suite.evaluate(x)[1][1])


def test_additive_oracle_statistics():
    # smaller-scale version of the acceptance statistics check
    suite = make_quadratic([[1.0, -1.0, 0.5]], [2.0])
    sigma = 0.5
    oracle = StochasticOracle(mode="additive", sigma=sigma)
    rng = np.random.default_rng(1)
    x = np.array([[0.3, 0.3, 0.3]])
    stacked = suite.evaluate(x)[1]
    exact = stacked[0]
    draws = np.stack([stochastic_grad(suite, oracle, x, stacked, [rng])[0] for _ in range(20000)])
    se = sigma / np.sqrt(suite.d * len(draws))
    assert np.abs(draws.mean(axis=0) - exact).max() < 4 * se
    dev_sq = ((draws - exact) ** 2).sum(axis=1)
    assert 0.9 * sigma**2 < dev_sq.mean() < 1.1 * sigma**2


def test_minibatch_full_batch_is_exact():
    ds = make_synthetic_dataset(2, 40, 3, 2)
    suite = make_logistic(ds, partition_iid(ds, 4, seed=0), reg=0.05)
    oracle = StochasticOracle(mode="minibatch", batch=10)
    rng = np.random.default_rng(2)
    x = np.tile(rng.normal(size=3), (4, 1))
    draws = stochastic_grad(suite, oracle, x, suite.evaluate(x)[1], [rng] * 4)
    assert np.allclose(draws[0], suite.evaluate(x)[1][0], atol=1e-14)


def test_minibatch_unbiased():
    ds = make_synthetic_dataset(3, 40, 2, 2)
    suite = make_logistic(ds, partition_iid(ds, 2, seed=0), reg=0.0)
    oracle = StochasticOracle(mode="minibatch", batch=4)
    rng = np.random.default_rng(3)
    x = np.array([[0.2, -0.1], [0.2, -0.1]])
    stacked = suite.evaluate(x)[1]
    exact = stacked[0]
    rngs = [rng, np.random.default_rng(4)]  # agent 0 alone draws from rng
    draws = np.stack([stochastic_grad(suite, oracle, x, stacked, rngs)[0] for _ in range(4000)])
    err = draws.mean(axis=0) - exact
    se = draws.std(axis=0).max() / np.sqrt(len(draws))
    assert np.abs(err).max() < 5 * se + 1e-12


def test_minibatch_too_large_rejected():
    ds = make_synthetic_dataset(4, 20, 2, 2)
    suite = make_logistic(ds, partition_iid(ds, 2, seed=0))
    oracle = StochasticOracle(mode="minibatch", batch=11)
    with pytest.raises(ValueError, match="batch"):
        oracle.check_fits(suite)


def test_oracle_validation():
    with pytest.raises(ValueError):
        StochasticOracle(mode="bogus")
    with pytest.raises(ValueError):
        StochasticOracle(mode="additive", sigma=-1.0)
    with pytest.raises(ValueError):
        StochasticOracle(mode="minibatch", batch=0)


# ------------------------------------------------------- unified objective


def uniform_mixing(n):
    return metropolis_mixing(build_topology("full", n))


def test_unified_consensus_point_penalty_free():
    suite = make_quadratic([[0.0], [2.0], [1.0]], [1.0, 2.0, 1.5])
    u = UnifiedObjective(suite, uniform_mixing(3), alpha=0.1)
    point = np.full((3, 1), 0.7)
    assert u.value(point) - agent_total(suite.evaluate(point)[0]) == pytest.approx(0.0, abs=1e-14)
    assert u.value(point) == pytest.approx(agent_total(suite.evaluate(point)[0]))
    assert np.allclose(u.grad(point), suite.evaluate(point)[1], atol=1e-12)


@pytest.mark.parametrize("alpha", [0.1, None])
def test_unified_refuses_mismatched_agent_counts(alpha):
    with pytest.raises(ValueError, match="suite has 4 agents but the mixing matrix has 5"):
        UnifiedObjective(make_quadratic(np.zeros((4, 2)), 1.0), metropolis_mixing(build_topology("ring", 5)), alpha)


@pytest.mark.parametrize("option, schedule, alpha", [("I", "constant", 0.05), ("II", "constant", None),
                                                     ("II", "sqrt", None)])
def test_of_run_penalizes_at_the_step_under_option_I_only(option, schedule, alpha):
    """Option I is measured against F penalized at its own step, option II (any schedule) against plain F."""
    suite = make_quadratic([[0.0], [1.0], [2.0], [3.0]], [1.0, 2.0, 1.0, 2.0])
    mix = metropolis_mixing(build_topology("ring", 4), laziness=0.3)
    hp = HyperParams(option=option, alpha=0.05 if schedule == "constant" else None, schedule=schedule,
                     schedule_b=0.5)
    objective = UnifiedObjective.of_run(suite, mix, hp)
    assert (objective.suite, objective.mixing, objective.alpha) == (suite, mix, alpha)
    objective.check_fits(hp)


# a run's hp and the penalty alpha of an objective that is not the one of_run builds for it
MISMATCHES = {
    "option_I-other_alpha": (HyperParams(option="I", alpha=0.05), 0.1),
    "option_I-plain_F": (HyperParams(option="I", alpha=0.05), None),
    "option_II-penalized": (HyperParams(option="II", alpha=0.05), 0.05),
    "adaptive_option_I-other_alpha": (HyperParams(option="I", alpha=0.05, omega="adaptive"), 0.025),
}


@pytest.mark.parametrize("caller", ["run", "BoundInputs.of_run"])
@pytest.mark.parametrize("name", sorted(MISMATCHES))
def test_a_run_refuses_any_other_objective(name, caller):
    """``run`` and the bound inputs refuse an objective that is not the run's, naming the alpha the run needs and
    the objective's."""
    hp, alpha = MISMATCHES[name]
    suite = make_quadratic([[0.0], [1.0], [2.0]], [1.0, 1.0, 1.0])
    mix = uniform_mixing(3)
    objective = UnifiedObjective(suite, mix, alpha)
    want = hp.alpha if hp.option == "I" else None
    message = rf"option {hp.option} at alpha = 0\.05 .* penalty alpha = {want}, not {alpha}"
    with pytest.raises(ValueError, match=message):
        if caller == "run":
            run(objective, StochasticOracle(), hp, 0.0)
        else:
            BoundInputs.of_run(objective, spectrum(mix), hp, 0.0)


@pytest.mark.parametrize("alpha, message", [(0.0, "alpha must be positive"), (-0.1, "alpha must be positive")],
                         ids=["alpha-zero", "alpha-negative"])
def test_objective_refusals(alpha, message):
    """Each refusal of a stacked objective's inputs raises ValueError with its own reason."""
    with pytest.raises(ValueError, match=message):
        UnifiedObjective(make_quadratic(np.zeros((2, 1)), 1.0), uniform_mixing(2), alpha)


def test_unified_hand_computed_penalty():
    # n=2, Pi = J/2, alpha = 0.5, x = (0, 2), F = 0:
    # x^T (I - J/2) x = 2, penalty = 2/(2*0.5) = 2
    suite = make_quadratic([[0.0], [0.0]], [1e-12, 1e-12])  # negligible F
    mix = uniform_mixing(2)
    u = UnifiedObjective(suite, mix, alpha=0.5)
    x = np.array([[0.0], [2.0]])
    assert u.value(x) - agent_total(suite.evaluate(x)[0]) == pytest.approx(2.0, abs=1e-12)


def test_unified_gradient_finite_differences():
    suite = make_quadratic([[0.2, 1.0], [1.4, -0.3], [0.0, 0.5]], [1.0, 0.7, 2.0])
    u = UnifiedObjective(suite, metropolis_mixing(build_topology("ring", 3)), alpha=0.25)
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = rng.normal(size=(3, 2))
        est = finite_diff_grad(lambda v: u.value(v.reshape(3, 2)), x.ravel(), 1e-6)
        assert np.linalg.norm(est - u.grad(x).ravel()) / np.linalg.norm(est) < 1e-5


def test_unified_derived_constants_dominate():
    suite = make_quadratic([[0.0], [1.0], [2.0], [3.0]], [1.0, 2.0, 1.0, 2.0])
    mix = metropolis_mixing(build_topology("ring", 4))
    spec = spectrum(mix)
    u = UnifiedObjective(suite, mix, alpha=0.1)
    assert u.mu_prime(spec) >= suite.mu_m
    assert u.l_prime(spec) >= suite.l_m
    # equality iff the relevant eigenvalue is one (identity mixing)
    from dmsgd.topology import effective_matrix

    ident = effective_matrix(mix, 1.0)
    spec_i = spectrum(ident)
    u_i = UnifiedObjective(suite, ident, alpha=0.1)
    assert u_i.mu_prime(spec_i) == pytest.approx(suite.mu_m)
    assert u_i.l_prime(spec_i) == pytest.approx(suite.l_m)


# graph, laziness, alpha: (mu', the penalized Hessian's smallest eigenvalue, L', its largest)
PENALIZED_CURVATURES = {
    ("ring", 4, 0.3, 0.01): (47.17, 1.244, 48.67, 94.59),
    ("full", 3, 0.3, 0.01): (35.5, 1.245, 72.0, 71.69),
    ("ring", 8, 0.05, 0.1): (6.833, 1.158, 3.855, 14.01),
}


@pytest.mark.parametrize("kind, n, laziness, alpha", sorted(PENALIZED_CURVATURES))
def test_penalized_constants_against_the_penalized_hessian(kind, n, laziness, alpha):
    """Documents how mu' and L' relate to the extreme eigenvalues of the option-I Hessian diag(a) + (I - Pi)/alpha
    today: the penalty adds no curvature along the consensus direction, yet mu' adds (1 - lambda_N)/(2 alpha), so
    mu' overstates the strong convexity on every graph, and on ring-8 it exceeds L'.  A change to either constant
    edits this table."""
    curvatures = np.linspace(0.5, 2.0, n)
    mix = metropolis_mixing(build_topology(kind, n), laziness=laziness)
    u, spec = UnifiedObjective(make_quadratic(np.zeros((n, 1)), curvatures), mix, alpha), spectrum(mix)
    hessian = np.diag(curvatures) + (np.eye(n) - mix.entries) / alpha
    true_min, true_max = np.linalg.eigvalsh(hessian)[[0, -1]]
    measured = (u.mu_prime(spec), true_min, u.l_prime(spec), true_max)
    assert measured == pytest.approx(PENALIZED_CURVATURES[kind, n, laziness, alpha], rel=1e-3)
    assert u.mu_prime(spec) > true_min
    assert (u.mu_prime(spec) > u.l_prime(spec)) == ((kind, n) == ("ring", 8))


def test_unified_alpha_none_is_plain_objective():
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1.0])
    u = UnifiedObjective(suite, uniform_mixing(2), alpha=None)
    x = np.array([[0.5], [1.5]])
    assert u.value(x) == pytest.approx(agent_total(suite.evaluate(x)[0]))
    spec = spectrum(uniform_mixing(2))
    assert u.mu_prime(spec) == suite.mu_m
    assert u.l_prime(spec) == suite.l_m


def test_unified_optimum_quadratic_matches_numeric():
    suite = make_quadratic([[0.0, 1.0], [2.0, -1.0], [1.0, 0.0]], [1.0, 2.0, 1.5])
    u = UnifiedObjective(suite, metropolis_mixing(build_topology("ring", 3)), alpha=0.2)
    x_closed, val_closed = unified_optimum(u)
    assert np.linalg.norm(u.grad(x_closed)) < 1e-9
    # numeric oracle: scipy on the stacked objective
    res = minimize(
        lambda v: u.value(v.reshape(3, 2)),
        np.zeros(6),
        jac=lambda v: u.grad(v.reshape(3, 2)).ravel(),
        method="L-BFGS-B",
        options={"gtol": 1e-12},
    )
    assert val_closed == pytest.approx(res.fun, abs=1e-9)


def test_unified_dimension_mismatch():
    suite = make_quadratic([[0.0], [2.0]], [1.0, 1.0])
    u = UnifiedObjective(suite, uniform_mixing(2), alpha=0.5)
    with pytest.raises(ValueError):
        u.value(np.zeros((3, 1)))
