"""Boosted trees against brute-force split enumeration and hand oracles."""

import dataclasses
import itertools
from concurrent.futures import ThreadPoolExecutor
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attrikit.gbtrees as gb
from attrikit.errors import ModelError, SchemaError
from attrikit.factories import _spec, forecast_model
from attrikit.gbtrees import (
    GbtModel,
    GbtSpec,
    Node,
    fit,
    fit_series,
    forecast_recursive,
    predict,
)
from attrikit.ingest import Category, default_profile
from attrikit.series import DAILY, MONTHLY, CountSeries, SupervisedMatrix, aggregate, make_supervised

START = date(2022, 3, 1)

# Fixed example draws keep the suite deterministic; no example database.
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def matrix_from(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    names = tuple(f"f{j}" for j in range(x.shape[1]))
    dates = tuple(date(2022, 3, 1 + i % 28) for i in range(len(y)))
    return SupervisedMatrix(names, x, y, dates)


def model_key(model):
    """Every field of a fitted model, trees included, as text. Float repr
    round-trips, so equal keys mean bit-equal models."""
    return repr(dataclasses.asdict(model))


def brute_force_stump(x, y, min_leaf):
    """Independent oracle: enumerate every (feature, midpoint) split and
    compute the squared-error reduction directly from subset means."""
    def sse(v):
        return float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0

    best = None  # (gain, feature, threshold)
    parent = sse(y)
    for j, values in itertools.islice(enumerate(x.T), None):
        distinct = np.unique(values)
        for a, b in zip(distinct, distinct[1:]):
            threshold = (a + b) / 2.0
            left = y[values <= threshold]
            right = y[values > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent - sse(left) - sse(right)
            if best is None or gain > best[0]:
                best = (gain, j, threshold, left.mean(), right.mean())
    return best


def test_stump_matches_brute_force_on_random_data():
    rng = np.random.default_rng(0)
    for trial in range(5):
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        spec = GbtSpec(n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=2,
                       lags=(1,), ma_windows=(), calendar=frozenset())
        model = fit(matrix_from(x, y), spec)
        root = model.trees[0]
        oracle = brute_force_stump(x, y, 2)
        assert root.feature == oracle[1]
        assert root.threshold == oracle[2]
        base_resid = y - y.mean()
        left = base_resid[x[:, root.feature] <= root.threshold]
        right = base_resid[x[:, root.feature] > root.threshold]
        assert root.left.value == pytest.approx(left.mean(), abs=1e-12)
        assert root.right.value == pytest.approx(right.mean(), abs=1e-12)


def test_constant_targets_give_base_score_only():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 3))
    y = np.full(30, 4.25)
    model = fit(matrix_from(x, y), GbtSpec(n_trees=5, lags=(1,), ma_windows=(), calendar=frozenset()))
    assert model.base_score == 4.25
    for tree in model.trees:
        assert tree.is_leaf() and tree.value == 0.0
    assert predict(model, x[0]) == 4.25


def test_training_rmse_non_increasing_over_stages():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(150, 6))
    y = x[:, 0] * 2 + np.sin(x[:, 1]) + rng.normal(0, 0.3, 150)
    model = fit(matrix_from(x, y), GbtSpec(n_trees=200, max_depth=3))
    stages = np.asarray(model.stage_rmse)
    assert len(stages) == 200
    assert np.all(np.diff(stages) <= 1e-12)


def test_hand_built_stump_prediction_and_boundary_routing():
    stump = Node(feature=0, threshold=5.0, left=Node(value=-1.0), right=Node(value=1.0))
    model = GbtModel(base_score=10.0, spec=GbtSpec(learning_rate=1.0), feature_names=("x0",), trees=[stump])
    assert predict(model, np.array([3.0])) == 9.0
    assert predict(model, np.array([7.0])) == 11.0
    assert predict(model, np.array([5.0])) == 9.0  # ties route left


def test_empty_ensemble_predicts_base_score():
    model = GbtModel(base_score=2.5, spec=GbtSpec(learning_rate=0.1), feature_names=("x0",))
    assert predict(model, np.array([123.0])) == 2.5


def test_errors_empty_nonfinite_and_length_mismatch():
    with pytest.raises(ModelError, match="empty"):
        fit(matrix_from(np.empty((0, 2)), np.empty(0)), GbtSpec())
    x = np.ones((20, 2))
    y = np.ones(20)
    x[7, 1] = np.nan
    with pytest.raises(ModelError, match="row 7"):
        fit(matrix_from(x, y), GbtSpec(min_samples_leaf=2))
    model = GbtModel(base_score=0.0, spec=GbtSpec(learning_rate=0.1), feature_names=("a", "b"))
    with pytest.raises(ModelError, match="length"):
        predict(model, np.array([1.0]))


def test_deterministic_fit():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 5))
    y = rng.normal(size=80)
    spec = GbtSpec(n_trees=20)
    a = model_key(fit(matrix_from(x, y), spec))
    b = model_key(fit(matrix_from(x, y), spec))
    assert a == b


def test_recursive_forecast_constant_series():
    series = CountSeries(DAILY, START, np.full(120, 6.0), np.ones(120, dtype=bool))
    spec = GbtSpec(n_trees=30, max_depth=2, lags=(1, 2, 3), ma_windows=(7,),
                   calendar=frozenset({"weekday"}))
    model = fit_series(series, spec)
    fc = forecast_recursive(model, series, horizon=15)
    assert np.all(np.abs(fc.point - 6.0) <= 0.01)


def test_recursive_forecast_weekday_advances_with_calendar():
    rng = np.random.default_rng(6)
    series = CountSeries(DAILY, START, rng.poisson(8.0, 200).astype(float), np.ones(200, dtype=bool))
    spec = GbtSpec(n_trees=5, max_depth=2, lags=(1,), ma_windows=(), calendar=frozenset({"weekday"}))
    model = fit_series(series, spec)

    captured = []
    import attrikit.gbtrees as gb
    original = gb.predict

    def spy(model, features):
        captured.append(np.array(features, copy=True))
        return original(model, features)

    gb.predict = spy
    try:
        fc = forecast_recursive(model, series, horizon=10)
    finally:
        gb.predict = original
    date7, row7 = fc.period_starts()[6], captured[6]  # step 7
    assert (date7 - series.start).days == len(series) + 6
    onehot = row7[1:8]
    assert onehot[date7.weekday()] == 1.0 and onehot.sum() == 1.0


def test_recursive_forecast_180_days_july_to_december():
    rng = np.random.default_rng(7)
    values = rng.poisson(12.0, 500).astype(float)
    series = CountSeries(DAILY, date(2024, 2, 17), values, np.ones(500, dtype=bool))
    assert series.period_starts()[-1] == date(2025, 6, 30)
    spec = GbtSpec(n_trees=20, max_depth=2)
    model = fit_series(series, spec)
    fc = forecast_recursive(model, series, horizon=180)
    dates = fc.period_starts()
    assert len(dates) == 180
    assert dates[0] == date(2025, 7, 1) and dates[-1] == date(2025, 12, 27)
    assert (np.diff([d.toordinal() for d in dates]) == 1).all()


def test_daily_model_forecast_on_monthly_series_is_a_model_error():
    # The daily model's weekday columns have no monthly layout: a ModelError
    # (exit 3) that names both granularities.
    rng = np.random.default_rng(8)
    daily = CountSeries(DAILY, START, rng.poisson(8.0, 120).astype(float), np.ones(120, dtype=bool))
    monthly = CountSeries(MONTHLY, START, rng.poisson(8.0, 60).astype(float), np.ones(60, dtype=bool))
    model = fit_series(daily, GbtSpec(n_trees=3, lags=(1, 2), ma_windows=()))
    with pytest.raises(ModelError, match="fitted on daily data; the series is monthly"):
        forecast_recursive(model, monthly, horizon=3)


@st.composite
def forecast_requests(draw):
    """A daily or monthly series with non-integer counts and an interior gap,
    a small gbt spec with random lags, windows and calendar flags (weekday on
    daily data only), and a horizon."""
    granularity = draw(st.sampled_from([DAILY, MONTHLY]))
    lags = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True)))
    ma_windows = tuple(draw(st.lists(st.integers(1, 12), max_size=3, unique=True)))
    flags = ["weekday", "month", "linear_index"] if granularity == DAILY else ["month", "linear_index"]
    calendar = frozenset(draw(st.sets(st.sampled_from(flags))))
    depth = max(lags + ma_windows)
    n = draw(st.integers(depth + 30, depth + 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.poisson(10.0, n) + rng.random(n)
    mask = np.ones(n, dtype=bool)
    gap = draw(st.integers(0, n - depth - 5))
    mask[gap:gap + draw(st.integers(0, 5))] = False
    day = date(2021, 1, 1) + timedelta(days=draw(st.integers(0, 2000)))
    start = day if granularity == DAILY else day.replace(day=1)
    spec = GbtSpec(n_trees=3, max_depth=2, min_samples_leaf=2, lags=lags, ma_windows=ma_windows,
                   calendar=calendar)
    return CountSeries(granularity, start, values, mask), spec, draw(st.integers(1, 20))


@settings(PROPERTY, max_examples=100)
@given(request=forecast_requests())
def test_forecast_rows_are_training_rows(request):
    # Each step must read the very features the model was fitted on: its row
    # is the make_supervised row of its period once the forecast is history.
    series, spec, horizon = request
    model = fit_series(series, spec)
    rows = []
    original = gb.predict

    def spy(model, features):
        rows.append(np.array(features, copy=True))
        return original(model, features)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gb, "predict", spy)
        fc = forecast_recursive(model, series, horizon=horizon)
    extended = CountSeries(series.granularity, series.start, np.concatenate([series.values, fc.point]),
                           np.concatenate([series.mask, np.ones(horizon, dtype=bool)]))
    matrix = make_supervised(extended, list(spec.lags), list(spec.ma_windows), spec.calendar)
    assert matrix.feature_names == model.feature_names
    training_row = dict(zip(matrix.target_dates, matrix.x))
    expected = np.array([training_row[day] for day in fc.period_starts()])
    assert np.array(rows).view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_spec_validation():
    with pytest.raises(ValueError):
        GbtSpec(n_trees=0)
    with pytest.raises(ValueError, match="repeat"):
        GbtSpec(lags=(1, 2, 3, 2))   # would build two identical lag_2 columns
    with pytest.raises(ValueError, match="repeat"):
        GbtSpec(ma_windows=(7, 7))
    with pytest.raises(ValueError):
        GbtSpec(learning_rate=0.0)
    with pytest.raises(ValueError):
        GbtSpec(learning_rate=1.5)


@pytest.mark.parametrize("params", [{"calendar": {"foo"}}, {"lags": (), "ma_windows": (), "calendar": frozenset()}])
def test_unbuildable_features_are_schema_errors(params):
    # An unknown calendar flag, or no feature at all, is a bad parameter like
    # any other: the spec rejects it before anything is fitted.
    with pytest.raises(ValueError, match="calendar"):
        GbtSpec(**params)
    with pytest.raises(SchemaError, match="^bad gbt parameters"):
        _spec("gbt", DAILY, 0, params)
    series = CountSeries(DAILY, START, np.random.default_rng(3).poisson(5.0, 60).astype(float), np.ones(60, bool))
    with pytest.raises(SchemaError, match="^bad gbt parameters"):
        forecast_model("gbt", series, 3, params=params)


@pytest.mark.parametrize("lags, ma_windows, calendar", [
    ((1,), (), {"foo"}), ((), (), frozenset()), ((0, 2), (7,), frozenset()), ((1,), (3, -1), {"month"}),
])
def test_spec_and_make_supervised_reject_features_with_one_message(lags, ma_windows, calendar):
    series = CountSeries(DAILY, START, np.arange(60.0), np.ones(60, bool))
    with pytest.raises(ValueError) as spec_error:
        GbtSpec(lags=lags, ma_windows=ma_windows, calendar=calendar)
    with pytest.raises(ValueError) as matrix_error:
        make_supervised(series, list(lags), list(ma_windows), calendar)
    assert str(spec_error.value) == str(matrix_error.value)


@pytest.mark.parametrize("params", [{"max_depth": 2.5}, {"n_trees": True}, {"min_samples_leaf": 2.0},
                                    {"lags": (1, 2.5)}, {"ma_windows": [3, False]}, {"lags": 3}])
def test_non_integer_sizes_are_schema_errors(monthly_tanks, params):
    # max_depth=2.5 used to fit silently as depth 3.
    with pytest.raises(ValueError, match="must be (an integer|a list of integers)"):
        GbtSpec(**params)
    with pytest.raises(SchemaError, match="^bad gbt parameters"):
        forecast_model("gbt", monthly_tanks, 3, params=params)


def test_prediction_invariant_under_column_permutation():
    # Continuous features make exact gain ties measure-zero, so permuting
    # columns together with their names must leave predictions unchanged.
    rng = np.random.default_rng(9)
    x = rng.normal(size=(80, 5))
    y = x[:, 1] * 2.0 - x[:, 3] + rng.normal(0, 0.3, 80)
    names = tuple(f"f{j}" for j in range(5))
    dates = tuple(date(2022, 3, 1 + i % 28) for i in range(80))
    perm = [3, 0, 4, 1, 2]

    base = fit(SupervisedMatrix(names, x, y, dates), GbtSpec(n_trees=40))
    permuted = fit(
        SupervisedMatrix(tuple(names[j] for j in perm), x[:, perm], y, dates),
        GbtSpec(n_trees=40),
    )
    for row in x[:15]:
        assert predict(permuted, row[perm]) == pytest.approx(predict(base, row), abs=1e-12)


# -- the per-column scan as an oracle ------------------------------------------
#
# The straightforward exact search: one stable argsort per feature per node,
# features and thresholds scanned in ascending order with strictly-greater
# comparisons, and residuals updated by routing each row through the tree.
# ``fit`` must build the same trees with the same arithmetic.


def _oracle_best_split(x, residual, idx, min_leaf):
    n = idx.size
    total = residual[idx].sum()
    base_term = total * total / n
    best = None
    best_gain = 0.0
    for j in range(x.shape[1]):
        col = x[idx, j]
        order = np.argsort(col, kind="stable")
        xv = col[order]
        rv = residual[idx][order]
        prefix = np.cumsum(rv)

        cuts = np.arange(min_leaf, n - min_leaf + 1)
        if cuts.size == 0:
            continue
        boundary = xv[cuts] != xv[cuts - 1]
        if not boundary.any():
            continue
        cuts = cuts[boundary]
        left_sum = prefix[cuts - 1]
        right_sum = total - left_sum
        gains = left_sum**2 / cuts + right_sum**2 / (n - cuts) - base_term

        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            cut = int(cuts[k])
            threshold = (xv[cut - 1] + xv[cut]) / 2.0
            best = (float(gains[k]), j, float(threshold), idx[order[:cut]], idx[order[cut:]])
            best_gain = float(gains[k])
    return best


def _oracle_build_tree(x, residual, idx, depth, spec, gains):
    """The tree of ``residual`` on rows ``idx``; appends each split's gain
    to ``gains`` in build order: a node, then its left subtree, then its right."""
    if depth >= spec.max_depth or idx.size < 2 * spec.min_samples_leaf:
        return Node(value=float(residual[idx].mean()))
    found = _oracle_best_split(x, residual, idx, spec.min_samples_leaf)
    if found is None:
        return Node(value=float(residual[idx].mean()))
    gain, feature, threshold, left_idx, right_idx = found
    gains.append(gain)
    return Node(
        feature=feature,
        threshold=threshold,
        left=_oracle_build_tree(x, residual, left_idx, depth + 1, spec, gains),
        right=_oracle_build_tree(x, residual, right_idx, depth + 1, spec, gains),
    )


def oracle_fit(matrix, spec, gains):
    x, y = matrix.x, matrix.y
    model = GbtModel(base_score=float(y.mean()), spec=spec, feature_names=matrix.feature_names)
    residual = y - model.base_score
    all_idx = np.arange(x.shape[0])
    for _ in range(spec.n_trees):
        tree = _oracle_build_tree(x, residual, all_idx, 0, spec, gains)
        preds = np.array([tree.predict_one(row) for row in x])
        residual = residual - spec.learning_rate * preds
        model.trees.append(tree)
        model.stage_rmse.append(float(np.sqrt(np.mean(residual**2))))
    model.rmse_train = model.stage_rmse[-1]
    return model


@st.composite
def boosting_problems(draw):
    """A matrix mixing tie-heavy small-integer, 0/1 one-hot and continuous
    columns, a target, and a spec small enough to fit in milliseconds."""
    min_leaf = draw(st.integers(1, 6))
    n = draw(st.integers(2 * min_leaf, 200))   # over 128 rows, continuous ranks need int16
    kinds = draw(st.lists(st.sampled_from(["ints", "onehot", "continuous"]), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "ints":
            columns.append(rng.integers(0, draw(st.integers(1, 5)), n).astype(float))
        elif kind == "onehot":
            width = draw(st.integers(2, 7))
            columns.extend(np.eye(width)[rng.integers(0, width, n)].T)
        else:
            columns.append(rng.normal(0.0, 10.0, n))
    x = np.column_stack(columns)
    if draw(st.booleans()):
        y = rng.poisson(3.0, n).astype(float)   # count targets: many tied residuals
    else:
        y = rng.normal(0.0, 1.0, n)
    spec = GbtSpec(n_trees=draw(st.integers(1, 6)), max_depth=draw(st.integers(1, 4)),
                   learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])), min_samples_leaf=min_leaf)
    return matrix_from(x, y), spec


def _problem(x, y, **spec):
    return matrix_from(x, y), GbtSpec(**spec)


_EXAMPLE_RNG = np.random.default_rng(16)
_ONEHOT = np.eye(3)[_EXAMPLE_RNG.integers(0, 3, 40)]
_STEP = np.repeat([0.0, 1.0], 12)


@settings(PROPERTY, max_examples=300)
@given(problem=boosting_problems())
# every column constant: no node has a cut, so every tree is one leaf
@example(problem=_problem(np.tile([1.0, -2.5, 7.0], (12, 1)), _EXAMPLE_RNG.normal(0.0, 1.0, 12),
                          n_trees=3, max_depth=3, min_samples_leaf=2))
# n == 2 * min_samples_leaf: the root has exactly one cut position
@example(problem=_problem(_EXAMPLE_RNG.normal(0.0, 10.0, (8, 3)), _EXAMPLE_RNG.normal(0.0, 1.0, 8),
                          n_trees=2, max_depth=2, min_samples_leaf=4))
# a one-hot block and its copy under a count target: equal gains in several
# features, which the (feature, cut) tie-break settles
@example(problem=_problem(np.hstack([_ONEHOT, _ONEHOT]), _EXAMPLE_RNG.poisson(3.0, 40).astype(float),
                          n_trees=4, max_depth=3, learning_rate=0.3, min_samples_leaf=2))
# a step target at a small learning rate: every tree splits the root at the
# step, so the root's and both children's split structures recur
@example(problem=_problem(np.column_stack([np.arange(30.0), _EXAMPLE_RNG.normal(0.0, 1.0, 30)]),
                          np.repeat([0.0, 10.0], 15),
                          n_trees=6, max_depth=3, learning_rate=0.1, min_samples_leaf=3))
# every column is constant left of the step, so that child has no cut, and
# its cached None recurs in every later tree
@example(problem=_problem(np.column_stack([_STEP, _STEP * _EXAMPLE_RNG.integers(0, 4, 24)]),
                          5.0 * _STEP + _EXAMPLE_RNG.normal(0.0, 1.0, 24),
                          n_trees=6, max_depth=3, learning_rate=0.1, min_samples_leaf=2))
# the root alternates between f2 <= 0.5 and f0 <= 6.5, which split off the
# same seven rows in two orders; tied ranks sum in node order, so a memo
# keyed on the row set rather than the ordered rows changes the sums
@example(problem=_problem(np.column_stack([[4, 2, 0, 5, 6, 7, 9, 1, 8, 3], [1, 1, 3, 3, 2, 2, 1, 1, 1, 2],
                                           [2, 2, 1, 2, 1, 0, 0, 1, 0, 3]]),
                          [-1.0, -0.0, -0.1, -0.4, 1.7, -0.7, 1.2, 0.6, -2.1, -0.3],
                          n_trees=5, max_depth=2, learning_rate=0.1, min_samples_leaf=2))
def test_fit_matches_per_column_oracle(problem):
    # Every split's gain, in build order, as well as the trees: _build_tree
    # reaches _best_split through the module, so a spy there sees each one.
    matrix, spec = problem
    gains, oracle_gains = [], []
    best_split = gb._best_split

    def spy(*args):
        found = best_split(*args)
        if found is not None:
            gains.append(found[0])
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gb, "_best_split", spy)
        model = fit(matrix, spec)
    oracle = oracle_fit(matrix, spec, oracle_gains)
    assert model_key(model) == model_key(oracle)
    assert model.stage_rmse == oracle.stage_rmse
    assert gains == oracle_gains


def _daily_tanks(records, category=Category.TANK):
    lo, hi = default_profile().span()
    return aggregate(records, DAILY, {category}, (lo, hi))


@pytest.mark.parametrize("n_trees", [1, 10])
def test_split_structures_reused_across_trees(synth_records, monkeypatch, n_trees):
    # A node whose ordered rows the previous tree reached reuses that tree's
    # rank sort and cuts; the root recurs in every tree. A single tree has
    # no previous tree, so it computes one structure per split search.
    calls = {"searches": 0, "structures": 0}

    def counting(name, function):
        def wrapped(*args):
            calls[name] += 1
            return function(*args)
        return wrapped

    monkeypatch.setattr(gb, "_best_split", counting("searches", gb._best_split))
    monkeypatch.setattr(gb, "_split_structure", counting("structures", gb._split_structure))
    fit_series(_daily_tanks(synth_records), GbtSpec(n_trees=n_trees))
    assert calls["searches"] > n_trees
    if n_trees == 1:
        assert calls["structures"] == calls["searches"]
    else:
        assert calls["structures"] < calls["searches"]


def test_fit_is_reentrant(synth_records):
    # The memo belongs to one fit: two fits of equally long series (so equal
    # root rows) on two threads must equal the same fits run one by one.
    spec = GbtSpec(n_trees=10)
    series = [_daily_tanks(synth_records, category) for category in (Category.TANK, Category.IFV)]
    serial = [fit_series(s, spec) for s in series]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(fit_series, series, [spec] * 2))
    assert [model_key(m) for m in threaded] == [model_key(m) for m in serial]
    assert [m.stage_rmse for m in threaded] == [m.stage_rmse for m in serial]
    assert model_key(serial[0]) != model_key(serial[1])


def test_residual_update_routes_with_less_or_equal():
    # The midpoint of two adjacent floats rounds to the larger one, so the
    # rows recorded right of the cut route left under ``x <= threshold``.
    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert (a + b) / 2.0 == b
    x = np.array([[a], [a], [b], [b]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    model = fit(matrix_from(x, y), GbtSpec(n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1))
    root = model.trees[0]
    assert root.threshold == b
    residual = y - np.array([predict(model, row) for row in x])
    assert model.stage_rmse[0] == float(np.sqrt(np.mean(residual**2)))
    # Every row takes the left leaf; the recorded row sets would give 0.
    assert residual.tolist() == y.tolist()


def test_fit_series_reaches_make_supervised_through_module_global(monkeypatch):
    # The benchmark's tracer rebinds ``gbtrees.make_supervised`` and walks
    # ``Node.left``/``right`` to count nodes; both must keep working.
    calls = []
    original = gb.make_supervised

    def spy(*args, **kwargs):
        matrix = original(*args, **kwargs)
        calls.append(matrix.x.shape[0])
        return matrix

    monkeypatch.setattr(gb, "make_supervised", spy)
    series = CountSeries(DAILY, START, np.arange(60.0) % 9, np.ones(60, dtype=bool))
    model = fit_series(series, GbtSpec(n_trees=3, max_depth=2, lags=(1, 2), ma_windows=(3,),
                                       calendar=frozenset({"weekday"})))
    assert calls == [57]

    def count(node):
        assert isinstance(node, Node)
        return 1 if node.is_leaf() else 1 + count(node.left) + count(node.right)

    assert all(not tree.is_leaf() for tree in model.trees)
    assert sum(count(tree) for tree in model.trees) >= 3 * 3
