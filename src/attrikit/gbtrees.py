"""Gradient-boosted regression trees with exhaustive exact split search.

Plain squared-error boosting: every tree greedily fits the current
residuals, trying every feature and every midpoint between consecutive
distinct sorted values for the split with the largest variance reduction.
Ties break toward the lowest feature index, then the lowest threshold,
and routing sends values <= threshold left, so fits are bit-reproducible.
Datasets here are small enough that exactness beats histogram tricks.

Each column's dense value ranks are computed once per fit. A node sorts
all features' rows by rank in one stable sort, so tied rows keep the
node's order, and scores only the cuts between distinct values, of all
features in one array pass: the same splits and floating-point sums as a
scan of one column at a time. The sorted rows are kept in feature pairs,
so that the residuals' prefix sums add two features per complex add, each
lane in its own column's order. The sort and the cuts depend only on the
node's ordered rows, not on the residual, so a fit keeps them per node of
the current and the previous tree and reuses them when a later tree reaches
the same rows (the root recurs in every tree). Residuals are updated by
routing the whole matrix through each new tree by the ``x <= threshold``
rule ``predict`` uses. A split's gain only picks the split; a fitted model
keeps its trees and each stage's training RMSE, not the gains."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from .series import (
    CountSeries,
    Forecast,
    SupervisedMatrix,
    check_features,
    check_fit_input,
    check_integer_fields,
    forecast_input,
    make_supervised,
    period_days,
    recursive_forecast,
    target_calendar,
)


@dataclass(frozen=True)
class GbtSpec:
    n_trees: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    min_samples_leaf: int = 5
    lags: tuple[int, ...] = tuple(range(1, 15))
    ma_windows: tuple[int, ...] = (7, 28)
    calendar: frozenset[str] = frozenset({"weekday", "month", "linear_index"})

    def __post_init__(self):
        check_integer_fields(self)
        if self.n_trees < 1 or self.max_depth < 1:
            raise ValueError("n_trees and max_depth must be >= 1")
        check_features(self.lags, self.ma_windows, self.calendar)
        if len(set(self.lags)) < len(self.lags) or len(set(self.ma_windows)) < len(self.ma_windows):
            raise ValueError("lags and moving-average windows must not repeat")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        object.__setattr__(self, "lags", tuple(self.lags))
        object.__setattr__(self, "ma_windows", tuple(self.ma_windows))
        object.__setattr__(self, "calendar", frozenset(self.calendar))


@dataclass
class Node:
    """Internal node (feature/threshold/children) or leaf (value)."""

    value: float | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None

    def is_leaf(self) -> bool:
        return self.value is not None

    def predict_one(self, row: np.ndarray) -> float:
        node = self
        while not node.is_leaf():
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value


@dataclass
class GbtModel:
    base_score: float
    spec: GbtSpec
    feature_names: tuple[str, ...]
    trees: list[Node] = field(default_factory=list)
    rmse_train: float = 0.0
    stage_rmse: list[float] = field(default_factory=list)
    granularity: str | None = None  # the training series', set by fit_series


def _rank_columns(x: np.ndarray) -> np.ndarray:
    """Dense rank of each value within its column, as a (features, rows)
    array in the smallest signed integer type that holds them, so that
    numpy's stable sort of a node's ranks is a radix sort."""
    ranks = np.empty(x.shape[::-1], dtype=np.int64)
    for j, col in enumerate(x.T):
        ranks[j] = np.unique(col, return_inverse=True)[1]
    top = int(ranks.max(initial=0))
    dtype = next(t for t in (np.int8, np.int16, np.int32) if top <= np.iinfo(t).max)
    return ranks.astype(dtype)


def _split_structure(ranks: np.ndarray, idx: np.ndarray, min_leaf: int):
    """The residual-free part of a node's split search: each feature's rows
    sorted stably by rank (so prefix sums add in a per-column scan's order)
    and the cuts between distinct values in (feature, cut) order, whose first
    maximum gain is the tie-break. The sorted rows are laid out in feature
    pairs, (pair, row, lane) with feature j in pair j // 2, lane j % 2; an odd
    feature count pads the last pair's second lane with the last feature's
    rows, which no cut reads. Returns (sorted rows, features, cuts, the cuts'
    flat left-sum positions in that layout), or None when there is no cut."""
    n_features, n = ranks.shape[0], idx.size
    lo, hi = min_leaf, n - min_leaf + 1   # cut c puts sorted rows [0, c) left; n >= 2 * min_leaf
    node_ranks = ranks[:, idx]
    order = np.argsort(node_ranks, axis=1, kind="stable")
    # flat indices into node_ranks: feature j's row starts at j * n
    sorted_ranks = node_ranks.take(order + np.arange(0, node_ranks.size, n)[:, None])
    boundary = np.flatnonzero(sorted_ranks[:, lo:hi] != sorted_ranks[:, lo - 1:hi - 1])
    if boundary.size == 0:
        return None
    features, cuts = np.divmod(boundary, hi - lo)
    cuts += lo
    rows = idx[order]
    pairs = np.empty(((n_features + 1) // 2, n, 2), dtype=rows.dtype)
    pairs[:, :, 0] = rows[0::2]
    pairs[:n_features // 2, :, 1] = rows[1::2]
    pairs[n_features // 2:, :, 1] = rows[-1]
    return pairs, features, cuts, (features // 2 * n + cuts - 1) * 2 + features % 2


def _lane_cumsum(pairs: np.ndarray) -> None:
    """Prefix sums along axis 1 of a C-contiguous (pairs, rows, 2) float64
    array, in place. They run over its complex128 view: a complex add is two
    independent IEEE adds, so each lane gets its own sequential prefix sum,
    and one accumulate carries two dependency chains at once."""
    lanes = pairs.view(np.complex128)
    np.cumsum(lanes, axis=1, out=lanes)


def _best_split(x: np.ndarray, ranks: np.ndarray, residual: np.ndarray, idx: np.ndarray,
                min_leaf: int, memo: tuple[dict, dict]):
    """Exhaustive scan of every feature at once; returns (gain, feature,
    threshold, left_idx, right_idx) or None. ``memo`` maps ordered row
    arrays to ``_split_structure``s, for (this tree, the previous tree);
    only the gains read the residual. A NaN gain, which needs partial sums
    of |s| >~ 1e154, would stop the search where a per-feature scan skips it."""
    current, previous = memo
    key = idx.tobytes()
    structure = previous[key] if key in previous else _split_structure(ranks, idx, min_leaf)
    current[key] = structure
    if structure is None:
        return None
    pairs, features, cuts, left_at = structure
    n = idx.size
    total = residual[idx].sum()
    base_term = total * total / n
    prefix = residual[pairs]
    _lane_cumsum(prefix)

    # gain = left**2 / c + right**2 / (n - c) - base_term: the same operations
    # in the same order as that expression, done in place where they can be
    left_sum = prefix.take(left_at)
    gains = np.square(left_sum)
    gains /= cuts
    right_sum = np.subtract(total, left_sum, out=left_sum)
    np.square(right_sum, out=right_sum)
    right_sum /= n - cuts
    gains += right_sum
    gains -= base_term
    k = int(np.argmax(gains))
    if not gains[k] > 0.0:
        return None
    feature, cut = int(features[k]), int(cuts[k])
    rows = pairs[feature // 2, :, feature % 2]
    threshold = (x[rows[cut - 1], feature] + x[rows[cut], feature]) / 2.0
    return float(gains[k]), feature, float(threshold), rows[:cut], rows[cut:]


def _build_tree(x: np.ndarray, ranks: np.ndarray, residual: np.ndarray, idx: np.ndarray,
                depth: int, spec: GbtSpec, memo: tuple[dict, dict]) -> Node:
    if depth >= spec.max_depth or idx.size < 2 * spec.min_samples_leaf:
        return Node(value=float(residual[idx].mean()))
    found = _best_split(x, ranks, residual, idx, spec.min_samples_leaf, memo)
    if found is None:
        return Node(value=float(residual[idx].mean()))
    _, feature, threshold, left_idx, right_idx = found
    return Node(
        feature=feature,
        threshold=threshold,
        left=_build_tree(x, ranks, residual, left_idx, depth + 1, spec, memo),
        right=_build_tree(x, ranks, residual, right_idx, depth + 1, spec, memo),
    )


def _route(node: Node, x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Write the leaf value each row of ``x[rows]`` reaches into ``out``,
    by the same ``x <= threshold`` rule as ``Node.predict_one``."""
    if node.is_leaf():
        out[rows] = node.value
        return
    goes_left = x[rows, node.feature] <= node.threshold
    _route(node.left, x, rows[goes_left], out)
    _route(node.right, x, rows[~goes_left], out)


def fit(matrix: SupervisedMatrix, spec: GbtSpec) -> GbtModel:
    x, y = matrix.x, matrix.y
    if x.shape[0] == 0:
        raise ModelError("empty supervised matrix")
    if x.shape[0] < 2 * spec.min_samples_leaf:
        raise ModelError(
            f"need at least {2 * spec.min_samples_leaf} rows for min_samples_leaf={spec.min_samples_leaf}"
        )
    bad_rows = np.flatnonzero(~np.isfinite(x).all(axis=1) | ~np.isfinite(y))
    if bad_rows.size:
        raise ModelError(f"non-finite feature or target at row {int(bad_rows[0])}")

    model = GbtModel(base_score=float(y.mean()), spec=spec, feature_names=matrix.feature_names)
    residual = y - model.base_score
    ranks = _rank_columns(x)
    all_idx = np.arange(x.shape[0])
    preds = np.empty(x.shape[0])
    # split structures of the previous tree's nodes; older ones are dropped,
    # which bounds the memo at two trees' worth
    previous: dict = {}
    for _ in range(spec.n_trees):
        current: dict = {}
        tree = _build_tree(x, ranks, residual, all_idx, 0, spec, (current, previous))
        previous = current
        _route(tree, x, all_idx, preds)
        residual = residual - spec.learning_rate * preds
        model.trees.append(tree)
        model.stage_rmse.append(float(np.sqrt(np.mean(residual**2))))
    model.rmse_train = model.stage_rmse[-1]
    return model


def predict(model: GbtModel, features: np.ndarray) -> float:
    features = np.asarray(features, dtype=float)
    if features.shape != (len(model.feature_names),):
        raise ModelError(
            f"feature vector length {features.shape} does not match {len(model.feature_names)} features"
        )
    return model.base_score + model.spec.learning_rate * sum(
        tree.predict_one(features) for tree in model.trees
    )


def fit_series(series: CountSeries, spec: GbtSpec) -> GbtModel:
    """Convenience: build the supervised matrix from a series, then fit.
    A row needs its target and the largest lag or window before it
    observed, so the series needs a run of that many periods plus one, and
    weekday features need a daily series. The model keeps the series'
    granularity, which its forecasts require."""
    depth = max(spec.lags + spec.ma_windows, default=0)
    check_fit_input(series, min_run=depth + 1,
                    daily_only="weekday features" if "weekday" in spec.calendar else None)
    matrix = make_supervised(series, list(spec.lags), list(spec.ma_windows), spec.calendar)
    model = fit(matrix, spec)
    model.granularity = series.granularity
    return model


def forecast_recursive(model: GbtModel, series: CountSeries, horizon: int,
                       level: float = 0.95) -> Forecast:
    """Step-by-step forecast feeding predictions back as pseudo-history.

    Each step's row is the ``make_supervised`` row of its period: the lags
    and trailing means of the history, then the calendar columns of its
    date. The input depth ``forecast_input`` checks is the largest lag or
    window. Intervals use the train-residual RMSE * sqrt(step) heuristic and
    are labeled as such.
    """
    spec = model.spec
    lags, ma_windows = sorted(spec.lags), sorted(spec.ma_windows)
    series = forecast_input(series, model.granularity, max(lags + ma_windows, default=0), horizon, level)
    n = len(series)
    days = period_days(series.start, series.granularity, np.arange(n, n + horizon))
    dated = target_calendar(days, series.start, spec.calendar)
    lag_back = np.array(lags, dtype=int)

    def step(history: np.ndarray, t: int) -> float:
        means = [history[t - w:t].mean() for w in ma_windows]
        return predict(model, np.concatenate((history[t - lag_back], means, dated[t - n])))

    return recursive_forecast(series, horizon, level, model.rmse_train, step)
