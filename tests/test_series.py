"""Count-series construction, masking, and supervised features."""

from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from attrikit.errors import ModelError
from attrikit.ingest import Category, LossRecord, Status
from attrikit.series import (
    DAILY,
    MONTH_FEATURES,
    MONTHLY,
    WEEKDAY_FEATURES,
    CountSeries,
    ExclusionWindow,
    Forecast,
    aggregate,
    apply_exclusions,
    forecast_to_csv,
    make_supervised,
    period_days,
    period_index,
    period_start,
    series_to_csv,
)


def rec(day, category=Category.TANK):
    return LossRecord(day, category, Status.DESTROYED, source_url=f"u://{day}/{category.value}/{id(day)}")


def daily_series(values, start=date(2022, 3, 1), mask=None):
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(values), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return CountSeries(DAILY, start, values, mask)


# -- aggregate ---------------------------------------------------------------


def test_aggregate_daily_hand_count():
    records = [rec(date(2022, 3, 1)) for _ in range(3)] + [rec(date(2022, 3, 2))]
    s = aggregate(records, DAILY, date_range=(date(2022, 3, 1), date(2022, 3, 2)))
    assert s.values.tolist() == [3.0, 1.0]
    assert s.mask.all()


def test_aggregate_zero_records_is_observed_zeros():
    s = aggregate([], DAILY, date_range=(date(2022, 3, 1), date(2022, 3, 5)))
    assert s.values.tolist() == [0.0] * 5
    assert s.mask.all()


def test_aggregate_monthly_hand_count():
    records = [rec(date(2022, 3, d)) for d in range(1, 32)]
    s = aggregate(records, MONTHLY, date_range=(date(2022, 3, 1), date(2022, 3, 31)))
    assert len(s) == 1 and s.values[0] == 31.0
    assert s.start == date(2022, 3, 1)


def test_aggregate_category_filter_and_permutation_invariance():
    records = [rec(date(2022, 3, 1)), rec(date(2022, 3, 1), Category.IFV), rec(date(2022, 3, 2))]
    r = (date(2022, 3, 1), date(2022, 3, 2))
    a = aggregate(records, DAILY, {Category.TANK}, r)
    b = aggregate(list(reversed(records)), DAILY, {Category.TANK}, r)
    assert a.values.tolist() == b.values.tolist() == [1.0, 1.0]


def test_aggregate_bad_ranges():
    with pytest.raises(ValueError):
        aggregate([], DAILY, date_range=(date(2022, 3, 5), date(2022, 3, 1)))
    with pytest.raises(ValueError):
        aggregate([], DAILY, date_range=(None, None))
    with pytest.raises(ValueError):
        aggregate([], DAILY)  # no records to infer a range from


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(granularity=st.sampled_from([DAILY, MONTHLY]), lo=st.dates(date(1960, 1, 1), date(2030, 12, 31)),
       span=st.integers(0, 400), offsets=st.lists(st.tuples(st.integers(-30, 430), st.booleans()), max_size=40),
       windows=st.lists(st.tuples(st.integers(-60, 460), st.integers(0, 60)), max_size=3))
def test_aggregate_and_exclusions_match_a_count_per_record(granularity, lo, span, offsets, windows):
    """The array counts and masks equal a count of each record and a mask of
    each excluded day, keyed by the day (daily) or its year and month."""
    hi = lo + timedelta(days=span)
    records = [rec(lo + timedelta(days=k), Category.TANK if tank else Category.IFV) for k, tank in offsets]
    excluded = [ExclusionWindow(lo + timedelta(days=a), lo + timedelta(days=a + n)) for a, n in windows]
    series = apply_exclusions(aggregate(records, granularity, {Category.TANK}, (lo, hi)), excluded)

    def key(day):
        return day if granularity == DAILY else (day.year, day.month)

    starts = series.period_starts()
    assert key(starts[0]) == key(lo) and key(starts[-1]) == key(hi) and len({*map(key, starts)}) == len(starts)
    counts = Counter(key(r.date) for r in records if r.category is Category.TANK and lo <= r.date <= hi)
    assert series.values.tolist() == [counts[key(day)] for day in starts]
    masked = {key(w.start + timedelta(days=k)) for w in excluded for k in range((w.end - w.start).days + 1)}
    assert series.mask.tolist() == [key(day) not in masked for day in starts]


# -- exclusions --------------------------------------------------------------


def test_exclusion_masks_june_2025_daily():
    s = CountSeries(DAILY, date(2025, 6, 1), np.arange(30.0), np.ones(30, dtype=bool))
    out = apply_exclusions(s, [ExclusionWindow(date(2025, 6, 1), date(2025, 6, 30))])
    assert (~out.mask).sum() == 30
    assert np.array_equal(out.values, s.values)  # masked, never zeroed


def test_exclusion_empty_list_is_identity():
    s = daily_series([1, 2, 3])
    out = apply_exclusions(s, [])
    assert np.array_equal(out.mask, s.mask) and np.array_equal(out.values, s.values)


def test_exclusion_partial_overlap_masks_whole_month():
    s = CountSeries(MONTHLY, date(2025, 5, 1), np.array([5.0, 6.0, 7.0]), np.ones(3, dtype=bool))
    out = apply_exclusions(s, [ExclusionWindow(date(2025, 6, 15), date(2025, 6, 20))])
    assert out.mask.tolist() == [True, False, True]


def test_exclusion_out_of_range_noop_and_idempotent_commuting():
    s = daily_series([1, 2, 3, 4, 5])
    w1 = ExclusionWindow(date(2022, 3, 2), date(2022, 3, 3))
    w2 = ExclusionWindow(date(2021, 1, 1), date(2021, 12, 31))
    once = apply_exclusions(s, [w1, w2])
    twice = apply_exclusions(once, [w1])
    swapped = apply_exclusions(apply_exclusions(s, [w2]), [w1])
    assert once.mask.tolist() == twice.mask.tolist() == swapped.mask.tolist() == [True, False, False, True, True]


def test_exclusion_window_validates():
    with pytest.raises(ValueError):
        ExclusionWindow(date(2025, 7, 1), date(2025, 6, 1))


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(mask=st.lists(st.booleans(), min_size=1, max_size=40), extra=st.integers(0, 10))
def test_history_is_observed_values_and_nan_elsewhere(mask, extra):
    s = daily_series(np.arange(1.0, len(mask) + 1), mask=mask)
    history = s.history(len(s) + extra)
    assert len(history) == len(s) + extra
    for t, value in enumerate(history):
        if t < len(s) and mask[t]:
            assert value == t + 1
        else:
            assert np.isnan(value)  # masked, or past the end
    assert np.array_equal(s.history(), history[:len(s)], equal_nan=True)


# -- supervised matrix -------------------------------------------------------


def test_make_supervised_lag_one():
    s = daily_series([1, 2, 3, 4])
    m = make_supervised(s, lags=[1], ma_windows=[])
    assert m.feature_names == ("lag_1",)
    assert m.x.tolist() == [[1.0], [2.0], [3.0]]
    assert m.y.tolist() == [2.0, 3.0, 4.0]
    assert m.target_dates[0] == date(2022, 3, 2)


def test_make_supervised_drops_rows_touching_mask():
    s = daily_series([1, 2, 3, 4], mask=[True, True, False, True])
    m = make_supervised(s, lags=[1], ma_windows=[])
    # target idx2 masked; target idx3 lags through idx2: only ([1], 2) survives
    assert m.x.tolist() == [[1.0]]
    assert m.y.tolist() == [2.0]


def test_make_supervised_weekday_onehot_monday_first():
    # 2022-03-07 is a Monday
    s = daily_series(np.arange(10.0), start=date(2022, 3, 1))
    m = make_supervised(s, lags=[1], ma_windows=[], calendar={"weekday"})
    row = {d: x for x, d in zip(m.x, m.target_dates)}[date(2022, 3, 7)]
    assert row[1:8].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_make_supervised_feature_order_and_recompute():
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 20, size=60).astype(float)
    s = daily_series(vals, start=date(2022, 3, 1))
    m = make_supervised(s, lags=[3, 1], ma_windows=[7, 2], calendar={"weekday", "month", "linear_index"})
    assert m.feature_names[:4] == ("lag_1", "lag_3", "ma_2", "ma_7")
    assert m.feature_names[-1] == "linear_index"
    # Recompute each feature from the raw series: must reproduce stored values.
    for row, target, day in zip(m.x, m.y, m.target_dates):
        t = (day - s.start).days
        assert row[0] == vals[t - 1]
        assert row[1] == vals[t - 3]
        assert row[2] == vals[t - 2:t].mean()
        assert row[3] == vals[t - 7:t].mean()
        assert row[4 + day.weekday()] == 1.0 and row[4:11].sum() == 1.0
        assert row[11 + day.month - 1] == 1.0 and row[11:23].sum() == 1.0
        assert row[23] == float(t)
        assert target == vals[t]


@st.composite
def feature_requests(draw):
    """A masked daily or monthly series with non-integer values (so a
    moving average's summation order shows) and a feature request."""
    granularity = draw(st.sampled_from([DAILY, MONTHLY]))
    n = draw(st.integers(5, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.poisson(draw(st.integers(0, 30)), n) + rng.random(n) * draw(st.sampled_from([0.0, 1.0, 1e3]))
    mask = np.ones(n, dtype=bool)
    for _ in range(draw(st.integers(0, 3))):
        first = draw(st.integers(0, n - 1))
        mask[first:first + draw(st.integers(1, 10))] = False
    day = date(2021, 1, 1) + timedelta(days=draw(st.integers(0, 2000)))
    start = day if granularity == DAILY else day.replace(day=1)
    lags = draw(st.lists(st.integers(1, 15), max_size=4))
    ma_windows = draw(st.lists(st.integers(1, 40), max_size=3))
    flags = ["month", "linear_index"] + (["weekday"] if granularity == DAILY else [])
    calendar = set(draw(st.lists(st.sampled_from(flags), max_size=3)))
    return CountSeries(granularity, start, values, mask), lags, ma_windows, calendar


def feature_row(
    history: np.ndarray,
    t: int,
    target_date: date,
    series_start: date,
    lags: list[int],
    ma_windows: list[int],
    calendar: set[str],
) -> np.ndarray | None:
    """Feature vector for target period ``t`` over a NaN-masked history array.

    Returns None when any referenced lag or moving-average span touches a
    missing (NaN) or out-of-range value. Moving averages are trailing
    means over the w periods ending at t-1, so no feature sees the target
    or its future.
    """
    feats: list[float] = []
    for k in sorted(lags):
        if t - k < 0:
            return None
        v = history[t - k]
        if np.isnan(v):
            return None
        feats.append(float(v))
    for w in sorted(ma_windows):
        if t - w < 0:
            return None
        window = history[t - w:t]
        if np.any(np.isnan(window)):
            return None
        feats.append(float(window.mean()))
    if "weekday" in calendar:
        onehot = [0.0] * WEEKDAY_FEATURES
        onehot[target_date.weekday()] = 1.0
        feats.extend(onehot)
    if "month" in calendar:
        onehot = [0.0] * MONTH_FEATURES
        onehot[target_date.month - 1] = 1.0
        feats.extend(onehot)
    if "linear_index" in calendar:
        feats.append(float((target_date - series_start).days))
    return np.array(feats, dtype=float)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(request=feature_requests())
def test_make_supervised_rows_are_feature_rows(request):
    # Array-built training rows must equal the scalar per-period oracle above.
    series, lags, ma_windows, calendar = request
    depth = max(lags + ma_windows, default=0)
    assume((lags or ma_windows or calendar) and depth < series.mask.sum())
    m = make_supervised(series, lags, ma_windows, calendar)
    history = np.where(series.mask, series.values, np.nan)
    expected = {}
    for t in range(len(series)):
        day = period_start(series.start, series.granularity, t)
        row = feature_row(history, t, day, series.start, lags, ma_windows, calendar)
        if row is not None and series.mask[t]:
            expected[day] = (row, series.values[t])
    assert list(m.target_dates) == list(expected)
    assert m.x.shape == (len(expected), len(m.feature_names))
    for row, target, day in zip(m.x, m.y, m.target_dates):
        assert np.array_equal(row.view(np.int64), expected[day][0].view(np.int64))
        assert target == expected[day][1]


def test_make_supervised_monthly_rejects_weekday():
    s = CountSeries(MONTHLY, date(2022, 3, 1), np.arange(12.0), np.ones(12, dtype=bool))
    with pytest.raises(ValueError, match="daily"):
        make_supervised(s, lags=[1], ma_windows=[], calendar={"weekday"})


def test_make_supervised_no_features_error():
    with pytest.raises(ValueError, match="no features"):
        make_supervised(daily_series([1, 2, 3]), lags=[], ma_windows=[])


def test_make_supervised_depth_exceeds_history():
    with pytest.raises(ValueError):
        make_supervised(daily_series([1, 2, 3]), lags=[5], ma_windows=[])


# -- serialization -----------------------------------------------------------


def test_series_csv_layout():
    s = daily_series([1, 0, 2.5], mask=[True, False, True])
    assert series_to_csv(s) == "period_start,value,observed\n2022-03-01,1,1\n2022-03-02,0,0\n2022-03-03,2.5,1\n"
    m = CountSeries(MONTHLY, date(2025, 5, 1), np.array([5.0, 6.0]), np.array([True, False]))
    assert series_to_csv(m) == "period_start,value,observed\n2025-05-01,5,1\n2025-06-01,6,0\n"


def test_forecast_csv_layout():
    f = Forecast(DAILY, date(2025, 8, 1), [1.0, 2.0], [0.5, 1.0], [1.5, 3.0], 0.95)
    lines = forecast_to_csv(f).strip().split("\n")
    assert lines[0] == "period_start,point,lower,upper,level"
    assert lines[1] == "2025-08-01,1,0.5,1.5,0.95"


@pytest.mark.parametrize("part", ["point", "lower", "upper"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_forecast_must_be_finite(part, bad):
    # Clamping at zero keeps NaN and inf; the check names the first bad step
    # before the order check can see a NaN.
    arrays = {"point": [1.0, 2.0, 3.0], "lower": [0.5, 1.0, 2.0], "upper": [1.5, 3.0, 4.0]}
    arrays[part][1] = bad
    with pytest.raises(ModelError, match="^forecast is not finite at step 2$"):
        Forecast(DAILY, date(2025, 8, 1), level=0.95, **arrays)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(start=st.dates(), days=st.lists(st.dates(), min_size=1, max_size=5),
       granularity=st.sampled_from([DAILY, MONTHLY]))
def test_period_helpers(start, days, granularity):
    """period_index and period_days agree with plain date arithmetic over
    every date, and round-trip: the period holding a day starts on or
    before it, and the next period starts after it."""
    index = period_index(start, granularity, np.array(days, "M8[D]"))
    firsts = []
    for day, i in zip(days, index.tolist()):
        if granularity == DAILY:
            assert start + timedelta(days=i) == day
            firsts.append(day)
        else:
            assert i == (day.year - start.year) * 12 + day.month - start.month
            firsts.append(date(day.year, day.month, 1))
        assert period_index(start, granularity, day) == i
        assert period_start(start, granularity, i) == firsts[-1]
        after = period_days(start, granularity, i + 1)
        assert after > np.datetime64(day, "D") and period_index(start, granularity, after) == i + 1
    assert period_days(start, granularity, index).tolist() == firsts


@pytest.mark.parametrize("granularity, start, n", [(DAILY, date(9999, 12, 30), 3), (MONTHLY, date(9999, 11, 1), 3)])
def test_series_past_the_last_date_is_rejected(granularity, start, n):
    with pytest.raises(ValueError, match="runs past 9999-12-31"):
        CountSeries(granularity, start, np.zeros(n), np.ones(n, dtype=bool))
    last = CountSeries(granularity, start, np.zeros(n - 1), np.ones(n - 1, dtype=bool))
    assert last.period_starts()[-1] == (date.max if granularity == DAILY else date(9999, 12, 1))


def test_monthly_series_must_start_on_month_first():
    with pytest.raises(ValueError):
        CountSeries(MONTHLY, date(2022, 3, 15), np.array([1.0]), np.array([True]))
