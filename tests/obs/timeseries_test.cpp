// TimeSeriesSampler unit tests: window bookkeeping, counter deltas,
// gauge levels, derived histogram columns, retention, and the two export
// formats (docs/observability.md#continuous-telemetry).
#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace edc::obs {
namespace {

SamplerConfig Config(SimTime period, std::size_t retention = 0) {
  SamplerConfig c;
  c.period = period;
  c.retention_windows = retention;
  return c;
}

TEST(TimeSeries, WindowsCloseAtExactPeriodMultiples) {
  MetricRegistry reg;
  TimeSeriesSampler s(Config(10 * kMillisecond), &reg);
  EXPECT_EQ(s.AdvanceTo(9 * kMillisecond), 0u);
  EXPECT_EQ(s.AdvanceTo(10 * kMillisecond), 1u);   // boundary inclusive
  EXPECT_EQ(s.AdvanceTo(10 * kMillisecond), 0u);   // idempotent
  EXPECT_EQ(s.AdvanceTo(35 * kMillisecond), 2u);   // 20ms and 30ms close
  EXPECT_EQ(s.windows_completed(), 3u);
  EXPECT_EQ(s.WindowEnd(0), 10 * kMillisecond);
  EXPECT_EQ(s.WindowEnd(2), 30 * kMillisecond);
}

TEST(TimeSeries, CounterDeltasAndLevels) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("edc_ops_total");
  TimeSeriesSampler s(Config(kMillisecond), &reg);

  c->Inc(3);
  s.AdvanceTo(kMillisecond);      // window 0: delta 3
  c->Inc(4);
  s.AdvanceTo(2 * kMillisecond);  // window 1: delta 4
  s.AdvanceTo(3 * kMillisecond);  // window 2: idle, delta 0

  const auto* series = s.Find("edc_ops_total");
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(series->counter);
  ASSERT_EQ(series->values().size(), 3u);
  EXPECT_DOUBLE_EQ(series->values()[0], 3);
  EXPECT_DOUBLE_EQ(series->values()[1], 4);
  EXPECT_DOUBLE_EQ(series->values()[2], 0);
  // LevelAt reconstructs the cumulative value at each window boundary.
  EXPECT_DOUBLE_EQ(series->LevelAt(0), 3);
  EXPECT_DOUBLE_EQ(series->LevelAt(1), 7);
  EXPECT_DOUBLE_EQ(series->LevelAt(2), 7);
  EXPECT_DOUBLE_EQ(series->DeltaAt(1), 4);
}

TEST(TimeSeries, GaugeHoldsBoundaryValue) {
  MetricRegistry reg;
  Gauge* g = reg.GetGauge("edc_depth");
  TimeSeriesSampler s(Config(kMillisecond), &reg);

  g->Set(2.5);
  s.AdvanceTo(kMillisecond);
  g->Set(7.0);
  // Both windows close in one call: the second is an idle replica that
  // holds the last sampled value rather than re-reading the gauge.
  g->Set(9.0);
  s.AdvanceTo(3 * kMillisecond);

  const auto* series = s.Find("edc_depth");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->values().size(), 3u);
  EXPECT_DOUBLE_EQ(series->values()[0], 2.5);
  EXPECT_DOUBLE_EQ(series->values()[1], 9.0);
  EXPECT_DOUBLE_EQ(series->values()[2], 9.0);
  EXPECT_DOUBLE_EQ(series->DeltaAt(1), 6.5);
  EXPECT_DOUBLE_EQ(series->DeltaAt(2), 0.0);
}

TEST(TimeSeries, HistogramDerivesCountSumAndQuantiles) {
  MetricRegistry reg;
  HistogramMetric* h =
      reg.GetHistogram("lat_us", {}, {10.0, 100.0, 1000.0});
  TimeSeriesSampler s(Config(kMillisecond), &reg);

  for (int i = 0; i < 8; ++i) h->Observe(5.0);    // <= 10 bucket
  for (int i = 0; i < 2; ++i) h->Observe(50.0);   // <= 100 bucket
  s.AdvanceTo(kMillisecond);
  s.AdvanceTo(2 * kMillisecond);  // empty window

  const auto* count = s.Find("lat_us:count");
  const auto* sum = s.Find("lat_us:sum");
  const auto* p50 = s.Find("lat_us:p50");
  const auto* p99 = s.Find("lat_us:p99");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(sum, nullptr);
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  EXPECT_DOUBLE_EQ(count->values()[0], 10);
  EXPECT_DOUBLE_EQ(sum->values()[0], 8 * 5.0 + 2 * 50.0);
  // p50 falls inside the first bucket (interpolated in [0, 10]);
  // p99 inside the second ([10, 100]).
  EXPECT_GT(p50->values()[0], 0.0);
  EXPECT_LE(p50->values()[0], 10.0);
  EXPECT_GT(p99->values()[0], 10.0);
  EXPECT_LE(p99->values()[0], 100.0);
  // The empty window has no observations: NaN quantiles, zero deltas.
  EXPECT_DOUBLE_EQ(count->values()[1], 0);
  EXPECT_TRUE(std::isnan(p99->values()[1]));
}

TEST(TimeSeries, QuantileOfInfBucketClampsToLastFiniteBound) {
  MetricRegistry reg;
  HistogramMetric* h = reg.GetHistogram("lat", {}, {10.0, 100.0});
  TimeSeriesSampler s(Config(kMillisecond), &reg);
  h->Observe(5000.0);  // lands in the +Inf overflow bucket
  s.AdvanceTo(kMillisecond);
  const auto* p99 = s.Find("lat:p99");
  ASSERT_NE(p99, nullptr);
  EXPECT_DOUBLE_EQ(p99->values()[0], 100.0);
}

TEST(TimeSeries, RetentionRingDropsOldWindows) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("ops");
  TimeSeriesSampler s(Config(kMillisecond, /*retention=*/3), &reg);

  for (int w = 1; w <= 10; ++w) {
    c->Inc(static_cast<u64>(w));
    s.AdvanceTo(w * kMillisecond);
  }
  EXPECT_EQ(s.windows_completed(), 10u);
  EXPECT_EQ(s.retained(), 3u);
  EXPECT_EQ(s.first_retained(), 7u);
  const auto* series = s.Find("ops");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->values().size(), 3u);
  EXPECT_DOUBLE_EQ(series->values()[0], 8);   // window 7 (0-based)
  EXPECT_DOUBLE_EQ(series->values()[2], 10);  // window 9
  // Levels survive trimming: cumulative is tracked separately.
  EXPECT_DOUBLE_EQ(series->LevelAt(2), 55);
  EXPECT_DOUBLE_EQ(series->LevelAt(0), 55 - 9 - 10);
}

TEST(TimeSeries, ForceWindowCapturesTheTail) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("ops");
  TimeSeriesSampler s(Config(10 * kMillisecond), &reg);
  c->Inc(5);
  s.AdvanceTo(10 * kMillisecond);
  c->Inc(2);
  EXPECT_TRUE(s.ForceWindow(13 * kMillisecond));  // partial final window
  EXPECT_EQ(s.windows_completed(), 2u);
  EXPECT_EQ(s.WindowEnd(1), 13 * kMillisecond);
  const auto* series = s.Find("ops");
  ASSERT_EQ(series->values().size(), 2u);
  EXPECT_DOUBLE_EQ(series->values()[1], 2);
  // Finalized: nothing moves afterwards.
  EXPECT_EQ(s.AdvanceTo(100 * kMillisecond), 0u);
  EXPECT_FALSE(s.ForceWindow(200 * kMillisecond));
}

TEST(TimeSeries, JsonExportIsStableAndWellFormed) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("edc_ops_total");
  Gauge* g = reg.GetGauge("edc_ratio");
  TimeSeriesSampler s(Config(kMillisecond), &reg);
  c->Inc(7);
  g->Set(1.5);
  s.AdvanceTo(kMillisecond);
  std::string json = s.ToJson();
  EXPECT_NE(json.find("\"schema\":\"edc-timeseries-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"period_ns\":1000000"), std::string::npos);
  EXPECT_NE(json.find("\"window_end_ns\":[1000000]"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"edc_ops_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);
  // Byte-stable: rendering twice gives the same text.
  EXPECT_EQ(json, s.ToJson());
}

TEST(TimeSeries, JsonLastNRestrictsToRecentWindows) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("ops");
  TimeSeriesSampler s(Config(kMillisecond), &reg);
  for (int w = 1; w <= 5; ++w) {
    c->Inc(1);
    s.AdvanceTo(w * kMillisecond);
  }
  std::string json = s.ToJson(/*last_n=*/2);
  EXPECT_NE(json.find("\"windows\":2"), std::string::npos);
  EXPECT_NE(json.find("\"first_window\":3"), std::string::npos);
}

TEST(TimeSeries, CsvExportQuotesAndOrdersColumns) {
  MetricRegistry reg;
  reg.GetCounter("b_total")->Inc(1);
  reg.GetCounter("a_total", {{"cls", "x,y"}})->Inc(2);
  TimeSeriesSampler s(Config(kMillisecond), &reg);
  s.AdvanceTo(kMillisecond);
  std::string csv = s.ToCsv();
  // Sorted by (name, labels); the labeled column is RFC-4180 quoted
  // because its header contains a comma.
  EXPECT_NE(csv.find("window,end_ns,\"a_total{cls=x,y}\",b_total"),
            std::string::npos);
  EXPECT_NE(csv.find("0,1000000,2,1"), std::string::npos);
}

TEST(TimeSeries, NonFiniteGaugeRendersQuotedInJsonBareInCsv) {
  MetricRegistry reg;
  reg.GetGauge("edc_weird")->Set(std::nan(""));
  TimeSeriesSampler s(Config(kMillisecond), &reg);
  s.AdvanceTo(kMillisecond);
  EXPECT_NE(s.ToJson().find("\"NaN\""), std::string::npos);
  EXPECT_NE(s.ToCsv().find("0,1000000,NaN"), std::string::npos);
}

}  // namespace
}  // namespace edc::obs
