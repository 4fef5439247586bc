// MetricRegistry: label handling, find-or-create stability, type-conflict
// detection, snapshot ordering/merging and the two text exporters.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

namespace edc::obs {
namespace {

TEST(MetricRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("edc_test_total", {{"kind", "x"}});
  Counter* b = reg.GetCounter("edc_test_total", {{"kind", "x"}});
  EXPECT_EQ(a, b);
  a->Inc(3);
  EXPECT_EQ(b->value(), 3u);
  // A different label set is a different time series.
  Counter* c = reg.GetCounter("edc_test_total", {{"kind", "y"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_TRUE(reg.ok());
}

TEST(MetricRegistryTest, TypeConflictIsReportedNotFatal) {
  MetricRegistry reg;
  reg.GetCounter("edc_conflict", {});
  Gauge* g = reg.GetGauge("edc_conflict", {});
  EXPECT_EQ(g, nullptr);  // conflicting re-registration is refused
  EXPECT_FALSE(reg.ok());
  EXPECT_NE(reg.error().find("edc_conflict"), std::string::npos);
}

TEST(MetricRegistryTest, SnapshotSortsByNameThenLabels) {
  MetricRegistry reg;
  reg.GetCounter("edc_b_total", {})->Inc();
  reg.GetCounter("edc_a_total", {{"z", "1"}})->Inc(2);
  reg.GetCounter("edc_a_total", {{"a", "1"}})->Inc(3);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "edc_a_total");
  EXPECT_EQ(snap.samples[0].labels, (LabelSet{{"a", "1"}}));
  EXPECT_EQ(snap.samples[1].name, "edc_a_total");
  EXPECT_EQ(snap.samples[1].labels, (LabelSet{{"z", "1"}}));
  EXPECT_EQ(snap.samples[2].name, "edc_b_total");
}

TEST(MetricRegistryTest, FindLocatesSampleByNameAndLabels) {
  MetricRegistry reg;
  reg.GetCounter("edc_x_total", {{"k", "v"}})->Inc(7);
  reg.GetGauge("edc_y", {})->Set(1.5);
  MetricsSnapshot snap = reg.Snapshot();
  const Sample* s = snap.Find("edc_x_total", {{"k", "v"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->counter_value, 7u);
  const Sample* g = snap.Find("edc_y");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->gauge_value, 1.5);
  EXPECT_EQ(snap.Find("edc_x_total", {{"k", "other"}}), nullptr);
  EXPECT_EQ(snap.Find("absent"), nullptr);
}

TEST(MetricRegistryTest, CollectorsRunAtSnapshotTime) {
  MetricRegistry reg;
  u64 live = 0;
  reg.AddCollector([&live](SampleList& out) {
    out.AddCounter("edc_live_total", {}, live);
  });
  live = 41;
  MetricsSnapshot snap = reg.Snapshot();
  const Sample* s = snap.Find("edc_live_total");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->counter_value, 41u);
}

TEST(MetricRegistryTest, RemovedCollectorsStopExporting) {
  MetricRegistry reg;
  u64 first = reg.AddCollector(
      [](SampleList& out) { out.AddCounter("edc_old_total", {}, 1); });
  u64 second = reg.AddCollector(
      [](SampleList& out) { out.AddCounter("edc_new_total", {}, 2); });
  EXPECT_NE(first, second);
  ASSERT_NE(reg.Snapshot().Find("edc_old_total"), nullptr);

  // The reboot pattern: the replacement component registers before the
  // old one unregisters, so removal must be by handle, not by position.
  reg.RemoveCollector(first);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Find("edc_old_total"), nullptr);
  EXPECT_NE(snap.Find("edc_new_total"), nullptr);

  // Unknown handles (and double removal) are a no-op.
  reg.RemoveCollector(first);
  reg.RemoveCollector(9999);
  EXPECT_NE(reg.Snapshot().Find("edc_new_total"), nullptr);
}

TEST(MetricRegistryTest, VolatileCollectorsExcludedByDefault) {
  MetricRegistry reg;
  reg.AddCollector(
      [](SampleList& out) { out.AddCounter("edc_wallclock_total", {}, 1); },
      /*deterministic=*/false);
  reg.AddCollector(
      [](SampleList& out) { out.AddCounter("edc_sim_total", {}, 2); });
  EXPECT_EQ(reg.Snapshot().Find("edc_wallclock_total"), nullptr);
  EXPECT_NE(reg.Snapshot().Find("edc_sim_total"), nullptr);
  MetricsSnapshot full = reg.Snapshot(/*include_volatile=*/true);
  EXPECT_NE(full.Find("edc_wallclock_total"), nullptr);
  EXPECT_NE(full.Find("edc_sim_total"), nullptr);
}

TEST(HistogramMetricTest, ObservationsLandInLeBuckets) {
  HistogramMetric h({10, 100, 1000});
  h.Observe(5);     // <= 10
  h.Observe(10);    // <= 10 (le is inclusive)
  h.Observe(50);    // <= 100
  h.Observe(5000);  // +Inf
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5065.0);
}

TEST(ExporterTest, JsonRoundTripsStructure) {
  MetricRegistry reg;
  reg.GetCounter("edc_c_total", {{"q", "a\"b"}}, "help text")->Inc(9);
  reg.GetGauge("edc_g", {})->Set(2.5);
  reg.GetHistogram("edc_h", {}, {1, 2})->Observe(1.5);
  std::string json = reg.Snapshot().ToJson();
  // Stable schema envelope and escaped label value.
  EXPECT_NE(json.find("\"schema\":\"edc-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
  EXPECT_NE(json.find("\"value\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(ExporterTest, PrometheusEmitsCumulativeBuckets) {
  MetricRegistry reg;
  HistogramMetric* h = reg.GetHistogram("edc_lat_us", {}, {10, 100});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  std::string prom = reg.Snapshot().ToPrometheus();
  EXPECT_NE(prom.find("# TYPE edc_lat_us histogram"), std::string::npos);
  // Buckets must be cumulative: le=10 -> 1, le=100 -> 2, +Inf -> 3.
  EXPECT_NE(prom.find("edc_lat_us_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("edc_lat_us_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("edc_lat_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("edc_lat_us_count 3"), std::string::npos);
}

TEST(ExporterTest, PrometheusLabelsRendered) {
  MetricRegistry reg;
  reg.GetCounter("edc_codec_total", {{"codec", "lzf"}})->Inc(4);
  std::string prom = reg.Snapshot().ToPrometheus();
  EXPECT_NE(prom.find("edc_codec_total{codec=\"lzf\"} 4"),
            std::string::npos);
}

TEST(ExporterTest, SnapshotsAreByteIdenticalAcrossRuns) {
  auto build = [] {
    MetricRegistry reg;
    reg.GetCounter("edc_n_total", {{"k", "v"}})->Inc(2);
    reg.GetGauge("edc_r", {})->Set(0.125);
    reg.GetHistogram("edc_h_us", {}, LatencyBoundsUs())->Observe(42.0);
    MetricsSnapshot s = reg.Snapshot();
    return s.ToJson() + "\n---\n" + s.ToPrometheus();
  };
  EXPECT_EQ(build(), build());
}

TEST(FormatDoubleTest, IntegersPrintWithoutFraction) {
  EXPECT_EQ(FormatDouble(4), "4");
  EXPECT_EQ(FormatDouble(0), "0");
  EXPECT_EQ(FormatDouble(-17), "-17");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  // Round-trip property for a non-trivial fraction.
  EXPECT_EQ(std::stod(FormatDouble(0.1)), 0.1);
}

// FormatDouble's definition, spelled with snprintf.
std::string PrintfFormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  double integral;
  char buf[64];
  if (std::modf(v, &integral) == 0.0 && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

TEST(FormatDoubleTest, MatchesPrintfOnEdgesAndRandomBitPatterns) {
  u64 checked = 0;
  u64 mismatches = 0;
  auto check = [&](double v) {
    ++checked;
    const std::string got = FormatDouble(v);
    const std::string want = PrintfFormatDouble(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "FormatDouble(" << want << ") = " << got;
    }
  };
  using L = std::numeric_limits<double>;
  for (double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 2.5, 1e15, -1e15, 1e15 - 1,
        1e15 + 1, -(1e15 - 1), -(1e15 + 1), 1e15 - 0.5, 1e16, 1e17,
        123456789012345678.0, 9007199254740992.0, 1e-5, 1e-4, 1e-300,
        L::denorm_min(), -L::denorm_min(), L::min(), -L::min(),
        L::min() / 3, L::max(), L::lowest(), L::epsilon(), L::infinity(),
        -L::infinity(), L::quiet_NaN()}) {
    check(v);
  }
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 1000000; ++i) {
    const u64 bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    check(v);
  }
  // Integers and short decimals: the values exports mostly hold, and
  // rare among random bit patterns.
  for (int i = 0; i < 200000; ++i) {
    const double n = static_cast<double>(rng() % 4000000000000000ULL);
    check(n - 2e15);
    check((n - 2e15) / 1000.0);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\ny"), "x\\ny");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(FormatDoubleTest, NonFiniteValuesUseStableTokens) {
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "NaN");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(FormatDouble(-std::numeric_limits<double>::infinity()),
            "-Inf");
}

TEST(JsonNumberTest, QuotesNonFiniteSoJsonStaysValid) {
  EXPECT_EQ(JsonNumber(2.5), "2.5");
  EXPECT_EQ(JsonNumber(4), "4");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()),
            "\"NaN\"");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()),
            "\"+Inf\"");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()),
            "\"-Inf\"");
}

// Regression: a NaN/Inf gauge must not corrupt the JSON export (bare
// NaN is not a JSON value) while the Prometheus export keeps the bare
// exposition-format tokens.
TEST(ExporterTest, NonFiniteGaugeStaysParseableInBothFormats) {
  MetricRegistry reg;
  reg.GetGauge("edc_nan_gauge")->Set(
      std::numeric_limits<double>::quiet_NaN());
  reg.GetGauge("edc_inf_gauge")->Set(
      std::numeric_limits<double>::infinity());
  MetricsSnapshot snap = reg.Snapshot();

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"value\":\"NaN\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":\"+Inf\""), std::string::npos);
  EXPECT_EQ(json.find(":NaN"), std::string::npos)
      << "bare NaN would break every JSON parser";

  std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("edc_nan_gauge NaN"), std::string::npos);
  EXPECT_NE(prom.find("edc_inf_gauge +Inf"), std::string::npos);
}

TEST(ExporterTest, NonFiniteHistogramSumStaysParseableInJson) {
  MetricRegistry reg;
  HistogramMetric* h = reg.GetHistogram("edc_h", {}, {1.0, 10.0});
  h->Observe(std::numeric_limits<double>::infinity());
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"sum\":\"+Inf\""), std::string::npos);
  EXPECT_EQ(json.find(":Inf"), std::string::npos);
}

}  // namespace
}  // namespace edc::obs
