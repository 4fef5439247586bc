// Observability end-to-end: enabling the observer must not perturb the
// simulation, two enabled runs must export byte-identical files, and the
// metrics snapshot must agree with EngineStats.
#include <gtest/gtest.h>

#include "common/worker_pool.hpp"
#include "obs/observer.hpp"
#include "sim/replay.hpp"
#include "trace/synthetic.hpp"

namespace edc::obs {
namespace {

using core::ExecutionMode;
using core::Scheme;
using core::Stack;
using core::StackConfig;

StackConfig BaseConfig(Scheme scheme) {
  StackConfig cfg;
  cfg.scheme = scheme;
  cfg.mode = ExecutionMode::kFunctional;
  cfg.content_profile = "fin";
  cfg.seed = 77;
  cfg.ssd.geometry.pages_per_block = 32;
  cfg.ssd.geometry.num_blocks = 2048;  // 256 MiB
  cfg.ssd.store_data = false;
  return cfg;
}

trace::Trace SmallTrace(const char* preset, double seconds) {
  auto p = trace::PresetByName(preset, seconds);
  EXPECT_TRUE(p.ok());
  p->working_set_blocks = 4000;  // force overwrites and reads of old data
  return GenerateSynthetic(*p, 11);
}

sim::ReplayResult Replay(const trace::Trace& t, StackConfig cfg,
                      Observer* observer) {
  cfg.obs = observer;
  auto stack = Stack::Create(cfg);
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  auto result = sim::ReplayTrace(**stack, t);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

// Serialized mapping table of a fresh replay — the strongest "same
// simulation" witness we have (group extents, tags, liveness).
Bytes MapImage(const trace::Trace& t, StackConfig cfg, Observer* observer) {
  cfg.obs = observer;
  auto stack = Stack::Create(cfg);
  EXPECT_TRUE(stack.ok());
  auto result = sim::ReplayTrace(**stack, t);
  EXPECT_TRUE(result.ok());
  return (*stack)->engine().map().Serialize();
}

TEST(ObsIntegration, EnablingObserverDoesNotPerturbSimulation) {
  trace::Trace t = SmallTrace("Fin2", 2.0);
  StackConfig cfg = BaseConfig(Scheme::kEdc);

  Observer observer;  // metrics + trace, no filter
  sim::ReplayResult off = Replay(t, cfg, nullptr);
  sim::ReplayResult on = Replay(t, cfg, &observer);

  EXPECT_EQ(off.requests, on.requests);
  EXPECT_EQ(off.response_us.mean(), on.response_us.mean());
  EXPECT_EQ(off.p99_us, on.p99_us);
  EXPECT_EQ(off.write_p99_us, on.write_p99_us);
  EXPECT_EQ(off.read_p99_us, on.read_p99_us);
  EXPECT_EQ(off.compression_ratio, on.compression_ratio);
  EXPECT_EQ(off.engine.groups_written, on.engine.groups_written);
  EXPECT_EQ(off.engine.cache_hits, on.engine.cache_hits);
  EXPECT_EQ(off.device.host_pages_written, on.device.host_pages_written);

  Observer observer2;
  EXPECT_EQ(MapImage(t, cfg, nullptr), MapImage(t, cfg, &observer2));
}

TEST(ObsIntegration, TwoEnabledRunsExportIdenticalBytes) {
  trace::Trace t = SmallTrace("Fin1", 1.5);
  StackConfig cfg = BaseConfig(Scheme::kEdc);

  auto run = [&] {
    Observer observer;
    cfg.obs = &observer;
    auto stack = Stack::Create(cfg);
    EXPECT_TRUE(stack.ok());
    auto result = sim::ReplayTrace(**stack, t);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result->metrics.ToJson(),
                          observer.trace()->ToJson());
  };
  auto [metrics_a, trace_a] = run();
  auto [metrics_b, trace_b] = run();
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_EQ(trace_a, trace_b);
  // Sanity: the run actually produced events and samples.
  EXPECT_GT(trace_a.size(), 1000u);
  EXPECT_NE(metrics_a.find("edc_host_writes_total"), std::string::npos);
}

TEST(ObsIntegration, SnapshotAgreesWithEngineStats) {
  trace::Trace t = SmallTrace("Fin2", 2.0);
  StackConfig cfg = BaseConfig(Scheme::kEdc);
  cfg.cache_groups = 64;  // exercise cache hit/miss counters

  Observer observer;
  cfg.obs = &observer;
  auto stack = Stack::Create(cfg);
  ASSERT_TRUE(stack.ok());
  auto result = sim::ReplayTrace(**stack, t);
  ASSERT_TRUE(result.ok());
  const core::EngineStats& s = result->engine;
  const MetricsSnapshot& snap = result->metrics;

  auto counter = [&](const char* name) -> u64 {
    const Sample* sample = snap.Find(name);
    EXPECT_NE(sample, nullptr) << name;
    return sample == nullptr ? ~0ull : sample->counter_value;
  };
  EXPECT_EQ(counter("edc_host_writes_total"), s.host_writes);
  EXPECT_EQ(counter("edc_host_reads_total"), s.host_reads);
  EXPECT_EQ(counter("edc_groups_written_total"), s.groups_written);
  EXPECT_EQ(counter("edc_cache_hits_total"), s.cache_hits);
  EXPECT_EQ(counter("edc_cache_misses_total"), s.cache_misses);
  EXPECT_EQ(counter("edc_logical_bytes_written_total"),
            s.logical_bytes_written);
  EXPECT_EQ(counter("edc_allocated_bytes_total"), s.allocated_bytes_total);

  const Sample* ratio = snap.Find("edc_compression_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_DOUBLE_EQ(ratio->gauge_value, s.cumulative_ratio());

  // The push-side latency histogram must have seen every host write.
  const Sample* hist = snap.Find("edc_write_latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, s.write_latency_us.count());
  const Sample* rhist = snap.Find("edc_read_latency_us");
  ASSERT_NE(rhist, nullptr);
  EXPECT_EQ(rhist->count, s.read_latency_us.count());

  // Device collector is wired by Stack::Create.
  EXPECT_EQ(counter("edc_device_host_pages_written_total"),
            result->device.host_pages_written);
  EXPECT_EQ(counter("edc_device_gc_runs_total"), result->device.gc_runs);

  // Breaker gauge exists and reflects the (closed) breaker.
  const Sample* breaker = snap.Find("edc_breaker_open");
  ASSERT_NE(breaker, nullptr);
  EXPECT_DOUBLE_EQ(breaker->gauge_value, s.breaker_open ? 1.0 : 0.0);
}

TEST(ObsIntegration, TraceFilterLimitsCategories) {
  trace::Trace t = SmallTrace("Fin1", 1.0);
  StackConfig cfg = BaseConfig(Scheme::kLzf);

  Observer::Options oo;
  oo.trace_filter = "host";
  Observer observer(oo);
  Replay(t, cfg, &observer);
  std::string json = observer.trace()->ToJson();
  EXPECT_NE(json.find("host.write"), std::string::npos);
  EXPECT_EQ(json.find("flash.program"), std::string::npos);
  EXPECT_EQ(json.find("codec.compress"), std::string::npos);
}

TEST(ObsIntegration, MetricsOnlyObserverRecordsNoTrace) {
  trace::Trace t = SmallTrace("Fin1", 1.0);
  StackConfig cfg = BaseConfig(Scheme::kLzf);

  Observer::Options oo;
  oo.trace = false;
  Observer observer(oo);
  sim::ReplayResult r = Replay(t, cfg, &observer);
  EXPECT_EQ(observer.trace(), nullptr);
  EXPECT_FALSE(r.metrics.empty());
}

Observer::Options FullTelemetryOptions() {
  Observer::Options oo;
  oo.sampler = true;
  oo.sample_period = 50 * kMillisecond;
  oo.flight_recorder = true;
  oo.health_rules = DefaultHealthRules();
  return oo;
}

TEST(ObsIntegration, FullTelemetryDoesNotPerturbSimulation) {
  trace::Trace t = SmallTrace("Fin2", 2.0);
  StackConfig cfg = BaseConfig(Scheme::kEdc);

  sim::ReplayResult off = Replay(t, cfg, nullptr);
  Observer observer(FullTelemetryOptions());
  ASSERT_TRUE(observer.ok()) << observer.error();
  sim::ReplayResult on = Replay(t, cfg, &observer);

  // Sampler + watchdog + flight recorder enabled: every simulated
  // timestamp must be unchanged.
  EXPECT_EQ(off.requests, on.requests);
  EXPECT_EQ(off.response_us.mean(), on.response_us.mean());
  EXPECT_EQ(off.p99_us, on.p99_us);
  EXPECT_EQ(off.write_p99_us, on.write_p99_us);
  EXPECT_EQ(off.read_p99_us, on.read_p99_us);
  EXPECT_EQ(off.compression_ratio, on.compression_ratio);
  EXPECT_EQ(off.engine.groups_written, on.engine.groups_written);
  EXPECT_EQ(off.device.host_pages_written, on.device.host_pages_written);

  // The run actually sampled: windows exist and carry host activity.
  ASSERT_NE(observer.sampler(), nullptr);
  EXPECT_GT(observer.sampler()->windows_completed(), 10u);
  EXPECT_NE(observer.sampler()->Find("edc_host_writes_total"), nullptr);
  // Healthy run: the default rules stay quiet, report lands in the
  // ReplayResult.
  EXPECT_TRUE(on.health.healthy());
  EXPECT_GT(on.health.windows_evaluated, 10u);

  Observer observer2(FullTelemetryOptions());
  EXPECT_EQ(MapImage(t, cfg, nullptr), MapImage(t, cfg, &observer2));
}

TEST(ObsIntegration, FullTelemetryRerunsExportIdenticalBytes) {
  trace::Trace t = SmallTrace("Fin1", 1.5);
  StackConfig cfg = BaseConfig(Scheme::kEdc);

  struct Exports {
    std::string timeseries, csv, health, trace;
  };
  auto run = [&] {
    Observer observer(FullTelemetryOptions());
    EXPECT_TRUE(observer.ok()) << observer.error();
    cfg.obs = &observer;
    auto stack = Stack::Create(cfg);
    EXPECT_TRUE(stack.ok());
    auto result = sim::ReplayTrace(**stack, t);
    EXPECT_TRUE(result.ok());
    Exports e;
    e.timeseries = observer.sampler()->ToJson();
    e.csv = observer.sampler()->ToCsv();
    e.health = result->health.ToJson();
    e.trace = observer.trace()->ToJson();
    return e;
  };
  Exports a = run();
  Exports b = run();
  EXPECT_EQ(a.timeseries, b.timeseries);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_NE(a.timeseries.find("edc-timeseries-v1"), std::string::npos);
  EXPECT_NE(a.health.find("edc-health-v1"), std::string::npos);
}

TEST(ObsIntegration, SamplerRetentionBoundsMemoryWithoutChangingTail) {
  trace::Trace t = SmallTrace("Fin1", 1.5);
  StackConfig cfg = BaseConfig(Scheme::kEdc);

  Observer::Options bounded = FullTelemetryOptions();
  bounded.sampler_retention = 4;
  Observer obs_bounded(bounded);
  Observer obs_full(FullTelemetryOptions());
  Replay(t, cfg, &obs_bounded);
  Replay(t, cfg, &obs_full);

  const TimeSeriesSampler* sb = obs_bounded.sampler();
  const TimeSeriesSampler* sf = obs_full.sampler();
  ASSERT_NE(sb, nullptr);
  EXPECT_LE(sb->retained(), 4u);
  EXPECT_EQ(sb->windows_completed(), sf->windows_completed());
  // The retained tail agrees with the unbounded run window-for-window.
  const auto* b_series = sb->Find("edc_host_writes_total");
  const auto* f_series = sf->Find("edc_host_writes_total");
  ASSERT_NE(b_series, nullptr);
  ASSERT_NE(f_series, nullptr);
  std::size_t offset = f_series->values().size() - b_series->values().size();
  for (std::size_t i = 0; i < b_series->values().size(); ++i) {
    EXPECT_DOUBLE_EQ(b_series->values()[i], f_series->values()[offset + i])
        << "window " << i;
  }
}

TEST(ObsIntegration, MisconfiguredTelemetryReportsError) {
  Observer::Options oo;
  oo.metrics = false;
  oo.sampler = true;
  Observer no_metrics(oo);
  EXPECT_FALSE(no_metrics.ok());
  EXPECT_EQ(no_metrics.sampler(), nullptr);

  Observer::Options bad_rules;
  bad_rules.health_rules = "not a rule\n";
  Observer bad(bad_rules);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("line 1"), std::string::npos);
  EXPECT_EQ(bad.watchdog(), nullptr);
}

TEST(ObsIntegration, SnapshotExcludesWorkerPoolByDefault) {
  WorkerPool pool(2);
  Observer observer;
  observer.AttachWorkerPool(&pool);
  pool.Submit([] {}).get();
  EXPECT_EQ(observer.Snapshot().Find("edc_workerpool_jobs_submitted_total"),
            nullptr);
  const MetricsSnapshot full = observer.Snapshot(/*include_volatile=*/true);
  const Sample* jobs = full.Find("edc_workerpool_jobs_submitted_total");
  ASSERT_NE(jobs, nullptr);
  EXPECT_GE(jobs->counter_value, 1u);
}

}  // namespace
}  // namespace edc::obs
