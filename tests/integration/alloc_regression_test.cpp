// Steady-state allocation regression test for the hot path.
//
// After the scratch-arena and flat-index work, one write iteration
// (compress with a Scratch → CRC → map install) and one read iteration
// (map find → decompress with a Scratch) perform ZERO heap allocations
// once buffers and tables have warmed up. This test pins that property by
// replacing the global operator new with a counting hook: any future
// change that sneaks a per-call allocation back into these paths fails
// here, not in a benchmark regression months later.
//
// The sharded engine's dispatcher is pinned the same way, counting only
// the allocations made on the dispatcher thread (a thread-local counter):
// the shard run loops own their engines and are not part of this contract.
//
// Telemetry is pinned too: recording trace events (with the flight
// recorder's tap), closing sampler windows and running the watchdog may
// allocate only to grow an arena or the column store, not per event or
// per window.
//
// The binary is its own test target so the hook cannot perturb other
// suites, and it skips itself under sanitizers (their runtimes intercept
// malloc and the counts would be meaningless).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "codec/codec.hpp"
#include "codec/scratch.hpp"
#include "common/crc32.hpp"
#include "edc/mapping.hpp"
#include "edc/shard.hpp"
#include "obs/observer.hpp"
#include "testutil.hpp"

#if !defined(EDC_SANITIZE_BUILD)

namespace {
std::atomic<unsigned long long> g_allocs{0};
thread_local unsigned long long t_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // !EDC_SANITIZE_BUILD

namespace edc {
namespace {

unsigned long long AllocCount() {
#if defined(EDC_SANITIZE_BUILD)
  return 0;
#else
  return g_allocs.load(std::memory_order_relaxed);
#endif
}

/// Allocations made so far by the calling thread.
unsigned long long ThreadAllocCount() {
#if defined(EDC_SANITIZE_BUILD)
  return 0;
#else
  return t_allocs;
#endif
}

TEST(AllocRegression, SteadyStateHotPathsAreAllocationFree) {
#if defined(EDC_SANITIZE_BUILD)
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#endif
  using codec::CodecId;

  // The fast LZ codecs are the sustained-throughput path (the heavy
  // codecs only run at low IOPS, where a per-call allocation is noise).
  // gzip compression still allocates inside BuildCodeLengths and is
  // covered by the scratch byte-identity tests instead; gzip *decompress*
  // is allocation-free on a decoder-cache hit but is kept out of this
  // assertion to avoid coupling it to cache geometry.
  const codec::Codec& lzf = codec::GetCodec(CodecId::kLzf);
  const codec::Codec& lzfast = codec::GetCodec(CodecId::kLzFast);

  codec::Scratch scratch;
  const Bytes input = test::MakeText(kLogicalBlockSize, 42);
  Bytes compressed;
  Bytes decompressed;
  compressed.reserve(lzf.MaxCompressedSize(input.size()) +
                     lzfast.MaxCompressedSize(input.size()));
  decompressed.reserve(2 * input.size());

  core::BlockMap map(1u << 16);
  std::vector<u64> freed;
  freed.reserve(64);

  bool all_ok = true;
  u32 crc_mix = 0;
  auto iteration = [&] {
    for (const codec::Codec* c : {&lzf, &lzfast}) {
      compressed.clear();
      all_ok &= c->Compress(input, &compressed, &scratch).ok();
      crc_mix ^= Crc32(compressed);
      decompressed.clear();
      all_ok &=
          c->Decompress(compressed, input.size(), &decompressed, &scratch)
              .ok();
      all_ok &= decompressed == input;
    }
    // Mapping steady state: overwrite-install a working set, look every
    // block up, then release it all so slab slots and extents recycle.
    for (Lba lba = 0; lba < 32; ++lba) {
      freed.clear();
      all_ok &=
          map.Install(lba * 4, 1, CodecId::kLzf, 2048, 2, &freed).ok();
      all_ok &= map.Find(lba * 4).has_value();
    }
    for (Lba lba = 0; lba < 32; ++lba) {
      (void)map.Release(lba * 4);
    }
  };

  // Warm up buffer capacities, hash-table sizes, slab slots and the
  // allocator's free lists until the fixed point is reached.
  for (int i = 0; i < 16; ++i) iteration();
  ASSERT_TRUE(all_ok);

  const unsigned long long before = AllocCount();
  for (int i = 0; i < 64; ++i) iteration();
  const unsigned long long after = AllocCount();

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after - before, 0u)
      << "steady-state write/read hot path allocated " << (after - before)
      << " times in 64 iterations";
  (void)crc_mix;
}

TEST(AllocRegression, ShardedDispatchIsAllocationFree) {
#if defined(EDC_SANITIZE_BUILD)
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#endif
  // Modeled 2-shard, 2-tenant engine, as the sharded replay benchmark
  // runs it. Small chunks make some requests straddle shards.
  core::StackConfig cfg;
  cfg.mode = core::ExecutionMode::kModeled;
  cfg.content_profile = "usr";
  cfg.ssd.geometry.num_blocks = 512;
  cfg.ssd.store_data = false;
  shard::ShardedOptions so;
  so.shards = 2;
  so.tenants = 2;
  so.chunk_blocks = 8;
  auto se = shard::ShardedEngine::Create(so, cfg);
  ASSERT_TRUE(se.ok()) << se.status().ToString();
  shard::ShardedEngine& e = **se;
  u64 applied = 0;
  bool all_ok = true;
  e.SetCompletionCallback([&](const shard::Completion& c) {
    ++applied;
    all_ok &= c.status.ok();
  });
  ASSERT_TRUE(e.StartRunLoops().ok());

  u64 next = 0;
  auto submit = [&](u64 n) {
    for (u64 i = 0; i < n; ++i, ++next) {
      shard::Request req;
      req.kind = next % 8 == 7 ? shard::OpKind::kRead : shard::OpKind::kWrite;
      req.arrival = static_cast<SimTime>(next) * 20 * kMicrosecond;
      req.offset = (next * 37 % 2000) * kLogicalBlockSize;
      req.size = static_cast<u32>((1 + next % 4) * kLogicalBlockSize);
      req.tenant = static_cast<u32>(next % 2);
      all_ok &= e.Submit(req).ok();
    }
    all_ok &= e.Drain().ok();
  };

  // Warm-up: more than one full window, so every in-flight slot, the
  // Split buffer, the backlog slot and the WFQ rings reach their size.
  submit(4 * so.window);
  ASSERT_TRUE(all_ok);

  const u64 n = 8 * so.window;
  const unsigned long long before = ThreadAllocCount();
  submit(n);
  const unsigned long long after = ThreadAllocCount();

  ASSERT_TRUE(e.StopRunLoops().ok());
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(applied, 12u * so.window);
  EXPECT_EQ(after - before, 0u)
      << "the dispatcher allocated " << (after - before) << " times over "
      << n << " Submits and a Drain";
}

// One request's worth of trace events in the shape a functional Fin2
// replay records (82% reads; about 4 events and 2.5 args per event).
// Returns the number of events recorded.
u64 RecordFin2Request(obs::TraceRecorder* trace, u64 i, SimTime t) {
  const u64 lba = i * 7919 % 100000;
  const u64 group = i % 5000;
  if (i % 5 == 0) {
    trace->Instant("policy.select", "policy", obs::kHostTid, t,
                   {{"lba", lba},
                    {"blocks", 1u},
                    {"calculated_iops", 1234.5},
                    {"est_fraction", 0.42},
                    {"codec", codec::CodecName(codec::CodecId::kLzf)},
                    {"skipped_content", false},
                    {"skipped_intensity", false},
                    {"breaker_open", false}});
    trace->Instant("alloc.place", "alloc", obs::kHostTid, t,
                   {{"group", group},
                    {"quanta", 2u},
                    {"stored_bytes", u64{2048}},
                    {"start_quantum", lba * 2}});
    trace->Span("flash.program", "device", obs::kDeviceTid, t, t + 90,
                {{"first_page", lba}, {"pages", u64{1}}});
    trace->Span("host.write", "host", obs::kHostTid, t, t + 120,
                {{"offset", lba * 4096}, {"size", 4096u}});
    return 4;
  }
  if (i % 3 == 0) {
    trace->Instant("cache.hit", "cache", obs::kHostTid, t,
                   {{"group", group}});
    trace->Span("host.read", "host", obs::kHostTid, t, t,
                {{"offset", lba * 4096}, {"size", 4096u}});
    return 2;
  }
  trace->Instant("cache.miss", "cache", obs::kHostTid, t,
                 {{"group", group}});
  trace->Span("flash.read", "device", obs::kDeviceTid, t, t + 50,
              {{"first_page", lba}, {"pages", u64{1}}, {"group", group}});
  trace->Span("codec.decompress", "codec", obs::kCpuTidBase, t + 50, t + 60,
              {{"codec", codec::CodecName(codec::CodecId::kLzf)},
               {"orig_bytes", u64{4096}},
               {"group", group}});
  trace->Span("host.read", "host", obs::kHostTid, t, t + 60,
              {{"offset", lba * 4096}, {"size", 4096u}});
  return 4;
}

TEST(AllocRegression, TelemetryIsAllocationFree) {
#if defined(EDC_SANITIZE_BUILD)
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#endif
  obs::Observer::Options oo;
  oo.sampler = true;
  oo.sample_period = kMillisecond;
  oo.flight_recorder = true;
  oo.health_rules = obs::DefaultHealthRules();
  obs::Observer observer(oo);
  ASSERT_TRUE(observer.ok()) << observer.error();
  obs::MetricRegistry* m = observer.metrics();
  obs::TraceRecorder* trace = observer.trace();

  // Engine-shaped registry: latency histograms, a gauge, and a pull
  // collector with labeled series.
  obs::HistogramMetric* write_lat = m->GetHistogram(
      "edc_write_latency_us", {}, obs::LatencyBoundsUs(), "Write latency");
  obs::HistogramMetric* read_lat = m->GetHistogram(
      "edc_read_latency_us", {}, obs::LatencyBoundsUs(), "Read latency");
  obs::Gauge* breaker = m->GetGauge("edc_breaker_open", {}, "Breaker");
  struct Stats {
    u64 writes = 0, reads = 0, skipped = 0;
    u64 by_codec[codec::kMaxCodecId + 1] = {};
    double ratio = 1.0;
  } stats;
  m->AddCollector([&stats](obs::SampleList& out) {
    out.AddCounter("edc_host_writes_total", {}, stats.writes, "Writes");
    out.AddCounter("edc_host_reads_total", {}, stats.reads, "Reads");
    out.AddCounter("edc_blocks_skipped_total", {{"reason", "content"}},
                   stats.skipped, "Skipped blocks");
    out.AddCounter("edc_blocks_skipped_total", {{"reason", "intensity"}},
                   stats.skipped / 2, "Skipped blocks");
    for (std::size_t c = 0; c <= codec::kMaxCodecId; ++c) {
      out.AddCounter(
          "edc_groups_by_codec_total",
          {{"codec", codec::CodecName(static_cast<codec::CodecId>(c))}},
          stats.by_codec[c], "Groups per codec");
    }
    out.AddGauge("edc_compression_ratio", {}, stats.ratio, "Ratio");
  });

  u64 next = 0;
  u64 events = 0;
  auto replay = [&](u64 requests) {
    for (u64 n = 0; n < requests; ++n, ++next) {
      const SimTime t = static_cast<SimTime>(next) * 50 * kMicrosecond;
      observer.PumpTelemetry(t);
      events += RecordFin2Request(trace, next, t);
      const bool write = next % 5 == 0;
      (write ? write_lat : read_lat)
          ->Observe(static_cast<double>(next % 400));
      if (write) {
        ++stats.writes;
        ++stats.by_codec[next % (codec::kMaxCodecId + 1)];
      } else {
        ++stats.reads;
      }
      if (next % 3 == 0) ++stats.skipped;
      stats.ratio = 1.0 + static_cast<double>(next % 100) / 100.0;
      breaker->Set(0.0);
    }
  };

  // Warm-up: every string interned, every lane ring and column created.
  replay(5000);
  ASSERT_GT(observer.sampler()->windows_completed(), 100u);

  const u64 events0 = events;
  const u64 windows0 = observer.sampler()->windows_completed();
  const unsigned long long before = AllocCount();
  replay(30000);
  const unsigned long long after = AllocCount();
  const u64 recorded = events - events0;
  const u64 windows = observer.sampler()->windows_completed() - windows0;

  ASSERT_GE(recorded, 100000u);
  ASSERT_GE(windows, 1000u);
  EXPECT_TRUE(observer.flight_recorder()->bundles().empty());
  EXPECT_EQ(trace->event_count(), events);
  // Arena chunks and column-store growth only.
  EXPECT_LE(after - before, recorded / 1000 + windows / 100)
      << (after - before) << " allocations over " << recorded
      << " events and " << windows << " windows";
}

}  // namespace
}  // namespace edc
