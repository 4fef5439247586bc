#include "runs.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <map>
#include <numeric>

#include "datagen/profile.hpp"
#include "spans.hpp"
#include "timing_device.hpp"

namespace perfbench {

using namespace edc;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// Spans written out per log: enough for whole request trees of the first
// tens of thousands of requests, small enough to keep in memory.
constexpr std::size_t kMaxKeptSpans = 200000;

double Seconds(u64 ns) { return static_cast<double>(ns) * 1e-9; }

Counters Snapshot(const core::Engine& engine, const ssd::Device& device) {
  return Counters{engine.stats(), device.stats()};
}

Counters Snapshot(const shard::ShardedEngine& se) {
  return Counters{se.AggregateEngineStats(), se.AggregateDeviceStats()};
}

u64 TraceEvents(const obs::Observer* o) {
  return o != nullptr && o->trace() != nullptr ? o->trace()->event_count()
                                               : 0;
}

u64 Windows(const obs::Observer* o) {
  return o != nullptr && o->sampler() != nullptr
             ? o->sampler()->windows_completed()
             : 0;
}

/// Latency accumulation exactly as sim::ReplayTrace does it: one
/// reservoir for all requests and one per class, each from its own seed.
class LatencySink {
 public:
  explicit LatencySink(u64 seed)
      : all_(kCapacity, seed),
        writes_(kCapacity, seed ^ 0x9E3779B97F4A7C15ull),
        reads_(kCapacity, seed ^ 0xC2B2AE3D27D4EB4Full) {}

  void Add(bool write, double us) {
    result_.response_us.Add(us);
    all_.Add(us);
    if (write) {
      result_.write_response_us.Add(us);
      writes_.Add(us);
    } else {
      result_.read_response_us.Add(us);
      reads_.Add(us);
    }
  }

  sim::ReplayResult Finish(u64 requests, SimTime duration) {
    sim::ReplayResult r = result_;
    r.requests = requests;
    r.trace_duration = duration;
    r.p50_us = all_.Quantile(0.50);
    r.p95_us = all_.Quantile(0.95);
    r.p99_us = all_.Quantile(0.99);
    r.write_p50_us = writes_.Quantile(0.50);
    r.write_p95_us = writes_.Quantile(0.95);
    r.write_p99_us = writes_.Quantile(0.99);
    r.read_p50_us = reads_.Quantile(0.50);
    r.read_p95_us = reads_.Quantile(0.95);
    r.read_p99_us = reads_.Quantile(0.99);
    return r;
  }

 private:
  static constexpr std::size_t kCapacity = sim::ReplayOptions{}.percentile_capacity;
  sim::ReplayResult result_;
  PercentileReservoir all_, writes_, reads_;
};

shard::Request ToRequest(const trace::TraceRecord& r, u64 index,
                         u32 tenants) {
  shard::Request req;
  req.kind = r.op == trace::OpType::kWrite ? shard::OpKind::kWrite
                                           : shard::OpKind::kRead;
  req.arrival = r.timestamp;
  req.offset = r.offset;
  req.size = r.size;
  req.tenant = static_cast<u32>(index % tenants);
  return req;
}

/// Per-shard device capacity exactly as ShardedEngine::Create splits it.
ssd::SsdConfig ShardSsdConfig(const core::StackConfig& cfg, u32 shards) {
  ssd::SsdConfig sc = cfg.ssd;
  sc.geometry.num_blocks = std::max<u32>(4, sc.geometry.num_blocks / shards);
  return sc;
}

double Quantile(std::vector<u32> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// On-CPU nanoseconds of every thread of this process but the calling
/// main thread, by thread id (from /proc/self/task/<tid>/schedstat).
std::map<long, u64> OtherThreadsCpuNs() {
  std::map<long, u64> out;
  const long self = static_cast<long>(getpid());
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* e = readdir(dir)) {
    const long tid = std::strtol(e->d_name, nullptr, 10);
    if (tid <= 0 || tid == self) continue;
    std::string path = "/proc/self/task/" + std::string(e->d_name) +
                       "/schedstat";
    if (std::FILE* f = std::fopen(path.c_str(), "r")) {
      unsigned long long ns = 0;
      if (std::fscanf(f, "%llu", &ns) == 1) out[tid] = ns;
      std::fclose(f);
    }
  }
  closedir(dir);
  return out;
}

double CpuDeltaSeconds(const std::map<long, u64>& before,
                       const std::map<long, u64>& after) {
  u64 ns = 0;
  for (const auto& [tid, v] : after) {
    auto it = before.find(tid);
    ns += v - (it == before.end() ? 0 : std::min(v, it->second));
  }
  return Seconds(ns);
}

/// Size of the buffers that hold the repetition's trace records.
double TraceMiB(const Inputs& in) {
  const std::size_t records =
      in.warmup.records.capacity() + in.timed.records.capacity();
  return static_cast<double>(records * sizeof(trace::TraceRecord)) / kMiB;
}

u64 PoolBusyNs(const WorkerPool::Stats& s) {
  return std::accumulate(s.thread_busy_ns.begin(), s.thread_busy_ns.end(),
                         u64{0});
}

void WriteSpans(const std::string& path, u64 seed, const WorkloadSpec& spec,
                const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "# workload %s seed %llu\n", spec.name.c_str(),
               static_cast<unsigned long long>(seed));
  std::fprintf(out, "lane,name,start_ns,end_ns,parent,request\n");
  for (const SpanLog* log : logs) log->WriteCsv(out);
  std::fclose(out);
}

/// Everything the traced run measures besides the span logs.
struct Probe {
  double generate_s = 0, calibrate_s = 0, warmup_s = 0;
  std::vector<u32> write_ns, read_ns, submit_ns;
  double dispatcher_cpu_s = 0, runloop_cpu_s = 0;
  u64 split_requests = 0;
};

/// The per-layer metrics of one traced repetition.
void LayerMetrics(const WorkloadSpec& spec, const Rep& rep, const Probe& p,
                  const SpanLog& main,
                  const std::vector<const SpanLog*>& device_logs,
                  const std::vector<TimingDevice::Counts>& device_counts,
                  const trace::Trace& timed, std::vector<Metric>* out) {
  auto add = [out](const char* name, double v, const char* unit) {
    out->push_back(Metric{name, v, unit});
  };
  auto busy = [](const SpanLog& log, SpanName n) {
    return Seconds(log.totals(n).busy_ns);
  };
  auto self = [](const SpanLog& log, SpanName n) {
    return Seconds(log.totals(n).self_ns);
  };
  const core::EngineStats& e0 = rep.before.engine;
  const core::EngineStats& e1 = rep.after.engine;
  const ssd::DeviceStats& d0 = rep.before.device;
  const ssd::DeviceStats& d1 = rep.after.device;
  auto frac = [](u64 num, u64 den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };

  add("trace.generate_s", p.generate_s, "s");
  add("cost_model.calibrate_s", p.calibrate_s, "s");

  // Engine: host time per call, and self time net of the device calls
  // made inside it and of the compression jobs it waits for.
  const double codec_busy_s =
      Seconds(PoolBusyNs(rep.pool_after) - PoolBusyNs(rep.pool_before));
  add("edc.warmup_s", p.warmup_s, "s");
  add("edc.write_calls", static_cast<double>(main.totals(SpanName::kEdcWrite).calls), "count");
  add("edc.write_busy_s", busy(main, SpanName::kEdcWrite), "s");
  add("edc.write_host_p50_us", Quantile(p.write_ns, 0.50) * 1e-3, "us");
  add("edc.write_host_p99_us", Quantile(p.write_ns, 0.99) * 1e-3, "us");
  add("edc.read_calls", static_cast<double>(main.totals(SpanName::kEdcRead).calls), "count");
  add("edc.read_busy_s", busy(main, SpanName::kEdcRead), "s");
  add("edc.read_host_p50_us", Quantile(p.read_ns, 0.50) * 1e-3, "us");
  add("edc.read_host_p99_us", Quantile(p.read_ns, 0.99) * 1e-3, "us");
  add("edc.flush_s", busy(main, SpanName::kEdcFlush), "s");
  const double engine_self = self(main, SpanName::kEdcWrite) +
                             self(main, SpanName::kEdcRead) +
                             self(main, SpanName::kEdcFlush);
  add("edc.self_s", spec.shards == 0 ? std::max(0.0, engine_self - codec_busy_s) : 0.0, "s");

  const u64 groups = e1.groups_written - e0.groups_written;
  const u64 blocks =
      (e1.logical_bytes_written - e0.logical_bytes_written) / kLogicalBlockSize;
  add("edc.groups_written", static_cast<double>(groups), "count");
  add("edc.blocks_per_group", frac(blocks, groups), "blocks");
  add("edc.skip_content_frac",
      frac(e1.blocks_skipped_content - e0.blocks_skipped_content, blocks), "frac");
  add("edc.skip_intensity_frac",
      frac(e1.blocks_skipped_intensity - e0.blocks_skipped_intensity, blocks), "frac");
  add("edc.groups_lzf", static_cast<double>(rep.out.groups[static_cast<std::size_t>(codec::CodecId::kLzf)]), "count");
  add("edc.groups_gzip", static_cast<double>(rep.out.groups[static_cast<std::size_t>(codec::CodecId::kGzip)]), "count");
  add("edc.groups_store", static_cast<double>(rep.out.groups[static_cast<std::size_t>(codec::CodecId::kStore)]), "count");
  const u64 hits = e1.cache_hits - e0.cache_hits;
  const u64 misses = e1.cache_misses - e0.cache_misses;
  add("edc.cache_hit_ratio", frac(hits, hits + misses), "frac");
  add("edc.journal_mib",
      static_cast<double>(e1.journal_bytes_written - e0.journal_bytes_written) / kMiB, "MiB");
  add("edc.journal_checkpoints", static_cast<double>(e1.journal_checkpoints - e0.journal_checkpoints), "count");
  add("edc.media_errors", static_cast<double>(e1.media_errors - e0.media_errors), "count");
  add("edc.read_retries", static_cast<double>(e1.read_retries - e0.read_retries), "count");
  add("edc.program_retries", static_cast<double>(e1.program_retries - e0.program_retries), "count");

  // Codec offload pool (compression jobs only; reads decompress inline).
  const u64 jobs =
      rep.pool_after.jobs_completed - rep.pool_before.jobs_completed;
  add("codec.jobs", static_cast<double>(jobs), "count");
  add("codec.busy_s", codec_busy_s, "s");
  add("codec.us_per_job", jobs == 0 ? 0 : codec_busy_s * 1e6 / static_cast<double>(jobs), "us");
  add("codec.in_mib_per_s",
      codec_busy_s <= 0 ? 0
                        : static_cast<double>(blocks * kLogicalBlockSize) / kMiB / codec_busy_s,
      "MiB/s");

  // Device model, summed over every device decorator.
  TimingDevice::Counts c;
  double write_busy = 0, read_busy = 0, journal_busy = 0;
  for (std::size_t i = 0; i < device_logs.size(); ++i) {
    const TimingDevice::Counts& ci = device_counts[i];
    c.write_calls += ci.write_calls;
    c.write_pages += ci.write_pages;
    c.read_calls += ci.read_calls;
    c.read_pages += ci.read_pages;
    c.journal_write_pages += ci.journal_write_pages;
    write_busy += busy(*device_logs[i], SpanName::kSsdWrite);
    read_busy += busy(*device_logs[i], SpanName::kSsdRead);
    journal_busy += busy(*device_logs[i], SpanName::kSsdJournalWrite);
  }
  add("ssd.write_calls", static_cast<double>(c.write_calls), "count");
  add("ssd.write_pages", static_cast<double>(c.write_pages), "count");
  add("ssd.write_busy_s", write_busy, "s");
  add("ssd.read_calls", static_cast<double>(c.read_calls), "count");
  add("ssd.read_pages", static_cast<double>(c.read_pages), "count");
  add("ssd.read_busy_s", read_busy, "s");
  add("ssd.journal_write_pages", static_cast<double>(c.journal_write_pages), "count");
  add("ssd.journal_write_busy_s", journal_busy, "s");
  add("ssd.gc_pages_copied", static_cast<double>(d1.gc_pages_copied - d0.gc_pages_copied), "count");
  add("ssd.gc_runs", static_cast<double>(d1.gc_runs - d0.gc_runs), "count");
  add("ssd.erases", static_cast<double>(d1.total_erases - d0.total_erases), "count");
  const SimTime span = timed.records.empty()
                           ? 0
                           : timed.duration() - timed.records.front().timestamp;
  add("ssd.sim_utilization",
      span == 0 ? 0
                : static_cast<double>(d1.busy_time - d0.busy_time) / static_cast<double>(span),
      "frac");
  add("ssd.reconstructed_reads", static_cast<double>(d1.reconstructed_reads - d0.reconstructed_reads), "count");

  // Observer.
  add("obs.pump_calls", static_cast<double>(main.totals(SpanName::kObsPump).calls), "count");
  add("obs.pump_busy_s", busy(main, SpanName::kObsPump), "s");
  add("obs.windows", static_cast<double>(rep.windows), "count");
  add("obs.trace_events", static_cast<double>(rep.trace_events), "count");
  add("obs.finish_s", busy(main, SpanName::kObsFinish), "s");
  add("obs.export_s", busy(main, SpanName::kObsExport), "s");
  add("obs.export_mib", static_cast<double>(rep.export_bytes) / kMiB, "MiB");

  // Shard fabric (dispatcher side).
  add("shard.submit_calls", static_cast<double>(main.totals(SpanName::kShardSubmit).calls), "count");
  add("shard.submit_busy_s", busy(main, SpanName::kShardSubmit), "s");
  add("shard.submit_p99_us", Quantile(p.submit_ns, 0.99) * 1e-3, "us");
  add("shard.drain_s", busy(main, SpanName::kShardDrain), "s");
  add("shard.dispatcher_cpu_s", p.dispatcher_cpu_s, "s");
  add("shard.runloop_cpu_s", p.runloop_cpu_s, "s");
  add("shard.split_frac", frac(p.split_requests, spec.shards == 0 ? 0 : rep.out.requests), "frac");
  double imbalance = 0;
  if (!rep.shard_pages.empty()) {
    const u64 total = std::accumulate(rep.shard_pages.begin(), rep.shard_pages.end(), u64{0});
    const u64 top = *std::max_element(rep.shard_pages.begin(), rep.shard_pages.end());
    imbalance = total == 0 ? 0
                           : static_cast<double>(top) * static_cast<double>(rep.shard_pages.size()) /
                                 static_cast<double>(total);
  }
  add("shard.imbalance", imbalance, "x");

  add("sim.loop_self_s", self(main, SpanName::kReplay), "s");
}

// --- Direct engine ------------------------------------------------------

Rep RunDirectUntraced(const WorkloadSpec& spec, u64 seed, Verdict* v) {
  Rep rep;
  const u64 t0 = NowNs();
  auto in = MakeInputs(spec, seed);
  if (!in.ok()) {
    v->FailRequests(1, in.status().ToString());
    rep.attempted = 1;
    return rep;
  }
  rep.attempted = in->timed.records.size();
  rep.trace_mib = TraceMiB(*in);
  rep.synth_peak_mib = PeakRssMiB();
  auto pool = std::make_unique<WorkerPool>(1);
  std::unique_ptr<obs::Observer> observer = MakeObserver(spec);
  core::StackConfig cfg = MakeStackConfig(spec, in->profile);
  cfg.compress_pool = pool.get();
  cfg.obs = observer.get();
  if (observer != nullptr) observer->AttachWorkerPool(pool.get());
  auto stack = core::Stack::Create(cfg);
  if (!stack.ok()) {
    v->FailRequests(rep.attempted, stack.status().ToString());
    return rep;
  }
  core::Engine& engine = (*stack)->engine();
  Status warm = WarmUp(engine, observer.get(), in->warmup);
  if (!warm.ok()) {
    v->FailRequests(rep.attempted, "warm-up: " + warm.ToString());
    return rep;
  }
  rep.before = Snapshot(engine, (*stack)->device());
  rep.pool_before = pool->GetStats();
  const u64 windows0 = Windows(observer.get());
  const u64 events0 = TraceEvents(observer.get());

  const u64 t1 = NowNs();
  auto replay = sim::ReplayTrace(**stack, in->timed);
  if (replay.ok() && observer != nullptr) {
    rep.export_bytes = RenderExports(*observer, *replay);
  }
  const u64 t2 = NowNs();

  rep.setup_s = Seconds(t1 - t0);
  rep.timed_s = Seconds(t2 - t1);
  if (!replay.ok()) {
    v->FailRequests(rep.attempted, "replay: " + replay.status().ToString());
    return rep;
  }
  rep.after = Snapshot(engine, (*stack)->device());
  rep.pool_after = pool->GetStats();
  rep.windows = Windows(observer.get()) - windows0;
  rep.trace_events = TraceEvents(observer.get()) - events0;
  rep.out = MakeOutputs(spec, rep.before, rep.after, *replay);
  rep.unwritten_read_share = UnwrittenReadShare(*in);
  CheckEngine(engine, *in, v);
  return rep;
}

Rep RunDirectTraced(const WorkloadSpec& spec, u64 seed, Verdict* v,
                    std::vector<Metric>* layers,
                    const std::string& spans_csv) {
  Rep rep;
  Probe p;
  SpanLog log(0, kMaxKeptSpans);
  const u64 t0 = NowNs();
  auto in = MakeInputs(spec, seed);
  p.generate_s = Seconds(NowNs() - t0);
  if (!in.ok()) {
    v->FailRequests(1, in.status().ToString());
    rep.attempted = 1;
    return rep;
  }
  const trace::Trace& timed = in->timed;
  rep.attempted = timed.records.size();
  rep.trace_mib = TraceMiB(*in);
  rep.synth_peak_mib = PeakRssMiB();
  auto pool = std::make_unique<WorkerPool>(1);
  std::unique_ptr<obs::Observer> observer = MakeObserver(spec);
  obs::Observer* obs = observer.get();
  core::StackConfig cfg = MakeStackConfig(spec, in->profile);
  cfg.compress_pool = pool.get();
  cfg.obs = obs;
  if (obs != nullptr) obs->AttachWorkerPool(pool.get());

  // Stack::Create of a functional stack (no cost model), rebuilt with a
  // timing decorator over the device.
  auto profile = datagen::ProfileByName(cfg.content_profile);
  if (!profile.ok()) {
    v->FailRequests(rep.attempted, profile.status().ToString());
    return rep;
  }
  datagen::ContentGenerator generator(*profile, cfg.seed);
  std::unique_ptr<ssd::Device> device = MakeDevice(cfg);
  const Lba journal_first =
      cfg.durability.enabled
          ? device->logical_pages() - cfg.durability.journal_pages
          : std::numeric_limits<Lba>::max();
  TimingDevice timing(device.get(), &log, journal_first);
  auto engine = std::make_unique<core::Engine>(MakeEngineConfig(cfg), &timing,
                                               &generator, nullptr);
  if (obs != nullptr) {
    timing.AttachObs(obs, obs::kDeviceTid);
    RegisterDeviceCollector(obs, &timing);
  }

  const u64 w0 = NowNs();
  Status warm = WarmUp(*engine, obs, in->warmup);
  p.warmup_s = Seconds(NowNs() - w0);
  if (!warm.ok()) {
    v->FailRequests(rep.attempted, "warm-up: " + warm.ToString());
    return rep;
  }
  rep.before = Snapshot(*engine, timing);
  rep.pool_before = pool->GetStats();
  const u64 windows0 = Windows(obs);
  const u64 events0 = TraceEvents(obs);
  log.Reset();
  timing.ResetCounts();
  p.write_ns.reserve(timed.records.size());

  // The sim::ReplayTrace loop, with each call into a layer timed.
  const u64 t1 = NowNs();
  LatencySink sink(cfg.seed);
  RunningStats halves[2];
  const std::size_t n = timed.records.size();
  u64 requests = 0;
  Status failed = Status::Ok();
  log.set_request(0);
  log.Open(SpanName::kReplay);
  for (std::size_t i = 0; i < n; ++i) {
    const trace::TraceRecord& r = timed.records[i];
    log.set_request(i);
    if (obs != nullptr) {
      ScopedSpan span(&log, SpanName::kObsPump);
      obs->PumpTelemetry(r.timestamp);
    }
    const bool write = r.op == trace::OpType::kWrite;
    log.Open(write ? SpanName::kEdcWrite : SpanName::kEdcRead);
    Result<SimTime> done = write ? engine->Write(r.timestamp, r.offset, r.size)
                                 : engine->Read(r.timestamp, r.offset, r.size);
    const u64 dur = log.Close();
    (write ? p.write_ns : p.read_ns)
        .push_back(static_cast<u32>(std::min<u64>(dur, 0xFFFFFFFFu)));
    if (!done.ok()) {
      failed = done.status();
      break;
    }
    const double us = ToMicros(*done - r.timestamp);
    sink.Add(write, us);
    halves[i < n / 2 ? 0 : 1].Add(us);
    ++requests;
  }
  sim::ReplayResult result;
  if (failed.ok()) {
    ScopedSpan span(&log, SpanName::kEdcFlush);
    auto flushed = engine->FlushPending(timed.duration());
    if (!flushed.ok()) failed = flushed.status();
  }
  if (failed.ok()) {
    result = sink.Finish(requests, timed.duration());
    if (obs != nullptr) {
      {
        ScopedSpan span(&log, SpanName::kObsFinish);
        result.health = obs->FinishTelemetry(timed.duration());
        result.metrics = obs->Snapshot();
      }
      ScopedSpan span(&log, SpanName::kObsExport);
      rep.export_bytes = RenderExports(*obs, result);
    }
  }
  log.Close();
  const u64 t2 = NowNs();
  log.set_request(SpanLog::kNoRequest);

  rep.setup_s = Seconds(t1 - t0);
  rep.timed_s = Seconds(t2 - t1);
  if (!failed.ok()) {
    v->FailRequests(rep.attempted, "traced replay: " + failed.ToString());
    return rep;
  }
  rep.after = Snapshot(*engine, timing);
  rep.pool_after = pool->GetStats();
  rep.windows = Windows(obs) - windows0;
  rep.trace_events = TraceEvents(obs) - events0;
  rep.out = MakeOutputs(spec, rep.before, rep.after, result);
  rep.first_half_mean_us = halves[0].mean();
  rep.second_half_mean_us = halves[1].mean();
  rep.unwritten_read_share = UnwrittenReadShare(*in);
  LayerMetrics(spec, rep, p, log, {&log}, {timing.counts()}, timed, layers);
  WriteSpans(spans_csv, seed, spec, {&log});
  CheckEngine(*engine, *in, v);
  return rep;
}

// --- Sharded fabric -----------------------------------------------------

/// Submits `trace` through the fabric; request i goes to tenant
/// (first_index + i) % tenants, as in sim::ReplayShardedTrace. With `log`
/// set, each Submit is a span and its host time is kept in `submit_ns`.
Status SubmitAll(shard::ShardedEngine& se, const trace::Trace& trace,
                 u64 first_index, u32 tenants, SpanLog* log,
                 std::vector<u32>* submit_ns) {
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const shard::Request req =
        ToRequest(trace.records[i], first_index + i, tenants);
    if (log != nullptr) {
      log->set_request(i);
      log->Open(SpanName::kShardSubmit);
    }
    Result<u64> seq = se.Submit(req);
    if (log != nullptr) {
      submit_ns->push_back(
          static_cast<u32>(std::min<u64>(log->Close(), 0xFFFFFFFFu)));
    }
    if (!seq.ok()) return seq.status();
  }
  return Status::Ok();
}

/// Collects completions of the timed segment (and counts warm-up
/// failures) on the dispatcher thread.
struct CompletionTally {
  explicit CompletionTally(u64 seed, u32 tenants)
      : sink(seed), tenant_done(tenants, 0) {}
  LatencySink sink;
  bool timed = false;
  u64 failed = 0;
  std::string first_error;
  std::vector<u64> tenant_done;
  RunningStats halves[2];
  u64 half_split = 0;  // seq boundary between the halves
  u64 timed_first_seq = 0;

  void Add(const shard::Completion& c) {
    if (!c.status.ok()) {
      if (failed++ == 0) first_error = c.status.ToString();
      return;
    }
    if (!timed) return;
    const double us = ToMicros(c.completion - c.submitted);
    sink.Add(c.kind == shard::OpKind::kWrite, us);
    ++tenant_done[c.tenant];
    halves[c.seq - timed_first_seq < half_split ? 0 : 1].Add(us);
  }
};

std::vector<u64> ShardPages(shard::ShardedEngine& se) {
  std::vector<u64> pages;
  for (u32 s = 0; s < se.shards(); ++s) {
    pages.push_back(se.device(s).stats().host_pages_written);
  }
  return pages;
}

/// Shared body of both sharded repetitions once the fabric is built.
/// With `log` set, times the dispatcher calls and the thread CPU.
bool ReplaySharded(const WorkloadSpec& spec, const Inputs& in,
                   shard::ShardedEngine& se, u64 t0, Rep* rep, Verdict* v,
                   SpanLog* log, Probe* p,
                   const std::vector<SpanLog*>& device_logs,
                   const std::vector<TimingDevice*>& devices) {
  // Reservoirs seeded from the stack seed, as sim::ReplayShardedTrace does.
  CompletionTally tally(kContentSeed, spec.tenants);
  se.SetCompletionCallback(
      [&tally](const shard::Completion& c) { tally.Add(c); });

  const u64 w0 = NowNs();
  Status st = se.StartRunLoops();
  if (st.ok()) st = SubmitAll(se, in.warmup, 0, spec.tenants, nullptr, nullptr);
  if (st.ok()) st = se.StopRunLoops();
  if (p != nullptr) p->warmup_s = Seconds(NowNs() - w0);
  if (!st.ok() || tally.failed != 0) {
    v->FailRequests(rep->attempted,
                    "warm-up: " + (st.ok() ? tally.first_error : st.ToString()));
    return false;
  }
  rep->before = Snapshot(se);
  const std::vector<u64> pages0 = ShardPages(se);
  for (SpanLog* l : device_logs) {
    l->Reset();
    l->set_request(0);
  }
  for (TimingDevice* d : devices) d->ResetCounts();
  tally.timed = true;
  tally.timed_first_seq = in.warmup.records.size();
  tally.half_split = in.timed.records.size() / 2;
  std::map<long, u64> cpu0;
  double disp0 = 0;
  if (log != nullptr) {
    cpu0 = OtherThreadsCpuNs();
    disp0 = ThreadCpuSeconds();
  }

  const u64 t1 = NowNs();
  if (log != nullptr) {
    log->set_request(0);
    log->Open(SpanName::kReplay);
  }
  st = se.StartRunLoops();
  if (st.ok()) {
    st = SubmitAll(se, in.timed, in.warmup.records.size(), spec.tenants, log,
                   p == nullptr ? nullptr : &p->submit_ns);
  }
  auto timed_call = [log](SpanName name, auto&& fn) {
    if (log == nullptr) return fn();
    ScopedSpan span(log, name);
    return fn();
  };
  if (st.ok()) st = timed_call(SpanName::kShardDrain, [&] { return se.Drain(); });
  if (st.ok()) {
    st = timed_call(SpanName::kShardDrain, [&] { return se.StopRunLoops(); });
  }
  if (st.ok()) {
    auto flushed = timed_call(SpanName::kEdcFlush, [&] {
      return se.FlushAllPending(in.timed.duration());
    });
    if (!flushed.ok()) st = flushed.status();
  }
  if (log != nullptr) log->Close();
  const u64 t2 = NowNs();
  if (log != nullptr) {
    p->dispatcher_cpu_s = ThreadCpuSeconds() - disp0;
    p->runloop_cpu_s = CpuDeltaSeconds(cpu0, OtherThreadsCpuNs());
    log->set_request(SpanLog::kNoRequest);
    std::vector<shard::ShardRouter::Part> parts;
    for (const trace::TraceRecord& r : in.timed.records) {
      se.router().Split(r.offset, r.size, &parts);
      if (parts.size() > 1) ++p->split_requests;
    }
  }
  for (SpanLog* l : device_logs) l->set_request(SpanLog::kNoRequest);

  rep->setup_s = Seconds(t1 - t0);
  rep->timed_s = Seconds(t2 - t1);
  if (!st.ok() || tally.failed != 0) {
    if (se.running()) (void)se.StopRunLoops();
    v->FailRequests(std::max<u64>(tally.failed, 1),
                    "replay: " + (st.ok() ? tally.first_error : st.ToString()));
    return false;
  }
  rep->after = Snapshot(se);
  const std::vector<u64> pages1 = ShardPages(se);
  for (std::size_t s = 0; s < pages1.size(); ++s) {
    rep->shard_pages.push_back(pages1[s] - pages0[s]);
  }
  rep->tenant_done = tally.tenant_done;
  rep->first_half_mean_us = tally.halves[0].mean();
  rep->second_half_mean_us = tally.halves[1].mean();
  const sim::ReplayResult result =
      tally.sink.Finish(in.timed.records.size(), in.timed.duration());
  rep->out = MakeOutputs(spec, rep->before, rep->after, result);
  rep->unwritten_read_share = UnwrittenReadShare(in);
  core::AuditReport audit = se.AuditAll();
  if (!audit.ok()) v->FailRequests(1, audit.ToString());
  return true;
}

Rep RunShardedUntraced(const WorkloadSpec& spec, u64 seed, Verdict* v) {
  Rep rep;
  const u64 t0 = NowNs();
  auto in = MakeInputs(spec, seed);
  if (!in.ok()) {
    v->FailRequests(1, in.status().ToString());
    rep.attempted = 1;
    return rep;
  }
  rep.attempted = in->timed.records.size();
  rep.trace_mib = TraceMiB(*in);
  rep.synth_peak_mib = PeakRssMiB();
  core::StackConfig cfg = MakeStackConfig(spec, in->profile);
  auto se = shard::ShardedEngine::Create(MakeShardedOptions(spec), cfg);
  if (!se.ok()) {
    v->FailRequests(rep.attempted, se.status().ToString());
    return rep;
  }
  ReplaySharded(spec, *in, **se, t0, &rep, v, nullptr, nullptr, {}, {});
  return rep;
}

Rep RunShardedTraced(const WorkloadSpec& spec, u64 seed, Verdict* v,
                     std::vector<Metric>* layers,
                     const std::string& spans_csv) {
  Rep rep;
  Probe p;
  SpanLog log(0, kMaxKeptSpans);
  const u64 t0 = NowNs();
  auto in = MakeInputs(spec, seed);
  p.generate_s = Seconds(NowNs() - t0);
  if (!in.ok()) {
    v->FailRequests(1, in.status().ToString());
    rep.attempted = 1;
    return rep;
  }
  rep.attempted = in->timed.records.size();
  rep.trace_mib = TraceMiB(*in);
  rep.synth_peak_mib = PeakRssMiB();
  core::StackConfig cfg = MakeStackConfig(spec, in->profile);

  // ShardedEngine::Create, rebuilt with one timing decorator per shard.
  std::shared_ptr<const core::CostModel> model;
  if (spec.modeled) {
    const u64 c0 = NowNs();
    auto calibrated = core::Stack::CalibrateCostModel(cfg);
    p.calibrate_s = Seconds(NowNs() - c0);
    if (!calibrated.ok()) {
      v->FailRequests(rep.attempted, calibrated.status().ToString());
      return rep;
    }
    model = *calibrated;
  }
  auto profile = datagen::ProfileByName(cfg.content_profile);
  if (!profile.ok()) {
    v->FailRequests(rep.attempted, profile.status().ToString());
    return rep;
  }
  datagen::ContentGenerator generator(*profile, cfg.seed);
  std::vector<std::unique_ptr<ssd::Device>> devices;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<std::unique_ptr<TimingDevice>> timing;
  std::vector<shard::ShardBacking> backings;
  for (u32 s = 0; s < spec.shards; ++s) {
    devices.push_back(
        std::make_unique<ssd::Ssd>(ShardSsdConfig(cfg, spec.shards)));
    logs.push_back(std::make_unique<SpanLog>(1 + s, kMaxKeptSpans));
    timing.push_back(std::make_unique<TimingDevice>(
        devices.back().get(), logs.back().get(),
        std::numeric_limits<Lba>::max()));
    shard::ShardBacking b;
    b.engine = MakeEngineConfig(cfg);
    b.device = timing.back().get();
    b.generator = &generator;
    b.cost_model = model.get();
    backings.push_back(b);
  }
  auto se = shard::ShardedEngine::CreateFromBackings(MakeShardedOptions(spec),
                                                     std::move(backings));
  if (!se.ok()) {
    v->FailRequests(rep.attempted, se.status().ToString());
    return rep;
  }
  std::vector<SpanLog*> log_ptrs;
  std::vector<const SpanLog*> const_logs;
  std::vector<TimingDevice*> dev_ptrs;
  for (std::size_t s = 0; s < logs.size(); ++s) {
    log_ptrs.push_back(logs[s].get());
    const_logs.push_back(logs[s].get());
    dev_ptrs.push_back(timing[s].get());
  }
  if (!ReplaySharded(spec, *in, **se, t0, &rep, v, &log, &p, log_ptrs,
                     dev_ptrs)) {
    return rep;
  }
  std::vector<TimingDevice::Counts> counts;
  for (const auto& t : timing) counts.push_back(t->counts());
  LayerMetrics(spec, rep, p, log, const_logs, counts, in->timed, layers);
  std::vector<const SpanLog*> all{&log};
  all.insert(all.end(), const_logs.begin(), const_logs.end());
  WriteSpans(spans_csv, seed, spec, all);
  return rep;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kReplay: return "replay";
    case SpanName::kEdcWrite: return "edc.write";
    case SpanName::kEdcRead: return "edc.read";
    case SpanName::kEdcFlush: return "edc.flush";
    case SpanName::kObsPump: return "obs.pump";
    case SpanName::kObsFinish: return "obs.finish";
    case SpanName::kObsExport: return "obs.export";
    case SpanName::kSsdWrite: return "ssd.write";
    case SpanName::kSsdRead: return "ssd.read";
    case SpanName::kSsdJournalWrite: return "ssd.journal_write";
    case SpanName::kSsdOther: return "ssd.other";
    case SpanName::kShardSubmit: return "shard.submit";
    case SpanName::kShardDrain: return "shard.drain";
    case SpanName::kCount: break;
  }
  return "?";
}

void SpanLog::WriteCsv(std::FILE* out) const {
  for (const Span& s : spans_) {
    std::fprintf(out, "%u,%s,%llu,%llu,%lld,%llu\n", lane_,
                 SpanNameString(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Rep RunUntraced(const WorkloadSpec& spec, u64 seed, Verdict* verdict) {
  return spec.shards == 0 ? RunDirectUntraced(spec, seed, verdict)
                          : RunShardedUntraced(spec, seed, verdict);
}

Rep RunTraced(const WorkloadSpec& spec, u64 seed, Verdict* verdict,
              std::vector<Metric>* layers, const std::string& spans_csv) {
  return spec.shards == 0
             ? RunDirectTraced(spec, seed, verdict, layers, spans_csv)
             : RunShardedTraced(spec, seed, verdict, layers, spans_csv);
}

void CheckRegime(const WorkloadSpec& spec, const Rep& rep, bool traced,
                 Verdict* v) {
  const std::string w = spec.name + ": ";
  // Reads of blocks that nothing wrote cost almost nothing; the warm-up
  // must leave few of them.
  constexpr double kMaxUnwrittenReadShare = 0.06;
  v->Require(rep.unwritten_read_share <= kMaxUnwrittenReadShare,
             w + std::to_string(100 * rep.unwritten_read_share) +
                 "% of the timed segment's read blocks were never written");
  v->Require(rep.out.waf > 1.0, w + "WAF " + std::to_string(rep.out.waf) +
                                    " over the timed segment; GC did not run");
  if (!spec.modeled) {
    v->Require(rep.pool_after.jobs_completed > rep.pool_before.jobs_completed,
               w + "no compress-pool jobs ran");
  }
  if (spec.telemetry) {
    v->Require(rep.windows > 0, w + "no sampler window closed");
    v->Require(rep.trace_events > 0, w + "no trace event was recorded");
  }
  if (spec.cache_groups > 0) {
    const u64 hits = rep.after.engine.cache_hits - rep.before.engine.cache_hits;
    const u64 misses =
        rep.after.engine.cache_misses - rep.before.engine.cache_misses;
    v->Require(hits > 0 && misses > 0,
               w + "group cache must both hit and miss (hits " +
                   std::to_string(hits) + ", misses " +
                   std::to_string(misses) + ")");
  }
  if (spec.shards > 0) {
    for (std::size_t s = 0; s < rep.shard_pages.size(); ++s) {
      v->Require(rep.shard_pages[s] > 0,
                 w + "shard " + std::to_string(s) + " programmed no page");
    }
    for (std::size_t t = 0; t < rep.tenant_done.size(); ++t) {
      v->Require(rep.tenant_done[t] > 0,
                 w + "tenant " + std::to_string(t) + " completed nothing");
    }
  }
  if (traced) {
    // The device keeps up: the second half's simulated mean may not run
    // away from the first half's.
    v->Require(rep.second_half_mean_us <= 1.5 * rep.first_half_mean_us + 50,
               w + "simulated mean grew from " +
                   std::to_string(rep.first_half_mean_us) + " us to " +
                   std::to_string(rep.second_half_mean_us) +
                   " us between the halves of the timed segment");
  }
}

}  // namespace perfbench
