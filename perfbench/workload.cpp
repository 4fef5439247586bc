#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "datagen/profile.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

using namespace edc;

namespace {

// Records synthesized per record needed. Prxy_0's record count per
// simulated second moves by about 2% from seed to seed, so 10% extra
// suffices and the generator's buffer holds little more than the records
// kept. Fin2's bursts vary more; its trace is small and is lengthened
// when short.
constexpr double kRecordMargin = 1.1;

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    WorkloadSpec fin2;
    fin2.name = "fin2-durable-rais5-telemetry";
    fin2.preset = "Fin2";
    // About 3 minutes of Fin2. Reads follow the same Zipf law as writes,
    // so the cold tail is never fully written; after this warm-up 4-5% of
    // the timed segment's read blocks are still unwritten (7% after one
    // minute, 3% after six).
    fin2.warmup_requests = 54000;
    fin2.timed_requests = 90000;   // about 5 minutes
    fin2.working_set_blocks = 1u << 12;  // 16 MiB
    fin2.rais = true;
    fin2.device_mib = 8;  // per member; five members
    fin2.durable = true;
    fin2.telemetry = true;
    fin2.cache_groups = 256;
    w.push_back(fin2);

    WorkloadSpec sharded;
    sharded.name = "prxy0-modeled-shards2";
    sharded.preset = "Prxy_0";
    sharded.warmup_requests = 300000;   // about 10 minutes of Prxy_0
    sharded.timed_requests = 3200000;   // about 1.7 hours
    sharded.working_set_blocks = 1u << 14;  // 64 MiB
    sharded.modeled = true;
    sharded.device_mib = 256;
    sharded.shards = 2;
    sharded.tenants = 2;
    w.push_back(sharded);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Result<Inputs> MakeInputs(const WorkloadSpec& spec, u64 seed) {
  auto params = trace::PresetByName(spec.preset);
  if (!params.ok()) return params.status();
  params->working_set_blocks = spec.working_set_blocks;
  auto profile = trace::ContentProfileForTrace(spec.preset);
  if (!profile.ok()) return profile.status();

  // Synthesize enough simulated time for both segments: the preset's mean
  // arrival rate with a margin, lengthened until long enough. A longer
  // duration only appends records, so the segments do not depend on it.
  const std::size_t warm = spec.warmup_requests;
  const std::size_t total = warm + spec.timed_requests;
  const double mean_rate =
      (params->on_iops * params->mean_on_s +
       params->off_iops * params->mean_off_s) /
      (params->mean_on_s + params->mean_off_s);
  params->duration_s = kRecordMargin * static_cast<double>(total) / mean_rate;
  trace::Trace all = trace::GenerateSynthetic(*params, seed);
  while (all.records.size() < total) {
    params->duration_s *= 1.5;
    all = trace::GenerateSynthetic(*params, seed);
  }

  // One copy of the records: the short warm-up head is copied out, and
  // the generator's buffer, trimmed, becomes the timed segment.
  Inputs in;
  in.profile = *profile;
  in.warmup.name = all.name;
  in.warmup.records.assign(all.records.begin(), all.records.begin() + warm);
  all.records.resize(total);
  all.records.erase(all.records.begin(), all.records.begin() + warm);
  in.timed = std::move(all);
  return in;
}

core::StackConfig MakeStackConfig(const WorkloadSpec& spec,
                                  const std::string& profile) {
  core::StackConfig cfg;
  cfg.scheme = core::Scheme::kEdc;
  cfg.mode = spec.modeled ? core::ExecutionMode::kModeled
                          : core::ExecutionMode::kFunctional;
  cfg.content_profile = profile;
  cfg.seed = kContentSeed;
  if (spec.rais) {
    cfg.use_rais = true;
    cfg.rais.level = ssd::RaisLevel::kRais5;
    cfg.rais.member = ssd::MakeX25eConfig(spec.device_mib, /*store_data=*/true);
  } else {
    cfg.ssd = ssd::MakeX25eConfig(spec.device_mib,
                                  /*store_data=*/spec.durable);
  }
  cfg.durability.enabled = spec.durable;
  cfg.cache_groups = spec.cache_groups;
  return cfg;
}

std::unique_ptr<obs::Observer> MakeObserver(const WorkloadSpec& spec) {
  if (!spec.telemetry) return nullptr;
  obs::Observer::Options oo;
  oo.metrics = true;
  oo.trace = true;
  oo.sampler = true;  // default 100 ms period
  oo.flight_recorder = true;
  oo.health_rules = obs::DefaultHealthRules();
  return std::make_unique<obs::Observer>(oo);
}

shard::ShardedOptions MakeShardedOptions(const WorkloadSpec& spec) {
  shard::ShardedOptions so;
  so.shards = spec.shards;
  so.tenants = spec.tenants;
  return so;
}

Outputs MakeOutputs(const WorkloadSpec& spec, const Counters& before,
                    const Counters& after, const sim::ReplayResult& replay) {
  Outputs o;
  o.requests = replay.requests;
  const u64 logical = after.engine.logical_bytes_written -
                      before.engine.logical_bytes_written;
  const u64 allocated = after.engine.allocated_bytes_total -
                        before.engine.allocated_bytes_total;
  o.ratio = allocated == 0 ? 0
                           : static_cast<double>(logical) /
                                 static_cast<double>(allocated);
  const u64 host = after.device.host_pages_written -
                   before.device.host_pages_written;
  const u64 gc =
      after.device.gc_pages_copied - before.device.gc_pages_copied;
  o.waf = host == 0 ? 0
                    : static_cast<double>(host + gc) /
                          static_cast<double>(host);
  for (std::size_t c = 0; c < o.groups.size(); ++c) {
    o.groups[c] = after.engine.groups_by_codec[c] -
                  before.engine.groups_by_codec[c];
  }
  o.exact_latency = !spec.modeled;
  o.mean_us = replay.response_us.mean();
  o.p50_us = replay.p50_us;
  o.p99_us = replay.p99_us;
  o.read_p50_us = replay.read_p50_us;
  o.read_p99_us = replay.read_p99_us;
  o.write_p50_us = replay.write_p50_us;
  o.write_p99_us = replay.write_p99_us;
  return o;
}

std::string CompareOutputs(const Outputs& a, const Outputs& b) {
  char buf[160];
  auto differ = [&buf](const char* what, double x, double y) {
    std::snprintf(buf, sizeof(buf), "%s differs: %.17g vs %.17g", what, x,
                  y);
    return std::string(buf);
  };
  if (a.requests != b.requests) {
    return differ("requests", static_cast<double>(a.requests),
                  static_cast<double>(b.requests));
  }
  if (a.ratio != b.ratio) return differ("compression_ratio", a.ratio, b.ratio);
  if (a.waf != b.waf) return differ("waf", a.waf, b.waf);
  for (std::size_t c = 0; c < a.groups.size(); ++c) {
    if (a.groups[c] != b.groups[c]) {
      std::string what = "groups_" + std::string(codec::CodecName(
                                         static_cast<codec::CodecId>(c)));
      return differ(what.c_str(), static_cast<double>(a.groups[c]),
                    static_cast<double>(b.groups[c]));
    }
  }
  if (a.exact_latency && b.exact_latency) {
    const std::pair<const char*, std::pair<double, double>> lat[] = {
        {"sim_mean_us", {a.mean_us, b.mean_us}},
        {"sim_p50_us", {a.p50_us, b.p50_us}},
        {"sim_p99_us", {a.p99_us, b.p99_us}},
        {"sim_read_p50_us", {a.read_p50_us, b.read_p50_us}},
        {"sim_read_p99_us", {a.read_p99_us, b.read_p99_us}},
        {"sim_write_p50_us", {a.write_p50_us, b.write_p50_us}},
        {"sim_write_p99_us", {a.write_p99_us, b.write_p99_us}},
    };
    for (const auto& [what, v] : lat) {
      if (v.first != v.second) return differ(what, v.first, v.second);
    }
  }
  return "";
}

u64 RenderExports(const obs::Observer& observer,
                  const sim::ReplayResult& replay) {
  u64 bytes = replay.metrics.ToJson().size();
  bytes += replay.metrics.ToPrometheus().size();
  if (const obs::TraceRecorder* t = observer.trace()) {
    bytes += t->ToJson().size();
  }
  if (const obs::TimeSeriesSampler* s = observer.sampler()) {
    bytes += s->ToJson().size();
    bytes += s->ToCsv().size();
  }
  if (observer.watchdog() != nullptr) bytes += replay.health.ToJson().size();
  if (const obs::FlightRecorder* f = observer.flight_recorder()) {
    for (const auto& b : f->bundles()) bytes += b.json.size();
  }
  return bytes;
}

Status WarmUp(core::Engine& engine, obs::Observer* obs,
              const trace::Trace& warmup) {
  for (const trace::TraceRecord& r : warmup.records) {
    if (obs != nullptr) obs->PumpTelemetry(r.timestamp);
    Result<SimTime> done = r.op == trace::OpType::kWrite
                               ? engine.Write(r.timestamp, r.offset, r.size)
                               : engine.Read(r.timestamp, r.offset, r.size);
    if (!done.ok()) return done.status();
  }
  return Status::Ok();
}

std::unique_ptr<ssd::Device> MakeDevice(const core::StackConfig& config) {
  if (config.use_rais) return std::make_unique<ssd::Rais>(config.rais);
  return std::make_unique<ssd::Ssd>(config.ssd);
}

core::EngineConfig MakeEngineConfig(const core::StackConfig& config) {
  core::EngineConfig ec;
  ec.scheme = config.scheme;
  ec.elastic = config.elastic;
  ec.monitor = config.monitor;
  ec.estimator = config.estimator;
  ec.seq = config.seq;
  ec.use_seq_detector =
      config.scheme == core::Scheme::kEdc && config.use_seq_detector_for_edc;
  ec.mode = config.mode;
  ec.alloc_policy = config.alloc_policy;
  ec.cache_groups = config.cache_groups;
  ec.cpu_contexts = config.cpu_contexts;
  ec.modeled_check_interval = config.modeled_check_interval;
  ec.audit_every_n_ops = config.audit_every_n_ops;
  ec.compress_pool = config.compress_pool;
  ec.durability = config.durability;
  ec.breaker_error_budget = config.breaker_error_budget;
  ec.read_retry_attempts = config.read_retry_attempts;
  ec.read_retry_backoff = config.read_retry_backoff;
  ec.obs = config.obs;
  return ec;
}

void RegisterDeviceCollector(obs::Observer* obs, const ssd::Device* device) {
  obs::MetricRegistry* m = obs == nullptr ? nullptr : obs->metrics();
  if (m == nullptr) return;
  m->AddCollector([device](obs::SampleList& out) {
    const ssd::DeviceStats d = device->stats();
    const std::pair<const char*, u64> counters[] = {
        {"edc_device_host_pages_read_total", d.host_pages_read},
        {"edc_device_host_pages_written_total", d.host_pages_written},
        {"edc_device_gc_pages_copied_total", d.gc_pages_copied},
        {"edc_device_gc_runs_total", d.gc_runs},
        {"edc_device_background_reclaims_total", d.background_reclaims},
        {"edc_device_erases_total", d.total_erases},
    };
    for (const auto& [name, v] : counters) out.AddCounter(name, {}, v);
    out.AddGauge("edc_device_max_erase_count", {},
                 static_cast<double>(d.max_erase_count));
    out.AddGauge("edc_device_mean_erase_count", {}, d.mean_erase_count);
    out.AddGauge("edc_device_waf", {}, d.waf);
    out.AddGauge("edc_device_busy_seconds", {}, ToSeconds(d.busy_time));
    out.AddGauge("edc_device_energy_joules", {}, d.energy_j);
    const std::pair<const char*, u64> faults[] = {
        {"edc_device_read_faults_total", d.read_faults},
        {"edc_device_program_faults_total", d.program_faults},
        {"edc_device_pages_corrupted_total", d.pages_corrupted},
        {"edc_device_reconstructed_reads_total", d.reconstructed_reads},
        {"edc_rais_members_failed_total", d.members_failed},
        {"edc_rais_degraded_reads_total", d.degraded_reads},
        {"edc_rais_degraded_writes_total", d.degraded_writes},
        {"edc_rais_unrecoverable_reads", d.unrecoverable_reads},
        {"edc_rais_rebuild_rows_done_total", d.rebuild_rows_done},
        {"edc_rais_rebuilds_completed_total", d.rebuilds_completed},
        {"edc_rais_scrub_rows_total", d.scrub_rows},
        {"edc_rais_scrub_parity_mismatches_total",
         d.scrub_parity_mismatches},
        {"edc_rais_scrub_parity_repaired_total", d.scrub_parity_repaired},
    };
    for (const auto& [name, v] : faults) out.AddCounter(name, {}, v);
  });
}

void Verdict::FailRequests(u64 n, const std::string& why) {
  failed += n;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Verdict::FailCheck(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void CheckEngine(core::Engine& engine, const Inputs& in, Verdict* verdict) {
  std::unordered_set<Lba> written;
  for (const trace::Trace* t : {&in.warmup, &in.timed}) {
    for (const trace::TraceRecord& r : t->records) {
      if (r.op != trace::OpType::kWrite) continue;
      for (u64 b = 0; b < r.block_count(); ++b) {
        written.insert(r.first_block() + b);
      }
    }
  }
  std::vector<Lba> blocks(written.begin(), written.end());
  std::sort(blocks.begin(), blocks.end());
  u64 mismatches = 0;
  for (Lba b : blocks) {
    Result<Bytes> got = engine.ReadBlockData(b);
    if (!got.ok() || *got != engine.ExpectedBlockData(b)) ++mismatches;
  }
  if (mismatches != 0) {
    verdict->FailRequests(mismatches,
                          std::to_string(mismatches) + " of " +
                              std::to_string(blocks.size()) +
                              " blocks read back wrong");
  }
  core::AuditReport audit = engine.Audit();
  if (!audit.ok()) verdict->FailRequests(1, audit.ToString());
}

double UnwrittenReadShare(const Inputs& in) {
  std::vector<bool> written;
  u64 reads = 0, unwritten = 0;
  auto visit = [&](const trace::Trace& t, bool count) {
    for (const trace::TraceRecord& r : t.records) {
      const Lba last = r.first_block() + r.block_count();
      if (written.size() < last) written.resize(last, false);
      for (Lba b = r.first_block(); b < last; ++b) {
        if (r.op == trace::OpType::kWrite) {
          written[b] = true;
        } else if (count) {
          ++reads;
          if (!written[b]) ++unwritten;
        }
      }
    }
  };
  visit(in.warmup, /*count=*/false);
  visit(in.timed, /*count=*/true);
  return reads == 0 ? 0
                    : static_cast<double>(unwritten) / static_cast<double>(reads);
}

}  // namespace perfbench
