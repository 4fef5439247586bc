// The two replay workloads of the benchmark and what one timed segment
// of each produces. A repetition is: synthesize the workload's trace from
// the seed, build the system, replay an untimed warm-up segment, then
// replay the timed segment. Every figure here is over the timed segment.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "edc/shard.hpp"
#include "edc/stack.hpp"
#include "obs/observer.hpp"
#include "sim/replay.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using edc::u32;
using edc::u64;

struct WorkloadSpec {
  std::string name;
  std::string preset;           // trace::PresetByName
  u64 warmup_requests = 0;      // replayed before timing
  u64 timed_requests = 0;       // the timed segment
  u64 working_set_blocks = 0;   // bounds the preset's footprint
  bool modeled = false;
  bool rais = false;            // RAIS-5 of data-retaining members
  u64 device_mib = 0;           // raw MiB of the SSD, or of each member
  bool durable = false;         // extent format + mapping journal
  bool telemetry = false;       // full Observer stack, exports rendered
  std::size_t cache_groups = 0;
  u32 shards = 0;               // 0 = direct engine
  u32 tenants = 1;
};
// Both workloads are sized so that GC runs in the timed segment. The
// functional one (direct engine) offloads codec work to a one-worker
// compress pool, as trace_replay --functional does; the modeled one runs
// through the shard fabric.

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// The workload's trace: its first `warmup_requests` requests, then the
/// next `timed_requests` (timestamps are kept, so the timed segment
/// continues the warm-up). Counting requests rather than seconds keeps the
/// load of a segment the same for every seed; the seed still decides when
/// the bursts come and how long they last. The process holds one copy of
/// the records, in the buffer the generator filled.
struct Inputs {
  edc::trace::Trace warmup;
  edc::trace::Trace timed;
  std::string profile;  // datagen content profile
};
edc::Result<Inputs> MakeInputs(const WorkloadSpec& spec, u64 seed);

/// The workload seed drives the trace: arrivals, sizes and addresses. The
/// content written is the profile's fixed data set, so a seed changes the
/// load rather than which few hot blocks happen to be incompressible.
inline constexpr u64 kContentSeed = 42;

/// The stack configuration of the workload (pool and observer attached
/// by the caller).
edc::core::StackConfig MakeStackConfig(const WorkloadSpec& spec,
                                       const std::string& profile);

/// Full telemetry for workloads that ask for it, null otherwise.
std::unique_ptr<edc::obs::Observer> MakeObserver(const WorkloadSpec& spec);

edc::shard::ShardedOptions MakeShardedOptions(const WorkloadSpec& spec);

/// Engine and device counters at a phase boundary.
struct Counters {
  edc::core::EngineStats engine;
  edc::ssd::DeviceStats device;
};

/// The deterministic outputs of one timed segment. Functional workloads
/// have no cost model, so their simulated latencies repeat exactly too.
struct Outputs {
  u64 requests = 0;
  double ratio = 0;  // original / allocated bytes
  double waf = 0;    // (host + GC pages programmed) / host pages
  std::array<u64, edc::codec::kMaxCodecId + 1> groups{};
  bool exact_latency = false;
  double mean_us = 0, p50_us = 0, p99_us = 0;
  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;
};

Outputs MakeOutputs(const WorkloadSpec& spec, const Counters& before,
                    const Counters& after,
                    const edc::sim::ReplayResult& replay);

/// Empty when equal; otherwise names the first field that differs.
std::string CompareOutputs(const Outputs& a, const Outputs& b);

/// Exports every telemetry artifact to memory, as a user of the observer
/// would before writing them out; returns the bytes rendered.
u64 RenderExports(const edc::obs::Observer& observer,
                  const edc::sim::ReplayResult& replay);

/// Replay the warm-up segment straight into the engine (no flush at the
/// end: the timed segment continues the same stream).
edc::Status WarmUp(edc::core::Engine& engine, edc::obs::Observer* obs,
                   const edc::trace::Trace& warmup);

/// The Stack::Create device for `config` (SSD or RAIS-5).
std::unique_ptr<edc::ssd::Device> MakeDevice(
    const edc::core::StackConfig& config);

/// The EngineConfig Stack::Create derives from `config`.
edc::core::EngineConfig MakeEngineConfig(
    const edc::core::StackConfig& config);

/// The device-stats collector Stack::Create registers with an observer.
void RegisterDeviceCollector(edc::obs::Observer* obs,
                             const edc::ssd::Device* device);

/// Failure bookkeeping of one run: failed requests and failed checks.
struct Verdict {
  u64 failed = 0;
  bool correct = true;
  void FailRequests(u64 n, const std::string& why);
  void FailCheck(const std::string& why);
  void Require(bool ok, const std::string& why) {
    if (!ok) FailCheck(why);
  }
};

/// Output checks after the timed segment of the functional workload: read
/// every written block back and compare it with the oracle, then audit.
void CheckEngine(edc::core::Engine& engine, const Inputs& in,
                 Verdict* verdict);

/// Share of the timed segment's read blocks that no earlier request of the
/// trace (warm-up included) wrote. Such reads find nothing mapped and cost
/// the engine and the device almost nothing, so the warm-up must keep this
/// share small.
double UnwrittenReadShare(const Inputs& in);

}  // namespace perfbench
