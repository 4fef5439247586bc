// One repetition of a workload, untraced (end-to-end figures) or traced
// (per-layer figures from spans around the calls into each layer).
#pragma once

#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Rep {
  double setup_s = 0;  // synthesis, construction, calibration, warm-up
  double timed_s = 0;  // first timed request through final flush/export
  u64 attempted = 0;
  Outputs out;
  Counters before, after;  // at the start and end of the timed segment
  edc::WorkerPool::Stats pool_before, pool_after;  // functional workload
  u64 windows = 0;       // sampler windows closed in the timed segment
  u64 trace_events = 0;  // trace events recorded in the timed segment
  u64 export_bytes = 0;
  std::vector<u64> shard_pages;  // pages each shard's device programmed
  std::vector<u64> tenant_done;  // completions per tenant
  double unwritten_read_share = 0;  // see UnwrittenReadShare
  double trace_mib = 0;         // trace buffers held through the replay
  double synth_peak_mib = 0;    // process peak RSS right after synthesis
  // Traced run only: simulated mean response of each half of the timed
  // segment (the device must keep up, not fall ever further behind).
  double first_half_mean_us = 0, second_half_mean_us = 0;
};

/// End-to-end repetition: the public entry points, no timers inside.
Rep RunUntraced(const WorkloadSpec& spec, u64 seed, Verdict* verdict);

/// Traced repetition: same inputs and configuration, with every call into
/// the engine, device, observer and shard fabric timed from outside.
/// Appends the per-layer metrics to `layers` and writes the kept spans to
/// `spans_csv` when it is not empty.
Rep RunTraced(const WorkloadSpec& spec, u64 seed, Verdict* verdict,
              std::vector<Metric>* layers, const std::string& spans_csv);

/// Peak resident set of the process so far, in MiB.
double PeakRssMiB();

/// Fails the run when the repetition left the regime its workload was
/// chosen for (see README.md).
void CheckRegime(const WorkloadSpec& spec, const Rep& rep, bool traced,
                 Verdict* verdict);

}  // namespace perfbench
