// FlightRecorder: an always-on postmortem ring for the fault machinery.
//
// The recorder taps every event offered to the TraceRecorder (before the
// category filter, so a narrow --trace-filter does not blind it) and
// keeps a fixed per-lane ring of the most recent `events_per_lane`
// events in the recorder's compact form: the interned header and a copy
// of its typed arg slots, with no text rendered. When an *armed trigger*
// fires — by default the fault-lifecycle instants `breaker.open`,
// `rais.member_failed`, `rais.array_failed`, `rais.data_loss`,
// `scrub.unrepairable`, `audit.fail`, compared as interned name ids — it
// freezes a self-contained `edc-postmortem-v1` bundle, and only then
// renders the rings to the same JSON text the trace exporter emits: the
// triggering event, every lane's recent history, the last K timeseries
// windows (when a sampler is attached), a metrics section with counter
// deltas since the last completed window, and a state summary of the
// breaker / RAIS gauges.
//
// Each trigger name fires at most once per run (the first breaker trip
// is the interesting one; a flapping breaker would otherwise bury it),
// so a degraded-mode replay emits exactly one bundle per distinct
// trigger. Bundles are a pure function of the simulation — byte-identical
// across reruns — and are retained in memory; a Sink callback lets the
// CLI write each one to --postmortem-dir as it fires.
//
// Thread contract: thread-confined to the recording (simulation) thread,
// like the sampler. The ring push runs under the trace recorder's lock;
// the bundle is assembled from OnTrigger with that lock released, so it
// may snapshot the registry and read lane names freely.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_recorder.hpp"

namespace edc::obs {

struct FlightRecorderConfig {
  /// Ring depth: most recent events kept per trace lane.
  std::size_t events_per_lane = 64;
  /// Timeseries windows embedded in each bundle (needs a sampler).
  std::size_t bundle_windows = 4;
  /// Event names that arm the recorder; empty = DefaultTriggers().
  std::vector<std::string> triggers;
};

class FlightRecorder : public TraceEventTap {
 public:
  /// The fault-lifecycle instants armed when config.triggers is empty.
  static const std::vector<std::string>& DefaultTriggers();

  /// `registry` and `trace` must outlive the recorder; `sampler` may be
  /// null (bundles then carry no windows and deltas baseline at 0). The
  /// trigger names are interned into `trace`, whose events the recorder
  /// is then attached to (TraceRecorder::SetTap).
  FlightRecorder(const FlightRecorderConfig& config,
                 const MetricRegistry* registry,
                 const TimeSeriesSampler* sampler, TraceRecorder* trace);

  /// One frozen postmortem. `json` is the complete edc-postmortem-v1
  /// document (see docs/observability.md).
  struct Bundle {
    u64 seq = 0;            // 1-based firing order
    std::string trigger;    // triggering event name
    SimTime ts = 0;         // triggering event timestamp
    std::string json;
  };

  /// Invoked synchronously as each bundle freezes (the CLI's file
  /// writer). The bundle is also retained in bundles() either way.
  using Sink = std::function<void(const Bundle&)>;
  void SetSink(Sink sink) { sink_ = std::move(sink); }

  const std::vector<Bundle>& bundles() const { return bundles_; }

  /// Forget which triggers have fired (tests exercising repeat faults).
  void Rearm();

  bool IsTrigger(const std::string& name) const;

  // TraceEventTap
  bool OnTraceEvent(const TraceEvent& e, const TraceArgSlot* args) override;
  void OnTrigger() override;

 private:
  /// One ring entry: the compact event and a copy of its arg slots.
  struct Slot {
    TraceEvent event{};
    std::vector<TraceArgSlot> args;  // capacity kept across reuse
  };
  struct Lane {
    u32 tid = 0;
    std::vector<Slot> ring;  // events_per_lane slots
    std::size_t head = 0;    // oldest
    std::size_t count = 0;
    const Slot& newest() const {
      return ring[(head + count - 1) % ring.size()];
    }
  };
  enum : u8 { kNotTrigger = 0, kArmed = 1, kFired = 2 };
  /// Lanes with a tid below this are found by index; others by search.
  static constexpr u32 kDirectTids = 1024;

  std::size_t LaneIndex(u32 tid) {
    if (tid < lane_of_tid_.size() && lane_of_tid_[tid] != 0) {
      return lane_of_tid_[tid] - 1;
    }
    return AddLane(tid);
  }
  std::size_t AddLane(u32 tid);
  /// Room for `n` args in `slot` (at least 8, so a slot seldom grows).
  static void GrowArgs(Slot* slot, std::size_t n);
  std::string BuildBundle(u64 seq, const Slot& trigger) const;

  FlightRecorderConfig config_;
  const MetricRegistry* registry_;
  const TimeSeriesSampler* sampler_;  // may be null
  const TraceRecorder* trace_;
  std::vector<Lane> lanes_;
  std::vector<u32> lane_of_tid_;   // tid -> lanes_ index + 1 (0: none)
  std::vector<u8> trigger_state_;  // by interned event-name id
  std::size_t pending_lane_ = 0;   // lane of the trigger OnTrigger builds
  std::vector<Bundle> bundles_;
  Sink sink_;
  u64 next_seq_ = 1;
};

}  // namespace edc::obs
