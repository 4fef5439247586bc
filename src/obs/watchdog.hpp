// HealthWatchdog: declarative SLO rules evaluated over the
// TimeSeriesSampler's windows, turning continuous telemetry into
// deterministic alerts.
//
// Rules come from a tiny line-oriented text grammar (a file via
// `trace_replay --health-rules=PATH`, or DefaultHealthRules()):
//
//   # comments and blank lines are ignored
//   rule waf-high: edc_device_waf > 4 for 3
//   rule read-p99-slow: edc_read_latency_us:p99{class=a} > 50000 for 3
//   rule media-errors: rate(edc_media_errors_total) > 0
//   rule journal-missing: absent(edc_journal_generation)
//   rule rebuild-stalled: stall(edc_rais_rebuild_rows_done_total) for 5
//
// Four rule kinds over a named series (optionally labeled; histogram
// percentiles address the sampler's derived `:p50` / `:p99` columns):
//  * threshold — compare the series *level* (cumulative for counters,
//    boundary value for gauges) against a constant;
//  * rate(S)   — compare the per-window change instead;
//  * absent(S) — breach while the series has never appeared;
//  * stall(S)  — breach while the series exists but did not change
//    inside the window (rebuild-progress watchdogs).
// `for N` requires N consecutive breached windows before alerting
// (default 1); comparisons against NaN never breach.
//
// On each completed window the watchdog advances every rule's streak.
// Crossing `for N` emits a `health.alert` instant (category "health",
// lane kHealthTid, timestamped at the window end) and increments
// `edc_health_alerts_total{rule=...}`; returning to non-breach while
// active emits `health.clear` / `edc_health_clears_total`. Everything is
// derived from sampler windows, so alerts are byte-identical across
// reruns. The end-of-run Report (embedded in sim::ReplayResult) lists
// every event and final rule state, exportable as `edc-health-v1` JSON.
// Each rule resolves its series once the sampler has it and then reads
// that column's slot for every window.
//
// Thread contract: thread-confined to the simulation thread.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_recorder.hpp"

namespace edc::obs {

struct HealthRule {
  enum class Kind { kThreshold, kRate, kAbsent, kStall };
  enum class Cmp { kGt, kGe, kLt, kLe };

  std::string name;
  Kind kind = Kind::kThreshold;
  std::string series;  // may carry a :p50/:p99 derived-column suffix
  LabelSet labels;
  Cmp cmp = Cmp::kGt;
  double threshold = 0;
  u64 for_windows = 1;
};

/// Parse the rule grammar above. Errors name the offending line.
Result<std::vector<HealthRule>> ParseHealthRules(const std::string& text);

/// The built-in rule set (`--health-rules=default`): WAF, p99 read
/// latency, media-error rate, breaker, RAIS degraded, journal backlog.
const std::string& DefaultHealthRules();

class HealthWatchdog {
 public:
  /// `sampler` and `registry` must outlive the watchdog; `trace` may be
  /// null (no instants, report only). Alert/clear counters for every
  /// rule are registered eagerly so the metric set does not depend on
  /// which alerts fire.
  HealthWatchdog(std::vector<HealthRule> rules,
                 const TimeSeriesSampler* sampler, MetricRegistry* registry,
                 TraceRecorder* trace);

  /// Evaluate every rule against completed window `window` (absolute
  /// index). Windows must be presented in order; out-of-order or
  /// already-dropped windows are ignored.
  void OnWindow(u64 window);

  struct Event {
    u64 window = 0;
    SimTime ts = 0;  // window end
    std::string rule;
    bool alert = true;  // false = clear
    double value = 0;   // evaluated series value at the crossing
  };

  struct RuleState {
    std::string name;
    HealthRule::Kind kind = HealthRule::Kind::kThreshold;
    bool active = false;  // alert outstanding at end of run
    u64 alerts = 0;
    u64 clears = 0;
    double last_value = 0;
  };

  struct Report {
    u64 windows_evaluated = 0;
    std::vector<Event> events;
    std::vector<RuleState> rules;

    bool healthy() const;  // no alert outstanding and none fired
    /// {"schema":"edc-health-v1",...} — docs/observability.md.
    std::string ToJson() const;
  };

  Report report() const;

 private:
  struct State {
    HealthRule rule;
    const TimeSeriesSampler::Series* series = nullptr;  // once it exists
    u64 streak = 0;
    bool active = false;
    u64 alerts = 0;
    u64 clears = 0;
    double last_value = 0;
    Counter* alert_counter = nullptr;
    Counter* clear_counter = nullptr;
  };

  /// The rule's evaluated value at retained window `rel` (NaN when the
  /// series is missing — except absent(), which evaluates presence).
  static double Evaluate(const State& s, std::size_t rel, bool* breach);

  std::vector<State> states_;
  const TimeSeriesSampler* sampler_;
  std::size_t series_seen_ = 0;  // sampler series count at last resolve
  TraceRecorder* trace_;  // may be null
  u64 windows_evaluated_ = 0;
  u64 last_window_ = 0;
  bool any_window_ = false;
  std::vector<Event> events_;
};

}  // namespace edc::obs
