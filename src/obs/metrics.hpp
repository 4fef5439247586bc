// Cross-layer metrics registry: named, labeled counters / gauges /
// histograms that components register into, plus pull-style collectors
// that report samples from existing stats structs at snapshot time and
// at every sampler window.
//
// Design constraints (see docs/observability.md):
//  * Deterministic snapshots — samples are emitted sorted by
//    (name, labels), and every value is derived from simulated state, so
//    two replays with the same seed export byte-identical text. Metrics
//    whose values depend on wall-clock or thread scheduling (e.g. the
//    WorkerPool collector) are registered as *volatile* and excluded from
//    snapshots unless explicitly requested.
//  * Zero cost when disabled — components hold plain pointers that are
//    null when observability is off; the hot path pays one branch.
//  * Registration and snapshotting are thread-safe: the registry's
//    internal structures (entry map, collector list) are guarded by a
//    sync::Mutex with full thread-safety annotations, so shards can
//    register instruments concurrently. Instrument *updates* stay
//    single-writer by contract: a Counter/Gauge/Histogram pointer is
//    owned by the component (thread) that registered it. Cross-thread
//    sources (WorkerPool) bridge through their own atomics and are read
//    by a collector at snapshot time.
#pragma once

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace edc::obs {

/// Sorted (key, value) pairs identifying one time series of a metric.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Inc(u64 delta = 1) { value_ += delta; }
  u64 value() const { return value_; }

 private:
  u64 value_ = 0;
};

/// Point-in-time double metric.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Histogram with explicit upper bounds (Prometheus "le" semantics):
/// counts_[i] counts observations <= bounds_[i]; the last slot is +Inf.
/// Counts are stored non-cumulative and accumulated by the exporters.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<u64>& bucket_counts() const { return counts_; }
  double sum() const { return sum_; }
  u64 count() const { return count_; }

 private:
  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::vector<u64> counts_;     // bounds_.size() + 1 (last = +Inf)
  double sum_ = 0.0;
  u64 count_ = 0;
};

/// Default latency bounds in microseconds (roughly log-spaced, covering
/// DRAM-ack fast paths through multi-millisecond queueing tails).
const std::vector<double>& LatencyBoundsUs();

/// One exported sample (a single time series at snapshot time).
struct Sample {
  MetricType type = MetricType::kCounter;
  std::string name;
  LabelSet labels;
  std::string help;
  u64 counter_value = 0;   // kCounter
  double gauge_value = 0;  // kGauge
  // kHistogram
  std::vector<double> bounds;
  std::vector<u64> bucket_counts;  // non-cumulative; bounds.size() + 1
  double sum = 0;
  u64 count = 0;
};

/// Deterministically ordered set of samples with text exporters.
struct MetricsSnapshot {
  std::vector<Sample> samples;

  bool empty() const { return samples.empty(); }
  const Sample* Find(const std::string& name,
                     const LabelSet& labels = {}) const;

  /// {"schema":"edc-metrics-v1","metrics":[...]} — see
  /// docs/observability.md for the full schema.
  std::string ToJson() const;

  /// Prometheus text exposition format (version 0.0.4).
  std::string ToPrometheus() const;
};

/// Interface collectors write their samples through. Names, help text
/// and labels are views valid for the call only: Snapshot() copies them
/// into Sample structs, while the TimeSeriesSampler resolves each
/// (name, labels) pair to its dense column and stores just the value.
class SampleList {
 public:
  /// Label pairs in any order (implementations sort them).
  using Labels =
      std::initializer_list<std::pair<std::string_view, std::string_view>>;

  virtual void AddCounter(std::string_view name, Labels labels, u64 value,
                          std::string_view help = {}) = 0;
  virtual void AddGauge(std::string_view name, Labels labels, double value,
                        std::string_view help = {}) = 0;

 protected:
  ~SampleList() = default;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Find-or-create; returned pointers are stable for the registry's
  /// lifetime. Re-requesting an existing (name, labels) pair returns the
  /// same instrument; requesting it with a different type is an error
  /// (reported by ok()/error()).
  Counter* GetCounter(const std::string& name, LabelSet labels = {},
                      const std::string& help = "") EDC_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, LabelSet labels = {},
                  const std::string& help = "") EDC_EXCLUDES(mu_);
  HistogramMetric* GetHistogram(const std::string& name, LabelSet labels,
                                std::vector<double> bounds,
                                const std::string& help = "")
      EDC_EXCLUDES(mu_);

  /// Pull-style source: `fn` is invoked at Snapshot() time (and by the
  /// sampler at every window) to append samples computed from live
  /// component state (always agrees with the component's own stats
  /// struct, costs nothing on the hot path). `deterministic = false`
  /// marks wall-clock/scheduling-dependent sources, excluded from
  /// snapshots and the sampler unless requested.
  using Collector = std::function<void(SampleList&)>;
  /// Returns a handle for RemoveCollector. A component whose lifetime can
  /// end before the registry's (e.g. an engine rebooted against a
  /// long-lived Observer) must unregister in its destructor — the
  /// callback reads live component state, so a stale registration is a
  /// use-after-free at the next Snapshot.
  u64 AddCollector(Collector fn, bool deterministic = true)
      EDC_EXCLUDES(mu_);
  /// Unregister a collector by its AddCollector handle (no-op if absent).
  void RemoveCollector(u64 handle) EDC_EXCLUDES(mu_);

  /// Materialize every instrument and collector into a sorted sample
  /// list. With include_volatile = false (the default), non-deterministic
  /// collectors are skipped so the output is byte-stable across runs.
  /// Collector callbacks run with mu_ released (instrument samples are
  /// copied out first), so a collector may call back into the registry —
  /// and may take coarser locks such as WorkerPool's — without deadlock.
  MetricsSnapshot Snapshot(bool include_volatile = false) const
      EDC_EXCLUDES(mu_);

  /// A registered instrument, for readers that fold values themselves
  /// (the sampler). The pointers stay valid for the registry's lifetime;
  /// the instrument values are read unlocked, like Snapshot() reads them
  /// (single writer, see the file comment).
  struct InstrumentRef {
    const std::string* name = nullptr;
    const LabelSet* labels = nullptr;  // sorted
    MetricType type = MetricType::kCounter;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const HistogramMetric* histogram = nullptr;
  };
  /// Instruments registered so far; only ever grows.
  std::size_t instrument_count() const EDC_EXCLUDES(mu_);
  /// Every instrument in (name, labels) order.
  void ListInstruments(std::vector<InstrumentRef>* out) const
      EDC_EXCLUDES(mu_);

  /// Collectors copied out of the registry for one pass; the caller owns
  /// it so a repeated pass reuses its storage.
  using CollectorList = std::vector<std::shared_ptr<const Collector>>;
  /// Run the deterministic collectors (all of them with
  /// include_volatile) into `out`, in registration order, with mu_
  /// released — the same pass Snapshot() makes.
  void RunCollectors(SampleList& out, CollectorList* scratch,
                     bool include_volatile = false) const EDC_EXCLUDES(mu_);

  /// First registration-type conflict, if any (empty string = none).
  /// Returned by value: the stored string is guarded by mu_.
  std::string error() const EDC_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    return error_;
  }
  bool ok() const EDC_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    return error_.empty();
  }

 private:
  struct Key {
    std::string name;
    LabelSet labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  struct Entry {
    MetricType type;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };
  struct CollectorEntry {
    std::shared_ptr<const Collector> fn;
    bool deterministic;
    u64 id;
  };

  Entry* FindOrCreate(const std::string& name, LabelSet labels,
                      MetricType type, const std::string& help)
      EDC_REQUIRES(mu_);

  /// Guards the registry structure, not the instrument values: returned
  /// Counter*/Gauge*/HistogramMetric* are stable for the registry's
  /// lifetime and updated lock-free by their single owning writer.
  mutable sync::Mutex mu_{sync::lock_rank::kObsRegistry,
                          "MetricRegistry.mu"};
  std::map<Key, Entry> entries_ EDC_GUARDED_BY(mu_);
  std::vector<CollectorEntry> collectors_ EDC_GUARDED_BY(mu_);
  u64 next_collector_id_ EDC_GUARDED_BY(mu_) = 1;
  std::string error_ EDC_GUARDED_BY(mu_);
};

/// Shortest deterministic text form of a double: integers below 1e15
/// print without a fraction (%.0f), everything else round-trips via
/// %.17g; NaN and infinities print as NaN / +Inf / -Inf. Shared by every
/// exporter so JSON, CSV and Prometheus agree on values.
std::string FormatDouble(double v);

/// JSON string escaping (quotes, backslash, control characters).
std::string JsonEscape(std::string_view s);

/// A double as a JSON value token: FormatDouble for finite values,
/// quoted "NaN"/"+Inf"/"-Inf" for non-finite ones (bare tokens are not
/// valid JSON). Shared by every obs JSON exporter.
std::string JsonNumber(double v);

// Append-only forms of the above, which every exporter renders through:
// each writes its text at the end of `out` and builds no temporary.
void AppendDouble(std::string* out, double v);
void AppendJsonNumber(std::string* out, double v);
void AppendJsonEscaped(std::string* out, std::string_view s);
void AppendUint(std::string* out, u64 v);
void AppendInt(std::string* out, i64 v);
/// `"k":"v",...` for the JSON exporters' "labels" objects.
void AppendJsonLabels(std::string* out, const LabelSet& labels);

/// Longest text AppendDouble / AppendJsonNumber / AppendUint / AppendInt
/// can write, for exporters that reserve their buffer up front.
inline constexpr std::size_t kMaxNumberChars = 26;

}  // namespace edc::obs
