// TimeSeriesSampler: continuous, windowed telemetry over a MetricRegistry.
//
// The sampler reads the registry on a fixed SimTime cadence and folds
// every series into a columnar store: one column per (name, labels) pair,
// one row per completed window. Counters are delta-encoded (each window
// holds the increment inside that window); gauges hold their value at the
// window boundary; histograms are reduced to four derived gauge/counter
// columns — `<name>:count`, `<name>:sum` (per-window deltas) and
// `<name>:p50` / `<name>:p99` (quantiles of the observations that landed
// *inside* the window, NaN for empty windows) — so per-class latency
// percentiles exist as first-class time series the HealthWatchdog can
// evaluate.
//
// Dense slots: every column has a dense id, assigned when a registry
// instrument first shows up, when a collector first emits its
// (name, labels) pair, and for each histogram's four derived columns.
// Closing a window reads the instruments through stable pointers and
// lets the collectors write straight into the new row (a collector's
// n-th emission is checked against the column it resolved to last time,
// so no string key is built or looked up). Rows live in fixed-size
// blocks, so the store grows a block at a time without copying (only a
// new column re-lays the rows). Each counter keeps its running level
// and the last window it changed in, so LevelAt at any window since that
// change is a read. The sorted (name, labels) export order is kept up to
// date as columns are added. Strings are rendered only by the exporters,
// which append into one buffer reserved up front.
//
// Determinism: windows close at exact multiples of the period, every
// value is derived from deterministic registry state, and the JSON/CSV
// exports render through the same stable formatters as the metrics
// exporters — two replays with the same seed produce byte-identical
// `edc-timeseries-v1` documents.
//
// Retention is a ring: with retention_windows = R the store holds R rows
// and each new window overwrites the oldest (first_retained() advances),
// so a week-long replay samples in O(series × R) memory.
//
// Thread contract: like the engine, the sampler is thread-confined — all
// calls must come from the (single) simulation thread. The registry
// calls it makes are internally synchronized.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace edc::obs {

struct SamplerConfig {
  /// Window length in simulated time. Must be > 0.
  SimTime period = 100 * kMillisecond;
  /// Ring size: most recent windows kept resident (0 = keep everything).
  std::size_t retention_windows = 0;
};

class TimeSeriesSampler {
 public:
  /// `registry` must outlive the sampler.
  TimeSeriesSampler(const SamplerConfig& config,
                    const MetricRegistry* registry);
  // Series point back at their sampler.
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Complete every window whose end is <= now (simulated time). Call
  /// before processing each request; costs one boundary compare when no
  /// window closes. Returns the number of windows completed by this call.
  u64 AdvanceTo(SimTime now);

  /// Close the in-progress partial window at `now` (end of run), so the
  /// tail of the trace is captured. Returns true when a (short) final
  /// window was added. After this call the sampler is finalized and
  /// further AdvanceTo calls are no-ops.
  bool ForceWindow(SimTime now);

  SimTime period() const { return config_.period; }
  /// Total windows ever completed (monotonic, unaffected by retention).
  u64 windows_completed() const { return windows_completed_; }
  /// Absolute index of the oldest retained window.
  u64 first_retained() const { return first_retained_; }
  std::size_t retained() const { return retained_; }
  /// End timestamp of retained window `w` (absolute index).
  SimTime WindowEnd(u64 w) const;

  /// One column of the store: per-window deltas for counters, boundary
  /// values for gauges, one entry per retained window.
  class Series {
   public:
    std::string name;  // derived histogram columns carry a ":pXX" suffix
    LabelSet labels;
    bool counter = false;  // true: values are per-window deltas

    /// Retained windows (the same for every series).
    std::size_t size() const;
    /// Value at retained window `rel` (index into the retained range).
    double ValueAt(std::size_t rel) const;
    /// Every retained value, oldest first.
    std::vector<double> values() const;
    /// Counters: cumulative value at the last completed window.
    double cumulative() const;

    /// Value usable for threshold rules at retained window `rel`:
    /// cumulative-so-far for counters, the boundary value for gauges.
    double LevelAt(std::size_t rel) const;
    /// Per-window change at `rel`: the delta for counters, the
    /// difference from the previous window for gauges.
    double DeltaAt(std::size_t rel) const;

   private:
    friend class TimeSeriesSampler;
    const TimeSeriesSampler* owner_ = nullptr;
    u32 col_ = 0;
    std::string json_head_;  // {"name":...,"values":[ of the JSON export
    std::string csv_head_;   // the CSV header cell
  };

  /// Null when the series never appeared. Derived histogram columns are
  /// looked up by their suffixed name (e.g. "edc_read_latency_us:p99").
  const Series* Find(const std::string& name,
                     const LabelSet& labels = {}) const;

  /// All series, sorted by (name, labels) — the export column order.
  std::vector<const Series*> AllSeries() const;
  /// Number of series; grows only (the watchdog re-resolves rules on a
  /// change).
  std::size_t series_count() const { return series_.size(); }

  /// {"schema":"edc-timeseries-v1",...} — docs/observability.md has the
  /// full schema. `last_n` = 0 exports every retained window; otherwise
  /// only the most recent `last_n` (the flight recorder's bundle view).
  std::string ToJson(std::size_t last_n = 0) const;
  /// ToJson's document appended to `out`.
  void AppendJson(std::string* out, std::size_t last_n = 0) const;

  /// One row per window: `window,end_ns,<column per series>`.
  std::string ToCsv() const;

 private:
  class Emitter;  // SampleList that collectors write columns through
  enum class Kind : u8 { kCounter, kGauge, kQuantile };

  struct Key {
    std::string name;
    LabelSet labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  /// A registry instrument and the column (counter, gauge) or histogram
  /// state (histogram) it folds into.
  struct Instrument {
    MetricRegistry::InstrumentRef ref;
    u32 target = 0;
  };
  struct Histogram {
    const HistogramMetric* metric = nullptr;
    u32 count = 0, sum = 0, p50 = 0, p99 = 0;  // columns
    std::vector<u64> last_buckets;
  };

  SimTime NextBoundary() const {
    return static_cast<SimTime>(windows_completed_ + 1) * config_.period;
  }
  std::size_t Slot(u64 w) const {
    return static_cast<std::size_t>(
        config_.retention_windows > 0 ? w % config_.retention_windows : w);
  }
  /// The store cell of window `w` (absolute index), column `col`.
  double& Cell(u64 w, u32 col) const {
    const std::size_t slot = Slot(w);
    return blocks_[slot / kBlockRows][slot % kBlockRows * stride_ + col];
  }

  /// Add a row for the window just counted in windows_completed_: counter
  /// deltas 0, quantiles NaN, gauges held from the previous window. The
  /// first of a run of simultaneously-closed windows then folds the
  /// registry (`fold`); the rest are replicas (no state changed inside
  /// them).
  void AppendWindow(SimTime end, bool fold);
  void BeginRow(SimTime end);
  void AddBlock();
  /// Re-lay every row with `stride` cells.
  void SetStride(std::size_t stride);
  /// Read every instrument and collector into the newest row.
  void Fold();
  void SyncInstruments();
  void FoldHistogram(Histogram& h);
  void FoldCounter(u32 col, double v);
  void FoldGauge(u32 col, double v);

  /// Column of (name, labels), created on first sight with `kind`.
  u32 Column(const std::string& name, const LabelSet& labels, Kind kind);
  u32 AddColumn(Key key, Kind kind);

  /// Quantile of the observations inside one window, from per-bucket
  /// deltas (Prometheus-style linear interpolation; NaN when the window
  /// saw no observations).
  static double WindowQuantile(const std::vector<double>& bounds,
                               const u64* delta_counts, std::size_t n,
                               double q);

  SamplerConfig config_;
  const MetricRegistry* registry_;
  u64 windows_completed_ = 0;
  u64 first_retained_ = 0;
  std::size_t retained_ = 0;
  bool finalized_ = false;

  // Column catalogue (by dense id).
  std::deque<Series> series_;
  std::vector<Kind> kind_;
  std::vector<double> cumulative_;
  std::vector<u64> changed_;  // newest window with a non-zero value
  std::map<Key, u32> index_;
  std::vector<u32> order_;  // ids in (name, labels) order

  // Row store: the row of window w is row Slot(w), stride_ cells wide,
  // in blocks of kBlockRows rows.
  static constexpr std::size_t kBlockRows = 256;
  std::size_t stride_ = 0;
  std::vector<std::unique_ptr<double[]>> blocks_;
  std::vector<SimTime> ends_;  // by row

  // Fold state.
  std::vector<Instrument> instruments_;
  std::vector<Histogram> histograms_;
  MetricRegistry::CollectorList collectors_;
  std::vector<u32> emitted_;  // collector emission n -> its column
  std::vector<u64> delta_;    // histogram bucket deltas
};

}  // namespace edc::obs
