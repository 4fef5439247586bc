#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/thread_annotations.hpp"

namespace edc::obs {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// CSV cell escaping: quote when the cell contains a comma or a quote,
/// doubling embedded quotes (RFC 4180).
std::string CsvCell(const std::string& s) {
  if (s.find(',') == std::string::npos &&
      s.find('"') == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

/// Whether collector labels (in the order written) equal a column's
/// sorted labels. Collectors write their one or two labels in key order;
/// any other order just misses and takes the sorting slow path.
bool SameLabels(const LabelSet& sorted, SampleList::Labels labels) {
  if (sorted.size() != labels.size()) return false;
  auto it = sorted.begin();
  for (const auto& [k, v] : labels) {
    if (it->first != k || it->second != v) return false;
    ++it;
  }
  return true;
}

template <typename T>
void GrowTo(std::vector<T>* v, std::size_t n) {
  if (v->size() < n) v->resize(n);
}

}  // namespace

// Collector emissions resolve to their columns positionally: the n-th
// emission of a pass is checked against the column the n-th emission
// used last time (one string compare, no key built), and only a mismatch
// looks the pair up by key.
class TimeSeriesSampler::Emitter final : public SampleList {
 public:
  explicit Emitter(TimeSeriesSampler* s) : s_(s) {}

  EDC_HOT void AddCounter(std::string_view name, Labels labels, u64 value,
                          std::string_view /*help*/) override {
    s_->FoldCounter(Resolve(name, labels, Kind::kCounter),
                    static_cast<double>(value));
  }
  EDC_HOT void AddGauge(std::string_view name, Labels labels, double value,
                        std::string_view /*help*/) override {
    s_->FoldGauge(Resolve(name, labels, Kind::kGauge), value);
  }

 private:
  u32 Resolve(std::string_view name, Labels labels, Kind kind) {
    const std::size_t n = next_++;
    if (n < s_->emitted_.size()) {
      const Series& cached = s_->series_[s_->emitted_[n]];
      if (cached.name == name && SameLabels(cached.labels, labels)) {
        return s_->emitted_[n];
      }
    }
    return Miss(n, name, labels, kind);
  }

  u32 Miss(std::size_t n, std::string_view name, Labels labels, Kind kind) {
    LabelSet sorted(labels.begin(), labels.end());
    std::sort(sorted.begin(), sorted.end());
    const u32 col = s_->Column(std::string(name), sorted, kind);
    GrowTo(&s_->emitted_, n + 1);
    s_->emitted_[n] = col;
    return col;
  }

  TimeSeriesSampler* s_;
  std::size_t next_ = 0;
};

std::size_t TimeSeriesSampler::Series::size() const {
  return owner_->retained_;
}

double TimeSeriesSampler::Series::ValueAt(std::size_t rel) const {
  return owner_->Cell(owner_->first_retained_ + rel, col_);
}

std::vector<double> TimeSeriesSampler::Series::values() const {
  std::vector<double> out(size());
  for (std::size_t rel = 0; rel < out.size(); ++rel) out[rel] = ValueAt(rel);
  return out;
}

double TimeSeriesSampler::Series::cumulative() const {
  return owner_->cumulative_[col_];
}

double TimeSeriesSampler::Series::LevelAt(std::size_t rel) const {
  if (rel >= size()) return kNaN;
  if (!counter) return ValueAt(rel);
  // Counters store per-window deltas; the level at window `rel` is the
  // running level minus every delta after it, which is the running level
  // itself when the counter has not changed since.
  double level = cumulative();
  if (owner_->first_retained_ + rel >= owner_->changed_[col_]) return level;
  for (std::size_t i = rel + 1; i < size(); ++i) level -= ValueAt(i);
  return level;
}

double TimeSeriesSampler::Series::DeltaAt(std::size_t rel) const {
  if (rel >= size()) return kNaN;
  if (counter) return ValueAt(rel);
  // Gauge change across the window. The first retained window has no
  // predecessor: treat the pre-history value as 0 so rate rules on
  // gauges that start at 0 behave intuitively.
  return rel == 0 ? ValueAt(0) : ValueAt(rel) - ValueAt(rel - 1);
}

TimeSeriesSampler::TimeSeriesSampler(const SamplerConfig& config,
                                     const MetricRegistry* registry)
    : config_(config), registry_(registry) {
  if (config_.period <= 0) config_.period = 100 * kMillisecond;
}

SimTime TimeSeriesSampler::WindowEnd(u64 w) const {
  if (w < first_retained_ || w - first_retained_ >= retained_) return 0;
  return ends_[Slot(w)];
}

u64 TimeSeriesSampler::AdvanceTo(SimTime now) {
  if (finalized_ || NextBoundary() > now) return 0;
  // One registry read serves every window this call closes: the
  // simulation was idle across a run of boundaries, so all state change
  // since the previous sample lands in the first of them and the rest
  // are replicas (zero deltas, held gauges).
  u64 closed = 0;
  while (NextBoundary() <= now) {
    SimTime end = NextBoundary();
    ++windows_completed_;
    AppendWindow(end, /*fold=*/closed == 0);
    ++closed;
  }
  return closed;
}

bool TimeSeriesSampler::ForceWindow(SimTime now) {
  if (finalized_) return false;
  AdvanceTo(now);
  finalized_ = true;
  SimTime last_end =
      static_cast<SimTime>(windows_completed_) * config_.period;
  if (now <= last_end && windows_completed_ > 0) return false;
  ++windows_completed_;
  AppendWindow(now > last_end ? now : last_end, /*fold=*/true);
  return true;
}

void TimeSeriesSampler::AppendWindow(SimTime end, bool fold) {
  BeginRow(end);
  if (!fold) return;
  Fold();
  // Columns added during the fold may have widened the rows with room to
  // spare; trim them back to one cell per column.
  if (stride_ != kind_.size()) SetStride(kind_.size());
}

EDC_HOT void TimeSeriesSampler::BeginRow(SimTime end) {
  const u64 w = windows_completed_ - 1;
  if (config_.retention_windows > 0 &&
      retained_ == config_.retention_windows) {
    ++first_retained_;  // the ring overwrites the oldest row
  } else {
    ++retained_;
  }
  if (Slot(w) / kBlockRows >= blocks_.size()) AddBlock();
  ends_[Slot(w)] = end;
  // With a one-row ring the previous row is this row: gauges then hold
  // their value in place.
  for (u32 c = 0; c < kind_.size(); ++c) {
    double& cell = Cell(w, c);
    switch (kind_[c]) {
      case Kind::kCounter: cell = 0.0; break;
      case Kind::kQuantile: cell = kNaN; break;
      case Kind::kGauge: cell = w == 0 ? 0.0 : Cell(w - 1, c); break;
    }
  }
}

void TimeSeriesSampler::AddBlock() {
  // Cells are written before they are read, so the block starts
  // uninitialized.
  blocks_.push_back(std::unique_ptr<double[]>(
      new double[std::max<std::size_t>(stride_, 1) * kBlockRows]));
  ends_.resize(blocks_.size() * kBlockRows);
}

void TimeSeriesSampler::SetStride(std::size_t stride) {
  std::vector<std::unique_ptr<double[]>> blocks(blocks_.size());
  for (std::unique_ptr<double[]>& block : blocks) {
    block.reset(new double[std::max<std::size_t>(stride, 1) * kBlockRows]);
  }
  const std::size_t keep = std::min(stride, stride_);
  for (u64 w = first_retained_; w < first_retained_ + retained_; ++w) {
    const std::size_t slot = Slot(w);
    std::copy_n(blocks_[slot / kBlockRows].get() + slot % kBlockRows * stride_,
                keep,
                blocks[slot / kBlockRows].get() + slot % kBlockRows * stride);
  }
  blocks_ = std::move(blocks);
  stride_ = stride;
}

EDC_HOT void TimeSeriesSampler::Fold() {
  // Registry instruments first, then collectors in registration order —
  // the order Snapshot() keeps among samples of one (name, labels) pair,
  // so when two sources write one series the same write wins.
  if (registry_->instrument_count() != instruments_.size()) {
    SyncInstruments();
  }
  for (const Instrument& in : instruments_) {
    switch (in.ref.type) {
      case MetricType::kCounter:
        FoldCounter(in.target, static_cast<double>(in.ref.counter->value()));
        break;
      case MetricType::kGauge:
        FoldGauge(in.target, in.ref.gauge->value());
        break;
      case MetricType::kHistogram:
        FoldHistogram(histograms_[in.target]);
        break;
    }
  }
  Emitter emitter(this);
  registry_->RunCollectors(emitter, &collectors_);
}

void TimeSeriesSampler::SyncInstruments() {
  std::vector<MetricRegistry::InstrumentRef> refs;
  registry_->ListInstruments(&refs);
  instruments_.clear();
  for (const MetricRegistry::InstrumentRef& ref : refs) {
    Instrument in{ref, 0};
    switch (ref.type) {
      case MetricType::kCounter:
        in.target = Column(*ref.name, *ref.labels, Kind::kCounter);
        break;
      case MetricType::kGauge:
        in.target = Column(*ref.name, *ref.labels, Kind::kGauge);
        break;
      case MetricType::kHistogram: {
        auto it = std::find_if(
            histograms_.begin(), histograms_.end(),
            [&ref](const Histogram& h) { return h.metric == ref.histogram; });
        in.target = static_cast<u32>(it - histograms_.begin());
        if (it != histograms_.end()) break;
        Histogram h;
        h.metric = ref.histogram;
        h.count = Column(*ref.name + ":count", *ref.labels, Kind::kCounter);
        h.sum = Column(*ref.name + ":sum", *ref.labels, Kind::kCounter);
        h.p50 = Column(*ref.name + ":p50", *ref.labels, Kind::kQuantile);
        h.p99 = Column(*ref.name + ":p99", *ref.labels, Kind::kQuantile);
        histograms_.push_back(std::move(h));
        break;
      }
    }
    instruments_.push_back(in);
  }
}

EDC_HOT void TimeSeriesSampler::FoldCounter(u32 col, double v) {
  const double delta = v - cumulative_[col];
  Cell(windows_completed_ - 1, col) = delta;
  cumulative_[col] = v;
  if (delta != 0.0) changed_[col] = windows_completed_ - 1;
}

EDC_HOT void TimeSeriesSampler::FoldGauge(u32 col, double v) {
  Cell(windows_completed_ - 1, col) = v;
  if (v != 0.0) changed_[col] = windows_completed_ - 1;
}

void TimeSeriesSampler::FoldHistogram(Histogram& h) {
  const std::vector<u64>& counts = h.metric->bucket_counts();
  const std::size_t n = counts.size();
  GrowTo(&delta_, n);
  const bool have_last = h.last_buckets.size() == n;
  for (std::size_t i = 0; i < n; ++i) {
    delta_[i] = have_last ? counts[i] - h.last_buckets[i] : counts[i];
  }
  h.last_buckets = counts;
  FoldCounter(h.count, static_cast<double>(h.metric->count()));
  FoldCounter(h.sum, h.metric->sum());
  const std::vector<double>& bounds = h.metric->bounds();
  FoldGauge(h.p50, WindowQuantile(bounds, delta_.data(), n, 0.50));
  FoldGauge(h.p99, WindowQuantile(bounds, delta_.data(), n, 0.99));
}

u32 TimeSeriesSampler::Column(const std::string& name,
                              const LabelSet& labels, Kind kind) {
  auto it = index_.find(Key{name, labels});
  if (it != index_.end()) return it->second;
  return AddColumn(Key{name, labels}, kind);
}

u32 TimeSeriesSampler::AddColumn(Key key, Kind kind) {
  const u32 col = static_cast<u32>(series_.size());
  Series& s = series_.emplace_back();
  s.name = key.name;
  s.labels = key.labels;
  s.counter = kind == Kind::kCounter;
  s.owner_ = this;
  s.col_ = col;
  s.json_head_ = "{\"name\":\"";
  AppendJsonEscaped(&s.json_head_, s.name);
  s.json_head_ += "\",\"labels\":{";
  AppendJsonLabels(&s.json_head_, s.labels);
  s.json_head_ += "},\"kind\":\"";
  s.json_head_ += s.counter ? "counter" : "gauge";
  s.json_head_ += "\",\"values\":[";
  std::string csv = s.name;
  if (!s.labels.empty()) {
    csv += '{';
    bool first = true;
    for (const auto& [k, v] : s.labels) {
      if (!first) csv += ',';
      first = false;
      csv += k;
      csv += '=';
      csv += v;
    }
    csv += '}';
  }
  s.csv_head_ = CsvCell(csv);
  kind_.push_back(kind);
  cumulative_.push_back(0.0);
  changed_.push_back(0);
  auto it = index_.emplace(std::move(key), col).first;
  order_.insert(order_.begin() + std::distance(index_.begin(), it), col);

  // Widen the rows (geometrically: a fold may add many columns), then
  // backfill the retained windows, the newest included, from before the
  // series appeared: zero for counters and gauges, NaN for quantiles.
  if (kind_.size() > stride_) SetStride(std::max<std::size_t>(16, 2 * stride_));
  for (u64 w = first_retained_; w < first_retained_ + retained_; ++w) {
    Cell(w, col) = kind == Kind::kQuantile ? kNaN : 0.0;
  }
  return col;
}

double TimeSeriesSampler::WindowQuantile(const std::vector<double>& bounds,
                                         const u64* delta_counts,
                                         std::size_t n, double q) {
  u64 total = 0;
  for (std::size_t i = 0; i < n; ++i) total += delta_counts[i];
  if (total == 0 || bounds.empty()) return kNaN;
  double rank = q * static_cast<double>(total);
  u64 cumulative = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u64 prev = cumulative;
    cumulative += delta_counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) return bounds.back();  // +Inf bucket: clamp
    double lower = i == 0 ? 0.0 : bounds[i - 1];
    double upper = bounds[i];
    if (delta_counts[i] == 0) return upper;
    double frac =
        (rank - static_cast<double>(prev)) /
        static_cast<double>(delta_counts[i]);
    return lower + (upper - lower) * frac;
  }
  return bounds.back();
}

const TimeSeriesSampler::Series* TimeSeriesSampler::Find(
    const std::string& name, const LabelSet& labels) const {
  auto it = index_.find(Key{name, labels});
  return it == index_.end() ? nullptr : &series_[it->second];
}

std::vector<const TimeSeriesSampler::Series*>
TimeSeriesSampler::AllSeries() const {
  std::vector<const Series*> out;
  out.reserve(order_.size());
  for (u32 col : order_) out.push_back(&series_[col]);
  return out;
}

std::string TimeSeriesSampler::ToJson(std::size_t last_n) const {
  std::string out;
  AppendJson(&out, last_n);
  return out;
}

void TimeSeriesSampler::AppendJson(std::string* out,
                                   std::size_t last_n) const {
  const std::size_t n = retained_;
  const std::size_t skip = (last_n != 0 && last_n < n) ? n - last_n : 0;
  const u64 first = first_retained_ + skip;
  std::size_t bound = 160 + (n - skip) * kMaxNumberChars;
  for (const Series& s : series_) {
    bound += s.json_head_.size() + 2 + (n - skip) * (kMaxNumberChars + 1);
  }
  out->reserve(out->size() + bound);
  out->append("{\"schema\":\"edc-timeseries-v1\",\"period_ns\":");
  AppendInt(out, config_.period);
  out->append(",\"first_window\":");
  AppendUint(out, first);
  out->append(",\"windows\":");
  AppendUint(out, n - skip);
  out->append(",\"window_end_ns\":[");
  for (u64 w = first; w < first_retained_ + n; ++w) {
    if (w != first) out->push_back(',');
    AppendInt(out, ends_[Slot(w)]);
  }
  out->append("],\"series\":[");
  bool first_series = true;
  for (u32 col : order_) {
    if (!first_series) out->push_back(',');
    first_series = false;
    out->append(series_[col].json_head_);
    for (u64 w = first; w < first_retained_ + n; ++w) {
      if (w != first) out->push_back(',');
      AppendJsonNumber(out, Cell(w, col));
    }
    out->append("]}");
  }
  out->append("]}");
}

std::string TimeSeriesSampler::ToCsv() const {
  std::size_t bound = 16 + retained_ * (48 + series_.size() *
                                                 (kMaxNumberChars + 1));
  for (const Series& s : series_) bound += s.csv_head_.size() + 1;
  std::string out;
  out.reserve(bound);
  out.append("window,end_ns");
  for (u32 col : order_) {
    out.push_back(',');
    out.append(series_[col].csv_head_);
  }
  out.push_back('\n');
  for (u64 w = first_retained_; w < first_retained_ + retained_; ++w) {
    AppendUint(&out, w);
    out.push_back(',');
    AppendInt(&out, ends_[Slot(w)]);
    for (u32 col : order_) {
      out.push_back(',');
      AppendDouble(&out, Cell(w, col));
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace edc::obs
