#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace edc::obs {
namespace {

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

void SortLabels(LabelSet* labels) {
  std::sort(labels->begin(), labels->end());
}

/// Writes FormatDouble's text into [p, p + kMaxNumberChars) and returns
/// the end. std::to_chars with (fixed, 0) and (general, 17) is specified
/// to produce exactly printf's %.0f and %.17g.
char* FormatDoubleTo(char* p, double v) {
  if (std::isnan(v)) return std::copy_n("NaN", 3, p);
  if (std::isinf(v)) return std::copy_n(v > 0 ? "+Inf" : "-Inf", 4, p);
  double integral;
  char* end = p + kMaxNumberChars;
  if (std::modf(v, &integral) == 0.0 && std::abs(v) < 1e15) {
    // Integral and below 1e15, so exact as an i64 — the integer path
    // prints the same digits as (fixed, 0), only faster; -0 keeps its
    // sign.
    if (v == 0.0 && std::signbit(v)) *p++ = '-';
    return std::to_chars(p, end, static_cast<i64>(v)).ptr;
  }
  return std::to_chars(p, end, v, std::chars_format::general, 17).ptr;
}

/// Sample sink behind Snapshot(): materializes every emission.
class SnapshotList final : public SampleList {
 public:
  explicit SnapshotList(std::vector<Sample>* out) : out_(out) {}

  void AddCounter(std::string_view name, Labels labels, u64 value,
                  std::string_view help) override {
    Sample& s = Add(MetricType::kCounter, name, labels, help);
    s.counter_value = value;
  }
  void AddGauge(std::string_view name, Labels labels, double value,
                std::string_view help) override {
    Sample& s = Add(MetricType::kGauge, name, labels, help);
    s.gauge_value = value;
  }

 private:
  Sample& Add(MetricType type, std::string_view name, Labels labels,
              std::string_view help) {
    Sample& s = out_->emplace_back();
    s.type = type;
    s.name = name;
    s.labels.reserve(labels.size());
    for (const auto& [k, v] : labels) s.labels.emplace_back(k, v);
    SortLabels(&s.labels);
    s.help = help;
    return s;
  }

  std::vector<Sample>* out_;
};

}  // namespace

void AppendDouble(std::string* out, double v) {
  char buf[kMaxNumberChars];
  out->append(buf, FormatDoubleTo(buf, v));
}

void AppendJsonNumber(std::string* out, double v) {
  if (std::isfinite(v)) {
    AppendDouble(out, v);
    return;
  }
  out->push_back('"');
  AppendDouble(out, v);
  out->push_back('"');
}

void AppendUint(std::string* out, u64 v) {
  char buf[kMaxNumberChars];
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void AppendInt(std::string* out, i64 v) {
  char buf[kMaxNumberChars];
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped stretch
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const char esc[6] = {'\\', 'u', '0', '0', kHex[u >> 4],
                             kHex[u & 0xf]};
        out->append(esc, sizeof esc);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

void AppendJsonLabels(std::string* out, const LabelSet& labels) {
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    AppendJsonEscaped(out, k);
    out->append("\":\"");
    AppendJsonEscaped(out, v);
    out->push_back('"');
  }
}

std::string FormatDouble(double v) {
  std::string out;
  AppendDouble(&out, v);
  return out;
}

std::string JsonNumber(double v) {
  std::string out;
  AppendJsonNumber(&out, v);
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

HistogramMetric::HistogramMetric(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void HistogramMetric::Observe(double v) {
  std::size_t i =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(),
                                                bounds_.end(), v) -
                               bounds_.begin());
  ++counts_[i];
  sum_ += v;
  ++count_;
}

const std::vector<double>& LatencyBoundsUs() {
  static const std::vector<double> kBounds = {
      10,    20,    50,     100,    200,    500,    1000,    2000,
      5000,  10000, 20000,  50000,  100000, 200000, 500000,  1000000};
  return kBounds;
}

const Sample* MetricsSnapshot::Find(const std::string& name,
                                    const LabelSet& labels) const {
  for (const Sample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::size_t bound = 64;
  for (const Sample& s : samples) {
    bound += 96 + 6 * s.name.size() + kMaxNumberChars;
    for (const auto& [k, v] : s.labels) bound += 6 + 6 * (k.size() + v.size());
    bound += s.bucket_counts.size() * (24 + 2 * kMaxNumberChars);
  }
  std::string out;
  out.reserve(bound);
  out.append("{\"schema\":\"edc-metrics-v1\",\"metrics\":[");
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, s.name);
    out.append("\",\"type\":\"");
    out.append(TypeName(s.type));
    out.append("\",\"labels\":{");
    AppendJsonLabels(&out, s.labels);
    out.push_back('}');
    switch (s.type) {
      case MetricType::kCounter:
        out.append(",\"value\":");
        AppendUint(&out, s.counter_value);
        break;
      case MetricType::kGauge:
        out.append(",\"value\":");
        AppendJsonNumber(&out, s.gauge_value);
        break;
      case MetricType::kHistogram: {
        out.append(",\"buckets\":[");
        u64 cumulative = 0;
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          if (i != 0) out.push_back(',');
          cumulative += s.bucket_counts[i];
          out.append("{\"le\":\"");
          if (i < s.bounds.size()) {
            AppendDouble(&out, s.bounds[i]);
          } else {
            out.append("+Inf");
          }
          out.append("\",\"count\":");
          AppendUint(&out, cumulative);
          out.push_back('}');
        }
        out.append("],\"sum\":");
        AppendJsonNumber(&out, s.sum);
        out.append(",\"count\":");
        AppendUint(&out, s.count);
        break;
      }
    }
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  // `{k="v",...[,extra_key="extra_val"]}`, or nothing for no labels.
  auto append_labels = [](std::string* out, const LabelSet& labels,
                          std::string_view extra_key = {},
                          std::string_view extra_val = {}) {
    if (labels.empty() && extra_key.empty()) return;
    out->push_back('{');
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out->push_back(',');
      first = false;
      out->append(k);
      out->append("=\"");
      AppendJsonEscaped(out, v);
      out->push_back('"');
    }
    if (!extra_key.empty()) {
      if (!first) out->push_back(',');
      out->append(extra_key);
      out->append("=\"");
      out->append(extra_val);
      out->push_back('"');
    }
    out->push_back('}');
  };

  std::size_t bound = 0;
  for (const Sample& s : samples) {
    std::size_t labels = 8;
    for (const auto& [k, v] : s.labels) labels += 4 + k.size() + 6 * v.size();
    bound += 32 + 3 * s.name.size() + s.help.size() + labels +
             kMaxNumberChars;
    bound += s.bucket_counts.size() *
             (s.name.size() + labels + 24 + 2 * kMaxNumberChars);
    if (s.type == MetricType::kHistogram) {
      bound += 2 * (s.name.size() + labels + 16 + kMaxNumberChars);
    }
  }
  std::string out;
  out.reserve(bound);
  std::string_view last_name;
  for (const Sample& s : samples) {
    if (s.name != last_name) {
      last_name = s.name;
      if (!s.help.empty()) {
        out.append("# HELP ");
        out.append(s.name);
        out.push_back(' ');
        out.append(s.help);
        out.push_back('\n');
      }
      out.append("# TYPE ");
      out.append(s.name);
      out.push_back(' ');
      out.append(TypeName(s.type));
      out.push_back('\n');
    }
    switch (s.type) {
      case MetricType::kCounter:
        out.append(s.name);
        append_labels(&out, s.labels);
        out.push_back(' ');
        AppendUint(&out, s.counter_value);
        out.push_back('\n');
        break;
      case MetricType::kGauge:
        out.append(s.name);
        append_labels(&out, s.labels);
        out.push_back(' ');
        AppendDouble(&out, s.gauge_value);
        out.push_back('\n');
        break;
      case MetricType::kHistogram: {
        u64 cumulative = 0;
        char le[kMaxNumberChars];
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          cumulative += s.bucket_counts[i];
          std::string_view le_text = "+Inf";
          if (i < s.bounds.size()) {
            le_text = std::string_view(
                le, static_cast<std::size_t>(FormatDoubleTo(le, s.bounds[i]) -
                                             le));
          }
          out.append(s.name);
          out.append("_bucket");
          append_labels(&out, s.labels, "le", le_text);
          out.push_back(' ');
          AppendUint(&out, cumulative);
          out.push_back('\n');
        }
        out.append(s.name);
        out.append("_sum");
        append_labels(&out, s.labels);
        out.push_back(' ');
        AppendDouble(&out, s.sum);
        out.push_back('\n');
        out.append(s.name);
        out.append("_count");
        append_labels(&out, s.labels);
        out.push_back(' ');
        AppendUint(&out, s.count);
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

MetricRegistry::Entry* MetricRegistry::FindOrCreate(
    const std::string& name, LabelSet labels, MetricType type,
    const std::string& help) {
  SortLabels(&labels);
  Key key{name, std::move(labels)};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.type != type) {
      if (error_.empty()) {
        error_ = "metric '";
        error_ += name;
        error_ += "' registered as ";
        error_ += TypeName(it->second.type);
        error_ += " and re-requested as ";
        error_ += TypeName(type);
      }
      return nullptr;
    }
    return &it->second;
  }
  Entry e;
  e.type = type;
  e.help = help;
  return &entries_.emplace(std::move(key), std::move(e)).first->second;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    LabelSet labels,
                                    const std::string& help) {
  sync::MutexLock lock(&mu_);
  Entry* e = FindOrCreate(name, std::move(labels), MetricType::kCounter,
                          help);
  if (e == nullptr) return nullptr;
  if (!e->counter) e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name, LabelSet labels,
                                const std::string& help) {
  sync::MutexLock lock(&mu_);
  Entry* e =
      FindOrCreate(name, std::move(labels), MetricType::kGauge, help);
  if (e == nullptr) return nullptr;
  if (!e->gauge) e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

HistogramMetric* MetricRegistry::GetHistogram(const std::string& name,
                                              LabelSet labels,
                                              std::vector<double> bounds,
                                              const std::string& help) {
  sync::MutexLock lock(&mu_);
  Entry* e = FindOrCreate(name, std::move(labels), MetricType::kHistogram,
                          help);
  if (e == nullptr) return nullptr;
  if (!e->histogram) {
    e->histogram = std::make_unique<HistogramMetric>(std::move(bounds));
  }
  return e->histogram.get();
}

u64 MetricRegistry::AddCollector(Collector fn, bool deterministic) {
  auto shared = std::make_shared<const Collector>(std::move(fn));
  sync::MutexLock lock(&mu_);
  u64 id = next_collector_id_++;
  collectors_.push_back(CollectorEntry{std::move(shared), deterministic, id});
  return id;
}

void MetricRegistry::RemoveCollector(u64 handle) {
  sync::MutexLock lock(&mu_);
  collectors_.erase(
      std::remove_if(
          collectors_.begin(), collectors_.end(),
          [handle](const CollectorEntry& c) { return c.id == handle; }),
      collectors_.end());
}

std::size_t MetricRegistry::instrument_count() const {
  sync::MutexLock lock(&mu_);
  return entries_.size();
}

void MetricRegistry::ListInstruments(std::vector<InstrumentRef>* out) const {
  sync::MutexLock lock(&mu_);
  out->clear();
  out->reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    out->push_back(InstrumentRef{&key.name, &key.labels, entry.type,
                                 entry.counter.get(), entry.gauge.get(),
                                 entry.histogram.get()});
  }
}

void MetricRegistry::RunCollectors(SampleList& out, CollectorList* scratch,
                                   bool include_volatile) const {
  // Copy the collectors out so they run with mu_ released: a collector
  // may re-enter the registry or take a coarser-ranked lock
  // (WorkerPool::GetStats), neither of which may happen under mu_. The
  // shared_ptr copies also keep a collector alive if it is removed while
  // the pass runs.
  scratch->clear();
  {
    sync::MutexLock lock(&mu_);
    for (const CollectorEntry& c : collectors_) {
      if (!c.deterministic && !include_volatile) continue;
      scratch->push_back(c.fn);
    }
  }
  for (const auto& fn : *scratch) (*fn)(out);
  scratch->clear();
}

MetricsSnapshot MetricRegistry::Snapshot(bool include_volatile) const {
  MetricsSnapshot snap;
  {
    sync::MutexLock lock(&mu_);
    for (const auto& [key, entry] : entries_) {
      Sample s;
      s.type = entry.type;
      s.name = key.name;
      s.labels = key.labels;
      s.help = entry.help;
      switch (entry.type) {
        case MetricType::kCounter:
          s.counter_value = entry.counter ? entry.counter->value() : 0;
          break;
        case MetricType::kGauge:
          s.gauge_value = entry.gauge ? entry.gauge->value() : 0;
          break;
        case MetricType::kHistogram:
          if (entry.histogram) {
            s.bounds = entry.histogram->bounds();
            s.bucket_counts = entry.histogram->bucket_counts();
            s.sum = entry.histogram->sum();
            s.count = entry.histogram->count();
          }
          break;
      }
      snap.samples.push_back(std::move(s));
    }
  }
  SnapshotList list(&snap.samples);
  CollectorList collectors;
  RunCollectors(list, &collectors, include_volatile);
  std::stable_sort(snap.samples.begin(), snap.samples.end(),
                   [](const Sample& a, const Sample& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });
  return snap;
}

}  // namespace edc::obs
