#include "obs/watchdog.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace edc::obs {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const char* KindName(HealthRule::Kind k) {
  switch (k) {
    case HealthRule::Kind::kThreshold: return "threshold";
    case HealthRule::Kind::kRate: return "rate";
    case HealthRule::Kind::kAbsent: return "absent";
    case HealthRule::Kind::kStall: return "stall";
  }
  return "unknown";
}

bool Compare(HealthRule::Cmp cmp, double value, double threshold) {
  // NaN compares false against everything: a missing window never
  // breaches a threshold rule.
  switch (cmp) {
    case HealthRule::Cmp::kGt: return value > threshold;
    case HealthRule::Cmp::kGe: return value >= threshold;
    case HealthRule::Cmp::kLt: return value < threshold;
    case HealthRule::Cmp::kLe: return value <= threshold;
  }
  return false;
}

struct Cursor {
  const std::string& text;
  std::size_t pos = 0;
  int line = 1;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return AtEnd() ? '\0' : text[pos]; }
  void SkipSpaces() {
    while (!AtEnd() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }
};

bool IsSeriesChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':' || c == '.' ||
         c == '-';
}

/// Rule names (and keywords) exclude ':' so `rule NAME:` tokenizes.
bool IsNameChar(char c) { return IsSeriesChar(c) && c != ':'; }

std::string Take(Cursor* c, bool (*pred)(char)) {
  std::string out;
  while (!c->AtEnd() && pred(c->Peek())) out += c->text[c->pos++];
  return out;
}

Status LineError(int line, const std::string& msg) {
  return Status::InvalidArgument("health rules line " +
                                 std::to_string(line) + ": " + msg);
}

}  // namespace

Result<std::vector<HealthRule>> ParseHealthRules(const std::string& text) {
  std::vector<HealthRule> rules;
  Cursor c{text};
  while (!c.AtEnd()) {
    c.SkipSpaces();
    if (c.Peek() == '\n') {  // blank line
      ++c.pos;
      ++c.line;
      continue;
    }
    if (c.Peek() == '#') {  // comment
      while (!c.AtEnd() && c.Peek() != '\n') ++c.pos;
      continue;
    }
    if (c.AtEnd()) break;

    std::string kw = Take(&c, IsNameChar);
    if (kw != "rule") return LineError(c.line, "expected 'rule'");
    c.SkipSpaces();
    HealthRule rule;
    rule.name = Take(&c, IsNameChar);
    if (rule.name.empty()) return LineError(c.line, "missing rule name");
    c.SkipSpaces();
    if (c.Peek() != ':') return LineError(c.line, "expected ':'");
    ++c.pos;
    c.SkipSpaces();

    // Optional function wrapper: rate(S) / absent(S) / stall(S).
    std::string head = Take(&c, IsSeriesChar);
    if (head.empty()) return LineError(c.line, "missing series name");
    c.SkipSpaces();
    bool wrapped = false;
    if (c.Peek() == '(') {
      wrapped = true;
      if (head == "rate") rule.kind = HealthRule::Kind::kRate;
      else if (head == "absent") rule.kind = HealthRule::Kind::kAbsent;
      else if (head == "stall") rule.kind = HealthRule::Kind::kStall;
      else return LineError(c.line, "unknown function '" + head + "'");
      ++c.pos;
      c.SkipSpaces();
      rule.series = Take(&c, IsSeriesChar);
      if (rule.series.empty()) {
        return LineError(c.line, "missing series in " + head + "()");
      }
    } else {
      rule.kind = HealthRule::Kind::kThreshold;
      rule.series = head;
    }

    // Optional label selector {k=v,...}.
    c.SkipSpaces();
    if (c.Peek() == '{') {
      ++c.pos;
      while (true) {
        c.SkipSpaces();
        std::string k = Take(&c, IsSeriesChar);
        c.SkipSpaces();
        if (k.empty() || c.Peek() != '=') {
          return LineError(c.line, "bad label selector");
        }
        ++c.pos;
        c.SkipSpaces();
        std::string v = Take(&c, IsSeriesChar);
        rule.labels.emplace_back(std::move(k), std::move(v));
        c.SkipSpaces();
        if (c.Peek() == ',') {
          ++c.pos;
          continue;
        }
        if (c.Peek() == '}') {
          ++c.pos;
          break;
        }
        return LineError(c.line, "unterminated label selector");
      }
      std::sort(rule.labels.begin(), rule.labels.end());
    }
    if (wrapped) {
      c.SkipSpaces();
      if (c.Peek() != ')') return LineError(c.line, "expected ')'");
      ++c.pos;
    }

    // Comparator + threshold (required for threshold/rate, forbidden
    // for absent/stall).
    c.SkipSpaces();
    bool has_cmp = c.Peek() == '>' || c.Peek() == '<';
    if (rule.kind == HealthRule::Kind::kThreshold ||
        rule.kind == HealthRule::Kind::kRate) {
      if (!has_cmp) return LineError(c.line, "expected comparator");
      char op = c.Peek();
      ++c.pos;
      bool eq = c.Peek() == '=';
      if (eq) ++c.pos;
      rule.cmp = op == '>'
                     ? (eq ? HealthRule::Cmp::kGe : HealthRule::Cmp::kGt)
                     : (eq ? HealthRule::Cmp::kLe : HealthRule::Cmp::kLt);
      c.SkipSpaces();
      const char* start = text.c_str() + c.pos;
      char* end = nullptr;
      rule.threshold = std::strtod(start, &end);
      if (end == start) return LineError(c.line, "expected threshold");
      c.pos += static_cast<std::size_t>(end - start);
    } else if (has_cmp) {
      return LineError(c.line, std::string(KindName(rule.kind)) +
                                   "() takes no comparator");
    }

    // Optional 'for N'.
    c.SkipSpaces();
    if (IsNameChar(c.Peek())) {
      std::string word = Take(&c, IsNameChar);
      if (word != "for") {
        return LineError(c.line, "unexpected '" + word + "'");
      }
      c.SkipSpaces();
      const char* start = text.c_str() + c.pos;
      char* end = nullptr;
      long n = std::strtol(start, &end, 10);
      if (end == start || n < 1) {
        return LineError(c.line, "expected window count after 'for'");
      }
      rule.for_windows = static_cast<u64>(n);
      c.pos += static_cast<std::size_t>(end - start);
    }
    c.SkipSpaces();
    if (!c.AtEnd() && c.Peek() != '\n') {
      return LineError(c.line, "trailing text");
    }
    rules.push_back(std::move(rule));
  }
  if (rules.empty()) {
    return Status::InvalidArgument("health rules: no rules defined");
  }
  return rules;
}

const std::string& DefaultHealthRules() {
  static const std::string kRules =
      "# Built-in health rules (docs/observability.md#health-rules)\n"
      "rule waf-high: edc_device_waf > 4 for 3\n"
      "rule read-p99-slow: edc_read_latency_us:p99 > 50000 for 3\n"
      "rule media-errors: rate(edc_media_errors_total) > 0\n"
      "rule breaker-open: edc_breaker_open >= 1\n"
      "rule rais-degraded: edc_rais_degraded >= 1\n"
      "rule journal-backlog: edc_journal_lag_records > 10000 for 3\n";
  return kRules;
}

HealthWatchdog::HealthWatchdog(std::vector<HealthRule> rules,
                               const TimeSeriesSampler* sampler,
                               MetricRegistry* registry,
                               TraceRecorder* trace)
    : sampler_(sampler), trace_(trace) {
  states_.reserve(rules.size());
  for (HealthRule& rule : rules) {
    State s;
    s.rule = std::move(rule);
    s.last_value = kNaN;
    if (registry != nullptr) {
      s.alert_counter = registry->GetCounter(
          "edc_health_alerts_total", {{"rule", s.rule.name}},
          "Health watchdog alerts fired");
      s.clear_counter = registry->GetCounter(
          "edc_health_clears_total", {{"rule", s.rule.name}},
          "Health watchdog alerts cleared");
    }
    states_.push_back(std::move(s));
  }
}

double HealthWatchdog::Evaluate(const State& state, std::size_t rel,
                                bool* breach) {
  const HealthRule& rule = state.rule;
  const TimeSeriesSampler::Series* s = state.series;
  switch (rule.kind) {
    case HealthRule::Kind::kThreshold: {
      double v = s != nullptr ? s->LevelAt(rel) : kNaN;
      *breach = Compare(rule.cmp, v, rule.threshold);
      return v;
    }
    case HealthRule::Kind::kRate: {
      double v = s != nullptr ? s->DeltaAt(rel) : kNaN;
      *breach = Compare(rule.cmp, v, rule.threshold);
      return v;
    }
    case HealthRule::Kind::kAbsent:
      *breach = s == nullptr;
      return s == nullptr ? 0.0 : 1.0;
    case HealthRule::Kind::kStall: {
      double v = s != nullptr ? s->DeltaAt(rel) : kNaN;
      *breach = s != nullptr && v == 0.0;
      return v;
    }
  }
  *breach = false;
  return kNaN;
}

void HealthWatchdog::OnWindow(u64 window) {
  if (any_window_ && window <= last_window_) return;
  if (window < sampler_->first_retained()) return;
  std::size_t rel = static_cast<std::size_t>(
      window - sampler_->first_retained());
  if (rel >= sampler_->retained()) return;
  any_window_ = true;
  last_window_ = window;
  ++windows_evaluated_;
  if (sampler_->series_count() != series_seen_) {
    // New series appeared: resolve the rules still waiting for theirs.
    series_seen_ = sampler_->series_count();
    for (State& s : states_) {
      if (s.series == nullptr) {
        s.series = sampler_->Find(s.rule.series, s.rule.labels);
      }
    }
  }
  SimTime ts = sampler_->WindowEnd(window);
  for (State& s : states_) {
    bool breach = false;
    double v = Evaluate(s, rel, &breach);
    s.last_value = v;
    if (breach) {
      ++s.streak;
      if (!s.active && s.streak >= s.rule.for_windows) {
        s.active = true;
        ++s.alerts;
        if (s.alert_counter != nullptr) s.alert_counter->Inc();
        events_.push_back(Event{window, ts, s.rule.name, true, v});
        if (trace_ != nullptr) {
          trace_->Instant("health.alert", "health", kHealthTid, ts,
                          {{"rule", s.rule.name},
                           {"value", v},
                           {"window", window}});
        }
      }
    } else {
      s.streak = 0;
      if (s.active) {
        s.active = false;
        ++s.clears;
        if (s.clear_counter != nullptr) s.clear_counter->Inc();
        events_.push_back(Event{window, ts, s.rule.name, false, v});
        if (trace_ != nullptr) {
          trace_->Instant("health.clear", "health", kHealthTid, ts,
                          {{"rule", s.rule.name},
                           {"value", v},
                           {"window", window}});
        }
      }
    }
  }
}

bool HealthWatchdog::Report::healthy() const {
  for (const RuleState& r : rules) {
    if (r.active || r.alerts != 0) return false;
  }
  return true;
}

std::string HealthWatchdog::Report::ToJson() const {
  std::size_t bound = 96;
  for (const Event& e : events) bound += 96 + 6 * e.rule.size();
  for (const RuleState& r : rules) bound += 128 + 6 * r.name.size();
  std::string out;
  out.reserve(bound);
  out.append("{\"schema\":\"edc-health-v1\",\"windows\":");
  AppendUint(&out, windows_evaluated);
  out.append(",\"healthy\":");
  out.append(healthy() ? "true" : "false");
  out.append(",\"events\":[");
  bool first = true;
  for (const Event& e : events) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"window\":");
    AppendUint(&out, e.window);
    out.append(",\"ts_ns\":");
    AppendInt(&out, e.ts);
    out.append(",\"rule\":\"");
    AppendJsonEscaped(&out, e.rule);
    out.append("\",\"type\":\"");
    out.append(e.alert ? "alert" : "clear");
    out.append("\",\"value\":");
    AppendJsonNumber(&out, e.value);
    out.push_back('}');
  }
  out.append("],\"rules\":[");
  first = true;
  for (const RuleState& r : rules) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, r.name);
    out.append("\",\"kind\":\"");
    out.append(KindName(r.kind));
    out.append("\",\"active\":");
    out.append(r.active ? "true" : "false");
    out.append(",\"alerts\":");
    AppendUint(&out, r.alerts);
    out.append(",\"clears\":");
    AppendUint(&out, r.clears);
    out.append(",\"last_value\":");
    AppendJsonNumber(&out, r.last_value);
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

HealthWatchdog::Report HealthWatchdog::report() const {
  Report rep;
  rep.windows_evaluated = windows_evaluated_;
  rep.events = events_;
  rep.rules.reserve(states_.size());
  for (const State& s : states_) {
    RuleState r;
    r.name = s.rule.name;
    r.kind = s.rule.kind;
    r.active = s.active;
    r.alerts = s.alerts;
    r.clears = s.clears;
    r.last_value = s.last_value;
    rep.rules.push_back(std::move(r));
  }
  return rep;
}

}  // namespace edc::obs
