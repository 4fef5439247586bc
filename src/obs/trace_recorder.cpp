#include "obs/trace_recorder.hpp"

#include <algorithm>
#include <charconv>

#include "common/check.hpp"
#include "obs/metrics.hpp"  // the shared append-only formatters

namespace edc::obs {
namespace {

/// SimTime nanoseconds as microseconds with exactly three fraction
/// digits — integer math only, so the text is deterministic.
void AppendTsUs(std::string* out, SimTime ns) {
  const bool neg = ns < 0;
  const u64 abs = neg ? 0 - static_cast<u64>(ns) : static_cast<u64>(ns);
  char buf[32];
  char* p = buf;
  if (neg) *p++ = '-';
  p = std::to_chars(p, buf + sizeof buf, abs / 1000).ptr;
  const u64 frac = abs % 1000;
  p[0] = '.';
  p[1] = static_cast<char>('0' + frac / 100);
  p[2] = static_cast<char>('0' + frac / 10 % 10);
  p[3] = static_cast<char>('0' + frac % 10);
  out->append(buf, p + 4);
}

std::vector<std::string> ParseFilter(const std::string& filter) {
  std::vector<std::string> cats;
  std::size_t pos = 0;
  while (pos < filter.size()) {
    std::size_t comma = filter.find(',', pos);
    if (comma == std::string::npos) comma = filter.size();
    std::string cat = filter.substr(pos, comma - pos);
    // Trim surrounding spaces.
    while (!cat.empty() && cat.front() == ' ') cat.erase(cat.begin());
    while (!cat.empty() && cat.back() == ' ') cat.pop_back();
    if (!cat.empty()) cats.push_back(std::move(cat));
    pos = comma + 1;
  }
  return cats;
}

}  // namespace

u32 TraceRecorder::InternTable::InternSlow(std::string_view s) {
  u32 id;
  auto it = index_.find(s);
  if (it != index_.end()) {
    id = it->second;
  } else {
    id = static_cast<u32>(entries_.size());
    Entry& e = entries_.emplace_back();
    e.text = s;
    e.json = JsonEscape(s);
    index_.emplace(e.text, id);
  }
  recent_[RecentSlot(s)] =
      Recent{s.data(), s.size(), entries_[id].text.data(), id};
  return id;
}

TraceRecorder::TraceRecorder(const std::string& filter)
    : filter_(ParseFilter(filter)) {}

bool TraceRecorder::Enabled(std::string_view cat) const {
  if (filter_.empty()) return true;
  return std::find(filter_.begin(), filter_.end(), cat) != filter_.end();
}

bool TraceRecorder::ResolveCategory(u32 cat) {
  if (cat_state_.size() <= cat) cat_state_.resize(cat + 1, kCatUnknown);
  const bool on = Enabled(strings_.text(cat));
  cat_state_[cat] = on ? kCatOn : kCatOff;
  return on;
}

EDC_HOT void TraceRecorder::Record(char phase, std::string_view name,
                                   std::string_view cat, u32 tid,
                                   SimTime ts, SimTime dur, TraceArgs args) {
  EDC_CHECK(args.size() <= 0xFFFF);
  TraceEventTap* const tap = tap_;
  bool triggered = false;
  {
    sync::MutexLock lock(&mu_);
    TraceEvent e{};
    e.cat = strings_.Intern(cat);
    const bool keep = CategoryEnabled(e.cat);
    if (!keep && tap == nullptr) return;
    e.ts = ts;
    e.dur = dur;
    e.name = strings_.Intern(name);
    e.tid = tid;
    e.nargs = static_cast<u16>(args.size());
    e.phase = phase;
    // The args are written at the arena's end either way; they are kept
    // (committed) only when the event passes the filter.
    TraceArgSlot* slots = ClaimArgs(args.size());
    TraceArgSlot* slot = slots;
    for (const TraceArg& a : args) {
      slot->key = strings_.Intern(a.key);
      slot->kind = a.kind;
      switch (a.kind) {
        case TraceArg::Kind::kU64: slot->u = a.u; break;
        case TraceArg::Kind::kI64: slot->i = a.i; break;
        case TraceArg::Kind::kDouble: slot->d = a.d; break;
        case TraceArg::Kind::kString: slot->str = strings_.Intern(a.s); break;
        case TraceArg::Kind::kBool: slot->b = a.b; break;
      }
      ++slot;
    }
    if (tap != nullptr) triggered = tap->OnTraceEvent(e, slots);
    if (keep) {
      if (event_count_ % kEventChunk == 0) NewEventChunk();
      event_chunks_.back()[event_count_ % kEventChunk] = Stored{e, slots};
      ++event_count_;
      args_used_ += args.size();
    }
  }
  if (triggered) tap->OnTrigger();
}

TraceArgSlot* TraceRecorder::NewArgChunk(std::size_t n) {
  args_cap_ = std::max(n, kArgChunk);
  args_chunks_.push_back(std::unique_ptr<TraceArgSlot[]>(
      new TraceArgSlot[args_cap_]));  // left unwritten until claimed
  args_used_ = 0;
  return args_chunks_.back().get();
}

void TraceRecorder::NewEventChunk() {
  event_chunks_.push_back(
      std::unique_ptr<Stored[]>(new Stored[kEventChunk]));
}

void TraceRecorder::NameThread(u32 tid, std::string name) {
  sync::MutexLock lock(&mu_);
  for (auto& [t, n] : thread_names_) {
    if (t == tid) {
      n = std::move(name);
      return;
    }
  }
  thread_names_.emplace_back(tid, std::move(name));
}

std::vector<std::pair<u32, std::string>> TraceRecorder::ThreadNames()
    const {
  sync::MutexLock lock(&mu_);
  auto names = thread_names_;
  std::sort(names.begin(), names.end());
  return names;
}

u32 TraceRecorder::Intern(std::string_view s) {
  sync::MutexLock lock(&mu_);
  return strings_.Intern(s);
}

std::string_view TraceRecorder::Text(u32 id) const {
  sync::MutexLock lock(&mu_);
  return strings_.text(id);
}

std::string_view TraceRecorder::JsonText(u32 id) const {
  sync::MutexLock lock(&mu_);
  return strings_.json(id);
}

void TraceRecorder::AppendEventJson(std::string* out, const TraceEvent& e,
                                    const TraceArgSlot* args) const {
  sync::MutexLock lock(&mu_);
  AppendEvent(out, e, args);
}

void TraceRecorder::AppendEvent(std::string* out, const TraceEvent& e,
                                const TraceArgSlot* args) const {
  out->append("{\"name\":\"");
  out->append(strings_.json(e.name));
  out->append("\",\"cat\":\"");
  out->append(strings_.json(e.cat));
  out->append("\",\"ph\":\"");
  out->push_back(e.phase);
  out->append("\",\"pid\":1,\"tid\":");
  AppendUint(out, e.tid);
  out->append(",\"ts\":");
  AppendTsUs(out, e.ts);
  if (e.phase == 'X') {
    out->append(",\"dur\":");
    AppendTsUs(out, e.dur);
  }
  if (e.phase == 'i') out->append(",\"s\":\"t\"");
  if (e.nargs != 0) {
    out->append(",\"args\":{");
    for (u32 i = 0; i < e.nargs; ++i) {
      const TraceArgSlot& a = args[i];
      if (i != 0) out->push_back(',');
      out->push_back('"');
      out->append(strings_.json(a.key));
      out->append("\":");
      switch (a.kind) {
        case TraceArg::Kind::kU64: AppendUint(out, a.u); break;
        case TraceArg::Kind::kI64: AppendInt(out, a.i); break;
        case TraceArg::Kind::kDouble: AppendJsonNumber(out, a.d); break;
        case TraceArg::Kind::kString:
          out->push_back('"');
          out->append(strings_.json(a.str));
          out->push_back('"');
          break;
        case TraceArg::Kind::kBool:
          out->append(a.b ? "true" : "false");
          break;
      }
    }
    out->push_back('}');
  }
  out->push_back('}');
}

std::size_t TraceRecorder::JsonBound(const TraceEvent& e,
                                     const TraceArgSlot* args) const {
  // Fixed text, tid, ts and dur, then each arg's key and value.
  std::size_t n = 96 + strings_.json(e.name).size() +
                  strings_.json(e.cat).size() + 3 * kMaxNumberChars;
  for (u32 i = 0; i < e.nargs; ++i) {
    n += 6 + strings_.json(args[i].key).size() +
         (args[i].kind == TraceArg::Kind::kString
              ? strings_.json(args[i].str).size()
              : kMaxNumberChars);
  }
  return n;
}

std::string TraceRecorder::ToJson() const {
  sync::MutexLock lock(&mu_);
  auto names = thread_names_;
  std::sort(names.begin(), names.end());
  std::size_t bound = 256;
  for (const auto& [tid, name] : names) bound += 96 + 6 * name.size();
  for (std::size_t i = 0; i < event_count_; ++i) {
    const Stored& s = event_chunks_[i / kEventChunk][i % kEventChunk];
    bound += JsonBound(s.event, s.args);
  }
  std::string out;
  out.reserve(bound);
  out.append(
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"edc\"}}");
  for (const auto& [tid, name] : names) {
    out.append(",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    AppendUint(&out, tid);
    out.append(",\"args\":{\"name\":\"");
    AppendJsonEscaped(&out, name);
    out.append("\"}}");
  }
  for (std::size_t i = 0; i < event_count_; ++i) {
    const Stored& s = event_chunks_[i / kEventChunk][i % kEventChunk];
    out.push_back(',');
    AppendEvent(&out, s.event, s.args);
  }
  out.append("]}");
  return out;
}

}  // namespace edc::obs
