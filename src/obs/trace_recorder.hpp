// Deterministic per-request trace recorder: structured span/instant
// events for the full request lifecycle, exported as Chrome trace-event
// JSON (the format Perfetto and chrome://tracing load natively).
//
// Timestamps are SimTime nanoseconds rendered as microseconds with a
// fixed three-digit fraction, so the emitted bytes are a pure function of
// the simulation — two replays with the same seed produce byte-identical
// trace files. The event store is guarded by an annotated sync::Mutex,
// so recording is safe from any thread; *determinism* of the emitted
// bytes still requires that events of one lane arrive in a deterministic
// order, which today means one recording (simulation) thread per
// recorder.
//
// Recording is allocation-free once warm. Every name, category, arg key
// and string arg value is copied into an intern table on first sight and
// stays a small id (JSON-escaped once, when interned); an event is a
// fixed 32-byte header and its args are 16-byte typed slots, both in
// chunked arenas that grow a chunk at a time and never move. Strings are
// written only by ToJson, which appends into one buffer reserved up
// front.
//
// Lanes ("tid" in the trace): requests, each modeled compression context,
// the device (one lane per RAIS member), and the journal get their own
// named track so Perfetto shows queueing per resource.
#pragma once

#include <array>
#include <deque>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace edc::obs {

/// Well-known trace lanes. RAIS members use kDeviceTid + 1 + member.
inline constexpr u32 kHostTid = 0;
inline constexpr u32 kCpuTidBase = 1;  // + modeled context index
inline constexpr u32 kDeviceTid = 64;
inline constexpr u32 kJournalTid = 96;
inline constexpr u32 kHealthTid = 112;  // watchdog alert/clear instants

/// One "args" entry as a call site writes it, `{"lba", lba}`. Values keep
/// their arrival type so the JSON renders integers as integers and
/// strings quoted. Strings are views, read only during the recording
/// call (the recorder interns a copy).
struct TraceArg {
  enum class Kind : u8 { kU64, kI64, kDouble, kString, kBool };

  constexpr TraceArg(std::string_view k, u64 v)
      : key(k), kind(Kind::kU64), u(v) {}
  constexpr TraceArg(std::string_view k, i64 v)
      : key(k), kind(Kind::kI64), i(v) {}
  constexpr TraceArg(std::string_view k, u32 v)
      : key(k), kind(Kind::kU64), u(v) {}
  constexpr TraceArg(std::string_view k, int v)
      : key(k), kind(Kind::kI64), i(v) {}
  constexpr TraceArg(std::string_view k, double v)
      : key(k), kind(Kind::kDouble), d(v) {}
  constexpr TraceArg(std::string_view k, bool v)
      : key(k), kind(Kind::kBool), b(v) {}
  constexpr TraceArg(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), u(0), s(v) {}
  constexpr TraceArg(std::string_view k, const char* v)
      : TraceArg(k, std::string_view(v)) {}
  TraceArg(std::string_view k, const std::string& v)
      : TraceArg(k, std::string_view(v)) {}

  std::string_view key;
  Kind kind;
  union {
    u64 u;
    i64 i;
    double d;
    bool b;
  };
  std::string_view s;  // kString
};

/// A call site's braced arg list; lives on the caller's stack.
using TraceArgs = std::initializer_list<TraceArg>;

/// A recorded arg: interned key plus a typed value (strings interned).
/// Arena element: deliberately no default member initializers, so a
/// fresh chunk is not written before use.
struct TraceArgSlot {
  u32 key;
  TraceArg::Kind kind;
  union {
    u64 u;
    i64 i;
    double d;
    bool b;
    u32 str;  // interned id
  };
};
static_assert(sizeof(TraceArgSlot) == 16);

/// A recorded event header; its `nargs` args travel beside it. Name and
/// category are interned ids.
struct TraceEvent {
  SimTime ts;
  SimTime dur;  // 'X' only
  u32 name;
  u32 cat;
  u32 tid;
  u16 nargs;
  char phase;  // 'X' or 'i'
};
static_assert(sizeof(TraceEvent) == 32);

/// Observer of every event offered to a TraceRecorder, invoked *before*
/// the category filter so a narrow --trace-filter does not blind it.
class TraceEventTap {
 public:
  virtual ~TraceEventTap() = default;
  /// Called on the recording (simulation) thread with the recorder's lock
  /// held, so it must not call back into the recorder. `args` holds
  /// `e.nargs` slots and is valid for the call only. Returns true to have
  /// OnTrigger() called once the lock is released.
  virtual bool OnTraceEvent(const TraceEvent& e,
                            const TraceArgSlot* args) = 0;
  /// Follow-up to an OnTraceEvent that returned true: same thread, no
  /// recorder lock held, so it may read the recorder and the registry.
  virtual void OnTrigger() = 0;
};

class TraceRecorder {
 public:
  /// `filter` is a comma-separated list of categories to record
  /// (e.g. "host,codec,device"); empty records everything. Unknown
  /// category names simply match nothing.
  explicit TraceRecorder(const std::string& filter = "");

  /// Whether events of `cat` pass the filter (callers may use this to
  /// skip building expensive args).
  bool Enabled(std::string_view cat) const;

  /// Complete event ("ph":"X") spanning [start, end] of simulated time.
  void Span(std::string_view name, std::string_view cat, u32 tid,
            SimTime start, SimTime end, TraceArgs args = {})
      EDC_EXCLUDES(mu_) {
    Record('X', name, cat, tid, start, end >= start ? end - start : 0,
           args);
  }

  /// Instant event ("ph":"i", thread scope).
  void Instant(std::string_view name, std::string_view cat, u32 tid,
               SimTime ts, TraceArgs args = {}) EDC_EXCLUDES(mu_) {
    Record('i', name, cat, tid, ts, 0, args);
  }

  /// Name a lane; rendered as a "thread_name" metadata event.
  void NameThread(u32 tid, std::string name) EDC_EXCLUDES(mu_);

  /// Attach an event tap (the FlightRecorder). Must be set before
  /// recording starts and not changed while events are flowing — the
  /// pointer is read unguarded on the recording path. Null detaches.
  void SetTap(TraceEventTap* tap) { tap_ = tap; }

  /// Lane names registered via NameThread, sorted by tid (the flight
  /// recorder labels its per-lane rings with these).
  std::vector<std::pair<u32, std::string>> ThreadNames() const
      EDC_EXCLUDES(mu_);

  std::size_t event_count() const EDC_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    return event_count_;
  }

  /// Id of `s` in the table events are recorded against (the flight
  /// recorder compares event names with its trigger ids).
  u32 Intern(std::string_view s) EDC_EXCLUDES(mu_);
  /// Text of an interned id, raw and JSON-escaped. The views stay valid
  /// for the recorder's lifetime.
  std::string_view Text(u32 id) const EDC_EXCLUDES(mu_);
  std::string_view JsonText(u32 id) const EDC_EXCLUDES(mu_);

  /// Append `e` in exactly the shape ToJson gives it.
  void AppendEventJson(std::string* out, const TraceEvent& e,
                       const TraceArgSlot* args) const EDC_EXCLUDES(mu_);

  /// Full Chrome trace-event JSON document:
  /// {"displayTimeUnit":"ms","traceEvents":[...]}.
  std::string ToJson() const EDC_EXCLUDES(mu_);

 private:
  /// Strings to small ids. A copy of each string is kept, with its
  /// JSON-escaped form, so ids stay valid however the caller's buffer
  /// changes. Not synchronized: mu_ guards it.
  class InternTable {
   public:
    /// Id of `s`, interning a copy on first sight.
    EDC_HOT u32 Intern(std::string_view s) {
      const Recent& r = recent_[RecentSlot(s)];
      if (r.data == s.data() && r.size == s.size() &&
          std::string_view(r.text, r.size) == s) {
        return r.id;
      }
      return InternSlow(s);
    }
    std::string_view text(u32 id) const { return entries_[id].text; }
    std::string_view json(u32 id) const { return entries_[id].json; }

   private:
    // The caller's pointer remembers where a string last came from (string
    // literals always come from the same place); the content is compared
    // too, as a reused buffer may hold different text.
    struct Recent {
      const char* data = nullptr;
      std::size_t size = ~std::size_t{0};  // matches nothing until set
      const char* text = nullptr;  // interned copy
      u32 id = 0;
    };
    struct Entry {
      std::string text;
      std::string json;
    };
    static std::size_t RecentSlot(std::string_view s) {
      return (reinterpret_cast<std::uintptr_t>(s.data()) >> 3 ^ s.size()) &
             (kRecent - 1);
    }
    u32 InternSlow(std::string_view s);

    static constexpr std::size_t kRecent = 64;
    std::array<Recent, kRecent> recent_{};
    std::deque<Entry> entries_;  // never moves an element
    std::unordered_map<std::string_view, u32> index_;  // views into entries_
  };

  struct Stored {
    TraceEvent event;
    const TraceArgSlot* args;  // into args_chunks_
  };
  static constexpr std::size_t kEventChunk = 1u << 14;
  static constexpr std::size_t kArgChunk = 1u << 15;

  void Record(char phase, std::string_view name, std::string_view cat,
              u32 tid, SimTime ts, SimTime dur, TraceArgs args)
      EDC_EXCLUDES(mu_);
  bool CategoryEnabled(u32 cat) EDC_REQUIRES(mu_) {
    return cat < cat_state_.size() && cat_state_[cat] != kCatUnknown
               ? cat_state_[cat] == kCatOn
               : ResolveCategory(cat);
  }
  bool ResolveCategory(u32 cat) EDC_REQUIRES(mu_);
  /// Room for `n` contiguous arg slots at the arena's end.
  TraceArgSlot* ClaimArgs(std::size_t n) EDC_REQUIRES(mu_) {
    if (n == 0) return nullptr;
    if (args_used_ + n > args_cap_) return NewArgChunk(n);
    return args_chunks_.back().get() + args_used_;
  }
  TraceArgSlot* NewArgChunk(std::size_t n) EDC_REQUIRES(mu_);
  void NewEventChunk() EDC_REQUIRES(mu_);
  void AppendEvent(std::string* out, const TraceEvent& e,
                   const TraceArgSlot* args) const EDC_REQUIRES(mu_);
  std::size_t JsonBound(const TraceEvent& e, const TraceArgSlot* args) const
      EDC_REQUIRES(mu_);

  static constexpr u8 kCatUnknown = 0, kCatOff = 1, kCatOn = 2;

  const std::vector<std::string> filter_;  // empty = record everything
  TraceEventTap* tap_ = nullptr;  // set during wiring, before recording
  mutable sync::Mutex mu_{sync::lock_rank::kObsTrace, "TraceRecorder.mu"};
  InternTable strings_ EDC_GUARDED_BY(mu_);
  std::vector<u8> cat_state_ EDC_GUARDED_BY(mu_);  // by interned id
  std::vector<std::unique_ptr<Stored[]>> event_chunks_ EDC_GUARDED_BY(mu_);
  std::size_t event_count_ EDC_GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<TraceArgSlot[]>> args_chunks_
      EDC_GUARDED_BY(mu_);
  std::size_t args_used_ EDC_GUARDED_BY(mu_) = 0;  // in the last chunk
  std::size_t args_cap_ EDC_GUARDED_BY(mu_) = 0;   // of the last chunk
  std::vector<std::pair<u32, std::string>> thread_names_
      EDC_GUARDED_BY(mu_);
};

}  // namespace edc::obs
