// In-memory span log for the traced run. A span is one timed call into a
// layer: name, start, end, parent span and request index. Each log is
// confined to one thread; nested spans on that thread get the innermost
// open span as parent, and a span's self time is its duration minus its
// children's. Totals cover every span; the individual spans kept for
// writing out are at most `max_kept` of those whose request index is set
// (see set_request).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kReplay,           // whole timed segment (root)
  kEdcWrite,         // Engine::Write
  kEdcRead,          // Engine::Read
  kEdcFlush,         // Engine::FlushPending / FlushAllPending
  kObsPump,          // Observer::PumpTelemetry
  kObsFinish,        // Observer::FinishTelemetry + Snapshot
  kObsExport,        // rendering every export
  kSsdWrite,         // Device::Write to the data area
  kSsdRead,          // Device::Read of the data area
  kSsdJournalWrite,  // Device::Write to the journal area
  kSsdOther,         // journal reads, Trim, ReadRebuilt, WriteRepair,
                     // ScrubParity
  kShardSubmit,      // ShardedEngine::Submit
  kShardDrain,       // ShardedEngine::Drain / StopRunLoops
  kCount,
};

const char* SpanNameString(SpanName name);

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t request = 0;
    std::uint32_t parent = kNoParent;  // index into spans(), if kept
    SpanName name = SpanName::kReplay;
  };

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t self_ns = 0;
  };

  static constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

  SpanLog(std::uint32_t lane, std::size_t max_kept)
      : lane_(lane), max_kept_(max_kept) {}

  /// Request index of the spans opened next; kNoRequest keeps none.
  void set_request(std::uint64_t request) { request_ = request; }

  /// Forget totals and kept spans (call with no span open).
  void Reset() {
    spans_.clear();
    totals_ = {};
  }

  /// Opens a span now; pair with Close.
  void Open(SpanName name) {
    open_.push_back(OpenSpan{name, NowNs(), 0, kNoParent});
    if (request_ != kNoRequest && spans_.size() < max_kept_) {
      open_.back().kept = static_cast<std::uint32_t>(spans_.size());
      Span s;
      s.start_ns = open_.back().start_ns;
      s.request = request_;
      s.name = name;
      s.parent = open_.size() > 1 ? open_[open_.size() - 2].kept : kNoParent;
      spans_.push_back(s);
    }
  }

  /// Closes the innermost span; returns its duration.
  std::uint64_t Close() {
    const std::uint64_t end = NowNs();
    OpenSpan o = open_.back();
    open_.pop_back();
    const std::uint64_t dur = end - o.start_ns;
    Totals& t = totals_[static_cast<std::size_t>(o.name)];
    ++t.calls;
    t.busy_ns += dur;
    t.self_ns += dur - std::min(dur, o.child_ns);
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.kept != kNoParent) spans_[o.kept].end_ns = end;
    return dur;
  }

  const Totals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Appends the kept spans as CSV rows: lane,name,start_ns,end_ns,
  /// parent,request (parent -1 for a root).
  void WriteCsv(std::FILE* out) const;

 private:
  struct OpenSpan {
    SpanName name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint32_t kept;
  };

  std::uint32_t lane_;
  std::size_t max_kept_;
  std::uint64_t request_ = kNoRequest;
  std::vector<OpenSpan> open_;
  std::vector<Span> spans_;
  std::array<Totals, static_cast<std::size_t>(SpanName::kCount)> totals_{};
};

/// Times one call: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name) : log_(log) { log_->Open(name); }
  ~ScopedSpan() { log_->Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench
