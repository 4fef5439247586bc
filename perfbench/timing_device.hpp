// A Device decorator that times every call into the device model and
// counts calls and pages, splitting journal traffic (the durable
// journal's pages at the top of the device) from data traffic. Every
// virtual is forwarded, so the engine above sees the same device.
#pragma once

#include "spans.hpp"
#include "ssd/device.hpp"

namespace perfbench {

class TimingDevice final : public edc::ssd::Device {
 public:
  struct Counts {
    std::uint64_t write_calls = 0, write_pages = 0;
    std::uint64_t read_calls = 0, read_pages = 0;
    std::uint64_t journal_write_pages = 0;
  };

  /// `inner` and `log` must outlive the decorator. Pages at or above
  /// `journal_first` are journal pages.
  TimingDevice(edc::ssd::Device* inner, SpanLog* log,
               edc::Lba journal_first)
      : inner_(inner), log_(log), journal_first_(journal_first) {}

  const Counts& counts() const { return counts_; }
  void ResetCounts() { counts_ = {}; }

  edc::u64 logical_pages() const override { return inner_->logical_pages(); }

  edc::Result<edc::ssd::IoResult> Write(
      edc::Lba first, std::span<const edc::Bytes> payloads,
      edc::SimTime arrival) override {
    const bool journal = first >= journal_first_;
    ScopedSpan span(log_, journal ? SpanName::kSsdJournalWrite
                                  : SpanName::kSsdWrite);
    if (journal) {
      counts_.journal_write_pages += payloads.size();
    } else {
      ++counts_.write_calls;
      counts_.write_pages += payloads.size();
    }
    return inner_->Write(first, payloads, arrival);
  }

  edc::Result<edc::ssd::IoResult> Read(edc::Lba first, edc::u64 n,
                                       edc::SimTime arrival) override {
    const bool journal = first >= journal_first_;
    ScopedSpan span(log_, journal ? SpanName::kSsdOther : SpanName::kSsdRead);
    if (!journal) {
      ++counts_.read_calls;
      counts_.read_pages += n;
    }
    return inner_->Read(first, n, arrival);
  }

  edc::Result<edc::ssd::IoResult> Trim(edc::Lba first, edc::u64 n,
                                       edc::SimTime arrival) override {
    ScopedSpan span(log_, SpanName::kSsdOther);
    return inner_->Trim(first, n, arrival);
  }

  edc::Result<edc::ssd::IoResult> ReadRebuilt(edc::Lba first, edc::u64 n,
                                              edc::SimTime arrival) override {
    ScopedSpan span(log_, SpanName::kSsdOther);
    return inner_->ReadRebuilt(first, n, arrival);
  }

  edc::Result<edc::ssd::IoResult> WriteRepair(
      edc::Lba first, std::span<const edc::Bytes> payloads,
      edc::SimTime arrival) override {
    ScopedSpan span(log_, SpanName::kSsdOther);
    return inner_->WriteRepair(first, payloads, arrival);
  }

  edc::Result<edc::ssd::ParityScrubResult> ScrubParity(
      edc::SimTime now) override {
    ScopedSpan span(log_, SpanName::kSsdOther);
    return inner_->ScrubParity(now);
  }

  edc::ssd::DeviceStats stats() const override { return inner_->stats(); }

  void AttachObs(edc::obs::Observer* observer, edc::u32 tid) override {
    inner_->AttachObs(observer, tid);
  }

  edc::SimTime next_free_time() const override {
    return inner_->next_free_time();
  }

 private:
  edc::ssd::Device* inner_;
  SpanLog* log_;
  edc::Lba journal_first_;
  Counts counts_;
};

}  // namespace perfbench
