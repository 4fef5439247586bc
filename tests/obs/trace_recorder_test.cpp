// TraceRecorder: category filtering, deterministic timestamp rendering,
// Chrome trace-event JSON shape, and lane (thread) metadata.
#include "obs/trace_recorder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace edc::obs {
namespace {

TEST(TraceRecorderTest, RecordsSpansAndInstants) {
  TraceRecorder rec;
  rec.Span("host.write", "host", kHostTid, 1000, 5000,
           {{"bytes", u64{4096}}});
  rec.Instant("cache.hit", "cache", kHostTid, 2500);
  EXPECT_EQ(rec.event_count(), 2u);
}

TEST(TraceRecorderTest, FilterDropsNonMatchingCategories) {
  TraceRecorder rec("host, codec");
  EXPECT_TRUE(rec.Enabled("host"));
  EXPECT_TRUE(rec.Enabled("codec"));
  EXPECT_FALSE(rec.Enabled("device"));
  rec.Span("host.write", "host", kHostTid, 0, 10);
  rec.Span("flash.program", "device", kDeviceTid, 0, 10);
  rec.Instant("codec.select", "codec", kHostTid, 5);
  EXPECT_EQ(rec.event_count(), 2u);
  std::string json = rec.ToJson();
  EXPECT_EQ(json.find("flash.program"), std::string::npos);
  EXPECT_NE(json.find("host.write"), std::string::npos);
}

TEST(TraceRecorderTest, EmptyFilterRecordsEverything) {
  TraceRecorder rec("");
  EXPECT_TRUE(rec.Enabled("anything"));
}

TEST(TraceRecorderTest, TimestampsRenderAsMicrosWithFixedFraction) {
  TraceRecorder rec;
  // 1234567 ns -> 1234.567 us; duration 1 ns -> 0.001 us.
  rec.Span("s", "host", kHostTid, 1234567, 1234568);
  std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"ts\":1234.567"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.001"), std::string::npos);
}

TEST(TraceRecorderTest, NegativeDurationClampsToZero) {
  TraceRecorder rec;
  rec.Span("s", "host", kHostTid, 5000, 4000);
  EXPECT_NE(rec.ToJson().find("\"dur\":0.000"), std::string::npos);
}

TEST(TraceRecorderTest, InstantEventsCarryThreadScope) {
  TraceRecorder rec;
  rec.Instant("gc.run", "gc", kDeviceTid, 42000);
  std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":42.000"), std::string::npos);
}

TEST(TraceRecorderTest, ArgsPreserveTypes) {
  TraceRecorder rec;
  rec.Instant("e", "host", kHostTid, 0,
              {{"pages", u64{3}},
               {"delta", i64{-7}},
               {"ratio", 2.5},
               {"codec", "lzf"},
               {"hit", true}});
  std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"pages\":3"), std::string::npos);
  EXPECT_NE(json.find("\"delta\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"codec\":\"lzf\""), std::string::npos);
  EXPECT_NE(json.find("\"hit\":true"), std::string::npos);
}

TEST(TraceRecorderTest, EscapesNamesAndStringArgs) {
  TraceRecorder rec;
  rec.Instant("quote\"name", "host", kHostTid, 0, {{"k", "a\nb"}});
  std::string json = rec.ToJson();
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
  EXPECT_NE(json.find("a\\nb"), std::string::npos);
}

TEST(TraceRecorderTest, ThreadNamesEmittedAsMetadataSortedByTid) {
  TraceRecorder rec;
  rec.NameThread(kJournalTid, "journal");
  rec.NameThread(kHostTid, "host");
  rec.NameThread(kHostTid, "requests");  // rename wins
  std::string json = rec.ToJson();
  std::size_t proc = json.find("process_name");
  std::size_t host = json.find("\"requests\"");
  std::size_t journal = json.find("\"journal\"");
  ASSERT_NE(proc, std::string::npos);
  ASSERT_NE(host, std::string::npos);
  ASSERT_NE(journal, std::string::npos);
  EXPECT_LT(proc, host);
  EXPECT_LT(host, journal);  // sorted by tid: 0 before 96
  EXPECT_EQ(json.find("\"host\""), std::string::npos);
}

TEST(TraceRecorderTest, JsonIsByteIdenticalAcrossIdenticalRecordings) {
  auto build = [] {
    TraceRecorder rec;
    rec.NameThread(kHostTid, "requests");
    rec.Span("host.write", "host", kHostTid, 1000, 9000,
             {{"bytes", u64{8192}}, {"merged", true}});
    rec.Instant("sd.seal", "sd", kHostTid, 9500);
    return rec.ToJson();
  };
  EXPECT_EQ(build(), build());
}

TEST(TraceRecorderTest, RecordsFromManyThreads) {
  // The intern table and the arenas sit behind the recorder's lock: each
  // thread records events whose string arg is its own reused buffer.
  TraceRecorder rec;
  constexpr int kThreads = 4;
  constexpr int kEvents = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      std::string label;
      for (int i = 0; i < kEvents; ++i) {
        label = std::to_string(t * 10 + i % 7);
        rec.Instant("worker.step", "host", static_cast<u32>(t),
                    static_cast<SimTime>(i), {{"label", label}, {"i", i}});
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(rec.event_count(), static_cast<std::size_t>(kThreads * kEvents));
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"label\":\"36\""), std::string::npos);
}

TEST(TraceRecorderTest, EmptyRecorderStillValidDocument) {
  TraceRecorder rec;
  std::string json = rec.ToJson();
  EXPECT_EQ(json.find("\"displayTimeUnit\":\"ms\""), 1u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace edc::obs
