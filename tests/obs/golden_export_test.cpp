// Golden exports: pins every observability export of a fixed faulted
// replay to the bytes an earlier version of the exporters produced, so a
// change to the recording or rendering code cannot drift the
// `edc-metrics-v1`, Prometheus, trace-event, `edc-timeseries-v1` (JSON
// and CSV), `edc-health-v1` or `edc-postmortem-v1` text unnoticed. CI's
// observability drill only compares two runs of the same build; this test
// compares against a recorded reference.
//
// The drill has the shape of CI's: functional Fin2, durable format with
// program-fail injection, a breaker budget of 2 (so `breaker.open` fires
// a postmortem bundle), 50 ms sampler windows, the default health rules.
// A second variant adds a 2-window sampler ring (smaller than the
// bundle's 4-window view) and a trace category filter.
//
// The constants were produced by running this test against the
// exporters that preceded the allocation-free recorder (the string-keyed
// sampler and pre-rendered flight-recorder lanes), printing the length
// and CRC-32 of every export. ctest runs the binary with
// EDC_BACKEND=scalar: the metrics carry
// edc_codec_backend_active{backend=...}, which otherwise names the host's
// SIMD tier.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "obs/observer.hpp"
#include "sim/replay.hpp"
#include "ssd/config.hpp"
#include "trace/synthetic.hpp"

namespace edc::obs {
namespace {

struct Digest {
  std::string name;
  std::size_t bytes = 0;
  u32 crc = 0;
};

Digest Of(std::string name, const std::string& text) {
  return Digest{std::move(name), text.size(),
                Crc32(ByteSpan(reinterpret_cast<const u8*>(text.data()),
                               text.size()))};
}

std::vector<Digest> RunDrill(Observer::Options oo) {
  constexpr u64 kSeed = 42;
  auto params = trace::PresetByName("Fin2", 2.0);
  EXPECT_TRUE(params.ok());
  const trace::Trace t = GenerateSynthetic(*params, kSeed);

  core::StackConfig cfg;
  cfg.scheme = core::Scheme::kEdc;
  cfg.mode = core::ExecutionMode::kFunctional;
  auto profile = trace::ContentProfileForTrace("Fin2");
  EXPECT_TRUE(profile.ok());
  cfg.content_profile = *profile;
  cfg.seed = kSeed;
  cfg.ssd = ssd::MakeX25eConfig(256, /*store_data=*/true);
  cfg.ssd.fault.p_program_fail = 0.02;
  cfg.ssd.fault.seed = kSeed + 1;
  cfg.durability.enabled = true;
  cfg.breaker_error_budget = 2;

  oo.sampler = true;
  oo.sample_period = 50 * kMillisecond;
  oo.flight_recorder = true;
  oo.health_rules = DefaultHealthRules();
  Observer observer(oo);
  EXPECT_TRUE(observer.ok()) << observer.error();
  cfg.obs = &observer;

  auto stack = core::Stack::Create(cfg);
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  auto result = sim::ReplayTrace(**stack, t);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  std::vector<Digest> out;
  out.push_back(Of("metrics.json", result->metrics.ToJson()));
  out.push_back(Of("metrics.prom", result->metrics.ToPrometheus()));
  out.push_back(Of("trace.json", observer.trace()->ToJson()));
  out.push_back(Of("timeseries.json", observer.sampler()->ToJson()));
  out.push_back(Of("timeseries.csv", observer.sampler()->ToCsv()));
  out.push_back(Of("health.json", result->health.ToJson()));
  for (const FlightRecorder::Bundle& b :
       observer.flight_recorder()->bundles()) {
    out.push_back(Of("bundle-" + std::to_string(b.seq) + "-" + b.trigger,
                     b.json));
  }
  return out;
}

void ExpectDigests(const std::vector<Digest>& got,
                   const std::vector<Digest>& want) {
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    char line[160];
    std::snprintf(line, sizeof line, "{\"%s\", %zu, 0x%08x},",
                  got[i].name.c_str(), got[i].bytes,
                  static_cast<unsigned>(got[i].crc));
    if (i >= want.size()) {
      ADD_FAILURE() << "unexpected export " << line;
      continue;
    }
    EXPECT_EQ(got[i].name, want[i].name) << line;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << line;
    EXPECT_EQ(got[i].crc, want[i].crc) << line;
  }
}

TEST(GoldenExports, FaultedDrillMatchesReference) {
  ExpectDigests(RunDrill(Observer::Options{}),
                {
                    {"metrics.json", 7904, 0x42744a4c},
                    {"metrics.prom", 12269, 0x5247ee4d},
                    {"trace.json", 348193, 0x855b0577},
                    {"timeseries.json", 20434, 0x0f187a7a},
                    {"timeseries.csv", 15761, 0x07d73487},
                    {"health.json", 742, 0x742642c7},
                    {"bundle-1-breaker.open", 39374, 0x0651f80d},
                });
}

TEST(GoldenExports, RetentionRingAndTraceFilterMatchReference) {
  Observer::Options oo;
  oo.sampler_retention = 2;
  oo.trace_filter = "host,fault,health";
  ExpectDigests(RunDrill(oo),
                {
                    {"metrics.json", 7904, 0x42744a4c},
                    {"metrics.prom", 12269, 0x5247ee4d},
                    {"trace.json", 110016, 0xa68ccf65},
                    {"timeseries.json", 7905, 0xfac73fa7},
                    {"timeseries.csv", 3256, 0x36263293},
                    {"health.json", 742, 0x742642c7},
                    {"bundle-1-breaker.open", 39029, 0x6191789b},
                });
}

}  // namespace
}  // namespace edc::obs
