// edc_perfbench: whole-replay benchmark of the EDC engine on two clocks.
//
//   edc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans-out PATH]
//
// --trace 0 repeats (set-up, timed segment) until the timed segments add
// up to S seconds, at least three times, and reports the end-to-end
// metrics. --trace 1 runs a priming repetition, then one untraced and one
// traced repetition of the same inputs, checks that their deterministic
// outputs agree, and reports the per-layer metrics. The last line of
// stdout is the result object.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "codec/backend.hpp"
#include "runs.hpp"

namespace {

using perfbench::Metric;
using perfbench::Rep;
using perfbench::u64;

#ifndef EDC_PERFBENCH_BUILD_TYPE
#define EDC_PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr int kMinReps = 3;
// Stop adding repetitions after this much wall time whatever --seconds
// asks, so a run always ends well inside its time limit.
constexpr double kMaxWallS = 90;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "edc_perfbench: %s\nusage: edc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n"
               "workloads:",
               why);
  for (const auto& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(val);
    else if (key == "--trace") a.trace = std::atoi(val);
    else if (key == "--spans-out") a.spans_out = val;
    else Usage(("unknown flag " + key).c_str());
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void PrintProvenance(const Args& a) {
  const char* backend = edc::codec::ActiveBackend().name;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"codec_backend\": \"%s\", "
      "\"pack_flush\": \"%s\", \"nproc\": %ld, \"cpu_model\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}}\n",
      Escape(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.seconds, a.trace, backend,
      Escape(edc::codec::PackFlushProvenance()).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), Escape(CpuModel()).c_str(),
      Escape(compiler).c_str(), EDC_PERFBENCH_BUILD_TYPE);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void PrintResult(const perfbench::Verdict& v, u64 attempted,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              v.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<u64>(attempted, 1)),
              static_cast<unsigned long long>(v.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Per-repetition progress on stderr (the last stdout line is the result).
void Report(const char* what, const Rep& r) {
  std::fprintf(stderr,
               "perfbench: %s setup %.3f s, timed %.3f s, %llu requests "
               "(%.0f req/s), ratio %.4f, waf %.4f, mean %.2f us, "
               "read p99 %.2f us, write p99 %.2f us, unwritten reads "
               "%.2f%%\n",
               what, r.setup_s, r.timed_s,
               static_cast<unsigned long long>(r.out.requests),
               r.timed_s > 0 ? static_cast<double>(r.out.requests) / r.timed_s
                             : 0,
               r.out.ratio, r.out.waf, r.out.mean_us, r.out.read_p99_us,
               r.out.write_p99_us, 100 * r.unwritten_read_share);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(a.workload);
  if (spec == nullptr) Usage(("unknown workload " + a.workload).c_str());
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  PrintProvenance(a);

  perfbench::Verdict verdict;
  std::vector<Metric> metrics;
  u64 attempted = 0;

  if (a.trace == 0) {
    std::vector<Rep> reps;
    double timed = 0, wall = 0, peak_rss = 0;
    while (static_cast<int>(reps.size()) < kMinReps ||
           (timed < a.seconds && wall < kMaxWallS)) {
      const u64 before = verdict.failed;
      Rep r = perfbench::RunUntraced(*spec, a.seed, &verdict);
      attempted += r.attempted;
      wall += r.setup_s + r.timed_s;
      if (verdict.failed != before) break;
      Report(("rep " + std::to_string(reps.size())).c_str(), r);
      perfbench::CheckRegime(*spec, r, /*traced=*/false, &verdict);
      // Later repetitions reuse (and fragment) the heap the first one
      // grew, so the process peak is taken over the first one.
      if (reps.empty()) {
        peak_rss = perfbench::PeakRssMiB();
        std::fprintf(stderr,
                     "perfbench: memory: trace buffers %.1f MiB, peak %.1f "
                     "MiB after synthesis, %.1f MiB after the repetition\n",
                     r.trace_mib, r.synth_peak_mib, peak_rss);
      }
      timed += r.timed_s;
      reps.push_back(r);
    }
    // Deterministic outputs repeat exactly from one repetition to the next.
    for (std::size_t i = 1; i < reps.size(); ++i) {
      const std::string diff =
          perfbench::CompareOutputs(reps[0].out, reps[i].out);
      verdict.Require(diff.empty(),
                      "repetition " + std::to_string(i) + ": " + diff);
    }
    // Throughput and set-up time are the fastest repetition's: other
    // tenants of the host only ever slow a repetition down, for seconds at
    // a time, so the best of several repeats from run to run about twice
    // as closely as their median does. The minimum also drops the first
    // repetition's set-up, which pays for growing the heap.
    double best_rate = 0;
    double best_setup = std::numeric_limits<double>::infinity();
    std::vector<double> mean, rp99, wp99;
    for (const Rep& r : reps) {
      best_rate = std::max(best_rate,
                           static_cast<double>(r.out.requests) / r.timed_s);
      best_setup = std::min(best_setup, r.setup_s);
      mean.push_back(r.out.mean_us);
      rp99.push_back(r.out.read_p99_us);
      wp99.push_back(r.out.write_p99_us);
    }
    const Rep first = reps.empty() ? Rep{} : reps[0];
    metrics = {
        {"replay_req_per_s", best_rate, "1/s"},
        {"setup_s", reps.empty() ? 0 : best_setup, "s"},
        {"peak_rss_mib", peak_rss, "MiB"},
        {"sim_mean_us", Median(mean), "us"},
        {"sim_read_p99_us", Median(rp99), "us"},
        {"sim_write_p99_us", Median(wp99), "us"},
        {"compression_ratio", first.out.ratio, "x"},
        {"waf", first.out.waf, "x"},
    };
  } else {
    // The first repetition of a process pays for growing the heap; it
    // primes the process (and is checked) so that the untraced and traced
    // repetitions compared below both run warm.
    Rep prime = perfbench::RunUntraced(*spec, a.seed, &verdict);
    Report("priming", prime);
    Rep plain = perfbench::RunUntraced(*spec, a.seed, &verdict);
    Report("untraced", plain);
    perfbench::CheckRegime(*spec, plain, /*traced=*/false, &verdict);
    Rep traced =
        perfbench::RunTraced(*spec, a.seed, &verdict, &metrics, a.spans_out);
    Report("traced", traced);
    perfbench::CheckRegime(*spec, traced, /*traced=*/true, &verdict);
    const std::string diff = perfbench::CompareOutputs(plain.out, traced.out);
    verdict.Require(diff.empty(), "traced run differs from untraced: " + diff);
    attempted = prime.attempted + plain.attempted + traced.attempted;
    metrics.push_back(
        {"bench.trace_overhead_pct",
         plain.timed_s > 0 ? (traced.timed_s - plain.timed_s) / plain.timed_s * 100
                           : 0,
         "%"});
  }
  PrintResult(verdict, attempted, metrics);
  return 0;
}
