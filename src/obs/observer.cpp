#include "obs/observer.hpp"

#include "common/cpu.hpp"
#include "common/worker_pool.hpp"

namespace edc::obs {

Observer::Observer() : Observer(Options{}) {}

Observer::Observer(const Options& options)
    : options_(options), recorder_(options.trace_filter) {
  if (options_.metrics) {
    // Which SIMD codec backend this process selected (CPUID detection
    // capped by EDC_BACKEND — see src/codec/backend.hpp). Stable for the
    // process lifetime, hence a deterministic collector; the label keys
    // dashboards off the backend name without schema changes.
    registry_.AddCollector([](SampleList& out) {
      out.AddGauge("edc_codec_backend_active",
                   {{"backend", SimdTierName(ActiveSimdTier())}}, 1.0,
                   "Selected SIMD codec backend (1 = active)");
    });
  }

  // Continuous telemetry. The watchdog needs windows, so health rules
  // imply the sampler; the sampler reads the registry and the flight
  // recorder taps the trace, so each requires its base half.
  bool want_sampler = options_.sampler || !options_.health_rules.empty();
  if (want_sampler) {
    if (!options_.metrics) {
      init_error_ = "sampler/health rules require metrics";
    } else {
      SamplerConfig sc;
      sc.period = options_.sample_period;
      sc.retention_windows = options_.sampler_retention;
      sampler_ = std::make_unique<TimeSeriesSampler>(sc, &registry_);
    }
  }
  if (options_.flight_recorder) {
    if (!options_.trace) {
      init_error_ = "flight recorder requires trace";
    } else {
      FlightRecorderConfig fc;
      fc.events_per_lane = options_.flight_events_per_lane;
      fc.bundle_windows = options_.flight_bundle_windows;
      for (std::size_t pos = 0;
           pos < options_.flight_triggers.size();) {
        std::size_t comma = options_.flight_triggers.find(',', pos);
        if (comma == std::string::npos) {
          comma = options_.flight_triggers.size();
        }
        std::string t = options_.flight_triggers.substr(pos, comma - pos);
        while (!t.empty() && t.front() == ' ') t.erase(t.begin());
        while (!t.empty() && t.back() == ' ') t.pop_back();
        if (!t.empty()) fc.triggers.push_back(std::move(t));
        pos = comma + 1;
      }
      flight_ = std::make_unique<FlightRecorder>(fc, &registry_,
                                                 sampler_.get(),
                                                 &recorder_);
      recorder_.SetTap(flight_.get());
    }
  }
  if (!options_.health_rules.empty() && sampler_ != nullptr) {
    auto rules = ParseHealthRules(options_.health_rules);
    if (!rules.ok()) {
      init_error_ = rules.status().message();
    } else {
      watchdog_ = std::make_unique<HealthWatchdog>(
          std::move(rules).value(), sampler_.get(), &registry_,
          options_.trace ? &recorder_ : nullptr);
    }
  }
}

Observer::~Observer() { recorder_.SetTap(nullptr); }

void Observer::PumpTelemetry(SimTime now) {
  if (sampler_ == nullptr) return;
  u64 closed = sampler_->AdvanceTo(now);
  if (closed == 0 || watchdog_ == nullptr) return;
  u64 done = sampler_->windows_completed();
  // Evaluate every newly completed window in order (retention may have
  // already dropped the oldest of a large batch; OnWindow skips those).
  for (u64 w = done - closed; w < done; ++w) watchdog_->OnWindow(w);
}

HealthWatchdog::Report Observer::FinishTelemetry(SimTime end) {
  if (sampler_ == nullptr) return HealthWatchdog::Report{};
  PumpTelemetry(end);
  if (sampler_->ForceWindow(end) && watchdog_ != nullptr) {
    watchdog_->OnWindow(sampler_->windows_completed() - 1);
  }
  return watchdog_ != nullptr ? watchdog_->report()
                              : HealthWatchdog::Report{};
}

void Observer::AttachWorkerPool(const WorkerPool* pool) {
  if (!options_.metrics || pool == nullptr) return;
  registry_.AddCollector(
      [pool](SampleList& out) {
        WorkerPool::Stats s = pool->GetStats();
        out.AddCounter("edc_workerpool_jobs_submitted_total", {},
                       s.jobs_submitted,
                       "Tasks submitted to the worker pool");
        out.AddCounter("edc_workerpool_jobs_completed_total", {},
                       s.jobs_completed,
                       "Tasks completed by the worker pool");
        out.AddGauge("edc_workerpool_max_queue_depth", {},
                     static_cast<double>(s.max_queue_depth),
                     "Peak queued-but-not-started tasks");
        for (std::size_t i = 0; i < s.thread_busy_ns.size(); ++i) {
          out.AddGauge(
              "edc_workerpool_thread_busy_seconds",
              {{"thread", std::to_string(i)}},
              static_cast<double>(s.thread_busy_ns[i]) * 1e-9,
              "Wall-clock seconds each worker spent running tasks");
        }
      },
      /*deterministic=*/false);
}

MetricsSnapshot Observer::Snapshot(bool include_volatile) const {
  if (!options_.metrics) return MetricsSnapshot{};
  return registry_.Snapshot(include_volatile);
}

}  // namespace edc::obs
