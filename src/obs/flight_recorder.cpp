#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "common/thread_annotations.hpp"

namespace edc::obs {

const std::vector<std::string>& FlightRecorder::DefaultTriggers() {
  static const std::vector<std::string> kTriggers = {
      "breaker.open",       "rais.member_failed", "rais.array_failed",
      "rais.data_loss",     "scrub.unrepairable", "audit.fail",
  };
  return kTriggers;
}

FlightRecorder::FlightRecorder(const FlightRecorderConfig& config,
                               const MetricRegistry* registry,
                               const TimeSeriesSampler* sampler,
                               TraceRecorder* trace)
    : config_(config),
      registry_(registry),
      sampler_(sampler),
      trace_(trace) {
  if (config_.events_per_lane == 0) config_.events_per_lane = 64;
  if (config_.triggers.empty()) config_.triggers = DefaultTriggers();
  for (const std::string& name : config_.triggers) {
    const u32 id = trace->Intern(name);
    if (trigger_state_.size() <= id) trigger_state_.resize(id + 1);
    trigger_state_[id] = kArmed;
  }
}

void FlightRecorder::Rearm() {
  for (u8& state : trigger_state_) {
    if (state == kFired) state = kArmed;
  }
}

bool FlightRecorder::IsTrigger(const std::string& name) const {
  return std::find(config_.triggers.begin(), config_.triggers.end(),
                   name) != config_.triggers.end();
}

EDC_HOT bool FlightRecorder::OnTraceEvent(const TraceEvent& e,
                                          const TraceArgSlot* args) {
  const std::size_t index = LaneIndex(e.tid);
  Lane& lane = lanes_[index];
  std::size_t at;
  if (lane.count < lane.ring.size()) {
    at = (lane.head + lane.count++) % lane.ring.size();
  } else {
    at = lane.head;  // full: overwrite the oldest
    lane.head = (lane.head + 1) % lane.ring.size();
  }
  Slot& slot = lane.ring[at];
  slot.event = e;
  if (slot.args.size() < e.nargs) GrowArgs(&slot, e.nargs);
  std::copy_n(args, e.nargs, slot.args.data());
  if (e.name >= trigger_state_.size() || trigger_state_[e.name] != kArmed) {
    return false;
  }
  trigger_state_[e.name] = kFired;
  pending_lane_ = index;
  return true;
}

std::size_t FlightRecorder::AddLane(u32 tid) {
  if (tid >= kDirectTids) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].tid == tid) return i;
    }
  } else if (lane_of_tid_.size() <= tid) {
    lane_of_tid_.resize(tid + 1, 0);
  }
  Lane lane;
  lane.tid = tid;
  lane.ring.resize(config_.events_per_lane);
  lanes_.push_back(std::move(lane));
  if (tid < kDirectTids) lane_of_tid_[tid] = static_cast<u32>(lanes_.size());
  return lanes_.size() - 1;
}

void FlightRecorder::GrowArgs(Slot* slot, std::size_t n) {
  slot->args.resize(std::max<std::size_t>(n, 8));
}

void FlightRecorder::OnTrigger() {
  const Slot& trigger = lanes_[pending_lane_].newest();
  Bundle b;
  b.seq = next_seq_++;
  b.trigger = std::string(trace_->Text(trigger.event.name));
  b.ts = trigger.event.ts;
  b.json = BuildBundle(b.seq, trigger);
  bundles_.push_back(std::move(b));
  if (sink_) sink_(bundles_.back());
}

std::string FlightRecorder::BuildBundle(u64 seq, const Slot& trigger) const {
  const TraceEvent& t = trigger.event;
  std::string out;
  out.reserve(64 * 1024);
  out.append("{\"schema\":\"edc-postmortem-v1\",\"seq\":");
  AppendUint(&out, seq);
  out.append(",\"trigger\":{\"name\":\"");
  out.append(trace_->JsonText(t.name));
  out.append("\",\"cat\":\"");
  out.append(trace_->JsonText(t.cat));
  out.append("\",\"tid\":");
  AppendUint(&out, t.tid);
  out.append(",\"ts_ns\":");
  AppendInt(&out, t.ts);
  out.append(",\"event\":");
  trace_->AppendEventJson(&out, t, trigger.args.data());
  out.push_back('}');

  // State summary: the breaker / RAIS / journal gauges that tell a
  // responder what mode the stack was in when the trigger fired.
  MetricsSnapshot snap = registry_->Snapshot();
  out.append(",\"state\":{");
  bool first = true;
  for (const char* g :
       {"edc_breaker_open", "edc_rais_degraded",
        "edc_rais_rebuild_progress", "edc_journal_lag_records",
        "edc_compression_ratio", "edc_device_waf"}) {
    const Sample* s = snap.Find(g);
    if (s == nullptr || s->type != MetricType::kGauge) continue;
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(g);
    out.append("\":");
    AppendJsonNumber(&out, s->gauge_value);
  }
  out.push_back('}');

  // Recent history, one ring per lane in tid order, labeled with the
  // lane names the trace exporter uses.
  const std::vector<std::pair<u32, std::string>> names = trace_->ThreadNames();
  std::vector<const Lane*> lanes;
  lanes.reserve(lanes_.size());
  for (const Lane& lane : lanes_) lanes.push_back(&lane);
  std::sort(lanes.begin(), lanes.end(),
            [](const Lane* a, const Lane* b) { return a->tid < b->tid; });
  out.append(",\"lanes\":[");
  first = true;
  for (const Lane* lane : lanes) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"tid\":");
    AppendUint(&out, lane->tid);
    auto it = std::lower_bound(
        names.begin(), names.end(), lane->tid,
        [](const std::pair<u32, std::string>& n, u32 tid) {
          return n.first < tid;
        });
    if (it != names.end() && it->first == lane->tid) {
      out.append(",\"name\":\"");
      AppendJsonEscaped(&out, it->second);
      out.push_back('"');
    }
    out.append(",\"events\":[");
    for (std::size_t i = 0; i < lane->count; ++i) {
      const Slot& e = lane->ring[(lane->head + i) % lane->ring.size()];
      if (i != 0) out.push_back(',');
      trace_->AppendEventJson(&out, e.event, e.args.data());
    }
    out.append("]}");
  }
  out.push_back(']');

  // Last K sampling windows (the temporal run-up to the fault).
  out.append(",\"windows\":");
  if (sampler_ != nullptr) {
    sampler_->AppendJson(&out, config_.bundle_windows);
  } else {
    out.append("null");
  }

  // Metric section: counters with their delta since the last completed
  // sampling window (baseline 0 without a sampler), gauges at-value.
  out.append(",\"metrics\":{\"counters\":[");
  first = true;
  for (const Sample& s : snap.samples) {
    if (s.type != MetricType::kCounter) continue;
    if (!first) out.push_back(',');
    first = false;
    double baseline = 0;
    if (sampler_ != nullptr) {
      const TimeSeriesSampler::Series* series =
          sampler_->Find(s.name, s.labels);
      if (series != nullptr) baseline = series->cumulative();
    }
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, s.name);
    out.append("\",\"labels\":{");
    AppendJsonLabels(&out, s.labels);
    out.append("},\"value\":");
    AppendUint(&out, s.counter_value);
    out.append(",\"delta\":");
    AppendJsonNumber(&out, static_cast<double>(s.counter_value) - baseline);
    out.push_back('}');
  }
  out.append("],\"gauges\":[");
  first = true;
  for (const Sample& s : snap.samples) {
    if (s.type != MetricType::kGauge) continue;
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, s.name);
    out.append("\",\"labels\":{");
    AppendJsonLabels(&out, s.labels);
    out.append("},\"value\":");
    AppendJsonNumber(&out, s.gauge_value);
    out.push_back('}');
  }
  out.append("]}}");
  return out;
}

}  // namespace edc::obs
