#include "edc/shard.hpp"

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"

namespace edc::shard {
namespace {

/// Pause iterations a consumer polls an empty ring before it parks. About
/// 20 us at ~18 ns per x86 `pause` (a few us on CPUs with a short pause):
/// long enough to bridge the gap between requests of a busy replay, short
/// enough that idle run loops beyond the core count park quickly.
constexpr u32 kSpinBudget = 1024;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

void ShardRouter::Split(u64 offset, u32 size,
                        std::vector<Part>* out) const {
  out->clear();
  if (size == 0) {
    out->push_back(Part{shard_of(offset / kLogicalBlockSize), offset, 0});
    return;
  }
  u64 pos = offset;
  const u64 end = offset + size;
  while (pos < end) {
    const Lba block = pos / kLogicalBlockSize;
    const u32 shard = shard_of(block);
    // The shard changes at every chunk boundary (consecutive chunks
    // rotate through the shards), so one part spans at most one chunk —
    // except at shards=1, where the whole request is one part.
    u64 span_end = end;
    if (shards_ > 1) {
      const u64 chunk_index = block / chunk_blocks_;
      span_end = std::min<u64>(
          end, (chunk_index + 1) * chunk_blocks_ * kLogicalBlockSize);
    }
    out->push_back(Part{shard, pos, static_cast<u32>(span_end - pos)});
    pos = span_end;
  }
}

ShardedEngine::ShardedEngine(const ShardedOptions& options, u32 shards)
    : options_(options),
      router_(shards, options.chunk_blocks),
      wfq_(options.tenants < 1 ? 1 : options.tenants,
           options.qos.tenant_weights) {
  if (options_.tenants < 1) options_.tenants = 1;
  if (options_.window < 1) options_.window = 1;
  if (options_.max_batch < 1) options_.max_batch = 1;
  if (options_.ring_capacity < 2) options_.ring_capacity = 2;
  std::size_t slots = 1;
  while (slots < options_.window) slots <<= 1;
  inflight_.resize(slots);
  inflight_mask_ = slots - 1;
  buckets_.reserve(options_.tenants);
  for (u32 t = 0; t < options_.tenants; ++t) {
    buckets_.emplace_back(options_.qos.tenant_iops_cap,
                          options_.qos.tenant_burst);
  }
  shards_.reserve(shards);
  for (u32 s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedEngine::~ShardedEngine() {
  // StopRunLoops drains; a failure here means a shard thread is wedged,
  // which Shutdown below would also hit — nothing more we can do.
  if (running_) (void)StopRunLoops();
  if (pool_ != nullptr) pool_->Shutdown();
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const ShardedOptions& options, const core::StackConfig& stack) {
  const u32 n = options.shards < 1 ? 1 : options.shards;

  auto profile = datagen::ProfileByName(stack.content_profile);
  if (!profile.ok()) return profile.status();

  if (stack.durability.enabled) {
    if (stack.mode != core::ExecutionMode::kFunctional) {
      return Status::InvalidArgument(
          "sharded: durable mode requires functional execution");
    }
    const bool store_data = stack.use_rais ? stack.rais.member.store_data
                            : stack.use_hdd ? stack.hdd.store_data
                            : stack.use_nvm ? stack.nvm.store_data
                                            : stack.ssd.store_data;
    if (!store_data) {
      return Status::InvalidArgument(
          "sharded: durable mode requires a data-retaining device");
    }
  }

  auto se = std::unique_ptr<ShardedEngine>(new ShardedEngine(options, n));
  se->owned_generator_ =
      std::make_unique<datagen::ContentGenerator>(*profile, stack.seed);

  if (stack.mode == core::ExecutionMode::kModeled) {
    auto model = core::Stack::CalibrateCostModel(stack);
    if (!model.ok()) return model.status();
    se->owned_cost_model_ = *model;
  }

  // Engine wiring mirrors Stack::Create, minus observability and codec
  // offload: shard engines run obs-free (the shard layer owns the
  // deterministic metrics) and compress serially on their own run-loop
  // thread (the per-shard threads *are* the parallelism; sharing a
  // compress pool with the run loops would deadlock it).
  core::EngineConfig ec;
  ec.scheme = stack.scheme;
  ec.elastic = stack.elastic;
  ec.monitor = stack.monitor;
  ec.estimator = stack.estimator;
  ec.seq = stack.seq;
  ec.use_seq_detector = stack.scheme == core::Scheme::kEdc &&
                        stack.use_seq_detector_for_edc;
  ec.mode = stack.mode;
  ec.alloc_policy = stack.alloc_policy;
  ec.cache_groups = stack.cache_groups;
  ec.cpu_contexts = stack.cpu_contexts;
  ec.modeled_check_interval = stack.modeled_check_interval;
  ec.audit_every_n_ops = stack.audit_every_n_ops;
  ec.durability = stack.durability;
  ec.breaker_error_budget = stack.breaker_error_budget;
  ec.read_retry_attempts = stack.read_retry_attempts;
  ec.read_retry_backoff = stack.read_retry_backoff;
  ec.obs = nullptr;
  ec.compress_pool = nullptr;

  for (u32 s = 0; s < n; ++s) {
    Shard& sh = *se->shards_[s];
    // Each shard owns a private device with 1/N of the raw capacity, so
    // N shards model the same hardware as one unsharded stack.
    if (stack.use_rais) {
      ssd::RaisConfig rc = stack.rais;
      rc.member.geometry.num_blocks =
          std::max<u32>(4, rc.member.geometry.num_blocks / n);
      sh.owned_device = std::make_unique<ssd::Rais>(rc);
    } else if (stack.use_hdd) {
      ssd::HddConfig hc = stack.hdd;
      hc.num_pages = std::max<u64>(64, hc.num_pages / n);
      sh.owned_device = std::make_unique<ssd::Hdd>(hc);
    } else if (stack.use_nvm) {
      ssd::NvmConfig nc = stack.nvm;
      nc.num_pages = std::max<u64>(64, nc.num_pages / n);
      sh.owned_device = std::make_unique<ssd::Nvm>(nc);
    } else {
      ssd::SsdConfig sc = stack.ssd;
      sc.geometry.num_blocks =
          std::max<u32>(4, sc.geometry.num_blocks / n);
      sh.owned_device = std::make_unique<ssd::Ssd>(sc);
    }
    sh.device = sh.owned_device.get();
    sh.engine_config = ec;
    sh.generator = se->owned_generator_.get();
    sh.cost_model = se->owned_cost_model_.get();
  }
  return FinishCreate(std::move(se));
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::CreateFromBackings(
    const ShardedOptions& options, std::vector<ShardBacking> backings) {
  if (backings.empty()) {
    return Status::InvalidArgument("sharded: no shard backings");
  }
  if (options.shards != 0 && options.shards != backings.size()) {
    return Status::InvalidArgument(
        "sharded: options.shards does not match backings.size()");
  }
  auto se = std::unique_ptr<ShardedEngine>(
      new ShardedEngine(options, static_cast<u32>(backings.size())));
  for (std::size_t s = 0; s < backings.size(); ++s) {
    ShardBacking& b = backings[s];
    if (b.device == nullptr || b.generator == nullptr) {
      return Status::InvalidArgument(
          "sharded: backing needs a device and a generator");
    }
    Shard& sh = *se->shards_[s];
    sh.device = b.device;
    sh.engine_config = b.engine;
    sh.engine_config.obs = nullptr;          // see header comment
    sh.engine_config.compress_pool = nullptr;
    sh.generator = b.generator;
    sh.cost_model = b.cost_model;
  }
  return FinishCreate(std::move(se));
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::FinishCreate(
    std::unique_ptr<ShardedEngine> se) {
  for (auto& sh : se->shards_) {
    sh->ring = std::make_unique<MpscRing<SubOp>>(se->options_.ring_capacity);
    sh->completions =
        std::make_unique<MpscRing<SubDone>>(se->options_.ring_capacity);
  }
  Status built = se->BuildEngines();
  if (!built.ok()) return built;
  se->RegisterObservability();
  se->pool_ = std::make_unique<WorkerPool>(se->shards_.size());
  return se;
}

Status ShardedEngine::BuildEngines() {
  for (auto& sh : shards_) {
    sh->engine = std::make_unique<core::Engine>(
        sh->engine_config, sh->device, sh->generator, sh->cost_model);
  }
  return Status::Ok();
}

void ShardedEngine::RegisterObservability() {
  if (options_.obs == nullptr) return;
  obs::MetricRegistry* m = options_.obs->metrics();
  if (m == nullptr) return;
  for (u32 s = 0; s < shards_.size(); ++s) {
    obs::LabelSet labels{{"shard", std::to_string(s)}};
    shards_[s]->dispatched_total =
        m->GetCounter("edc_shard_dispatched_total", labels,
                      "Sub-requests dispatched into this shard's ring");
    shards_[s]->blocks_total =
        m->GetCounter("edc_shard_blocks_total", labels,
                      "4 KiB blocks dispatched to this shard");
    shards_[s]->inflight_depth =
        m->GetGauge("edc_shard_inflight_depth", labels,
                    "Sub-requests dispatched but not yet applied");
  }
  tenant_requests_.resize(options_.tenants, nullptr);
  tenant_throttled_.resize(options_.tenants, nullptr);
  tenant_throttle_us_.resize(options_.tenants, nullptr);
  for (u32 t = 0; t < options_.tenants; ++t) {
    obs::LabelSet labels{{"tenant", std::to_string(t)}};
    tenant_requests_[t] =
        m->GetCounter("edc_tenant_requests_total", labels,
                      "Requests submitted by this tenant");
    tenant_throttled_[t] =
        m->GetCounter("edc_tenant_throttled_total", labels,
                      "Requests delayed by the tenant's IOPS cap");
    tenant_throttle_us_[t] = m->GetCounter(
        "edc_tenant_throttle_delay_us_total", labels,
        "Total simulated throttle delay added by the IOPS cap");
  }
  dispatch_batch_hist_ = m->GetHistogram(
      "edc_shard_dispatch_batch", {},
      {1, 2, 4, 8, 16, 32, 64, 128},
      "Requests moved from the WFQ backlog per dispatch pump");
  straddled_total_ =
      m->GetCounter("edc_sharded_straddled_total", {},
                    "Requests split across more than one shard");
  applied_total_ =
      m->GetCounter("edc_sharded_applied_total", {},
                    "Completions applied (in seq order)");
}

Status ShardedEngine::StartRunLoops() {
  if (running_) return Status::Ok();
  dispatcher_.Rebind();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    {
      sync::MutexLock lock(&sh.wake_mu);
      sh.stop = false;
      sh.parked.store(false, std::memory_order_relaxed);
    }
    sh.loop = pool_->Submit([this, s] { RunLoop(s); });
  }
  running_ = true;
  return Status::Ok();
}

Status ShardedEngine::StopRunLoops() {
  if (!running_) return Status::Ok();
  dispatcher_.Check("StopRunLoops");
  Status drained = Drain();
  for (auto& sh : shards_) {
    sync::MutexLock lock(&sh->wake_mu);
    sh->stop = true;
    sh->wake_cv.NotifyAll();
  }
  for (auto& sh : shards_) {
    if (sh->loop.valid()) sh->loop.get();
  }
  // Control-plane ops (audit, recovery, flush, data reads) now run on
  // the dispatcher thread.
  for (auto& sh : shards_) sh->engine->RebindOwnerThread();
  running_ = false;
  return drained;
}

Result<u64> ShardedEngine::Submit(const Request& request) {
  dispatcher_.Check("shard::Submit");
  if (!running_) {
    return Status::FailedPrecondition("sharded: run loops not started");
  }
  if (request.tenant >= options_.tenants) {
    return Status::InvalidArgument("sharded: tenant out of range");
  }

  u64 handle = backlog_.size();
  if (backlog_free_count_ > 0) {
    handle = backlog_free_[--backlog_free_count_];
  } else {
    backlog_.emplace_back();
    backlog_free_.emplace_back();  // room for every handle to be free
  }
  PendingReq& pending = backlog_[handle];
  pending.req = request;
  pending.admitted = buckets_[request.tenant].Admit(request.arrival);
  pending.live = true;
  if (tenant_requests_.size() > request.tenant &&
      tenant_requests_[request.tenant] != nullptr) {
    tenant_requests_[request.tenant]->Inc();
    if (pending.admitted > request.arrival) {
      tenant_throttled_[request.tenant]->Inc();
      tenant_throttle_us_[request.tenant]->Inc(static_cast<u64>(
          ToMicros(pending.admitted - request.arrival)));
    }
  }
  wfq_.Push(request.tenant, handle, PageUnits(request.size));

  // Pump until this request has left the backlog (one Submit enqueues
  // one request, so this is at most ceil(backlog / max_batch) pumps).
  // A backlog slot is reused only by a later Submit, so `live` cannot
  // flip back while this loop runs.
  awaited_handle_ = handle;
  while (backlog_[handle].live) {
    Status st = DispatchBatch();
    if (!st.ok()) {
      awaited_handle_ = ~static_cast<u64>(0);
      return st;
    }
  }
  awaited_handle_ = ~static_cast<u64>(0);
  return awaited_seq_;
}

Status ShardedEngine::DispatchBatch() {
  u32 dispatched = 0;
  while (dispatched < options_.max_batch && !wfq_.empty()) {
    // The in-flight window bounds memory and keeps the apply points
    // deterministic: completions are applied exactly when the window is
    // full, in seq order, nowhere else.
    while (apply_next_ + options_.window <= next_seq_) {
      Status st = ApplyNext();
      if (!st.ok()) return st;
    }
    u32 tenant = 0;
    u64 handle = 0;
    bool popped = wfq_.Pop(&tenant, &handle);
    EDC_CHECK(popped);
    Status st = DispatchOne(handle);
    if (!st.ok()) return st;
    ++dispatched;
  }
  if (dispatched > 0 && dispatch_batch_hist_ != nullptr) {
    dispatch_batch_hist_->Observe(static_cast<double>(dispatched));
  }
  return Status::Ok();
}

EDC_HOT Status ShardedEngine::DispatchOne(u64 handle) {
  EDC_CHECK(handle < backlog_.size() && backlog_[handle].live);
  PendingReq& pending = backlog_[handle];
  pending.live = false;
  backlog_free_[backlog_free_count_++] = handle;

  const u64 seq = next_seq_++;
  if (handle == awaited_handle_) awaited_seq_ = seq;

  router_.Split(pending.req.offset, pending.req.size, &parts_);
  EDC_CHECK(!parts_.empty());
  const u32 n_parts = static_cast<u32>(parts_.size());

  InFlight& fl = SlotOf(seq);
  fl.seq = seq;
  fl.tenant = pending.req.tenant;
  fl.kind = pending.req.kind;
  fl.submitted = pending.req.arrival;
  fl.admitted = pending.admitted;
  fl.n_parts = n_parts;
  fl.parts_done = 0;
  fl.first_shard = parts_[0].shard;
  fl.completion = 0;
  fl.error_part = 0;
  fl.status = Status::Ok();

  bool straddles = false;
  for (u32 i = 1; i < n_parts; ++i) {
    if (parts_[i].shard != parts_[0].shard) straddles = true;
  }
  if (straddles && straddled_total_ != nullptr) straddled_total_->Inc();

  for (u32 i = 0; i < n_parts; ++i) {
    const ShardRouter::Part& p = parts_[i];
    EDC_DCHECK(p.shard == (fl.first_shard + i) % shards());
    Shard& sh = *shards_[p.shard];
    SubOp op;
    op.seq = seq;
    op.part = i;
    op.n_parts = n_parts;
    op.kind = pending.req.kind;
    op.arrival = pending.admitted;
    op.offset = p.offset;
    op.size = p.size;
    // A full ring means the shard is behind; wait for it to drain (no
    // completion is *applied* here, so determinism is unaffected).
    while (!sh.ring->TryPush(std::move(op))) AwaitCompletions();
    ++sh.logical_depth;
    if (sh.dispatched_total != nullptr) {
      sh.dispatched_total->Inc();
      sh.blocks_total->Inc(PageUnits(p.size));
      sh.inflight_depth->Set(static_cast<double>(sh.logical_depth));
    }
    WakeShard(sh);
  }
  return Status::Ok();
}

EDC_HOT bool ShardedEngine::CollectCompletions() {
  // The join below is order-independent (count, max, lowest failing
  // part), so the order the shards are visited in does not matter.
  bool any = false;
  SubDone d;
  for (auto& sh : shards_) {
    while (sh->completions->TryPop(&d)) {
      any = true;
      InFlight& fl = SlotOf(d.seq);
      EDC_CHECK(fl.seq == d.seq && d.seq >= apply_next_ &&
                d.seq < next_seq_);
      ++fl.parts_done;
      if (d.completion > fl.completion) fl.completion = d.completion;
      if (!d.status.ok() &&
          (fl.status.ok() || d.part < fl.error_part)) {
        fl.status = std::move(d.status);
        fl.error_part = d.part;
      }
    }
  }
  return any;
}

EDC_HOT Status ShardedEngine::ApplyNext() {
  EDC_CHECK(apply_next_ < next_seq_);
  InFlight& fl = SlotOf(apply_next_);
  EDC_CHECK(fl.seq == apply_next_);
  CollectCompletions();
  while (fl.parts_done != fl.n_parts) AwaitCompletions();
  Completion c;
  c.seq = apply_next_;
  c.tenant = fl.tenant;
  c.kind = fl.kind;
  c.submitted = fl.submitted;
  c.admitted = fl.admitted;
  c.completion = fl.completion;
  c.status = fl.status;
  const u32 n_shards = shards();
  for (u32 i = 0; i < fl.n_parts; ++i) {
    Shard& sh = *shards_[(fl.first_shard + i) % n_shards];
    EDC_DCHECK(sh.logical_depth > 0);
    --sh.logical_depth;
    if (sh.inflight_depth != nullptr) {
      sh.inflight_depth->Set(static_cast<double>(sh.logical_depth));
    }
  }
  if (applied_total_ != nullptr) applied_total_->Inc();
  ++apply_next_;
  last_applied_ = c;
  if (on_complete_) on_complete_(c);
  return Status::Ok();
}

void ShardedEngine::AwaitCompletions() {
  // Spin on TryPop (the next slot's stamp) rather than on a ring's
  // tail, which the producer's push CASes.
  for (u32 i = 0; i < kSpinBudget; ++i) {
    if (CollectCompletions()) return;
    CpuRelax();
  }
  // Announce, re-check, sleep: a run loop that pushed after the re-check
  // reads dispatcher_parked_ == true and wakes us (see the header comment).
  dispatcher_parked_.store(true, std::memory_order_seq_cst);
  for (auto& sh : shards_) {
    if (!sh->completions->EmptyForConsumer()) {
      dispatcher_parked_.store(false, std::memory_order_relaxed);
      return;
    }
  }
  sync::MutexLock lock(&dispatcher_mu_);
  while (dispatcher_parked_.load(std::memory_order_relaxed)) {
    dispatcher_cv_.Wait(&dispatcher_mu_);
  }
}

Status ShardedEngine::Drain() {
  dispatcher_.Check("shard::Drain");
  while (!wfq_.empty()) {
    Status st = DispatchBatch();
    if (!st.ok()) return st;
  }
  while (apply_next_ < next_seq_) {
    Status st = ApplyNext();
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Result<Completion> ShardedEngine::SubmitAndWait(const Request& request) {
  auto seq = Submit(request);
  if (!seq.ok()) return seq.status();
  while (apply_next_ <= *seq) {
    Status st = ApplyNext();
    if (!st.ok()) return st;
  }
  // Drain applies in seq order, so the one we want is the last applied
  // at the moment apply_next_ passes it.
  EDC_CHECK(last_applied_.seq == *seq);
  return last_applied_;
}

void ShardedEngine::WakeShard(Shard& s) {
  if (!s.parked.load(std::memory_order_seq_cst)) return;
  sync::MutexLock lock(&s.wake_mu);
  s.parked.store(false, std::memory_order_relaxed);
  s.wake_cv.NotifyOne();
}

void ShardedEngine::RunLoop(std::size_t shard_index) {
  Shard& s = *shards_[shard_index];
  s.engine->RebindOwnerThread();
  SubOp op;
  for (;;) {
    bool popped = s.ring->TryPop(&op);
    for (u32 i = 0; !popped && i < kSpinBudget; ++i) {
      CpuRelax();
      popped = s.ring->TryPop(&op);
    }
    if (popped) {
      ProcessSubOp(s, op);
      continue;
    }
    // Announce, re-check, sleep: a push after the re-check reads
    // parked == true and wakes us (see the header comment).
    s.parked.store(true, std::memory_order_seq_cst);
    if (!s.ring->EmptyForConsumer()) {
      s.parked.store(false, std::memory_order_relaxed);
      continue;
    }
    bool should_stop = false;
    {
      sync::MutexLock lock(&s.wake_mu);
      while (s.parked.load(std::memory_order_relaxed) && !s.stop) {
        s.wake_cv.Wait(&s.wake_mu);
      }
      should_stop = s.stop;
    }
    if (should_stop) {
      // Final drain: anything pushed before the stop flag was raised.
      while (s.ring->TryPop(&op)) ProcessSubOp(s, op);
      break;
    }
  }
}

void ShardedEngine::ProcessSubOp(Shard& s, const SubOp& op) {
  auto run = [&]() -> Result<SimTime> {
    switch (op.kind) {
      case OpKind::kWrite:
        return s.engine->Write(op.arrival, op.offset, op.size);
      case OpKind::kRead:
        return s.engine->Read(op.arrival, op.offset, op.size);
      case OpKind::kTrim:
        return s.engine->Trim(op.arrival, op.offset, op.size);
    }
    return Status::Internal("sharded: unknown op kind");
  };
  Result<SimTime> done = run();
  SubDone d;
  d.seq = op.seq;
  d.part = op.part;
  if (done.ok()) {
    d.completion = *done;
  } else {
    d.status = done.status();
  }
  PushCompletion(s, std::move(d));
}

EDC_HOT void ShardedEngine::PushCompletion(Shard& s, SubDone&& done) {
  // Finished parts wait here until the dispatcher next collects; at the
  // default window (below the ring capacity) the ring fills only when
  // requests span many chunks or the dispatcher has not collected in a
  // long time, and the yield covers those cases.
  while (!s.completions->TryPush(std::move(done))) {
    std::this_thread::yield();
  }
  if (!dispatcher_parked_.load(std::memory_order_seq_cst)) return;
  sync::MutexLock lock(&dispatcher_mu_);
  dispatcher_parked_.store(false, std::memory_order_relaxed);
  dispatcher_cv_.NotifyOne();
}

Result<SimTime> ShardedEngine::FlushAllPending(SimTime now) {
  if (running_) {
    return Status::FailedPrecondition(
        "sharded: stop the run loops before FlushAllPending");
  }
  SimTime latest = now;
  for (auto& sh : shards_) {
    auto done = sh->engine->FlushPending(now);
    if (!done.ok()) return done.status();
    latest = std::max(latest, *done);
  }
  return latest;
}

Status ShardedEngine::RecoverAllFromDevice(SimTime now) {
  if (running_) {
    return Status::FailedPrecondition(
        "sharded: stop the run loops before recovery");
  }
  for (auto& sh : shards_) {
    Status st = sh->engine->RecoverFromDevice(now);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

core::AuditReport ShardedEngine::AuditAll() const {
  for (const auto& sh : shards_) {
    core::AuditReport report = sh->engine->Audit();
    if (!report.ok()) return report;
  }
  return core::AuditReport{};
}

Result<Bytes> ShardedEngine::ReadBlockData(Lba block) {
  if (running_) {
    return Status::FailedPrecondition(
        "sharded: stop the run loops before ReadBlockData");
  }
  return shards_[router_.shard_of(block)]->engine->ReadBlockData(block);
}

Status ShardedEngine::RecreateEngine(u32 shard) {
  if (running_) {
    return Status::FailedPrecondition(
        "sharded: stop the run loops before RecreateEngine");
  }
  Shard& sh = *shards_[shard];
  sh.engine.reset();
  sh.engine = std::make_unique<core::Engine>(
      sh.engine_config, sh.device, sh.generator, sh.cost_model);
  return Status::Ok();
}

core::EngineStats ShardedEngine::AggregateEngineStats() const {
  core::EngineStats agg;
  for (const auto& sh : shards_) {
    const core::EngineStats& s = sh->engine->stats();
    agg.host_writes += s.host_writes;
    agg.host_reads += s.host_reads;
    agg.logical_bytes_written += s.logical_bytes_written;
    agg.groups_written += s.groups_written;
    agg.merged_blocks += s.merged_blocks;
    agg.blocks_skipped_content += s.blocks_skipped_content;
    agg.blocks_skipped_intensity += s.blocks_skipped_intensity;
    for (std::size_t i = 0; i < agg.groups_by_codec.size(); ++i) {
      agg.groups_by_codec[i] += s.groups_by_codec[i];
    }
    agg.compressed_bytes_total += s.compressed_bytes_total;
    agg.allocated_bytes_total += s.allocated_bytes_total;
    agg.unmapped_block_reads += s.unmapped_block_reads;
    agg.trimmed_blocks += s.trimmed_blocks;
    agg.cache_hits += s.cache_hits;
    agg.cache_misses += s.cache_misses;
    agg.cpu_busy_time += s.cpu_busy_time;
    agg.write_latency_us.Merge(s.write_latency_us);
    agg.read_latency_us.Merge(s.read_latency_us);
    agg.drift_checks += s.drift_checks;
    agg.drift_abs_error_sum += s.drift_abs_error_sum;
    agg.program_failures += s.program_failures;
    agg.program_retries += s.program_retries;
    agg.media_errors += s.media_errors;
    agg.breaker_trips += s.breaker_trips;
    agg.breaker_open = agg.breaker_open || s.breaker_open;
    agg.degraded_groups += s.degraded_groups;
    agg.journal_bytes_written += s.journal_bytes_written;
    agg.journal_checkpoints += s.journal_checkpoints;
    agg.recovered_groups += s.recovered_groups;
    agg.read_retries += s.read_retries;
    agg.scrub_runs += s.scrub_runs;
    agg.scrub_groups_scanned += s.scrub_groups_scanned;
    agg.scrub_crc_errors += s.scrub_crc_errors;
    agg.scrub_repaired += s.scrub_repaired;
    agg.scrub_unrepairable += s.scrub_unrepairable;
  }
  return agg;
}

ssd::DeviceStats ShardedEngine::AggregateDeviceStats() const {
  ssd::DeviceStats agg;
  agg.waf = 0;
  double mean_erase_sum = 0;
  for (const auto& sh : shards_) {
    const ssd::DeviceStats s = sh->device->stats();
    agg.host_pages_read += s.host_pages_read;
    agg.host_pages_written += s.host_pages_written;
    agg.gc_pages_copied += s.gc_pages_copied;
    agg.gc_runs += s.gc_runs;
    agg.background_reclaims += s.background_reclaims;
    agg.total_erases += s.total_erases;
    agg.max_erase_count = std::max(agg.max_erase_count, s.max_erase_count);
    mean_erase_sum += s.mean_erase_count;
    // Shard devices serve in parallel: the aggregate busy time is the
    // longest lane, not the sum.
    agg.busy_time = std::max(agg.busy_time, s.busy_time);
    agg.energy_j += s.energy_j;
    agg.read_faults += s.read_faults;
    agg.program_faults += s.program_faults;
    agg.pages_corrupted += s.pages_corrupted;
    agg.reconstructed_reads += s.reconstructed_reads;
    agg.members_failed += s.members_failed;
    agg.degraded_reads += s.degraded_reads;
    agg.degraded_writes += s.degraded_writes;
    agg.unrecoverable_reads += s.unrecoverable_reads;
    agg.rebuild_rows_done += s.rebuild_rows_done;
    agg.rebuilds_completed += s.rebuilds_completed;
    agg.scrub_rows += s.scrub_rows;
    agg.scrub_parity_mismatches += s.scrub_parity_mismatches;
    agg.scrub_parity_repaired += s.scrub_parity_repaired;
  }
  if (!shards_.empty()) {
    agg.mean_erase_count =
        mean_erase_sum / static_cast<double>(shards_.size());
  }
  agg.waf = agg.host_pages_written == 0
                ? 1.0
                : static_cast<double>(agg.host_pages_written +
                                      agg.gc_pages_copied) /
                      static_cast<double>(agg.host_pages_written);
  return agg;
}

}  // namespace edc::shard
