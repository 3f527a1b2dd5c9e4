#include "mdtask/service/service.h"

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <utility>

namespace mdtask::service {

namespace {

/// Sleeps `seconds` (no-op when not positive).
void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

AnalysisService::AnalysisService(ServiceConfig config, ThreadPool& pool,
                                 Executor executor)
    : config_(config),
      pool_(pool),
      executor_(std::move(executor)),
      epoch_(std::chrono::steady_clock::now()),
      pipeline_(config_),
      dispatcher_([this] { dispatcher_loop(); }),
      timer_(config_.reliability.deadline.enabled ||
                     config_.reliability.hedge.enabled
                 ? std::thread([this] { timer_loop(); })
                 : std::thread()) {}

AnalysisService::~AnalysisService() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
    signal_ = true;
  }
  cv_.notify_all();
  timer_cv_.notify_all();
  dispatcher_.join();
  if (timer_.joinable()) timer_.join();
  // The dispatcher flushed every batch before exiting; jobs may still
  // be running on the pool. Wait until every request resolved AND every
  // runner (primary or hedge, winner or loser) left run_job — a loser
  // must never touch a dead service.
  std::unique_lock lk(mu_);
  drain_cv_.wait(lk, [this] {
    return pipeline_.outstanding() == 0 && active_runners_ == 0;
  });
}

double AnalysisService::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::future<CachedResult> AnalysisService::submit(AnalysisRequest request) {
  std::promise<CachedResult> promise;
  std::future<CachedResult> future = promise.get_future();
  bool has_deadline = false;
  {
    std::lock_guard lk(mu_);
    if (stopping_) {
      promise.set_value(CachedResult(
          Error(ErrorCode::kUnavailable, "service is shutting down")));
      return future;
    }
    request.id = ++next_ticket_;
    const std::uint64_t id = request.id;
    ServicePipeline::Admission admission =
        pipeline_.admit(std::move(request), now_s());
    if (admission.error) {
      promise.set_value(CachedResult(std::move(*admission.error)));
      return future;
    }
    promises_.emplace(id, std::move(promise));
    has_deadline = admission.deadline_s > 0.0;
    signal_ = true;
    timer_signal_ = timer_signal_ || has_deadline;
  }
  cv_.notify_one();
  if (has_deadline) timer_cv_.notify_one();
  return future;
}

AnalysisService::Completions AnalysisService::take(
    std::vector<Resolution> resolved) {
  Completions completions;
  for (Resolution& resolution : resolved) {
    const auto it = promises_.find(resolution.request.id);
    completions.emplace_back(std::move(it->second),
                             std::move(resolution.result));
    promises_.erase(it);
  }
  // Notify while holding mu_: the drain()/destructor waiter cannot
  // leave its wait (and destroy drain_cv_) before this thread releases
  // the lock, so the notify never touches a dying object.
  if (!completions.empty() && pipeline_.outstanding() == 0) {
    drain_cv_.notify_all();
  }
  return completions;
}

void AnalysisService::complete(Completions completions) {
  for (auto& [promise, result] : completions) {
    promise.set_value(std::move(result));
  }
}

void AnalysisService::run_job(const JobPtr& job, bool is_hedge) {
  Result<std::vector<ResultPayload>> result =
      Error(ErrorCode::kInternal, "no attempt ran");
  for (int i = 0;; ++i) {
    ServicePipeline::AttemptStart start;
    {
      std::lock_guard lk(mu_);
      start = pipeline_.begin_attempt(*job, i, is_hedge, now_s());
    }
    if (!start.run) {
      if (start.failure) result = std::move(*start.failure);
      break;
    }
    sleep_s(start.chaos.delay_s);
    if (start.chaos.fails()) {
      const int attempt = (is_hedge ? kHedgeAttemptBase : 0) + i;
      result = Error(ErrorCode::kUnavailable, "chaos: injected fault")
                   .with_task({"service", job->chaos_id, attempt,
                               fault::to_string(start.chaos.kind)});
    } else {
      result = executor_(job->job);
    }
    ServicePipeline::AttemptEnd end;
    {
      std::lock_guard lk(mu_);
      end = pipeline_.end_attempt(*job, i, is_hedge, start.chaos,
                                  result.ok(), now_s());
    }
    if (fault::RecoveryLog* log =
            recovery_log_.load(std::memory_order_acquire);
        end.event && log != nullptr) {
      log->record(*end.event);
    }
    if (!end.retry) break;
    sleep_s(end.backoff_s);
  }
  Completions completions;
  {
    std::lock_guard lk(mu_);
    if (auto resolved =
            pipeline_.finish_job(*job, std::move(result), now_s(), is_hedge)) {
      completions = take(std::move(*resolved));
    }
    if (--active_runners_ == 0) drain_cv_.notify_all();
  }
  complete(std::move(completions));
}

void AnalysisService::timer_loop() {
  std::unique_lock lk(mu_);
  while (!stopping_) {
    timer_signal_ = false;
    ServicePipeline::TimerStep step = pipeline_.timer_step(now_s());
    active_runners_ += step.hedges.size();
    Completions completions = take(std::move(step.expired));
    lk.unlock();
    for (const JobPtr& job : step.hedges) {
      pool_.post_shared([this, job] { run_job(job, /*is_hedge=*/true); });
    }
    complete(std::move(completions));
    lk.lock();
    // New work that arrived while unlocked raised timer_signal_: the
    // predicate holds at once and the loop rescans.
    const auto woken = [this] { return timer_signal_ || stopping_; };
    if (step.next_wake_s == std::numeric_limits<double>::infinity()) {
      timer_cv_.wait(lk, woken);
    } else {
      const double wait_s = std::max(0.0, step.next_wake_s - now_s());
      timer_cv_.wait_for(lk, std::chrono::duration<double>(wait_s), woken);
    }
  }
}

void AnalysisService::dispatcher_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    signal_ = false;
    pipeline_.observe_pressure(now_s());
    std::vector<Resolution> resolved;
    std::vector<EngineJob> jobs;
    while (std::optional<ServicePipeline::Routed> routed =
               pipeline_.route_next(now_s())) {
      if (routed->resolution) {
        resolved.push_back(std::move(*routed->resolution));
      }
      if (routed->job) jobs.push_back(std::move(*routed->job));
    }
    for (EngineJob& job : pipeline_.due(now_s())) {
      jobs.push_back(std::move(job));
    }
    // While a drain() is waiting, and at shutdown, every pass
    // force-flushes open batches: nothing may sit out a delay window.
    const bool exiting = stopping_;
    for (EngineJob& job : pipeline_.flush(exiting || draining_ > 0)) {
      jobs.push_back(std::move(job));
    }
    std::vector<JobPtr> started;
    bool hedge_armed = false;
    for (EngineJob& job : jobs) {
      if (JobPtr run =
              pipeline_.start_job(std::move(job), now_s(), &resolved)) {
        hedge_armed = hedge_armed || run->hedge_at_s > 0.0;
        started.push_back(std::move(run));
      }
    }
    active_runners_ += started.size();
    timer_signal_ = timer_signal_ || hedge_armed;
    Completions completions = take(std::move(resolved));
    lk.unlock();
    if (hedge_armed) timer_cv_.notify_one();
    for (const JobPtr& job : started) {
      pool_.post_shared([this, job] { run_job(job, /*is_hedge=*/false); });
    }
    complete(std::move(completions));
    lk.lock();
    if (exiting) return;
    const auto woken = [this] { return signal_ || stopping_; };
    if (const auto flush_at = pipeline_.next_flush()) {
      const double wait_s = std::max(0.0, *flush_at - now_s());
      cv_.wait_for(lk, std::chrono::duration<double>(wait_s), woken);
    } else {
      cv_.wait(lk, woken);
    }
  }
}

void AnalysisService::drain() {
  // The dispatcher does the flushing (it may still hold requests that
  // have not reached the batcher yet); draining_ > 0 makes it flush
  // open batches on every pass until everything resolved.
  std::unique_lock lk(mu_);
  ++draining_;
  signal_ = true;
  cv_.notify_all();
  drain_cv_.wait(lk, [this] { return pipeline_.outstanding() == 0; });
  --draining_;
}

std::size_t AnalysisService::invalidate_store(std::uint64_t fingerprint) {
  std::lock_guard lk(mu_);
  return pipeline_.invalidate_store(fingerprint);
}

std::size_t AnalysisService::ingest_store(const std::string& path,
                                          std::uint64_t fingerprint) {
  std::lock_guard lk(mu_);
  auto [it, inserted] = ingested_.try_emplace(path, fingerprint);
  if (inserted || it->second == fingerprint) return 0;
  const std::uint64_t stale = it->second;
  it->second = fingerprint;
  return pipeline_.invalidate_store(stale);
}

std::size_t AnalysisService::ingest_store(
    const std::string& path, const stream::ShardStoreInfo& info) {
  return ingest_store(path, store_fingerprint(info));
}

void AnalysisService::set_recovery_log(fault::RecoveryLog* log) {
  recovery_log_.store(log, std::memory_order_release);
}

AnalysisService::Stats AnalysisService::stats() const {
  std::lock_guard lk(mu_);
  return pipeline_.stats();
}

}  // namespace mdtask::service
