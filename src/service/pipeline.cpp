#include "mdtask/service/pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

namespace mdtask::service {

namespace {

Error deadline_error(const char* stage) {
  return Error(ErrorCode::kDeadlineExceeded, stage);
}

}  // namespace

ServicePipeline::ServicePipeline(const ServiceConfig& config)
    : config_(config),
      retry_policy_(config.reliability.retry.policy),
      admission_(config.admission),
      scheduler_(config.fair_share),
      cache_(config.cache),
      batcher_(config.batch),
      chaos_(config.chaos),
      breakers_(config.reliability.breaker),
      degradation_(config.reliability.brownout),
      job_latency_(256) {
  if (!config.reliability.retry.enabled) retry_policy_.max_attempts = 1;
}

void ServicePipeline::observe_pressure(double now) {
  if (config_.reliability.brownout.enabled) {
    degradation_.update(admitted_.size(), breakers_.open_cells(now));
  }
}

ServicePipeline::Admission ServicePipeline::admit(AnalysisRequest request,
                                                  double now) {
  // Brownout L1, cheapest first: best-effort traffic is shed before it
  // reserves anything.
  if (config_.reliability.brownout.enabled &&
      request.tenant_class == TenantClass::kBestEffort &&
      degradation_.level() >= BrownoutLevel::kShedBestEffort) {
    ++stats_.brownout_shed;
    return {Verdict::kBrownoutShed,
            Error(ErrorCode::kOverloaded,
                  "brownout: shedding best-effort traffic")};
  }
  if (Status admitted = admission_.admit(request); !admitted.ok()) {
    ++stats_.rejected;
    return {Verdict::kRejected, admitted.error()};
  }
  // Breaker AFTER admission: every allow() is balanced by exactly one
  // record() in resolve(), because every admitted request resolves once.
  if (!breakers_.allow(request.tenant_class, request.family, now)) {
    admission_.release(request);
    ++stats_.circuit_rejected;
    return {Verdict::kCircuitOpen,
            Error(ErrorCode::kCircuitOpen,
                  std::string("circuit open for ") +
                      to_string(request.tenant_class) + "/" +
                      to_string(request.family))};
  }
  // The submitted deadline_s is a RELATIVE budget; it becomes an
  // ABSOLUTE deadline here, at admission.
  const double budget = deadline_budget_s(config_.reliability.deadline,
                                          request);
  request.deadline_s = budget > 0.0 ? now + budget : 0.0;
  const double deadline = request.deadline_s;
  admitted_[request.id] = Admitted{request, now};
  scheduler_.push(std::move(request));
  return {Verdict::kAdmitted, std::nullopt, deadline};
}

std::optional<Resolution> ServicePipeline::resolve(std::uint64_t id,
                                                   CachedResult result,
                                                   double now, bool expired) {
  const auto it = admitted_.find(id);
  if (it == admitted_.end()) return std::nullopt;
  Admitted admitted = std::move(it->second);
  admitted_.erase(it);
  const AnalysisRequest& request = admitted.request;
  admission_.release(request);
  breakers_.record(request.tenant_class, request.family, result.ok(), now);
  ++stats_.completed;
  if (expired) ++stats_.deadline_expired;
  return Resolution{std::move(admitted.request), admitted.admitted_at_s,
                    std::move(result), expired};
}

std::optional<ServicePipeline::Routed> ServicePipeline::route_next(
    double now) {
  AnalysisRequest request;
  do {
    if (!scheduler_.pop(&request)) return std::nullopt;
  } while (!admitted_.contains(request.id));  // reaped while queued
  Routed routed;
  routed.tenant_class = request.tenant_class;
  const RequestKey key = request_key(request);
  const ResultCache::Lookup lookup = cache_.lookup_or_join(key);
  switch (lookup.outcome) {
    case ResultCache::Outcome::kHit:
      routed.kind = Routed::Kind::kHit;
      routed.resolution = resolve(request.id, lookup.future.get(), now, false);
      return routed;
    case ResultCache::Outcome::kJoined:
      routed.kind = Routed::Kind::kJoined;
      joiners_[key].push_back(request.id);
      return routed;
    case ResultCache::Outcome::kMiss:
      // Brownout L3: answer from a stale same-analysis entry instead of
      // computing. The just-created in-flight slot is resolved with an
      // error so the key stays uncached and unpoisoned — no joiner can
      // exist yet.
      if (config_.reliability.brownout.enabled &&
          degradation_.level() >= BrownoutLevel::kServeStale) {
        if (auto stale = cache_.lookup_stale(key)) {
          cache_.fulfill(key, CachedResult(Error(ErrorCode::kUnavailable,
                                                 "brownout: stale-served")));
          ++stats_.stale_served;
          routed.kind = Routed::Kind::kStale;
          routed.resolution =
              resolve(request.id, CachedResult(std::move(stale)), now, false);
          return routed;
        }
      }
      routed.kind = Routed::Kind::kBatched;
      routed.job = batcher_.add(std::move(request), now);
      return routed;
  }
  return routed;
}

std::vector<EngineJob> ServicePipeline::flush(bool force) {
  // Brownout L2: under pressure the delay window shrinks to nothing.
  if (force || (config_.reliability.brownout.enabled &&
                degradation_.level() >= BrownoutLevel::kShrinkBatch)) {
    return batcher_.flush_all();
  }
  return {};
}

JobPtr ServicePipeline::start_job(EngineJob job, double now,
                                  std::vector<Resolution>* expired) {
  const ReliabilityConfig& rel = config_.reliability;
  if (rel.deadline.enabled) {
    // Fail-fast strip: a member that is overdue (or whose owner the
    // reaper already resolved) and that nobody joined never reaches the
    // executor; its in-flight cache slot resolves with the deadline
    // error so later lookups get a fresh miss.
    auto& members = job.requests;
    for (auto it = members.begin(); it != members.end();) {
      const RequestKey key = request_key(*it);
      const bool owner_alive = admitted_.contains(it->id);
      const bool overdue = it->deadline_s > 0.0 && now >= it->deadline_s;
      if ((owner_alive && !overdue) || joiners_.contains(key)) {
        ++it;
        continue;
      }
      const CachedResult late(deadline_error("deadline passed in batch"));
      cache_.fulfill(key, late);
      if (auto resolved = resolve(it->id, late, now, /*expired=*/true)) {
        expired->push_back(std::move(*resolved));
      }
      it = members.erase(it);
    }
    if (members.empty()) return nullptr;
    // The job lands by the earliest deadline still ahead among the
    // survivors: a stripped member's deadline must not fail the rest.
    job.deadline_s = 0.0;
    for (const AnalysisRequest& member : members) {
      if (member.deadline_s > now &&
          (job.deadline_s == 0.0 || member.deadline_s < job.deadline_s)) {
        job.deadline_s = member.deadline_s;
      }
    }
  }
  ++stats_.engine_jobs;
  auto started = std::make_shared<PipelineJob>();
  started->job = std::move(job);
  started->chaos_id =
      chaos_.enabled() ? chaos_job_id(started->job) : started->job.job_id;
  started->dispatched_at_s = now;
  if (rel.hedge.enabled) {
    if (const auto delay =
            hedge_delay_s(rel.hedge, job_latency_.snapshot(now))) {
      started->hedge_at_s = now + *delay;
      hedgeable_[started->job.job_id] = started;
    }
  }
  return started;
}

ServicePipeline::AttemptStart ServicePipeline::begin_attempt(
    const PipelineJob& job, int attempt, bool is_hedge, double now) {
  AttemptStart start;
  if (job.resolved) return start;  // a sibling runner already won
  if (job.job.deadline_s > 0.0 && now >= job.job.deadline_s) {
    start.failure = deadline_error("job deadline passed before attempt");
    return start;
  }
  start.run = true;
  start.chaos = chaos_.decide(job.chaos_id,
                              (is_hedge ? kHedgeAttemptBase : 0) + attempt);
  if (start.chaos.delay_s > 0.0) ++stats_.chaos_delays;
  return start;
}

ServicePipeline::AttemptEnd ServicePipeline::end_attempt(
    const PipelineJob& job, int attempt, bool is_hedge,
    const ChaosOutcome& chaos, bool ok, double now) {
  AttemptEnd end;
  if (ok) return end;
  if (chaos.fails()) {
    ++stats_.chaos_failures;
    fault::RecoveryEvent event;
    event.engine = fault::EngineId::kService;
    event.task_id = job.chaos_id;
    event.attempt = (is_hedge ? kHedgeAttemptBase : 0) + attempt;
    event.fault = chaos.kind;
    // The action reflects this runner's budget position `attempt`.
    event.action = fault::recovery_action(fault::EngineId::kService,
                                          chaos.kind, attempt, retry_policy_);
    event.backoff_s = fault::backoff_for_attempt(retry_policy_, attempt + 1);
    event.ts_us = now * 1e6;
    end.event = event;
  }
  // First-completion-wins: a loser whose sibling already resolved the
  // job stops burning executor capacity on retries.
  if (attempt + 1 < std::max(1, retry_policy_.max_attempts) &&
      !job.resolved) {
    ++stats_.retries;
    end.retry = true;
    end.backoff_s = fault::backoff_for_attempt(retry_policy_, attempt + 1);
  }
  return end;
}

std::optional<std::vector<Resolution>> ServicePipeline::finish_job(
    PipelineJob& job, Result<std::vector<ResultPayload>> result, double now,
    bool is_hedge) {
  if (job.resolved) return std::nullopt;  // the loser's result is dropped
  job.resolved = true;
  hedgeable_.erase(job.job.job_id);
  if (is_hedge) ++stats_.hedge_wins;
  job_latency_.record_task_duration(now - job.dispatched_at_s);
  const std::vector<AnalysisRequest>& members = job.job.requests;
  if (result.ok() && result.value().size() != members.size()) {
    result = Error(ErrorCode::kInternal,
                   "executor returned " +
                       std::to_string(result.value().size()) +
                       " payloads for " + std::to_string(members.size()) +
                       " requests");
  }
  std::vector<Resolution> resolved;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const RequestKey key = request_key(members[i]);
    CachedResult outcome =
        result.ok() ? CachedResult(std::make_shared<const ResultPayload>(
                          std::move(result.value()[i])))
                    : CachedResult(result.error());
    cache_.fulfill(key, outcome);
    std::vector<std::uint64_t> ids{members[i].id};
    if (const auto joined = joiners_.find(key); joined != joiners_.end()) {
      ids.insert(ids.end(), joined->second.begin(), joined->second.end());
      joiners_.erase(joined);
    }
    for (const std::uint64_t id : ids) {
      if (auto done = resolve(id, outcome, now, false)) {
        resolved.push_back(std::move(*done));
      }
    }
  }
  return resolved;
}

std::optional<Resolution> ServicePipeline::expire(std::uint64_t id,
                                                  double now) {
  const auto it = admitted_.find(id);
  if (it == admitted_.end()) return std::nullopt;
  // A reaped joiner leaves its joiner list, or the owning job would
  // resolve it a second time — and the strip would keep a member only
  // the dead joiner still wanted.
  const RequestKey key = request_key(it->second.request);
  if (const auto joined = joiners_.find(key); joined != joiners_.end()) {
    std::erase(joined->second, id);
    if (joined->second.empty()) joiners_.erase(joined);
  }
  return resolve(id, CachedResult(deadline_error("deadline exceeded")), now,
                 /*expired=*/true);
}

bool ServicePipeline::launch_hedge(const PipelineJob& job) {
  // A job leaves hedgeable_ when it resolves or its hedge launches.
  if (hedgeable_.erase(job.job.job_id) == 0) return false;
  ++stats_.hedges;
  return true;
}

ServicePipeline::TimerStep ServicePipeline::timer_step(double now) {
  TimerStep step;
  // Reap every overdue request NOW, wherever it sits (scheduler queue,
  // open batch, joiner list, running job).
  std::vector<std::uint64_t> overdue;
  for (const auto& [id, admitted] : admitted_) {
    const double deadline = admitted.request.deadline_s;
    if (deadline <= 0.0) continue;
    if (now < deadline) {
      step.next_wake_s = std::min(step.next_wake_s, deadline);
    } else {
      overdue.push_back(id);
    }
  }
  for (const std::uint64_t id : overdue) {
    step.expired.push_back(*expire(id, now));
  }
  for (const auto& [id, job] : hedgeable_) {
    if (now < job->hedge_at_s) {
      step.next_wake_s = std::min(step.next_wake_s, job->hedge_at_s);
    } else {
      step.hedges.push_back(job);
    }
  }
  for (const JobPtr& job : step.hedges) launch_hedge(*job);
  return step;
}

ServiceStats ServicePipeline::stats() const {
  ServiceStats out = stats_;
  out.admission = admission_.stats();
  out.cache = cache_.stats();
  out.breaker = breakers_.stats();
  out.brownout_level = degradation_.level();
  return out;
}

}  // namespace mdtask::service
