// The serving decisions of the front end, written once (docs/SERVICE.md).
//
// ServicePipeline is a single-threaded, clock-free state machine: each
// step takes the caller's `now` and returns plain values (resolutions
// to deliver, jobs to run, chaos verdicts, recovery events, the next
// wake time). AnalysisService (service.h) drives it on the wall clock
// under its mutex; simulate_service (sim_service.h) drives it on the
// virtual clock as DES events. Neither driver decides anything itself,
// so the DES twin predicts the live service instead of re-implementing
// it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mdtask/autoscale/metrics.h"
#include "mdtask/common/error.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/service/admission.h"
#include "mdtask/service/batcher.h"
#include "mdtask/service/fair_share.h"
#include "mdtask/service/reliability.h"
#include "mdtask/service/request.h"
#include "mdtask/service/result_cache.h"

namespace mdtask::service {

struct ServiceConfig {
  AdmissionConfig admission;
  FairShareConfig fair_share;
  CacheConfig cache;
  BatchConfig batch;
  /// All reliability mechanisms default OFF: a default-constructed
  /// service behaves exactly as the pre-reliability pipeline.
  ReliabilityConfig reliability;
  ChaosConfig chaos;
};

/// Component statistics plus the pipeline's one counter set.
struct ServiceStats {
  AdmissionController::Stats admission;
  ResultCache::Stats cache;
  CircuitBreakerBank::Stats breaker;
  std::uint64_t engine_jobs = 0;  ///< jobs dispatched (first attempts)
  std::uint64_t completed = 0;    ///< requests resolved (ok or error)
  std::uint64_t rejected = 0;     ///< shed at admission (kOverloaded)
  // Reliability outcomes, counted SEPARATELY from admission sheds.
  std::uint64_t deadline_expired = 0;  ///< failed kDeadlineExceeded
  std::uint64_t circuit_rejected = 0;  ///< rejected kCircuitOpen
  std::uint64_t brownout_shed = 0;     ///< best-effort shed by brownout
  std::uint64_t stale_served = 0;      ///< brownout stale cache answers
  std::uint64_t retries = 0;           ///< executor re-invocations
  std::uint64_t hedges = 0;            ///< hedged duplicates launched
  std::uint64_t hedge_wins = 0;        ///< hedges that resolved first
  std::uint64_t chaos_failures = 0;    ///< chaos-failed attempts
  std::uint64_t chaos_delays = 0;      ///< chaos slow/hang attempts
  BrownoutLevel brownout_level = BrownoutLevel::kNormal;
};

/// One admitted request resolved, with what the drivers account it by.
struct Resolution {
  AnalysisRequest request;  ///< as admitted (absolute deadline_s)
  double admitted_at_s = 0.0;
  CachedResult result;
  bool expired = false;  ///< failed by the deadline reaper or the strip
};

/// One dispatched engine job, shared by its primary and hedge runners.
/// Every field but `resolved` is fixed once start_job returns.
struct PipelineJob {
  EngineJob job;
  std::uint64_t chaos_id = 0;  ///< chaos identity (chaos_job_id)
  double dispatched_at_s = 0.0;
  double hedge_at_s = 0.0;  ///< hedge launch time (0 = no hedge)
  bool resolved = false;  ///< first-completion-wins gate
};
using JobPtr = std::shared_ptr<PipelineJob>;

class ServicePipeline {
 public:
  explicit ServicePipeline(const ServiceConfig& config);

  /// Feeds brownout the admitted-unresolved count and the open breaker
  /// cells (live: each dispatcher pass; DES: each arrival).
  void observe_pressure(double now);

  enum class Verdict : std::uint8_t {
    kAdmitted,
    kBrownoutShed,  ///< brownout L1 shed a best-effort request
    kRejected,      ///< admission shed it
    kCircuitOpen,   ///< its breaker cell rejects traffic
  };
  struct Admission {
    Verdict verdict = Verdict::kAdmitted;
    std::optional<Error> error;  ///< the typed refusal (not admitted)
    double deadline_s = 0.0;     ///< absolute deadline (0 = none)
  };
  /// Brownout L1 shed, admission, the breaker (releasing admission on
  /// rejection), the absolute deadline stamp; then queues the request.
  Admission admit(AnalysisRequest request, double now);

  struct Routed {
    enum class Kind : std::uint8_t {
      kHit,      ///< answered from the cache
      kJoined,   ///< joined an in-flight computation of its key
      kStale,    ///< brownout L3 answered the miss from a stale entry
      kBatched,  ///< a miss, handed to the batcher
    };
    Kind kind = Kind::kBatched;
    TenantClass tenant_class = TenantClass::kBatch;
    std::optional<Resolution> resolution;  ///< kHit, kStale
    std::optional<EngineJob> job;  ///< kBatched: the add closed a batch
  };
  /// Pops the next unresolved request in fair-share order (dropping
  /// ones reaped while queued) and routes it through the cache and the
  /// batcher; nullopt when the queue is empty.
  std::optional<Routed> route_next(double now);

  /// Batches whose delay window expired at `now`.
  std::vector<EngineJob> due(double now) { return batcher_.due(now); }
  /// Every open batch when `force` (drain, shutdown) or brownout L2
  /// holds; otherwise none.
  std::vector<EngineJob> flush(bool force);

  /// Strips members nobody can still use (owner overdue or resolved, no
  /// joiner), resolving overdue owners into `expired`, and sets the job
  /// deadline to the earliest future deadline among the survivors; then
  /// starts the job (chaos identity, hedge time from the latency p95).
  /// nullptr when nothing survived.
  JobPtr start_job(EngineJob job, double now,
                   std::vector<Resolution>* expired);

  struct AttemptStart {
    bool run = false;    ///< false: this runner stops
    ChaosOutcome chaos;  ///< the verdict for the attempt (run only)
    /// On a stop: the job fails with this error (its deadline passed);
    /// unset when a sibling runner already resolved the job.
    std::optional<Error> failure;
  };
  /// Attempt `attempt` (0-based, per runner) of `job` at `now`.
  AttemptStart begin_attempt(const PipelineJob& job, int attempt,
                             bool is_hedge, double now);

  struct AttemptEnd {
    bool retry = false;
    double backoff_s = 0.0;  ///< wait before the retry
    std::optional<fault::RecoveryEvent> event;  ///< a chaos failure
  };
  /// The verdict on a finished attempt: the recovery event of a chaos
  /// failure, and whether to retry (budget left, job unresolved).
  AttemptEnd end_attempt(const PipelineJob& job, int attempt, bool is_hedge,
                         const ChaosOutcome& chaos, bool ok, double now);

  /// First completion wins: fulfils every member's cache slot and
  /// resolves owners and joiners with `result` (one payload per member,
  /// or an error for all). nullopt when a sibling already resolved it.
  std::optional<std::vector<Resolution>> finish_job(
      PipelineJob& job, Result<std::vector<ResultPayload>> result,
      double now, bool is_hedge);

  /// The deadline reaper for one request (DES: an event at its
  /// deadline). nullopt when it already resolved.
  std::optional<Resolution> expire(std::uint64_t id, double now);
  /// Launches the hedge of `job` unless it resolved or was hedged.
  bool launch_hedge(const PipelineJob& job);

  struct TimerStep {
    std::vector<Resolution> expired;
    std::vector<JobPtr> hedges;  ///< launched, to run as hedge runners
    double next_wake_s = std::numeric_limits<double>::infinity();
  };
  /// Live timer pass: reaps every overdue request, launches every due
  /// hedge, and names the next deadline or hedge time.
  TimerStep timer_step(double now);

  std::size_t invalidate_store(std::uint64_t fingerprint) {
    return cache_.invalidate_store(fingerprint);
  }

  std::size_t outstanding() const noexcept { return admitted_.size(); }
  std::size_t queued() const { return scheduler_.queued(); }
  std::size_t batched() const { return batcher_.pending(); }
  std::size_t open_batches() const { return batcher_.open_batches(); }
  std::optional<double> next_flush() const {
    return batcher_.next_deadline();
  }
  ServiceStats stats() const;

 private:
  struct Admitted {
    AnalysisRequest request;
    double admitted_at_s = 0.0;
  };

  /// Resolves admitted request `id` (nullopt when already resolved):
  /// releases admission, records the breaker outcome, counts it.
  std::optional<Resolution> resolve(std::uint64_t id, CachedResult result,
                                    double now, bool expired);

  ServiceConfig config_;
  fault::RetryPolicy retry_policy_;  ///< one attempt when retry is off
  AdmissionController admission_;
  FairShareScheduler scheduler_;
  ResultCache cache_;
  Batcher batcher_;
  ChaosInjector chaos_;
  CircuitBreakerBank breakers_;
  DegradationController degradation_;
  /// Windowed engine-job latencies; the hedge threshold reads its p95.
  autoscale::MetricsWindow job_latency_;
  std::unordered_map<std::uint64_t, Admitted> admitted_;
  /// Requests waiting on another request's in-flight computation.
  std::unordered_map<RequestKey, std::vector<std::uint64_t>, RequestKeyHash>
      joiners_;
  /// Unresolved jobs whose hedge has not launched yet, by job id.
  std::unordered_map<std::uint64_t, JobPtr> hedgeable_;
  ServiceStats stats_;
};

}  // namespace mdtask::service
