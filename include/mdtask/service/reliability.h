// Request reliability layer of the serving front end (docs/SERVICE.md).
//
// The serving path composes five independent mechanisms, each behind a
// disabled-by-default config so the baseline pipeline is byte-identical
// with everything off:
//
//  * Deadlines   — a request carries a completion budget; the service
//                  fails it fast with kDeadlineExceeded the moment the
//                  budget cannot be met, instead of letting it queue.
//  * Retry       — executor invocations are wrapped in the shared
//                  fault::RetryPolicy (bounded attempts, exponential
//                  backoff), scoped as fault::EngineId::kService.
//  * Hedging     — a job still running at latency_factor x the windowed
//                  p95 gets a duplicate submission; first completion
//                  wins, the loser's result is dropped.
//  * Breakers    — per-(tenant class, analysis family) circuit breakers
//                  trip on failure-rate windows and reject with
//                  kCircuitOpen until a half-open probe heals them.
//  * Brownout    — a DegradationController watches the admitted backlog
//                  and breaker state and degrades in steps: shed best-effort
//                  first, then shrink batch delay windows, then serve
//                  stale cache entries flagged stale=true.
//
// Chaos testing drives all of the above: a ChaosInjector composes the
// deterministic fault::FaultInjector into the executor boundary —
// fail / slow / hang by pure hash of (seed, job identity, attempt) —
// and the SAME decision function runs in the simulate_service DES twin,
// so live and virtual chaos verdicts agree byte for byte.
//
// Time is always the caller's clock (wall seconds live, virtual seconds
// in the DES); nothing here reads a clock or mutates an RNG stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>

#include "mdtask/autoscale/metrics.h"
#include "mdtask/fault/fault.h"
#include "mdtask/fault/injector.h"
#include "mdtask/service/batcher.h"
#include "mdtask/service/request.h"

namespace mdtask::service {

// ---------------------------------------------------------------------------
// Deadlines

/// Per-request completion budgets. A request may carry its own
/// deadline_s; otherwise the tenant-class default applies. Budgets are
/// RELATIVE seconds at submission; admission rewrites them to absolute
/// service-clock deadlines.
struct DeadlineConfig {
  bool enabled = false;
  /// Default budget per tenant class (indexed by TenantClass), in the
  /// class's latency order: interactive tightest, best-effort loosest.
  std::array<double, kTenantClasses> default_s{0.5, 5.0, 30.0};

  double for_class(TenantClass tenant_class) const noexcept {
    return default_s[static_cast<std::size_t>(tenant_class)];
  }
};

/// The relative budget `request` submits under: its own deadline_s when
/// positive, else the class default. 0 when deadlines are disabled.
double deadline_budget_s(const DeadlineConfig& config,
                         const AnalysisRequest& request) noexcept;

// ---------------------------------------------------------------------------
// Retry and hedging

/// Bounded retry of failed executor invocations, using the shared
/// fault vocabulary so the chaos harness and the per-engine recovery
/// policies agree on backoff arithmetic.
struct RetryConfig {
  bool enabled = false;
  fault::RetryPolicy policy{3, 0.002, 2.0, 0.0};
};

/// Hedged execution: duplicate a job that outlives latency_factor x the
/// MetricsWindow p95 of recent job latencies; first completion wins.
struct HedgeConfig {
  bool enabled = false;
  double latency_factor = 2.0;  ///< hedge at this multiple of p95
  double min_delay_s = 0.001;   ///< never hedge sooner than this
  std::uint64_t min_samples = 16;  ///< completions needed for a p95 signal
};

/// Seconds after dispatch at which a hedge should launch, or nullopt
/// when hedging is off or the latency window has too few samples.
std::optional<double> hedge_delay_s(
    const HedgeConfig& config,
    const autoscale::MetricsSnapshot& snapshot) noexcept;

/// Attempt-index offset hedge runners use for chaos decisions, so a
/// hedge draws verdicts independent of its primary (both live and DES
/// paths share the constant — it is part of the chaos identity).
inline constexpr int kHedgeAttemptBase = 1 << 20;

// ---------------------------------------------------------------------------
// Circuit breakers

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
const char* to_string(BreakerState state) noexcept;

struct BreakerConfig {
  bool enabled = false;
  std::size_t window = 32;         ///< outcomes per cell failure window
  std::size_t min_samples = 8;     ///< observations before a trip is legal
  double failure_threshold = 0.5;  ///< windowed failure fraction that trips
  double cooldown_s = 1.0;         ///< open duration before probing
  std::size_t half_open_probes = 2;  ///< probe successes required to close
};

/// One breaker per (tenant class, analysis family) cell, so a failing
/// leaflet pipeline cannot reject interactive RMSD traffic. All
/// transitions are pure functions of the recorded outcome sequence and
/// the caller's clock — the DES replays them deterministically.
class CircuitBreakerBank {
 public:
  explicit CircuitBreakerBank(BreakerConfig config) : config_(config) {}
  CircuitBreakerBank() : CircuitBreakerBank(BreakerConfig{}) {}

  /// May a request of this cell proceed at `now_s`? An open cell past
  /// its cooldown moves to half-open and admits up to half_open_probes
  /// in-flight probes; a false return is a typed kCircuitOpen shed.
  bool allow(TenantClass tenant_class, AnalysisFamily family, double now_s);

  /// Records the final outcome of one admitted request of this cell.
  void record(TenantClass tenant_class, AnalysisFamily family, bool ok,
              double now_s);

  /// Current state, with the open->half-open cooldown expiry applied
  /// read-only (the transition itself commits on the next allow()).
  BreakerState state(TenantClass tenant_class, AnalysisFamily family,
                     double now_s) const;

  /// Cells currently rejecting traffic (open and inside cooldown).
  std::size_t open_cells(double now_s) const;

  struct Stats {
    std::uint64_t trips = 0;       ///< closed/half-open -> open transitions
    std::uint64_t closes = 0;      ///< half-open -> closed recoveries
    std::uint64_t probes = 0;      ///< half-open requests admitted
    std::uint64_t rejections = 0;  ///< requests rejected by open cells
  };
  Stats stats() const;

  const BreakerConfig& config() const noexcept { return config_; }

 private:
  struct Cell {
    BreakerState state = BreakerState::kClosed;
    /// Ring of recent outcomes (1 = failure), window-bounded.
    std::array<std::uint8_t, 64> ring{};
    std::size_t next = 0;
    std::size_t count = 0;
    std::size_t failures = 0;
    double open_until_s = 0.0;
    std::size_t probes_inflight = 0;
    std::size_t probe_successes = 0;
  };

  static std::size_t index(TenantClass tenant_class,
                           AnalysisFamily family) noexcept {
    return static_cast<std::size_t>(tenant_class) * kAnalysisFamilies +
           static_cast<std::size_t>(family);
  }
  void trip(Cell& cell, double now_s);     // mu_ held
  void push_outcome(Cell& cell, bool ok);  // mu_ held

  BreakerConfig config_;
  mutable std::mutex mu_;
  std::array<Cell, kTenantClasses * kAnalysisFamilies> cells_{};
  Stats stats_;
};

// ---------------------------------------------------------------------------
// Graceful degradation (brownout)

/// Cumulative degradation steps: each level implies the ones before it.
enum class BrownoutLevel : std::uint8_t {
  kNormal = 0,
  kShedBestEffort = 1,  ///< reject best-effort submissions up front
  kShrinkBatch = 2,     ///< force-flush open batches (no delay windows)
  kServeStale = 3,      ///< answer misses from stale same-analysis entries
};
const char* to_string(BrownoutLevel level) noexcept;

struct BrownoutConfig {
  bool enabled = false;
  /// Depths that ENTER each level. The depth is the number of admitted,
  /// unresolved requests (ServicePipeline::observe_pressure), wherever
  /// they sit: queued, batched, joined or running.
  std::size_t shed_depth = 64;
  std::size_t shrink_depth = 128;
  std::size_t stale_depth = 256;
  /// A level exits only once depth falls to this fraction of its entry
  /// threshold (hysteresis; one level per update step).
  double exit_fraction = 0.5;
  /// Any open breaker cell forces at least kShedBestEffort: failure
  /// pressure degrades service even before the queue backs up.
  bool breaker_escalates = true;
};

/// Maps observed pressure (backlog depth + open breaker cells) to a
/// BrownoutLevel with hysteresis. Pure function of the observation
/// sequence — no clock, no randomness — so the DES twin replays it.
class DegradationController {
 public:
  explicit DegradationController(BrownoutConfig config) : config_(config) {}
  DegradationController() : DegradationController(BrownoutConfig{}) {}

  /// Recomputes the level for the latest observation and returns it.
  BrownoutLevel update(std::size_t queue_depth,
                       std::size_t open_breaker_cells);

  BrownoutLevel level() const;

  struct Stats {
    std::uint64_t escalations = 0;  ///< level increases
    std::uint64_t recoveries = 0;   ///< level decreases
  };
  Stats stats() const;

  const BrownoutConfig& config() const noexcept { return config_; }

 private:
  std::size_t enter_depth(BrownoutLevel level) const noexcept;

  BrownoutConfig config_;
  mutable std::mutex mu_;
  BrownoutLevel level_ = BrownoutLevel::kNormal;
  Stats stats_;
};

// ---------------------------------------------------------------------------
// Chaos

/// Chaos rates applied at the executor boundary, per (job, attempt).
/// fail -> the attempt errors (worker-oom vocabulary); slow -> the
/// attempt takes slow_s longer (straggler); hang -> hang_s longer
/// (filesystem stall). Severity masks: fail > hang > slow.
struct ChaosConfig {
  bool enabled = false;
  std::uint64_t seed = 42;
  double fail_rate = 0.0;
  double slow_rate = 0.0;
  double slow_s = 0.010;
  double hang_rate = 0.0;
  double hang_s = 0.050;
};

/// One chaos verdict for an executor attempt.
struct ChaosOutcome {
  fault::FaultKind kind = fault::FaultKind::kNone;
  double delay_s = 0.0;  ///< added latency (slow / hang), 0 for fail

  bool fails() const noexcept {
    return kind == fault::FaultKind::kWorkerOomKill;
  }
  bool fired() const noexcept { return kind != fault::FaultKind::kNone; }
};

/// Order-independent chaos identity of a coalesced job: the XOR of the
/// mixed member RequestKey hashes, combined with the member count.
/// Live ticket numbering and DES job ids never enter the hash, which is
/// what lets the live service and the DES twin agree on every verdict.
/// (Two jobs carrying the same key multiset collide on purpose: they
/// are the same work, so they suffer the same chaos.)
std::uint64_t chaos_job_id(const EngineJob& job) noexcept;

/// Deterministic chaos decision point scoped EngineId::kService. Owns
/// its FaultPlan (the underlying injector keeps a pointer, so the
/// injector is non-copyable by design).
class ChaosInjector {
 public:
  explicit ChaosInjector(const ChaosConfig& config);

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  /// The verdict for attempt `attempt` of the job identified by
  /// `chaos_id` (use chaos_job_id). Pure hash: any call order, any
  /// thread, same answer.
  ChaosOutcome decide(std::uint64_t chaos_id, int attempt) const noexcept;

  bool enabled() const noexcept { return config_.enabled; }
  const ChaosConfig& config() const noexcept { return config_; }

 private:
  ChaosConfig config_;
  fault::FaultPlan plan_;
  fault::FaultInjector injector_;
};

// ---------------------------------------------------------------------------
// Aggregate

/// Everything the reliability layer adds to ServiceConfig. All defaults
/// off: a default-constructed service behaves exactly as before.
struct ReliabilityConfig {
  DeadlineConfig deadline;
  RetryConfig retry;
  HedgeConfig hedge;
  BreakerConfig breaker;
  BrownoutConfig brownout;
};

}  // namespace mdtask::service
