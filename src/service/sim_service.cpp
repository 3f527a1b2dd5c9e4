#include "mdtask/service/sim_service.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "mdtask/autoscale/metrics.h"
#include "mdtask/service/pipeline.h"
#include "mdtask/sim/simulation.h"

namespace mdtask::service {
namespace {

/// Fixed-precision virtual timestamp: canonical log lines must render
/// identically across runs and platforms.
std::string fmt_time(double t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", t);
  return buf;
}

constexpr std::size_t kMaxLogLines = 50000;

/// Per-tenant observation record (top_tenants tracking).
struct TenantTrack {
  TenantClass tenant_class = TenantClass::kBatch;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;
  std::vector<double> latencies;
};

/// Share of `judged` requests whose latency met `target_s` (1 when
/// nothing was judged).
double attainment(const std::vector<double>& latencies, double target_s,
                  std::uint64_t judged) {
  if (judged == 0) return 1.0;
  const auto within = std::count_if(latencies.begin(), latencies.end(),
                                    [&](double l) { return l <= target_s; });
  return static_cast<double>(within) / static_cast<double>(judged);
}

/// Engine-side trace process id of the DES replay.
constexpr std::uint32_t kTracePid = 40;

}  // namespace

ServiceSimReport simulate_service(const ServiceSimConfig& config) {
  ServiceSimReport report;
  const std::vector<TrafficEvent> traffic = generate_traffic(config.traffic);
  report.requests = traffic.size();

  sim::Simulation simulation;
  const std::size_t servers0 = std::max<std::size_t>(1, config.servers);
  sim::Resource pool(simulation, servers0);
  report.initial_servers = servers0;
  report.peak_servers = servers0;

  trace::Track frontend_track{};
  if (config.tracer != nullptr) {
    pool.set_trace(config.tracer, kTracePid, "server", "engine-job");
    frontend_track = config.tracer->thread(kTracePid, "frontend");
  }

  ServicePipeline pipeline(config.service);
  autoscale::MetricsWindow metrics;
  autoscale::TargetUtilizationPolicy policy(config.autoscale);

  std::array<std::vector<double>, kTenantClasses> latencies;
  /// std::map: the final top-N selection iterates in deterministic
  /// tenant-id order before sorting by volume.
  std::map<std::uint64_t, TenantTrack> tenants;

  auto log_line = [&report](std::string line) {
    if (report.log.size() < kMaxLogLines) {
      report.log.push_back(std::move(line));
    } else if (report.log.size() == kMaxLogLines) {
      report.log.push_back("(log truncated)");
    }
  };

  auto tenant_track = [&](const AnalysisRequest& request) -> TenantTrack* {
    if (config.top_tenants == 0) return nullptr;
    TenantTrack& track = tenants[request.tenant];
    track.tenant_class = request.tenant_class;
    return &track;
  };

  /// Accounts one resolution at `now`: a deadline expiry, a completion
  /// (latency sample) or an engine failure.
  auto account = [&](const Resolution& resolution, double now) {
    const AnalysisRequest& request = resolution.request;
    const auto c = static_cast<std::size_t>(request.tenant_class);
    TenantTrack* track = tenant_track(request);
    if (resolution.expired) {
      ++report.classes[c].deadline_expired;
      if (track != nullptr) ++track->missed;
      log_line("t=" + fmt_time(now) + " deadline id=" +
               std::to_string(request.id) + " class=" +
               to_string(request.tenant_class));
      return;
    }
    if (request.deadline_s > 0.0 && now > request.deadline_s) {
      report.max_deadline_overrun_s = std::max(
          report.max_deadline_overrun_s, now - request.deadline_s);
    }
    if (resolution.result.ok()) {
      const double latency = now - resolution.admitted_at_s;
      latencies[c].push_back(latency);
      ++report.classes[c].completed;
      if (track != nullptr) {
        ++track->completed;
        track->latencies.push_back(latency);
      }
    } else {
      ++report.classes[c].failed;
      if (track != nullptr) ++track->missed;
    }
  };

  auto job_cost = [&config](const EngineJob& job) {
    const double mb =
        static_cast<double>(job.total_bytes()) / (1024.0 * 1024.0);
    // start_job never yields an empty job.
    const double extra = static_cast<double>(job.requests.size() - 1);
    return config.service_base_s + config.service_per_mb_s * mb +
           config.per_request_overhead_s * extra;
  };

  std::function<void()> pump;
  std::function<void(EngineJob)> dispatch;
  std::function<void(JobPtr, int, bool)> run_attempt;

  /// Finishes one job (first completion wins) with a synthetic payload
  /// per member, or an engine failure; logs the outcome.
  auto finish = [&](const JobPtr& job, double done, bool ok, bool is_hedge) {
    Result<std::vector<ResultPayload>> result =
        Error(ErrorCode::kUnavailable, "engine job failed");
    if (ok) {
      std::vector<ResultPayload> payloads;
      for (const AnalysisRequest& request : job->job.requests) {
        payloads.push_back(ResultPayload{
            {static_cast<double>(request_key(request).params % 1024)},
            4096 + request.input_bytes / 256});
      }
      result = std::move(payloads);
    }
    const auto resolved =
        pipeline.finish_job(*job, std::move(result), done, is_hedge);
    if (!resolved) return;
    for (const Resolution& resolution : *resolved) account(resolution, done);
    log_line("t=" + fmt_time(done) + (ok ? " complete job=" : " fail job=") +
             std::to_string(job->job.job_id) + " requests=" +
             std::to_string(job->job.requests.size()));
  };

  /// One executor attempt in virtual time: the pipeline's verdicts
  /// around a pool acquisition that costs the job plus any chaos delay.
  run_attempt = [&](JobPtr job, int i, bool is_hedge) {
    const double now = simulation.now();
    const ServicePipeline::AttemptStart start =
        pipeline.begin_attempt(*job, i, is_hedge, now);
    if (!start.run) {
      if (!start.failure) return;  // sibling runner already won
      finish(job, now, /*ok=*/false, is_hedge);
      pump();
      return;
    }
    const ChaosOutcome verdict = start.chaos;
    const double cost = job_cost(job->job) + verdict.delay_s;
    pool.acquire(cost, [&, job, i, is_hedge, verdict, cost] {
      const double done = simulation.now();
      metrics.record_task_duration(cost);
      const ServicePipeline::AttemptEnd end = pipeline.end_attempt(
          *job, i, is_hedge, verdict, !verdict.fails(), done);
      if (end.event) {
        log_line("t=" + fmt_time(done) + " chaos-fail job=" +
                 std::to_string(job->job.job_id) + " attempt=" +
                 std::to_string(end.event->attempt));
        if (config.recovery_log != nullptr) {
          config.recovery_log->record(*end.event);
        }
      }
      if (end.retry) {
        simulation.after(end.backoff_s, [&, job, i, is_hedge] {
          run_attempt(job, i + 1, is_hedge);
        });
      } else {
        finish(job, done, !verdict.fails(), is_hedge);
      }
      pump();
    });
  };

  dispatch = [&](EngineJob job) {
    const double now = simulation.now();
    std::vector<Resolution> expired;
    const JobPtr started = pipeline.start_job(std::move(job), now, &expired);
    for (const Resolution& resolution : expired) account(resolution, now);
    if (started == nullptr) return;
    const EngineJob& run = started->job;
    report.batched_requests += run.requests.size();
    log_line("t=" + fmt_time(now) + " dispatch job=" +
             std::to_string(run.job_id) + " family=" +
             to_string(run.family) + " requests=" +
             std::to_string(run.requests.size()) + " bytes=" +
             std::to_string(run.total_bytes()));
    if (config.tracer != nullptr) {
      config.tracer->counter(frontend_track, "service:queue-depth",
                             now * 1e6,
                             static_cast<double>(pipeline.queued()));
    }
    if (started->hedge_at_s > 0.0) {
      simulation.at(started->hedge_at_s, [&, started] {
        if (!pipeline.launch_hedge(*started)) return;
        log_line("t=" + fmt_time(simulation.now()) + " hedge job=" +
                 std::to_string(started->job.job_id));
        run_attempt(started, 0, /*is_hedge=*/true);
      });
    }
    run_attempt(started, 0, /*is_hedge=*/false);
  };

  // Open batches flush when their delay window expires: every add that
  // leaves a batch open arms an event at the earliest deadline, and
  // each flush re-arms for the next one. due() is idempotent, so the
  // occasional duplicate event is harmless (and deterministic).
  std::function<void()> arm_flush;
  arm_flush = [&] {
    const auto deadline = pipeline.next_flush();
    if (!deadline.has_value()) return;
    const double at = std::max(*deadline, simulation.now());
    simulation.at(at, [&] {
      for (EngineJob& job : pipeline.due(simulation.now())) {
        dispatch(std::move(job));
      }
      arm_flush();
    });
  };

  pump = [&] {
    for (EngineJob& job : pipeline.flush(/*force=*/false)) {
      dispatch(std::move(job));
    }
    // One free server is reserved per open batch (it will need one at
    // its deadline); the rest of the free capacity pulls from the
    // fair-share scheduler in DRR order.
    const double now = simulation.now();
    while (pool.free_servers() > pipeline.open_batches()) {
      std::optional<ServicePipeline::Routed> routed = pipeline.route_next(now);
      if (!routed) break;
      ClassOutcome& out =
          report.classes[static_cast<std::size_t>(routed->tenant_class)];
      using Kind = ServicePipeline::Routed::Kind;
      if (routed->kind == Kind::kHit) ++out.cache_hits;
      if (routed->kind == Kind::kJoined) ++out.dedup_joins;
      if (routed->kind == Kind::kStale) {
        log_line("t=" + fmt_time(now) + " stale-serve id=" +
                 std::to_string(routed->resolution->request.id));
      }
      if (routed->resolution) account(*routed->resolution, now);
      if (routed->job) {
        dispatch(std::move(*routed->job));
      } else if (routed->kind == Kind::kBatched) {
        arm_flush();
      }
    }
  };

  for (const TrafficEvent& event : traffic) {
    simulation.at(event.arrival_s, [&, event] {
      const double now = simulation.now();
      const AnalysisRequest& request = event.request;
      const auto c = static_cast<std::size_t>(request.tenant_class);
      ++report.classes[c].requests;
      TenantTrack* track = tenant_track(request);
      if (track != nullptr) ++track->requests;
      pipeline.observe_pressure(now);
      const ServicePipeline::Admission admission =
          pipeline.admit(request, now);
      using Verdict = ServicePipeline::Verdict;
      if (admission.verdict != Verdict::kAdmitted) {
        ClassOutcome& out = report.classes[c];
        if (track != nullptr) ++track->missed;
        const std::string at = "t=" + fmt_time(now);
        const std::string id = " id=" + std::to_string(request.id);
        const std::string of_class =
            std::string(" class=") + to_string(request.tenant_class);
        if (admission.verdict == Verdict::kBrownoutShed) {
          ++out.brownout_shed;
          log_line(at + " brownout-shed" + id);
        } else if (admission.verdict == Verdict::kRejected) {
          ++out.rejected;
          log_line(at + " reject" + id + of_class);
        } else {
          ++out.circuit_rejected;
          log_line(at + " circuit-open" + id + of_class);
        }
        return;
      }
      ++report.classes[c].admitted;
      if (admission.deadline_s > 0.0) {
        // The reaper: at the deadline the request fails NOW, wherever
        // it sits (queue, open batch, joiner list, running job) — a
        // resolution later is a harmless no-op.
        simulation.at(admission.deadline_s, [&, id = request.id] {
          if (auto expired = pipeline.expire(id, simulation.now())) {
            account(*expired, simulation.now());
          }
        });
      }
      pump();
    });
  }

  const double tick_dt = std::max(1e-3, config.tick_interval_s);
  std::function<void()> tick;
  tick = [&] {
    const double now = simulation.now();
    const std::size_t size = pool.servers();
    const std::size_t free = std::min(size, pool.free_servers());
    const std::size_t depth =
        pipeline.queued() + pool.queued() + pipeline.batched();
    metrics.observe_pool(size, size - free, depth);
    const autoscale::Decision decision =
        policy.decide(metrics.snapshot(now));
    if (decision.kind == autoscale::Decision::Kind::kScaleUp &&
        decision.count > 0) {
      pool.add_servers(decision.count);
      ++report.scale_ups;
      log_line("t=" + fmt_time(now) + " scale-up +" +
               std::to_string(decision.count) + " pool=" +
               std::to_string(pool.servers()));
      pump();
    } else if (decision.kind == autoscale::Decision::Kind::kScaleDown &&
               decision.count > 0) {
      pool.remove_servers(decision.count);
      ++report.scale_downs;
      log_line("t=" + fmt_time(now) + " scale-down -" +
               std::to_string(decision.count) + " pool=" +
               std::to_string(pool.servers()));
    }
    report.peak_servers = std::max(report.peak_servers, pool.servers());
    if (config.tracer != nullptr) {
      config.tracer->counter(frontend_track, "service:pool", now * 1e6,
                             static_cast<double>(pool.servers()));
      config.tracer->counter(frontend_track, "service:queue-depth",
                             now * 1e6, static_cast<double>(depth));
    }
    const bool work_left =
        pipeline.queued() + pool.queued() + pipeline.batched() > 0 ||
        pool.free_servers() < pool.servers();
    if (now + tick_dt <= config.traffic.duration_s || work_left) {
      simulation.after(tick_dt, tick);
    }
  };
  if (config.autoscale_enabled) simulation.after(tick_dt, tick);

  report.horizon_s = simulation.run();
  report.final_servers = pool.servers();
  report.busy_time_s = pool.busy_time();
  report.stats = pipeline.stats();

  for (std::size_t c = 0; c < kTenantClasses; ++c) {
    ClassOutcome& out = report.classes[c];
    std::vector<double>& lat = latencies[c];
    out.p50_s = autoscale::duration_percentile(lat, 50.0);
    out.p95_s = autoscale::duration_percentile(lat, 95.0);
    out.p99_s = autoscale::duration_percentile(lat, 99.0);
    for (const double l : lat) out.max_s = std::max(out.max_s, l);
    out.slo_attainment = attainment(
        lat, config.slo.latency_s[c],
        out.completed + out.rejected + out.deadline_expired +
            out.circuit_rejected + out.brownout_shed + out.failed);
    report.admitted += out.admitted;
    report.rejected += out.rejected;
    report.completed += out.completed;
    report.cache_hits += out.cache_hits;
    report.dedup_joins += out.dedup_joins;
  }

  if (config.top_tenants > 0 && !tenants.empty()) {
    std::vector<std::pair<std::uint64_t, const TenantTrack*>> order;
    order.reserve(tenants.size());
    for (const auto& [tenant, track] : tenants) {
      order.emplace_back(tenant, &track);
    }
    // Volume-desc, tenant-id-asc: a deterministic top-N selection.
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) {
                if (a.second->requests != b.second->requests) {
                  return a.second->requests > b.second->requests;
                }
                return a.first < b.first;
              });
    const std::size_t n = std::min(config.top_tenants, order.size());
    report.tenants.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [tenant, track] = order[i];
      TenantOutcome out;
      out.tenant = tenant;
      out.tenant_class = track->tenant_class;
      out.requests = track->requests;
      out.completed = track->completed;
      out.missed = track->missed;
      std::vector<double> lat = track->latencies;
      out.p50_s = autoscale::duration_percentile(lat, 50.0);
      out.p95_s = autoscale::duration_percentile(lat, 95.0);
      out.p99_s = autoscale::duration_percentile(lat, 99.0);
      out.slo_attainment = attainment(
          track->latencies,
          config.slo.latency_s[static_cast<std::size_t>(track->tenant_class)],
          track->completed + track->missed);
      report.tenants.push_back(out);
    }
  }
  return report;
}

}  // namespace mdtask::service
