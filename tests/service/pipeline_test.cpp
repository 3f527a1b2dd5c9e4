// Step-level tests of the ServicePipeline state machine: the decisions
// both drivers share, exercised with hand-picked clocks and no threads.
#include "mdtask/service/pipeline.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace mdtask::service {
namespace {

AnalysisRequest make_request(std::uint64_t id, const char* stride,
                             double budget_s) {
  AnalysisRequest request;
  request.id = id;
  request.tenant = id;
  request.family = AnalysisFamily::kPsa;
  request.store_fingerprint = 7;
  request.params = {{"stride", stride}};
  request.input_bytes = 4096;
  request.deadline_s = budget_s;
  return request;
}

ServiceConfig deadline_config() {
  ServiceConfig config;
  config.batch.max_batch = 64;
  config.batch.max_delay_s = 3600.0;
  config.reliability.deadline.enabled = true;
  return config;
}

/// Admits and routes `request` at `now`; it must land in an open batch.
void admit_and_batch(ServicePipeline& pipeline, AnalysisRequest request,
                     double now) {
  ASSERT_EQ(pipeline.admit(std::move(request), now).verdict,
            ServicePipeline::Verdict::kAdmitted);
  const auto routed = pipeline.route_next(now);
  ASSERT_TRUE(routed.has_value());
  ASSERT_EQ(routed->kind, ServicePipeline::Routed::Kind::kBatched);
  ASSERT_FALSE(routed->job.has_value());
}

TEST(ServicePipelineTest, StripSetsTheJobDeadlineFromTheSurvivors) {
  ServicePipeline pipeline(deadline_config());
  admit_and_batch(pipeline, make_request(1, "1", 0.05), 0.0);
  admit_and_batch(pipeline, make_request(2, "2", 10.0), 0.0);
  // The window never outwaits a member deadline: the batch is due at
  // 0.05 and carries both members with A's deadline.
  std::vector<EngineJob> due = pipeline.due(0.05);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_DOUBLE_EQ(due[0].deadline_s, 0.05);

  std::vector<Resolution> expired;
  const JobPtr job = pipeline.start_job(std::move(due[0]), 0.05, &expired);
  ASSERT_NE(job, nullptr);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request.id, 1u);
  EXPECT_TRUE(expired[0].expired);
  ASSERT_EQ(job->job.requests.size(), 1u);
  EXPECT_DOUBLE_EQ(job->job.deadline_s, 10.0);
  EXPECT_TRUE(pipeline.begin_attempt(*job, 0, false, 0.05).run);
}

TEST(ServicePipelineTest, ReapedJoinerNoLongerKeepsAMemberAlive) {
  ServicePipeline pipeline(deadline_config());
  admit_and_batch(pipeline, make_request(1, "1", 0.2), 0.0);
  // Same key: the second request joins the first one's computation.
  ASSERT_EQ(pipeline.admit(make_request(2, "1", 0.1), 0.0).verdict,
            ServicePipeline::Verdict::kAdmitted);
  ASSERT_EQ(pipeline.route_next(0.0)->kind,
            ServicePipeline::Routed::Kind::kJoined);

  ASSERT_TRUE(pipeline.expire(2, 0.1).has_value());
  ASSERT_TRUE(pipeline.expire(1, 0.2).has_value());
  EXPECT_FALSE(pipeline.expire(1, 0.2).has_value());  // resolves once
  std::vector<EngineJob> due = pipeline.due(0.2);
  ASSERT_EQ(due.size(), 1u);
  std::vector<Resolution> expired;
  // Owner and joiner are both gone: nobody can use the answer.
  EXPECT_EQ(pipeline.start_job(std::move(due[0]), 0.2, &expired), nullptr);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(pipeline.outstanding(), 0u);
  EXPECT_EQ(pipeline.stats().deadline_expired, 2u);
  EXPECT_EQ(pipeline.stats().engine_jobs, 0u);
}

TEST(ServicePipelineTest, FirstCompletionWinsAndResolvesJoiners) {
  ServiceConfig config;
  config.batch.enabled = false;
  config.reliability.retry.enabled = true;
  config.reliability.retry.policy.max_attempts = 2;
  config.reliability.hedge.enabled = true;
  config.reliability.hedge.min_samples = 1;
  ServicePipeline pipeline(config);
  std::vector<Resolution> expired;
  /// Admits, routes and starts request `id` (batching is off).
  auto start = [&](std::uint64_t id, const char* stride, double now) {
    EXPECT_EQ(pipeline.admit(make_request(id, stride, 0.0), now).verdict,
              ServicePipeline::Verdict::kAdmitted);
    auto routed = pipeline.route_next(now);
    EXPECT_TRUE(routed.has_value() && routed->job.has_value());
    return pipeline.start_job(std::move(*routed->job), now, &expired);
  };
  // One 100 ms job seeds the latency window: later jobs hedge at 2 x p95.
  const JobPtr warmup = start(1, "0", 0.0);
  std::vector<ResultPayload> one{ResultPayload{{1.0}, 0}};
  ASSERT_TRUE(
      pipeline.finish_job(*warmup, std::move(one), 0.1, false).has_value());
  const JobPtr job = start(2, "1", 0.1);
  ASSERT_NE(job, nullptr);
  EXPECT_DOUBLE_EQ(job->hedge_at_s, 0.1 + 2.0 * 0.1);
  // Same key: the next request joins the running job.
  ASSERT_EQ(pipeline.admit(make_request(3, "1", 0.0), 0.1).verdict,
            ServicePipeline::Verdict::kAdmitted);
  ASSERT_EQ(pipeline.route_next(0.1)->kind,
            ServicePipeline::Routed::Kind::kJoined);

  // A failed attempt with budget left retries; the hedge wins first.
  const auto end = pipeline.end_attempt(*job, 0, false, {}, false, 0.2);
  EXPECT_TRUE(end.retry);
  EXPECT_FALSE(end.event.has_value());  // not a chaos failure
  EXPECT_TRUE(pipeline.timer_step(0.2).hedges.empty());
  ASSERT_EQ(pipeline.timer_step(0.31).hedges.size(), 1u);
  EXPECT_FALSE(pipeline.launch_hedge(*job));  // one hedge per job
  const auto won = pipeline.finish_job(
      *job, std::vector<ResultPayload>{ResultPayload{{42.0}, 0}}, 0.4,
      /*is_hedge=*/true);
  ASSERT_TRUE(won.has_value());
  ASSERT_EQ(won->size(), 2u);  // owner and joiner
  for (const Resolution& resolution : *won) {
    ASSERT_TRUE(resolution.result.ok());
    EXPECT_DOUBLE_EQ(resolution.result.value()->values.at(0), 42.0);
  }
  // The primary's late retry stops, and its result is dropped.
  EXPECT_FALSE(pipeline.begin_attempt(*job, 1, false, 0.5).run);
  EXPECT_FALSE(pipeline.begin_attempt(*job, 1, false, 0.5).failure);
  EXPECT_FALSE(pipeline.finish_job(*job, Error(ErrorCode::kIoError, "late"),
                                   0.5, false)
                   .has_value());
  const ServiceStats stats = pipeline.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.hedges, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(pipeline.outstanding(), 0u);
  EXPECT_TRUE(expired.empty());
}

}  // namespace
}  // namespace mdtask::service
