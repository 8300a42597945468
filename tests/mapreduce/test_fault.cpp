// Fault-tolerance unit and scenario tests: the FaultSchedule oracle,
// the engine's bounded-retry and speculative-execution machinery, and
// the perf overlay's pricing of wasted work and stragglers.
//
// The two hard invariants (also guarded by tests/golden and the
// randomized suite in test_fault_props.cpp):
//  * inactive plan  ⇒ trace bit-identical to the fault-free engine;
//  * active plan    ⇒ final job output byte-identical to the
//    fault-free run (tasks are deterministic, retries re-execute the
//    same split, losers' partial output is discarded).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/engine.hpp"
#include "mapreduce/fault.hpp"
#include "mapreduce/trace_io.hpp"
#include "perf/perf_model.hpp"
#include "util/error.hpp"
#include "workloads/registry.hpp"

namespace bvl::mr {
namespace {

JobConfig fault_config() {
  JobConfig cfg;
  cfg.input_size = 8 * MB;
  cfg.block_size = 2 * MB;  // 4 map tasks
  cfg.spill_buffer = 1 * MB;
  cfg.sim_scale = 1.0;
  return cfg;
}

std::vector<KV> run_collect(Engine& e, wl::WorkloadId id, const JobConfig& cfg, JobTrace* out) {
  auto def = wl::make_workload(id);
  std::vector<KV> sink;
  JobTrace t = e.run(*def, cfg, [&](const KV& kv) { sink.push_back(kv); });
  if (out) *out = std::move(t);
  return sink;
}

void expect_same_output(const std::vector<KV>& a, const std::vector<KV>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "record " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "record " << i;
  }
}

// ---- FaultSchedule oracle ----

TEST(FaultSchedule, InactivePlanIsAlwaysClean) {
  FaultSchedule s{FaultPlan{}};
  EXPECT_FALSE(s.active());
  for (int a = 0; a < 4; ++a) {
    AttemptOutcome o = s.outcome(TaskPhase::kMap, 7, a);
    EXPECT_FALSE(o.failed);
    EXPECT_DOUBLE_EQ(o.slowdown, 1.0);
  }
  TaskFaultLog log = s.run_attempts(TaskPhase::kReduce, 3);
  EXPECT_EQ(log.attempts, 1);
  EXPECT_DOUBLE_EQ(log.time_factor, 1.0);
  EXPECT_DOUBLE_EQ(log.wasted_fraction, 0.0);
}

TEST(FaultSchedule, OutcomeIsPureFunctionOfCoordinates) {
  FaultPlan plan;
  plan.seed = 99;
  plan.fail_prob = 0.3;
  plan.straggler_prob = 0.3;
  FaultSchedule s1{plan}, s2{plan};
  bool saw_fail = false, saw_slow = false;
  for (std::size_t t = 0; t < 64; ++t) {
    for (int a = 0; a < 4; ++a) {
      AttemptOutcome x = s1.outcome(TaskPhase::kMap, t, a);
      AttemptOutcome y = s2.outcome(TaskPhase::kMap, t, a);
      EXPECT_EQ(x.failed, y.failed);
      EXPECT_DOUBLE_EQ(x.fail_fraction, y.fail_fraction);
      EXPECT_DOUBLE_EQ(x.slowdown, y.slowdown);
      saw_fail = saw_fail || x.failed;
      saw_slow = saw_slow || x.slowdown > 1.0;
    }
  }
  EXPECT_TRUE(saw_fail);  // 256 draws at p=0.3 miss with prob ~1e-40
  EXPECT_TRUE(saw_slow);
}

TEST(FaultSchedule, TargetedEventsOverrideBackground) {
  FaultPlan plan;
  plan.events.push_back({FaultKind::kFail, TaskPhase::kMap, 2, 0, 0.25, 4.0, 0});
  plan.events.push_back({FaultKind::kSlowdown, TaskPhase::kReduce, 1, 0, 0.5, 6.0, 0});
  FaultSchedule s{plan};
  EXPECT_TRUE(s.active());

  AttemptOutcome fail = s.outcome(TaskPhase::kMap, 2, 0);
  EXPECT_TRUE(fail.failed);
  EXPECT_DOUBLE_EQ(fail.fail_fraction, 0.25);
  EXPECT_FALSE(s.outcome(TaskPhase::kMap, 2, 1).failed);  // retry is clean
  EXPECT_FALSE(s.outcome(TaskPhase::kMap, 1, 0).failed);  // other tasks untouched
  EXPECT_FALSE(s.outcome(TaskPhase::kReduce, 2, 0).failed);  // other phase untouched

  EXPECT_DOUBLE_EQ(s.outcome(TaskPhase::kReduce, 1, 0).slowdown, 6.0);
  EXPECT_DOUBLE_EQ(s.outcome(TaskPhase::kReduce, 0, 0).slowdown, 1.0);
}

TEST(FaultSchedule, NodeLossKillsEveryTaskOnTheNode) {
  FaultPlan plan;
  plan.nodes = 3;
  FaultEvent loss;
  loss.kind = FaultKind::kNodeLoss;
  loss.phase = TaskPhase::kMap;
  loss.attempt = 0;
  loss.node = 1;
  loss.fraction = 0.5;
  plan.events.push_back(loss);
  FaultSchedule s{plan};
  for (std::size_t t = 0; t < 9; ++t) {
    EXPECT_EQ(s.outcome(TaskPhase::kMap, t, 0).failed, t % 3 == 1) << "task " << t;
    EXPECT_FALSE(s.outcome(TaskPhase::kMap, t, 1).failed) << "task " << t;
  }
}

TEST(FaultSchedule, ExponentialBackoffAndRetryAccounting) {
  FaultPlan plan;
  plan.backoff_base_s = 2.0;
  plan.events.push_back({FaultKind::kFail, TaskPhase::kMap, 0, 0, 0.5, 4.0, 0});
  plan.events.push_back({FaultKind::kFail, TaskPhase::kMap, 0, 1, 0.25, 4.0, 0});
  FaultSchedule s{plan};
  EXPECT_DOUBLE_EQ(s.backoff_s(1), 2.0);
  EXPECT_DOUBLE_EQ(s.backoff_s(2), 4.0);
  EXPECT_DOUBLE_EQ(s.backoff_s(3), 8.0);

  TaskFaultLog log = s.run_attempts(TaskPhase::kMap, 0);
  EXPECT_EQ(log.attempts, 3);
  EXPECT_DOUBLE_EQ(log.wasted_fraction, 0.75);
  EXPECT_DOUBLE_EQ(log.backoff_s, 6.0);           // 2 + 4
  EXPECT_DOUBLE_EQ(log.time_factor, 1.75);        // two dead fractions + clean attempt
}

TEST(FaultSchedule, ExhaustedAttemptBudgetFailsTheJob) {
  FaultPlan plan;
  plan.max_attempts = 2;
  plan.events.push_back({FaultKind::kFail, TaskPhase::kMap, 0, 0, 0.5, 4.0, 0});
  plan.events.push_back({FaultKind::kFail, TaskPhase::kMap, 0, 1, 0.5, 4.0, 0});
  FaultSchedule s{plan};
  EXPECT_THROW(s.run_attempts(TaskPhase::kMap, 0), Error);
}

TEST(FaultSchedule, SpeculationFirstFinisherWins) {
  FaultPlan plan;
  plan.speculative = true;
  plan.events.push_back({FaultKind::kSlowdown, TaskPhase::kMap, 0, 0, 0.5, 6.0, 0});
  FaultSchedule s{plan};

  std::vector<TaskFaultLog> logs(4);
  for (std::size_t i = 0; i < logs.size(); ++i) logs[i] = s.run_attempts(TaskPhase::kMap, i);
  EXPECT_DOUBLE_EQ(logs[0].time_factor, 6.0);

  s.resolve_speculation(TaskPhase::kMap, logs);
  // Backup launches at the wave median (1.0), finishes at 2.0 — it
  // wins against the 6x straggler; the killed original wasted 2/6 of
  // a full attempt.
  EXPECT_TRUE(logs[0].speculated);
  EXPECT_EQ(logs[0].attempts, 2);
  EXPECT_DOUBLE_EQ(logs[0].time_factor, 2.0);
  EXPECT_NEAR(logs[0].wasted_fraction, 2.0 / 6.0, 1e-12);
  // Healthy peers are untouched.
  for (std::size_t i = 1; i < logs.size(); ++i) {
    EXPECT_FALSE(logs[i].speculated);
    EXPECT_DOUBLE_EQ(logs[i].time_factor, 1.0);
  }

  // With speculation disabled the straggler runs to completion.
  plan.speculative = false;
  FaultSchedule nospec{plan};
  std::vector<TaskFaultLog> raw(4);
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = nospec.run_attempts(TaskPhase::kMap, i);
  nospec.resolve_speculation(TaskPhase::kMap, raw);
  EXPECT_FALSE(raw[0].speculated);
  EXPECT_DOUBLE_EQ(raw[0].time_factor, 6.0);
}

TEST(FaultSchedule, RejectsInvalidPlans) {
  FaultPlan bad;
  bad.fail_prob = 1.5;
  EXPECT_THROW(FaultSchedule{bad}, Error);
  bad = {};
  bad.max_attempts = 0;
  EXPECT_THROW(FaultSchedule{bad}, Error);
  bad = {};
  bad.straggler_factor = 0.5;
  EXPECT_THROW(FaultSchedule{bad}, Error);
  bad = {};
  bad.events.push_back({FaultKind::kFail, TaskPhase::kMap, 0, 0, 1.5, 4.0, 0});
  EXPECT_THROW(FaultSchedule{bad}, Error);
  bad = {};
  bad.nodes = 3;
  bad.events.push_back({FaultKind::kNodeLoss, TaskPhase::kMap, 0, 0, 0.5, 4.0, 5});
  EXPECT_THROW(FaultSchedule{bad}, Error);
}

// ---- Engine integration ----

TEST(EngineFault, RetriedTaskProducesIdenticalJobOutput) {
  Engine e;
  JobConfig clean_cfg = fault_config();
  JobTrace clean_trace;
  auto clean_out = run_collect(e, wl::WorkloadId::kWordCount, clean_cfg, &clean_trace);

  JobConfig cfg = fault_config();
  cfg.fault.events.push_back({FaultKind::kFail, TaskPhase::kMap, 1, 0, 0.4, 4.0, 0});
  cfg.fault.events.push_back({FaultKind::kFail, TaskPhase::kReduce, 2, 0, 0.6, 4.0, 0});
  JobTrace t;
  auto fault_out = run_collect(e, wl::WorkloadId::kWordCount, cfg, &t);

  expect_same_output(clean_out, fault_out);

  EXPECT_EQ(t.map_tasks[1].attempts, 2);
  EXPECT_GT(t.map_tasks[1].wasted.input_records, 0);
  EXPECT_DOUBLE_EQ(t.map_tasks[1].backoff_s, cfg.fault.backoff_base_s);
  EXPECT_DOUBLE_EQ(t.map_tasks[1].time_factor, 1.4);
  EXPECT_EQ(t.reduce_tasks[2].attempts, 2);
  EXPECT_EQ(t.map_tasks[0].attempts, 1);
  EXPECT_EQ(t.total_attempts(), static_cast<int>(t.map_tasks.size() + t.reduce_tasks.size()) + 2);

  // The committed counters are unaffected by the retries.
  for (std::size_t i = 0; i < t.map_tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(t.map_tasks[i].counters.emits, clean_trace.map_tasks[i].counters.emits);
    EXPECT_DOUBLE_EQ(t.map_tasks[i].counters.input_bytes,
                     clean_trace.map_tasks[i].counters.input_bytes);
  }

  // Wasted work is the dead attempt's fraction of the committed task.
  EXPECT_NEAR(t.map_tasks[1].wasted.input_bytes, 0.4 * t.map_tasks[1].counters.input_bytes, 1e-6);
  for (const auto* tasks : {&clean_trace.map_tasks, &clean_trace.reduce_tasks}) {
    for (const TaskTrace& task : *tasks) EXPECT_DOUBLE_EQ(task.wasted.input_bytes, 0);
  }
}

TEST(EngineFault, ExhaustedRetriesFailTheJobDeterministically) {
  Engine e;
  JobConfig cfg = fault_config();
  cfg.fault.max_attempts = 2;
  cfg.fault.events.push_back({FaultKind::kFail, TaskPhase::kMap, 0, 0, 0.5, 4.0, 0});
  cfg.fault.events.push_back({FaultKind::kFail, TaskPhase::kMap, 0, 1, 0.5, 4.0, 0});
  for (int threads : {1, 4}) {
    cfg.exec_threads = threads;
    auto def = wl::make_workload(wl::WorkloadId::kWordCount);
    EXPECT_THROW(e.run(*def, cfg), Error) << "exec_threads=" << threads;
  }
}

TEST(EngineFault, NodeLossRetriesEveryTaskOnTheNode) {
  Engine e;
  JobConfig cfg = fault_config();
  cfg.fault.nodes = 3;
  FaultEvent loss;
  loss.kind = FaultKind::kNodeLoss;
  loss.phase = TaskPhase::kMap;
  loss.node = 0;
  cfg.fault.events.push_back(loss);
  JobTrace t;
  auto out = run_collect(e, wl::WorkloadId::kWordCount, cfg, &t);

  JobConfig clean_cfg = fault_config();
  auto clean_out = run_collect(e, wl::WorkloadId::kWordCount, clean_cfg, nullptr);
  expect_same_output(clean_out, out);

  ASSERT_EQ(t.map_tasks.size(), 4u);
  EXPECT_EQ(t.map_tasks[0].attempts, 2);  // tasks 0 and 3 live on node 0
  EXPECT_EQ(t.map_tasks[1].attempts, 1);
  EXPECT_EQ(t.map_tasks[2].attempts, 1);
  EXPECT_EQ(t.map_tasks[3].attempts, 2);
}

TEST(EngineFault, SpeculativeBackupBeatsStragglerAndPreservesOutput) {
  Engine e;
  JobConfig clean_cfg = fault_config();
  auto clean_out = run_collect(e, wl::WorkloadId::kWordCount, clean_cfg, nullptr);

  JobConfig cfg = fault_config();
  cfg.fault.events.push_back({FaultKind::kSlowdown, TaskPhase::kMap, 2, 0, 0.5, 8.0, 0});
  JobTrace spec;
  auto spec_out = run_collect(e, wl::WorkloadId::kWordCount, cfg, &spec);
  expect_same_output(clean_out, spec_out);

  EXPECT_TRUE(spec.map_tasks[2].speculated);
  EXPECT_EQ(spec.map_tasks[2].attempts, 2);
  EXPECT_DOUBLE_EQ(spec.map_tasks[2].time_factor, 2.0);  // launch at median 1.0 + clean backup
  EXPECT_GT(spec.map_tasks[2].wasted.compares, 0);
  EXPECT_EQ(spec.speculative_backups(), 1);

  cfg.fault.speculative = false;
  JobTrace nospec;
  auto nospec_out = run_collect(e, wl::WorkloadId::kWordCount, cfg, &nospec);
  expect_same_output(clean_out, nospec_out);
  EXPECT_FALSE(nospec.map_tasks[2].speculated);
  EXPECT_DOUBLE_EQ(nospec.map_tasks[2].time_factor, 8.0);
  EXPECT_EQ(nospec.speculative_backups(), 0);
}

TEST(EngineFault, InactivePlanLeavesTraceBitIdentical) {
  Engine e;
  auto a = wl::make_workload(wl::WorkloadId::kTeraSort);
  auto b = wl::make_workload(wl::WorkloadId::kTeraSort);
  JobConfig cfg = fault_config();
  std::string clean = to_text(e.run(*a, cfg));
  cfg.fault = FaultPlan{};  // explicitly default
  EXPECT_EQ(first_divergence(clean, to_text(e.run(*b, cfg))), "");
}

// ---- Perf overlay pricing ----

TEST(PerfFault, SpeculationReducesModeledCompletionTimeVsRetryOnly) {
  Engine e;
  perf::PerfModel model(arch::atom_c2758());

  JobConfig cfg = fault_config();
  cfg.fault.events.push_back({FaultKind::kSlowdown, TaskPhase::kMap, 2, 0, 0.5, 8.0, 0});

  auto spec_def = wl::make_workload(wl::WorkloadId::kWordCount);
  JobTrace spec = e.run(*spec_def, cfg);
  cfg.fault.speculative = false;
  auto nospec_def = wl::make_workload(wl::WorkloadId::kWordCount);
  JobTrace nospec = e.run(*nospec_def, cfg);

  JobConfig clean_cfg = fault_config();
  auto clean_def = wl::make_workload(wl::WorkloadId::kWordCount);
  JobTrace clean = e.run(*clean_def, clean_cfg);

  const Hertz f = 1.8 * GHz;
  Seconds t_clean = model.price(clean, f).total_time();
  Seconds t_spec = model.price(spec, f).total_time();
  Seconds t_nospec = model.price(nospec, f).total_time();

  EXPECT_GT(t_nospec, t_clean);  // the straggler costs time
  EXPECT_GT(t_spec, t_clean);    // recovery is not free either
  EXPECT_LT(t_spec, t_nospec);   // but speculation beats waiting it out
}

TEST(PerfFault, FailuresCostTimeAndEnergy) {
  Engine e;
  perf::PerfModel model(arch::xeon_e5_2420());

  JobConfig cfg = fault_config();
  auto clean_def = wl::make_workload(wl::WorkloadId::kTeraSort);
  JobTrace clean = e.run(*clean_def, cfg);

  cfg.fault.fail_prob = 0.25;
  cfg.fault.seed = 7;
  auto faulty_def = wl::make_workload(wl::WorkloadId::kTeraSort);
  JobTrace faulty = e.run(*faulty_def, cfg);
  ASSERT_GT(faulty.total_attempts(),
            static_cast<int>(faulty.map_tasks.size() + faulty.reduce_tasks.size()));

  const Hertz f = 1.8 * GHz;
  perf::RunResult rc = model.price(clean, f);
  perf::RunResult rf = model.price(faulty, f);
  EXPECT_GT(rf.total_time(), rc.total_time());
  EXPECT_GT(rf.total_energy(), rc.total_energy());
}

}  // namespace
}  // namespace bvl::mr
