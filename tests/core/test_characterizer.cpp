#include "core/characterizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.hpp"
#include "mapreduce/trace_io.hpp"
#include "util/error.hpp"

namespace bvl::core {
namespace {

/// What one concurrent trace() call saw: the trace, or the type of
/// what it threw. Waiters of a failed key share one exception object,
/// and libstdc++ releases it through a reference count TSan cannot
/// see, so the threads never read its message.
struct CallOutcome {
  const mr::JobTrace* trace = nullptr;
  std::string thrown;  ///< "", "bvl::Error" or "other"
};

/// Releases `callers` threads at once, each asking `ch` for `spec`, and
/// returns what each saw. The wait is bounded: a caller still blocked
/// after two minutes means a leaked in-flight entry, and the test
/// aborts instead of hanging until the runner's timeout.
std::vector<CallOutcome> trace_concurrently(Characterizer& ch, const RunSpec& spec, int callers) {
  std::vector<CallOutcome> out(static_cast<std::size_t>(callers));
  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < callers; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      CallOutcome o;
      try {
        o.trace = &ch.trace(spec);
      } catch (const Error&) {
        o.thrown = "bvl::Error";
      } catch (...) {
        o.thrown = "other";
      }
      std::lock_guard<std::mutex> lock(mu);
      out[static_cast<std::size_t>(i)] = o;
      ++finished;
      cv.notify_all();
    });
  }
  go.store(true);
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::minutes(2), [&] { return finished == callers; })) {
      std::fprintf(stderr, "%d of %d trace() callers still blocked\n", callers - finished,
                   callers);
      std::abort();
    }
  }
  for (std::thread& t : threads) t.join();
  return out;
}

/// Runs `body` on its own thread and aborts the test binary if it has
/// not returned after two minutes: a deadlock fails fast instead of
/// hanging until the runner's timeout.
void run_bounded(const char* what, const std::function<void()>& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread t([&] {
    body();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::minutes(2), [&] { return done; })) {
      std::fprintf(stderr, "%s still blocked after two minutes\n", what);
      std::abort();
    }
  }
  t.join();
}

/// Executed bytes per trace in the pool tests: small, so each engine
/// run is quick, yet several map and reduce tasks wide.
constexpr Bytes kSmallExec = 1 * MB;

/// Four specs, one per micro-benchmark.
std::vector<RunSpec> small_specs() {
  std::vector<RunSpec> out;
  for (auto id : wl::micro_benchmarks()) {
    RunSpec s;
    s.workload = id;
    s.input_size = 64 * MB;
    out.push_back(s);
  }
  return out;
}

/// The spec's trace as a bare engine at `width` produces it.
mr::JobTrace bare_engine_trace(const RunSpec& spec, int width) {
  mr::JobConfig cfg;
  cfg.input_size = spec.input_size;
  cfg.block_size = spec.block_size;
  cfg.sim_scale = std::max(1.0, static_cast<double>(spec.input_size) / kSmallExec);
  cfg.seed = 42;
  cfg.exec_threads = width;
  auto def = wl::make_workload(spec.workload);
  return mr::Engine().run(*def, cfg);
}

TEST(Characterizer, TraceCachedAcrossOperatingPoints) {
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kWordCount;
  spec.input_size = 64 * MB;
  const mr::JobTrace& t1 = ch.trace(spec);
  spec.freq = 1.2 * GHz;   // operating point does not change the trace
  spec.mappers = 2;
  const mr::JobTrace& t2 = ch.trace(spec);
  EXPECT_EQ(&t1, &t2);

  spec.block_size = 128 * MB;  // engine-level knob: new trace
  const mr::JobTrace& t3 = ch.trace(spec);
  EXPECT_NE(&t1, &t3);
}

TEST(Characterizer, RunPairReturnsBothServers) {
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kGrep;
  spec.input_size = 64 * MB;
  auto [xeon, atom] = ch.run_pair(spec);
  EXPECT_EQ(xeon.server, "Xeon E5-2420");
  EXPECT_EQ(atom.server, "Atom C2758");
  EXPECT_EQ(xeon.workload, "Grep");
  EXPECT_LT(xeon.total_time(), atom.total_time());
}

TEST(Characterizer, SimScaleBoundsExecutedVolume) {
  // A 1 GB spec with a 16 MB execution target must finish quickly and
  // still report logical-scale counters.
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kSort;
  spec.input_size = 1 * GB;
  const mr::JobTrace& t = ch.trace(spec);
  EXPECT_NEAR(t.map_total().input_bytes, 1e9 * 1.0737, 0.1e9);  // ~1 GiB logical
  EXPECT_GT(t.config.sim_scale, 32.0);
}

TEST(Characterizer, SpecFieldsFlowIntoResult) {
  Characterizer ch;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kTeraSort;
  spec.input_size = 128 * MB;
  spec.block_size = 64 * MB;
  spec.freq = 1.4 * GHz;
  spec.mappers = 6;
  perf::RunResult r = ch.run(spec, arch::atom_c2758());
  EXPECT_EQ(r.block_size, 64 * MB);
  EXPECT_EQ(r.input_size, 128 * MB);
  EXPECT_DOUBLE_EQ(r.freq, 1.4 * GHz);
  EXPECT_EQ(r.mappers, 6);
}

TEST(Characterizer, SameNameServersArePricedAsThemselves) {
  // A 1-wide, in-order Xeon that keeps the preset's name is a different
  // server: a characterizer that already priced the stock Xeon must not
  // serve its cached pricer for it.
  arch::ServerConfig narrow = arch::xeon_e5_2420();
  narrow.core.issue_width = 1;
  narrow.core.out_of_order = false;
  RunSpec spec;
  spec.workload = wl::WorkloadId::kWordCount;
  spec.input_size = 64 * MB;
  Characterizer warm, fresh;
  const double stock = warm.run(spec, arch::xeon_e5_2420()).total_time();
  const double got = warm.run(spec, narrow).total_time();
  EXPECT_EQ(got, fresh.run(spec, narrow).total_time());
  EXPECT_GT(got, stock);
  auto event_time = [&](Characterizer& ch, const arch::ServerConfig& server) {
    return ch.event_pricer(server, sim::NicPresetId::k1GbE)
        .price(ch.trace(spec), spec.freq, spec.mappers)
        .total_time();
  };
  const double event_stock = event_time(warm, arch::xeon_e5_2420());
  const double event_got = event_time(warm, narrow);
  EXPECT_EQ(event_got, event_time(fresh, narrow));
  EXPECT_GT(event_got, event_stock);
  warm.event_pricer(arch::xeon_e5_2420(), sim::NicPresetId::k10GbE);
  EXPECT_EQ(warm.event_pricer(narrow, sim::NicPresetId::k10GbE).server(), narrow);
}

TEST(Characterizer, ConcurrentCallersShareOneCharacterization) {
  Characterizer ch;
  ch.set_exec_threads(1);
  RunSpec spec;
  spec.workload = wl::WorkloadId::kWordCount;
  spec.input_size = 64 * MB;
  for (const CallOutcome& c : trace_concurrently(ch, spec, 8)) {
    EXPECT_EQ(c.thrown, "");
    EXPECT_EQ(c.trace, &ch.trace(spec));
  }
  EXPECT_EQ(ch.engine_runs(), 1);
}

TEST(Characterizer, FailedCharacterizationReachesEveryWaiterAndRetries) {
  // Reduce task 0 dies on its only attempt, so every engine run throws,
  // and only after its map wave: late enough that the other callers
  // are waiting on the first one by then.
  Characterizer ch;
  ch.set_exec_threads(1);
  RunSpec spec;
  spec.workload = wl::WorkloadId::kWordCount;
  spec.input_size = 64 * MB;
  spec.fault.max_attempts = 1;
  spec.fault.events.push_back({mr::FaultKind::kFail, mr::TaskPhase::kReduce, 0, 0, 0.5, 4.0, 0});
  for (const CallOutcome& c : trace_concurrently(ch, spec, 8)) {
    EXPECT_EQ(c.trace, nullptr);
    EXPECT_EQ(c.thrown, "bvl::Error");
  }
  // The failure is not cached: a later call runs the engine again.
  const int runs = ch.engine_runs();
  EXPECT_GE(runs, 1);
  EXPECT_THROW(ch.trace(spec), Error);
  EXPECT_EQ(ch.engine_runs(), runs + 1);
}

TEST(Characterizer, PrefetchCharacterizesEachMissingSpecOnce) {
  Characterizer ch;
  ch.set_exec_threads(1);
  RunSpec wc;
  wc.workload = wl::WorkloadId::kWordCount;
  wc.input_size = 64 * MB;
  RunSpec gp = wc;
  gp.workload = wl::WorkloadId::kGrep;
  ch.prefetch({wc, gp, wc}, 4);
  EXPECT_EQ(ch.engine_runs(), 2);
  ch.prefetch({gp, wc}, 4);  // all in memory: nothing runs
  EXPECT_EQ(ch.engine_runs(), 2);
  EXPECT_EQ(ch.trace(wc).workload, "WordCount");
  EXPECT_EQ(ch.engine_runs(), 2);
}

TEST(Characterizer, OverlappingPrefetchesShareOnePoolAndRunEachKeyOnce) {
  // Two threads prefetch overlapping spec lists at width 4: up to four
  // characterizations in flight, every engine wave on the one pool.
  const std::vector<RunSpec> specs = small_specs();
  Characterizer ch({}, {}, kSmallExec);
  ch.set_exec_threads(4);
  const std::vector<RunSpec> first{specs[0], specs[1], specs[2]};
  const std::vector<RunSpec> second{specs[2], specs[3], specs[1], specs[0]};
  run_bounded("overlapping prefetch", [&] {
    std::thread other([&] { ch.prefetch(second, 4); });
    ch.prefetch(first, 4);
    other.join();
  });
  EXPECT_EQ(ch.engine_runs(), 4);
  for (const RunSpec& spec : specs) {
    SCOPED_TRACE(wl::short_name(spec.workload));
    EXPECT_EQ(mr::to_text(ch.trace(spec)), mr::to_text(bare_engine_trace(spec, 4)));
  }
  EXPECT_EQ(ch.engine_runs(), 4);
}

TEST(Characterizer, PrefetchFailureReachesEveryCallerAndThePoolStaysUsable) {
  // Reduce task 0 of the WordCount spec dies on its only attempt. Both
  // prefetching threads ask for it among healthy specs: each gets the
  // failure, and the healthy traces are stored all the same.
  const std::vector<RunSpec> specs = small_specs();
  RunSpec failing = specs[0];
  failing.fault.max_attempts = 1;
  failing.fault.events.push_back(
      {mr::FaultKind::kFail, mr::TaskPhase::kReduce, 0, 0, 0.5, 4.0, 0});
  Characterizer ch({}, {}, kSmallExec);
  ch.set_exec_threads(4);
  std::string first_saw, second_saw;
  auto prefetch = [&ch](const std::vector<RunSpec>& list, std::string& saw) {
    try {
      ch.prefetch(list, 4);
      saw = "none";
    } catch (const Error&) {
      saw = "bvl::Error";
    } catch (...) {
      saw = "other";
    }
  };
  run_bounded("failing prefetch", [&] {
    std::thread other([&] { prefetch({failing, specs[1]}, second_saw); });
    prefetch({specs[2], failing, specs[3]}, first_saw);
    other.join();
  });
  EXPECT_EQ(first_saw, "bvl::Error");
  EXPECT_EQ(second_saw, "bvl::Error");
  const int runs = ch.engine_runs();
  for (int i : {1, 2, 3}) ch.trace(specs[static_cast<std::size_t>(i)]);
  EXPECT_EQ(ch.engine_runs(), runs);  // the healthy specs were stored
  ch.prefetch({specs[0]}, 4);         // the pool still runs engines
  EXPECT_EQ(mr::to_text(ch.trace(specs[0])), mr::to_text(bare_engine_trace(specs[0], 4)));
}

TEST(Characterizer, TraceFromAPoolTaskRunsInline) {
  // Both workers of a 2-wide pool run a task that needs a missing
  // trace. Had the engine queued its waves on that pool, no worker
  // would be free to run them; it runs them on the calling worker
  // instead. A prefetch from a pool task starts no driver either.
  const std::vector<RunSpec> specs = small_specs();
  Characterizer ch({}, {}, kSmallExec);
  ch.set_exec_threads(2);
  run_bounded("trace from a pool task", [&] {
    ch.run_on_pool(2, [&](std::size_t i) { ch.trace(specs[i]); });
    ch.run_on_pool(2, [&](std::size_t i) { ch.prefetch({specs[i + 2], specs[3 - i]}, 4); });
  });
  EXPECT_EQ(ch.engine_runs(), 4);
  for (const RunSpec& spec : specs)
    EXPECT_EQ(mr::to_text(ch.trace(spec)), mr::to_text(bare_engine_trace(spec, 2)));
}

TEST(Characterizer, BareEngineRunsOnAPoolOfItsOwn) {
  // An engine constructed without a pool runs its waves on one of its
  // own, and its trace is the characterizer's, which shares a pool.
  const RunSpec spec = small_specs()[1];
  const mr::JobTrace wide = bare_engine_trace(spec, 4);
  EXPECT_EQ(wide.exec_threads_used, 4);
  EXPECT_EQ(mr::to_text(wide), mr::to_text(bare_engine_trace(spec, 1)));
  Characterizer ch({}, {}, kSmallExec);
  ch.set_exec_threads(4);
  EXPECT_EQ(mr::to_text(ch.trace(spec)), mr::to_text(wide));
}

TEST(Characterizer, RejectsTinyExecutionTarget) {
  EXPECT_THROW(Characterizer({}, {}, 1 * KB), Error);
}

TEST(Classifier, PaperTaxonomyReproduced) {
  // Table 2 / Sec. 3.5: WC, NB, FP compute-bound; ST I/O; GP, TS hybrid.
  Characterizer ch;
  EXPECT_EQ(classify_workload(ch, wl::WorkloadId::kWordCount), AppClass::kComputeBound);
  EXPECT_EQ(classify_workload(ch, wl::WorkloadId::kNaiveBayes), AppClass::kComputeBound);
  EXPECT_EQ(classify_workload(ch, wl::WorkloadId::kFpGrowth), AppClass::kComputeBound);
  EXPECT_EQ(classify_workload(ch, wl::WorkloadId::kSort), AppClass::kIoBound);
  EXPECT_EQ(classify_workload(ch, wl::WorkloadId::kGrep), AppClass::kHybrid);
  EXPECT_EQ(classify_workload(ch, wl::WorkloadId::kTeraSort), AppClass::kHybrid);
}

TEST(Classifier, ToStringCoversAllClasses) {
  EXPECT_EQ(to_string(AppClass::kComputeBound), "compute-bound");
  EXPECT_EQ(to_string(AppClass::kIoBound), "io-bound");
  EXPECT_EQ(to_string(AppClass::kHybrid), "hybrid");
}

TEST(Classifier, RejectsEmptyRun) {
  perf::RunResult empty;
  EXPECT_THROW(classify(empty), Error);
}

}  // namespace
}  // namespace bvl::core
