// EventQueue microbench: push/pop/cancel cost at service-simulation
// scale (>= 1M pending events), against the pre-rewrite baseline.
//
// The baseline embedded below is the repo's previous kernel queue — a
// binary heap via std::push_heap/pop_heap with no cancellation; its
// "cancel" is the obvious retrofit (linear scan + erase + re-heapify),
// which is exactly why the production queue went lazy instead. The
// production numbers come from the real sim::EventQueue (4-ary heap of
// compact keys over a callback slot store, lazy deletion, compaction;
// see src/sim/event_queue.hpp).
//
// usage: bench_event_queue [--events N] [--json PATH]
// The committed BENCH_service.json ledger is regenerated with:
//   ./build/bench/bench_event_queue --json BENCH_service.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace bvl::sim {
namespace {

/// The seed kernel queue, verbatim shape: binary heap through the
/// std::*_heap algorithms, eager semantics, cancel by linear erase.
class BaselineQueue {
 public:
  void push(Seconds time, std::function<void()> fn) {
    heap_.push_back(Entry{time, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  void run_next(SimClock& clock) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    clock.advance_to(e.time);
    e.fn();
  }
  /// Eager cancellation, the way a heap without deletion support has
  /// to do it: find the entry, erase it, restore the heap property.
  bool cancel(std::uint64_t seq) {
    for (auto it = heap_.begin(); it != heap_.end(); ++it) {
      if (it->seq == seq) {
        heap_.erase(it);
        std::make_heap(heap_.begin(), heap_.end(), later);
        return true;
      }
    }
    return false;
  }

 private:
  struct Entry {
    Seconds time = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  static bool later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

double ns_per_op(std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1, std::size_t ops) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(ops);
}

struct Row {
  std::string bench;
  double ns = 0;
  std::size_t ops = 0;
};

std::vector<Seconds> random_times(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 0xbe7c4);
  std::vector<Seconds> t(n);
  for (auto& x : t) x = rng.next_double() * 1e6;
  return t;
}

/// Production queue at `n` pending: amortized push, pop and cancel.
std::vector<Row> bench_production(std::size_t n) {
  using clk = std::chrono::steady_clock;
  std::vector<Row> rows;
  auto times = random_times(n, 1);

  EventQueue q;
  auto t0 = clk::now();
  for (std::size_t i = 0; i < n; ++i) q.push(times[i], [] {});
  auto t1 = clk::now();
  require(q.size() == n, "bench: push lost events");
  rows.push_back({"push@1M", ns_per_op(t0, t1, n), n});

  // Cancel half the pending set, uniformly, while the other half
  // stays live — the service-sim pattern (timeouts and speculative
  // work retired before firing).
  Pcg32 rng(9, 9);
  std::vector<EventId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<EventId>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.uniform(0, i - 1)]);
  std::size_t ncancel = n / 2;
  t0 = clk::now();
  for (std::size_t i = 0; i < ncancel; ++i) q.cancel(ids[i]);
  t1 = clk::now();
  require(q.size() == n - ncancel, "bench: cancel miscounted");
  rows.push_back({"cancel@1M", ns_per_op(t0, t1, ncancel), ncancel});

  SimClock clock;
  std::size_t left = q.size();
  t0 = clk::now();
  while (!q.empty()) q.run_next(clock);
  t1 = clk::now();
  rows.push_back({"pop@1M", ns_per_op(t0, t1, left), left});
  return rows;
}

/// Baseline queue: same push/pop protocol; cancel is O(n) per call, so
/// it runs a small sample and reports the per-op cost honestly.
std::vector<Row> bench_baseline(std::size_t n) {
  using clk = std::chrono::steady_clock;
  std::vector<Row> rows;
  auto times = random_times(n, 1);

  BaselineQueue q;
  auto t0 = clk::now();
  for (std::size_t i = 0; i < n; ++i) q.push(times[i], [] {});
  auto t1 = clk::now();
  rows.push_back({"push@1M", ns_per_op(t0, t1, n), n});

  Pcg32 rng(9, 9);
  const std::size_t ncancel = 64;  // O(n) each: a real half-million sweep would take hours
  t0 = clk::now();
  for (std::size_t i = 0; i < ncancel; ++i) {
    q.cancel(rng.uniform(0, n - 1));
  }
  t1 = clk::now();
  rows.push_back({"cancel@1M", ns_per_op(t0, t1, ncancel), ncancel});

  SimClock clock;
  std::size_t left = q.size();
  t0 = clk::now();
  while (!q.empty()) q.run_next(clock);
  t1 = clk::now();
  rows.push_back({"pop@1M", ns_per_op(t0, t1, left), left});
  return rows;
}

void print_rows(const char* variant, const std::vector<Row>& rows) {
  std::printf("%s\n", variant);
  for (const auto& r : rows) {
    std::printf("  %-12s %12.1f ns/op  (%zu ops)\n", r.bench.c_str(), r.ns, r.ops);
  }
}

bool write_ledger(const std::string& path, std::size_t n, const std::vector<Row>& before,
                  const std::vector<Row>& after) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto emit = [&](const char* variant, const std::vector<Row>& rows) {
    std::fprintf(f, "    \"variant\": \"%s\",\n", variant);
    std::fprintf(f, "    \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f, "      {\"bench\": \"%s\", \"ns_per_op\": %.1f, \"ops\": %zu}%s\n",
                   rows[i].bench.c_str(), rows[i].ns, rows[i].ops,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"binary\": \"bench/bench_event_queue\",\n");
  std::fprintf(f, "  \"flags\": \"--events %zu\",\n", n);
  std::fprintf(f, "  \"note\": \"EventQueue at service-simulation scale: %zu pending events. "
                  "'before' is the pre-rewrite binary heap (std::push_heap/pop_heap, cancel by "
                  "linear erase + make_heap, sampled at 64 ops because it is O(n) per call); "
                  "'after' is the production 4-ary lazy-deletion queue of 24-byte keys over a "
                  "callback slot store (src/sim/event_queue.hpp). Regenerate: "
                  "./build/bench/bench_event_queue "
                  "--json BENCH_service.json\",\n", n);
  std::fprintf(f, "  \"before\": {\n");
  emit("binary heap, eager cancel (seed kernel + naive cancel retrofit)", before);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"after\": {\n");
  emit("4-ary heap of (time, seq, slot) keys, callback slot store, lazy deletion + compaction",
       after);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

}  // namespace
}  // namespace bvl::sim

int main(int argc, char** argv) {
  using namespace bvl::sim;
  std::size_t n = 1u << 20;  // >= 1M pending events
  std::string json;
  // `--flag VALUE` / `--flag=VALUE` via string_util::match_flag, the
  // shared bench convention; unknown options still exit 2.
  auto valued = [&](std::string_view a, int& i, const char* flag,
                    std::string* out) -> bool {
    std::string_view inline_value;
    bvl::FlagMatch m = bvl::match_flag(a, flag, &inline_value);
    if (m == bvl::FlagMatch::kNoMatch) return false;
    if (m == bvl::FlagMatch::kNeedsValue) {
      if (i + 1 >= argc) return false;  // falls through to unknown-option exit 2
      *out = argv[++i];
    } else {
      *out = std::string(inline_value);
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string value;
    if (valued(a, i, "--events", &value)) {
      auto parsed = bvl::parse_non_negative_int(value);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "%s: invalid --events value '%s' (expected a positive integer)\n",
                     argv[0], value.c_str());
        return 2;
      }
      n = static_cast<std::size_t>(*parsed);
    } else if (valued(a, i, "--json", &json)) {
    } else if (a == "--help" || a == "-h") {
      std::printf("usage: %s [--events N] [--json PATH]\n", argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], a.c_str());
      return 2;
    }
  }
  std::printf("EventQueue @ %zu pending events\n", n);
  auto before = bench_baseline(n);
  auto after = bench_production(n);
  print_rows("before: binary heap, eager cancel", before);
  print_rows("after:  4-ary heap, lazy deletion", after);
  if (!json.empty() && !write_ledger(json, n, before, after)) {
    std::fprintf(stderr, "%s: cannot write %s\n", argv[0], json.c_str());
    return 1;
  }
  return 0;
}
