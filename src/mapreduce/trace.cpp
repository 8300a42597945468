#include "mapreduce/trace.hpp"

namespace bvl::mr {

namespace {
std::size_t ceil_div(std::size_t tasks, int threads) {
  std::size_t w = threads < 1 ? 1 : static_cast<std::size_t>(threads);
  return (tasks + w - 1) / w;
}
}  // namespace

std::size_t JobTrace::map_exec_waves() const { return ceil_div(map_tasks.size(), exec_threads_used); }

std::size_t JobTrace::reduce_exec_waves() const {
  return ceil_div(reduce_tasks.size(), exec_threads_used);
}

WorkCounters JobTrace::map_total() const {
  WorkCounters total;
  for (const auto& t : map_tasks) total.add(t.counters);
  return total;
}

WorkCounters JobTrace::reduce_total() const {
  WorkCounters total;
  for (const auto& t : reduce_tasks) total.add(t.counters);
  return total;
}

int JobTrace::total_attempts() const {
  int n = 0;
  for (const auto& t : map_tasks) n += t.attempts;
  for (const auto& t : reduce_tasks) n += t.attempts;
  return n;
}

int JobTrace::speculative_backups() const {
  int n = 0;
  for (const auto& t : map_tasks) n += t.speculated ? 1 : 0;
  for (const auto& t : reduce_tasks) n += t.speculated ? 1 : 0;
  return n;
}

double JobTrace::total_backoff_s() const {
  double s = 0;
  for (const auto& t : map_tasks) s += t.backoff_s;
  for (const auto& t : reduce_tasks) s += t.backoff_s;
  return s;
}

WorkCounters JobTrace::wasted_total() const {
  WorkCounters total;
  for (const auto& t : map_tasks) total.add(t.wasted);
  for (const auto& t : reduce_tasks) total.add(t.wasted);
  return total;
}

}  // namespace bvl::mr
