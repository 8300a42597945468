#include "mapreduce/trace.hpp"

namespace bvl::mr {

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

}  // namespace bvl::mr
