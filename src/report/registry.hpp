// FigureRegistry: the index of every reproduced paper artifact. Each
// figure registers a builder that turns a shared Context into a
// Report; paired figures that the paper plots separately but the repo
// derives from one sweep (e.g. Figs. 5 and 6) share a `group` and a
// builder, so the sweep is computed once however it is addressed.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/characterizer.hpp"
#include "core/placement/policy.hpp"
#include "report/report.hpp"

namespace bvl::report {

/// Shared state every figure builds against. The characterizer caches
/// machine-independent traces, so figures sharing sweep points pay
/// for the engine run once per process, not once per figure.
struct Context {
  core::Characterizer& ch;
  /// Driver-level placement override (`bvl_repro --policy NAME`).
  /// Fabric-aware figure groups replace their default mix policy with
  /// it and stamp the override into the report notes; figures without
  /// a policy axis ignore it. Absent by default so every golden built
  /// without the flag is untouched.
  std::optional<core::MixPolicy> policy;
};

struct FigureDef {
  std::string id;     ///< unique figure id, e.g. "fig05"
  std::string group;  ///< report group; figures in one group share a builder
  std::string title;  ///< one-line description for --list
  std::string paper_ref;
  std::string shape_note;  ///< what the shape assertions pin, for --list
  std::function<Report(Context&)> build;
  /// One spec per trace `build` reads (the operating point does not
  /// matter: frequency and slots are priced, not characterized). The
  /// registry prefetches them before building, so the group's engine
  /// runs overlap instead of running one at a time as the builder asks.
  std::vector<core::RunSpec> specs;
};

class FigureRegistry {
 public:
  /// Rejects duplicate ids, empty ids and missing builders.
  void add(FigureDef def);

  const std::vector<FigureDef>& figures() const { return figures_; }

  /// Looks up by figure id or by group id (first member wins).
  /// Returns nullptr when unknown.
  const FigureDef* find(const std::string& id_or_group) const;

  /// Unique group ids in registration order — one per buildable report.
  std::vector<std::string> groups() const;

  /// Prefetches the group's specs (Characterizer::prefetch, as wide as
  /// the characterizer's exec_threads), builds the group's report via
  /// its first member's builder and stamps the report id with the
  /// group id.
  Report build(const std::string& group, Context& ctx) const;

 private:
  std::vector<FigureDef> figures_;
};

}  // namespace bvl::report
