#include "report/registry.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bvl::report {

void FigureRegistry::add(FigureDef def) {
  require(!def.id.empty(), "FigureRegistry: empty figure id");
  require(static_cast<bool>(def.build), "FigureRegistry: figure '" + def.id + "' has no builder");
  require(find(def.id) == nullptr, "FigureRegistry: duplicate figure id '" + def.id + "'");
  if (def.group.empty()) def.group = def.id;
  figures_.push_back(std::move(def));
}

const FigureDef* FigureRegistry::find(const std::string& id_or_group) const {
  for (const auto& f : figures_)
    if (f.id == id_or_group) return &f;
  for (const auto& f : figures_)
    if (f.group == id_or_group) return &f;
  return nullptr;
}

std::vector<std::string> FigureRegistry::groups() const {
  std::vector<std::string> out;
  for (const auto& f : figures_)
    if (std::find(out.begin(), out.end(), f.group) == out.end()) out.push_back(f.group);
  return out;
}

Report FigureRegistry::build(const std::string& group, Context& ctx) const {
  const FigureDef* def = find(group);
  require(def != nullptr, "FigureRegistry: unknown figure '" + group + "'");
  ctx.ch.prefetch(def->specs, ctx.ch.exec_threads());
  Report rep = def->build(ctx);
  rep.id = def->group;
  return rep;
}

}  // namespace bvl::report
