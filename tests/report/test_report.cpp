#include "report/report.hpp"

#include <gtest/gtest.h>

#include "report/emitters.hpp"
#include "report/registry.hpp"
#include "util/error.hpp"

namespace bvl::report {
namespace {

Report sample_report() {
  Report rep;
  rep.id = "fig99";
  rep.title = "Fig. 99 - sample";
  rep.paper_ref = "Sec. 9.9";
  rep.notes = "values: unitless";
  Table t("ratio", {"app", "EDP", "ED2P"});
  t.add_row({Cell::txt("WC"), fixed(1.25, 2), fixed(2.5, 2)});
  t.add_row({Cell::txt("ST"), Cell::missing(), fixed(0.5, 2)});
  rep.add(std::move(t));
  rep.text("\ntrailing prose\n");
  return rep;
}

TEST(Cell, FactoriesSetKindTextAndValue) {
  EXPECT_EQ(Cell::txt("x").kind, Cell::Kind::kText);
  EXPECT_EQ(Cell::missing().text, "-");
  Cell c = fixed(1.234, 2);
  EXPECT_TRUE(c.is_number());
  EXPECT_EQ(c.text, "1.23");
  EXPECT_DOUBLE_EQ(c.value, 1.234);
  EXPECT_EQ(fixed(3.0, 1, "x").text, "3.0x");
  EXPECT_EQ(sci(123456.0).text, "1.23E+05");
  EXPECT_EQ(num(2.0).text, "2");
}

TEST(Table, RejectsRowWidthMismatch) {
  Table t("t", {"a", "b"});
  EXPECT_THROW(t.add_row({Cell::txt("only-one")}), Error);
}

TEST(RenderText, HeaderTablesAndProseInOrder) {
  std::string out = render_text(sample_report());
  EXPECT_EQ(out,
            "== Fig. 99 - sample ==\n"
            "reproduces: Sec. 9.9\n"
            "values: unitless\n"
            "\n"
            "app  EDP   ED2P\n"
            "---  ----  ----\n"
            "WC   1.25  2.50\n"
            "ST   -     0.50\n"
            "\ntrailing prose\n");
}

TEST(RenderText, EmptyTitleSkipsHeader) {
  Report rep;
  rep.paper_ref = "unused when untitled";
  rep.text("body only\n");
  EXPECT_EQ(render_text(rep), "body only\n");
}

TEST(MetricsRows, LabelsFromTextCellsMissingOmitted) {
  auto rows = metrics_rows(sample_report());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "fig99/ratio/WC");
  ASSERT_EQ(rows[0].metrics.size(), 2u);
  EXPECT_EQ(rows[0].metrics[0].first, "EDP");
  EXPECT_DOUBLE_EQ(rows[0].metrics[0].second, 1.25);
  // ST's EDP cell is missing, so only ED2P survives.
  EXPECT_EQ(rows[1].label, "fig99/ratio/ST");
  ASSERT_EQ(rows[1].metrics.size(), 1u);
  EXPECT_EQ(rows[1].metrics[0].first, "ED2P");
}

TEST(MetricsRows, TextOnlyRowsAreSkipped) {
  Report rep;
  rep.id = "r";
  Table t("notes", {"k", "v"});
  t.add_row({Cell::txt("a"), Cell::txt("b")});
  rep.add(std::move(t));
  EXPECT_TRUE(metrics_rows(rep).empty());
}

TEST(MetricsJson, MatchesCommittedLedgerFormat) {
  std::vector<MetricsRow> rows{
      {"engine/wordcount", {{"ns_per_rec", 12.5}, {"records_per_s", 80000000.0}}},
      {"cluster/mix", {{"throughput", 1.0}}},
  };
  EXPECT_EQ(render_metrics_json(rows),
            "[\n"
            "  {\"bench\": \"engine/wordcount\", \"ns_per_rec\": 12.5, "
            "\"records_per_s\": 80000000},\n"
            "  {\"bench\": \"cluster/mix\", \"throughput\": 1}\n"
            "]\n");
}

TEST(MetricsJson, EmptyRowsStillAValidArray) {
  EXPECT_EQ(render_metrics_json({}), "[\n]\n");
}

TEST(Csv, NumericCellsFullPrecisionMissingEmpty) {
  Table t("ratio", {"app", "EDP", "note"});
  t.add_row({Cell::txt("WC"), Cell::num(1.0 / 3.0, "0.33"), Cell::txt("a,b")});
  t.add_row({Cell::txt("ST"), Cell::missing(), Cell::txt("plain")});
  EXPECT_EQ(render_table_csv(t),
            "app,EDP,note\n"
            "WC,0.33333333333333331,\"a,b\"\n"
            "ST,,plain\n");
}

TEST(Checks, FailedCountAndRendering) {
  Report rep;
  rep.id = "fig99";
  rep.check("holds", true, "ok");
  rep.check("breaks", false, "observed 2.0");
  EXPECT_EQ(rep.failed_checks(), 1);
  std::string out = render_checks_text(rep);
  EXPECT_NE(out.find("fig99/holds"), std::string::npos);
  EXPECT_NE(out.find("PASS"), std::string::npos);
  EXPECT_NE(out.find("FAIL"), std::string::npos);
  EXPECT_NE(out.find("observed 2.0"), std::string::npos);
}

TEST(Registry, GroupSharingAndLookup) {
  FigureRegistry reg;
  auto build = [](Context&) { return Report{}; };
  reg.add({"fig05", "fig0506", "five", "ref", "shape", build, {}});
  reg.add({"fig06", "fig0506", "six", "ref", "shape", build, {}});
  // fig09 declares one trace its (trivial) builder never reads: build
  // prefetches it all the same.
  core::RunSpec declared;
  declared.workload = wl::WorkloadId::kGrep;
  declared.input_size = 64 * MB;
  reg.add({"fig09", "", "nine", "ref", "shape", build, {declared}});
  EXPECT_EQ(reg.figures().size(), 3u);
  ASSERT_NE(reg.find("fig06"), nullptr);
  EXPECT_EQ(reg.find("fig06")->title, "six");
  ASSERT_NE(reg.find("fig0506"), nullptr);
  EXPECT_EQ(reg.find("fig0506")->id, "fig05");
  EXPECT_EQ(reg.find("nope"), nullptr);
  auto groups = reg.groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], "fig0506");
  EXPECT_EQ(groups[1], "fig09");

  core::Characterizer ch({}, {}, 1 * MB);
  Context ctx{ch, std::nullopt};
  EXPECT_EQ(reg.build("fig06", ctx).id, "fig0506");
  EXPECT_EQ(ch.engine_runs(), 0);
  EXPECT_EQ(reg.build("fig09", ctx).id, "fig09");
  EXPECT_EQ(ch.engine_runs(), 1);
  reg.build("fig09", ctx);
  EXPECT_EQ(ch.engine_runs(), 1);
}

TEST(Registry, RejectsDuplicatesAndEmptyIds) {
  FigureRegistry reg;
  auto build = [](Context&) { return Report{}; };
  reg.add({"fig01", "", "one", "ref", "shape", build, {}});
  EXPECT_THROW(reg.add({"fig01", "", "dup", "ref", "shape", build, {}}), Error);
  EXPECT_THROW(reg.add({"", "", "anon", "ref", "shape", build, {}}), Error);
  EXPECT_THROW(reg.add({"fig02", "", "nobuild", "ref", "shape", nullptr, {}}), Error);
}

}  // namespace
}  // namespace bvl::report
