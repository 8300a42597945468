// Structured figure reports: the typed artifact behind every paper
// table/figure the repo reproduces. A Report carries provenance
// (figure id, paper section, notes), an ordered sequence of blocks
// (typed tables interleaved with verbatim prose, so the text emitter
// reproduces the historical bench output byte for byte) and the
// figure's machine-checkable shape assertions — the monotonicity and
// ordering claims that used to live only in printed prose.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace bvl::report {

/// One table cell: the exact text the text emitter prints plus the
/// underlying numeric value (when one exists) so the JSON/CSV
/// emitters stay lossless instead of re-parsing formatted strings.
struct Cell {
  enum class Kind { kText, kNumber, kMissing };

  Kind kind = Kind::kText;
  std::string text;
  double value = 0;

  static Cell txt(std::string t);
  static Cell num(double v, std::string t);
  /// Prints as "-" and is omitted from JSON/CSV rows.
  static Cell missing();

  bool is_number() const { return kind == Kind::kNumber; }
};

/// Formatting helpers mirroring util/table's fmt_* so a ported bench
/// keeps its exact text while also recording the raw value.
Cell fixed(double v, int precision);
Cell fixed(double v, int precision, const std::string& suffix);
Cell sci(double v);
Cell num(double v);

/// A named, typed table. `name` keys the JSON/CSV output; columns are
/// the text-table headers.
struct Table {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;

  Table(std::string table_name, std::vector<std::string> cols);

  /// Width-checked append.
  void add_row(std::vector<Cell> cells);
};

/// One element of the report body, in print order.
struct Block {
  enum class Kind { kText, kTable };

  Kind kind = Kind::kText;
  std::string text;            ///< kText: verbatim chunk (incl. newlines)
  std::optional<Table> table;  ///< kTable
};

/// A machine-checked paper-shape claim evaluated while the report was
/// built. `detail` carries the observed values for the failure message.
struct ShapeCheck {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct Report {
  // Provenance.
  std::string id;         ///< registry group id, e.g. "fig09"
  std::string title;      ///< header line ("" = body carries its own headers)
  std::string paper_ref;  ///< e.g. "Sec. 3.2.3, Fig. 9"
  std::string notes;      ///< optional third header line

  std::vector<Block> blocks;
  std::vector<ShapeCheck> checks;

  /// Appends a verbatim text block.
  void text(std::string s);
  /// Appends a table block.
  void add(Table t);
  /// Records a shape assertion outcome.
  void check(const std::string& name, bool passed, const std::string& detail = "");

  int failed_checks() const;
};

}  // namespace bvl::report
