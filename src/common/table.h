// ASCII table / CSV emission for the benchmark harness.  Every bench binary
// prints the same rows/series the paper's table or figure reports, via this
// formatter, so outputs are uniform and machine-greppable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace arlo {

/// Column-aligned ASCII table with an optional title.
class TablePrinter {
 public:
  explicit TablePrinter(std::string title = {}) : title_(std::move(title)) {}

  void SetHeader(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);

  /// Convenience: format doubles with fixed precision.
  static std::string Num(double v, int precision = 2);
  static std::string Int(long long v);

  /// Renders the table; pads each column to its widest cell.
  void Print(std::ostream& os) const;

  /// Renders as CSV (for plotting pipelines).
  void PrintCsv(std::ostream& os) const;

  /// Renders as JSON: {"title":...,"rows":[{header:value,...},...]}.
  /// Cells that are one finite JSON number are emitted raw; everything
  /// else becomes an escaped JSON string.
  void PrintJson(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace arlo
