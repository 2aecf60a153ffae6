#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/json.h"

namespace arlo {

void TablePrinter::SetHeader(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TablePrinter::Int(long long v) { return std::to_string(v); }

void TablePrinter::Print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  auto grow = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  grow(header_);
  for (const auto& row : rows_) grow(row);

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit = [&os, &widths](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : widths) total += w + 2;
    os << std::string(total, '-') << '\n';
  }
  for (const auto& row : rows_) emit(row);
}

void TablePrinter::PrintJson(std::ostream& os) const {
  json::Writer w(os);
  w.BeginObject().Field("title", title_).Key("rows").BeginArray();
  for (const auto& row : rows_) {
    w.BeginObject();
    for (std::size_t i = 0; i < row.size() && i < header_.size(); ++i) {
      w.Key(header_[i]);
      json::Value cell;
      if (json::Parse(row[i], cell) &&
          cell.type() == json::Value::Type::kNumber) {
        w.Raw(row[i]);
      } else {
        w.String(row[i]);
      }
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  os << '\n';
}

void TablePrinter::PrintCsv(std::ostream& os) const {
  auto emit = [&os](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << row[i];
    }
    os << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace arlo
