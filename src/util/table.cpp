#include "socet/util/table.hpp"

#include <algorithm>
#include <cstdio>

#include "socet/util/error.hpp"

namespace socet::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  require(!headers_.empty(), "Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  require(cells.size() == headers_.size(),
          "Table::add_row: cell count does not match header count");
  rows_.push_back(std::move(cells));
}

std::string Table::to_text() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }

  auto rule = [&widths]() {
    std::string line = "+";
    for (auto w : widths) line += std::string(w + 2, '-') + "+";
    return line + "\n";
  };
  auto render_row = [&widths](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += " " + cells[c] + std::string(widths[c] - cells[c].size(), ' ') + " |";
    }
    return line + "\n";
  };

  std::string out = rule() + render_row(headers_) + rule();
  for (const auto& row : rows_) out += render_row(row);
  out += rule();
  return out;
}

std::string Table::num(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

}  // namespace socet::util
