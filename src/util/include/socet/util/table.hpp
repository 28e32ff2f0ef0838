// Plain-text table rendering.
//
// Every benchmark binary reproduces one of the paper's tables or figures;
// this helper renders them with aligned columns so the output can be
// compared to the paper side by side.
#pragma once

#include <string>
#include <vector>

namespace socet::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Add one row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Render with ASCII borders and right-padded cells.
  [[nodiscard]] std::string to_text() const;

  /// Format a double with `digits` places after the decimal point.
  static std::string num(double value, int digits = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace socet::util
