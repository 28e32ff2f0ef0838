// EXPERIMENTS.md against the bench goldens: every number quoted in a
// `measured` column of a bench's section must appear in that bench's
// pinned stdout (bench/golden/<name>.txt), so a re-pin that moves a
// number leaves this test failing until the doc follows.  Prose and
// timing claims are out of scope.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Numbers in `text` with thousands separators stripped ("8,714" ->
/// "8714", "98.8" stays).
std::vector<std::string> numbers_in(const std::string& text) {
  static const std::regex kNumber(R"(\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?)");
  std::vector<std::string> numbers;
  for (std::sregex_iterator it(text.begin(), text.end(), kNumber), end;
       it != end; ++it) {
    std::string number = it->str();
    std::erase(number, ',');
    numbers.push_back(std::move(number));
  }
  return numbers;
}

/// The cells of a markdown table row ("| a | b |" -> {" a ", " b "}).
std::vector<std::string> cells_of(const std::string& row) {
  std::vector<std::string> cells;
  std::size_t start = row.find('|') + 1;
  for (std::size_t bar; (bar = row.find('|', start)) != std::string::npos;
       start = bar + 1) {
    cells.push_back(row.substr(start, bar - start));
  }
  return cells;
}

TEST(Experiments, MeasuredNumbersAppearInTheirBenchGolden) {
  const std::string root = SOCET_SOURCE_DIR;
  std::istringstream doc(read_file(root + "/EXPERIMENTS.md"));
  static const std::regex kSection(R"(^## .* — `bench_([a-z0-9_]+)`\s*$)");

  std::string bench;             // section's bench; empty outside one
  std::set<std::string> golden;  // that bench's stdout numbers
  std::vector<std::size_t> measured_columns;
  bool in_table = false;
  std::size_t checked = 0;
  std::size_t line_no = 0;
  for (std::string line; std::getline(doc, line);) {
    ++line_no;
    std::smatch match;
    if (line.rfind("## ", 0) == 0) {
      bench.clear();
      in_table = false;
      if (std::regex_match(line, match, kSection)) {
        bench = match[1];
        const std::string path = root + "/bench/golden/" + bench + ".txt";
        const std::string text = read_file(path);
        ASSERT_FALSE(text.empty()) << "no golden " << path;
        const auto numbers = numbers_in(text);
        golden = {numbers.begin(), numbers.end()};
      }
      continue;
    }
    if (bench.empty()) continue;
    if (line.empty() || line.front() != '|') {
      in_table = false;
      continue;
    }
    const auto cells = cells_of(line);
    if (!in_table) {  // header row: remember its `measured` columns
      in_table = true;
      measured_columns.clear();
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c].find("measured") != std::string::npos) {
          measured_columns.push_back(c);
        }
      }
      continue;
    }
    for (std::size_t c : measured_columns) {
      if (c >= cells.size()) continue;
      for (const std::string& number : numbers_in(cells[c])) {
        ++checked;
        EXPECT_TRUE(golden.count(number))
            << "EXPERIMENTS.md:" << line_no << " quotes " << number
            << " for bench_" << bench << ", but bench/golden/" << bench
            << ".txt does not print it";
      }
    }
  }
  EXPECT_GT(checked, 0u) << "no measured column found in EXPERIMENTS.md";
}

}  // namespace
