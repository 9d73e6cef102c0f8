#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "resipe/common/csv.hpp"
#include "resipe/common/error.hpp"
#include "resipe/common/file.hpp"
#include "resipe/common/table.hpp"

namespace resipe {
namespace {

TEST(TextTable, RendersAlignedCells) {
  TextTable t({"A", "Bee"});
  t.add_row({"longer", "x"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| A      | Bee |"), std::string::npos);
  EXPECT_NE(s.find("| longer | x   |"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), Error);
}

TEST(TextTable, SeparatorRendersRule) {
  TextTable t({"A"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string s = t.str();
  // header rule + separator + closing rule + top = at least 4 rules.
  std::size_t rules = 0;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(FormatSi, PicksSensiblePrefixes) {
  EXPECT_EQ(format_si(2.3e-3, "W"), "2.300 mW");
  EXPECT_EQ(format_si(1.5e-9, "s"), "1.500 ns");
  EXPECT_EQ(format_si(4.2e12, "OPS", 1), "4.2 TOPS");
  EXPECT_EQ(format_si(0.0, "V"), "0.000 V");
  EXPECT_EQ(format_si(100e-15, "F"), "100.000 fF");
}

TEST(FormatHelpers, RatioAndPercent) {
  EXPECT_EQ(format_ratio(1.9731), "1.97x");
  EXPECT_EQ(format_percent(0.671), "67.1%");
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
}

TEST(CsvEscape, QuotesWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  CsvWriter csv;
  csv.add_column("x", {1.0, 2.0});
  csv.add_text_column("name", {"a", "b"});
  std::ostringstream os;
  csv.write(os);
  EXPECT_EQ(os.str(), "x,name\n1,a\n2,b\n");
}

TEST(CsvWriter, RejectsMismatchedColumnLengths) {
  CsvWriter csv;
  csv.add_column("x", {1.0, 2.0});
  csv.add_column("y", {1.0});
  std::ostringstream os;
  EXPECT_THROW(csv.write(os), Error);
}

TEST(CsvWriter, WriteFileRoundTrip) {
  CsvWriter csv;
  csv.add_column("v", {42.0});
  const std::string path = "test_csv_roundtrip.csv";
  csv.write_file(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "v");
  EXPECT_EQ(row, "42");
  std::remove(path.c_str());
}

TEST(WriteFile, AFailedOpenOrCloseNamesThePath) {
  // /dev/full takes the open and the buffered write; it fails the flush
  // at close, which is where a short file's only write happens.
  // The message is the whole text: no checked expression, no source
  // path.
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  const std::pair<std::string, std::string> cases[] = {
      {"no_such_dir/out.txt",
       "cannot open 'no_such_dir/out.txt' for writing"},
      {"/dev/full", "write to '/dev/full' failed"}};
  for (const auto& [path, message] : cases) {
    try {
      write_file(path, [](std::ostream& os) { os << "x"; });
      ADD_FAILURE() << "wrote " << path;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

}  // namespace
}  // namespace resipe
