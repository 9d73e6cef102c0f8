#include "resipe/common/csv.hpp"

#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/common/file.hpp"

namespace resipe {

namespace {
std::string to_cell(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}
}  // namespace

void CsvWriter::add_column(std::string name, std::vector<double> values) {
  Column col;
  col.name = std::move(name);
  col.cells.reserve(values.size());
  for (double v : values) col.cells.push_back(to_cell(v));
  columns_.push_back(std::move(col));
}

void CsvWriter::add_text_column(std::string name,
                                std::vector<std::string> values) {
  columns_.push_back(Column{std::move(name), std::move(values)});
}

void CsvWriter::write(std::ostream& os) const {
  RESIPE_REQUIRE(!columns_.empty(), "CSV has no columns");
  const std::size_t rows = columns_.front().cells.size();
  for (const auto& c : columns_)
    RESIPE_REQUIRE(c.cells.size() == rows,
                   "CSV column '" << c.name << "' has " << c.cells.size()
                                  << " rows, expected " << rows);
  for (std::size_t c = 0; c < columns_.size(); ++c)
    os << (c ? "," : "") << csv_escape(columns_[c].name);
  os << "\n";
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < columns_.size(); ++c)
      os << (c ? "," : "") << csv_escape(columns_[c].cells[r]);
    os << "\n";
  }
}

void CsvWriter::write_file(const std::string& path) const {
  resipe::write_file(path, [this](std::ostream& os) { write(os); });
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace resipe
