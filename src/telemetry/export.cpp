// Flat metric dumps: JSON for machines, CSV (via common::CsvWriter) for
// spreadsheets and the repo's re-plot scripts.
#include <cstdio>
#include <string>
#include <utility>

#include "resipe/common/csv.hpp"
#include "resipe/common/file.hpp"
#include "resipe/common/table.hpp"
#include "resipe/telemetry/metrics.hpp"
#include "resipe/telemetry/trace.hpp"

namespace resipe::telemetry {

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void write_metrics_json(std::ostream& os) {
  const MetricsSnapshot snap = MetricRegistry::instance().snapshot();
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    os << ":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    os << ":" << number(value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) os << ",";
    first = false;
    json_string(os, name);
    os << ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) os << ",";
      os << number(h.bounds[i]);
    }
    os << "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) os << ",";
      os << h.buckets[i];
    }
    const HistogramSummary s = summarize_histogram(h);
    os << "],\"count\":" << h.count << ",\"sum\":" << number(h.sum)
       << ",\"min\":" << number(s.min) << ",\"max\":" << number(s.max)
       << ",\"p50\":" << number(s.p50) << ",\"p95\":" << number(s.p95)
       << ",\"p99\":" << number(s.p99) << "}";
  }
  os << "}}\n";
}

void write_metrics_json_file(const std::string& path) {
  write_file(path, [](std::ostream& os) { write_metrics_json(os); });
}

void write_metrics_csv(std::ostream& os) {
  const MetricsSnapshot snap = MetricRegistry::instance().snapshot();
  std::vector<std::string> names;
  std::vector<std::string> types;
  std::vector<double> values;
  for (const auto& [name, value] : snap.counters) {
    names.push_back(name);
    types.push_back("counter");
    values.push_back(static_cast<double>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    names.push_back(name);
    types.push_back("gauge");
    values.push_back(value);
  }
  for (const auto& [name, h] : snap.histograms) {
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const std::string tag =
          i < h.bounds.size() ? "le_" + number(h.bounds[i]) : "overflow";
      names.push_back(name + "." + tag);
      types.push_back("histogram_bucket");
      values.push_back(static_cast<double>(h.buckets[i]));
    }
    names.push_back(name + ".count");
    types.push_back("histogram");
    values.push_back(static_cast<double>(h.count));
    names.push_back(name + ".sum");
    types.push_back("histogram");
    values.push_back(h.sum);
    const HistogramSummary s = summarize_histogram(h);
    const std::pair<const char*, double> percentiles[] = {
        {".min", s.min}, {".max", s.max}, {".p50", s.p50},
        {".p95", s.p95}, {".p99", s.p99}};
    for (const auto& [tag, value] : percentiles) {
      names.push_back(name + tag);
      types.push_back("histogram");
      values.push_back(value);
    }
  }
  CsvWriter csv;
  csv.add_text_column("metric", std::move(names));
  csv.add_text_column("type", std::move(types));
  csv.add_column("value", std::move(values));
  csv.write(os);
}

void write_metrics_csv_file(const std::string& path) {
  write_file(path, [](std::ostream& os) { write_metrics_csv(os); });
}

std::string render_metrics_ascii() {
  const MetricsSnapshot snap = MetricRegistry::instance().snapshot();
  std::string out;
  if (!snap.counters.empty()) {
    TextTable t({"counter", "value"});
    for (const auto& [name, value] : snap.counters) {
      t.add_row({name, std::to_string(value)});
    }
    out += t.str();
  }
  if (!snap.gauges.empty()) {
    TextTable t({"gauge", "value"});
    for (const auto& [name, value] : snap.gauges) {
      t.add_row({name, format_fixed(value, 6)});
    }
    if (!out.empty()) out += "\n";
    out += t.str();
  }
  if (!snap.histograms.empty()) {
    TextTable t({"histogram", "count", "mean", "min", "p50", "p95", "p99",
                 "max"});
    for (const auto& [name, h] : snap.histograms) {
      const HistogramSummary s = summarize_histogram(h);
      t.add_row({name, std::to_string(s.count), format_fixed(s.mean, 6),
                 format_fixed(s.min, 6), format_fixed(s.p50, 6),
                 format_fixed(s.p95, 6), format_fixed(s.p99, 6),
                 format_fixed(s.max, 6)});
    }
    if (!out.empty()) out += "\n";
    out += t.str();
  }
  return out;
}

}  // namespace resipe::telemetry
