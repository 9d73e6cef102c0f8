// Machine-readable bench reports.
//
// Every bench binary prints its ASCII tables as before and, on exit,
// emits one `BENCH_JSON {...}` line on stdout with its name, wall time
// and key figures so harnesses can accumulate a perf trajectory without
// scraping tables.  Pass `--json FILE` (or set RESIPE_BENCH_JSON=FILE)
// to additionally write the report to a file.
//
// The constructor reads `--json` and the bench's own flags through the
// strict reader (resipe/common/flags.hpp): an unknown, repeated,
// valueless or malformed flag prints `error: <message>` and the usage
// line and exits 2 before the bench runs.  bench_fig5_characterization
// writes its sample CSV with `--csv FILE`.
//
// Each line is stamped with the provenance the regression tracker keys
// on: `git_sha` (RESIPE_GIT_SHA compile definition from CMake; the
// RESIPE_GIT_SHA / GITHUB_SHA environment variables override it at run
// time for CI), `config_hash` (FNV-1a of the EngineConfig the bench
// ran — call set_config() when the bench deviates from defaults) and
// `threads` (the resolved process-wide default).
//
//   int main(int argc, char** argv) {
//     resipe::bench::BenchReport report("serving", argc, argv,
//                                       {{"--quick"}, {"--seed", "K"}});
//     const bool quick = report.has("--quick");
//     const auto seed = report.number<std::uint64_t>("--seed", 42);
//     ...
//     report.add("peak_served_rps", value);
//     return report.emit();
//   }
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "resipe/common/file.hpp"
#include "resipe/common/flags.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/simd.hpp"
#include "resipe/introspect/inspect.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/telemetry/trace.hpp"

namespace resipe::bench {

class BenchReport {
 public:
  /// Reads `--json FILE` and the bench's own `flags` from the command
  /// line; exits 2 with the usage line on a malformed one.
  BenchReport(std::string name, int argc, char** argv,
              std::initializer_list<FlagSpec> flags = {})
      : name_(std::move(name)),
        start_(std::chrono::steady_clock::now()),
        program_(argv[0]) {
    spec_.insert(spec_.end(), flags);
    try {
      flags_.emplace(std::span<char* const>(argv + 1, argv + argc), spec_);
    } catch (const FlagError& e) {
      usage_error(e);
    }
    json_path_ = flags_->text("--json");
    if (json_path_.empty()) {
      if (const char* env = std::getenv("RESIPE_BENCH_JSON")) {
        json_path_ = env;
      }
    }
  }

  /// True when the switch `name` was given.
  bool has(std::string_view name) const { return flags_->has(name); }
  /// The value given for `name`, else "".
  std::string text(std::string_view name) const { return flags_->text(name); }
  /// The value given for `name` parsed whole as a T, else `fallback`;
  /// exits 2 with the usage line on a malformed value.
  template <typename T>
  T number(std::string_view name, T fallback) const {
    try {
      return flags_->number(name, fallback);
    } catch (const FlagError& e) {
      usage_error(e);
    }
  }

  void add(const std::string& key, double value) {
    numbers_.emplace_back(key, value);
  }
  void add(const std::string& key, const std::string& value) {
    strings_.emplace_back(key, value);
  }

  /// Stamps this report with the hash of the config the bench actually
  /// ran (defaults to a default-constructed EngineConfig).
  void set_config(const resipe_core::EngineConfig& config) {
    config_hash_ = introspect::engine_config_hash(config);
  }

  /// Prints the BENCH_JSON line (and optional file); returns 0 so mains
  /// can `return report.emit();`.
  int emit() {
    using telemetry::json_string;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::ostringstream os;
    os << "{\"bench\":";
    json_string(os, name_);
    os << ",\"git_sha\":";
    json_string(os, git_sha());
    if (config_hash_.empty()) {
      config_hash_ =
          introspect::engine_config_hash(resipe_core::EngineConfig{});
    }
    os << ",\"config_hash\":";
    json_string(os, config_hash_);
    os << ",\"threads\":" << std::to_string(default_threads());
    // The ISA the kernels actually ran with (honors RESIPE_SIMD=scalar)
    // and the build's vector flags: numbers from different ISAs are not
    // comparable, and bench_diff keys its baselines on this stamp.
    os << ",\"simd_isa\":";
    json_string(os, simd::active_isa());
    os << ",\"march\":";
    json_string(os, simd::march_flags());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", wall_s);
    os << ",\"wall_time_s\":" << buf << ",\"figures\":{";
    const char* sep = "";
    for (const auto& [key, value] : numbers_) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
      os << sep;
      json_string(os, key);
      os << ':' << buf;
      sep = ",";
    }
    for (const auto& [key, value] : strings_) {
      os << sep;
      json_string(os, key);
      os << ':';
      json_string(os, value);
      sep = ",";
    }
    os << "}}";
    const std::string json = os.str();
    std::printf("BENCH_JSON %s\n", json.c_str());
    if (!json_path_.empty()) {
      try {
        write_file(json_path_,
                   [&json](std::ostream& file) { file << json << "\n"; });
      } catch (const Error& e) {
        std::fprintf(stderr, "bench_report: %s\n", e.what());
        return 1;
      }
    }
    return 0;
  }

 private:
  [[noreturn]] void usage_error(const FlagError& e) const {
    std::fprintf(stderr, "error: %s\nusage: %s %s\n", e.what(), program_,
                 flag_synopsis(spec_).c_str());
    std::exit(2);
  }

  static std::string git_sha() {
    // Run-time override first so CI stamps the exact commit even when
    // the build cache predates it.
    for (const char* var : {"RESIPE_GIT_SHA", "GITHUB_SHA"}) {
      if (const char* env = std::getenv(var)) {
        if (*env != '\0') return env;
      }
    }
#if defined(RESIPE_GIT_SHA)
    return RESIPE_GIT_SHA;
#else
    return "unknown";
#endif
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  const char* program_;
  std::vector<FlagSpec> spec_{{"--json", "FILE"}};
  std::optional<Flags> flags_;
  std::string json_path_;
  std::string config_hash_;
  std::vector<std::pair<std::string, double>> numbers_;
  std::vector<std::pair<std::string, std::string>> strings_;
};

}  // namespace resipe::bench
