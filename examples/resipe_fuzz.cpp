// Generative differential-verification fuzzer.
//
// Generates seeded random engine configurations, checks every oracle
// contract against each, shrinks any violation to a minimal reproducer
// and (optionally) writes it as a committable JSON record.  Exits 0
// when clean and 1 on any violation, so CI can gate on it directly, and
// 2 on a malformed invocation, an unreadable record or an exception.
//
//   resipe_fuzz --cases 1000                     # nightly sweep
//   resipe_fuzz --cases 500 --budget-s 120       # CI job
//   resipe_fuzz --seed0 7341 --cases 1           # replay one seed
//   resipe_fuzz --contract fast_vs_tile          # focus one invariant
//   resipe_fuzz --emit-repro out/                # write repro JSON
//   resipe_fuzz --replay tests/corpus/x.json     # re-check a record
//   resipe_fuzz --inject-bug fastmvm-row-drop    # harness self-test
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "resipe/common/flags.hpp"
#include "resipe/verify/contracts.hpp"
#include "resipe/verify/fuzzer.hpp"
#include "resipe/verify/generators.hpp"
#include "resipe/verify/serialize.hpp"
#include "resipe/verify/shrink.hpp"

namespace {

constexpr resipe::FlagSpec kFlags[] = {
    {"--cases", "N"}, {"--budget-s", "S"}, {"--seed0", "N"},
    {"--contract", "NAME"}, {"--emit-repro", "DIR"}, {"--no-shrink"},
    {"--max-failures", "N"}, {"--replay", "FILE"}, {"--emit-corpus", "DIR"},
    {"--snippet", "FILE"}, {"--inject-bug", "NAME"}, {"--list-contracts"},
    {"--help"}, {"-h"}};

void usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [options]\n"
      "  --cases N            generated cases (default 100)\n"
      "  --budget-s S         wall-clock budget in seconds (0 = off)\n"
      "  --seed0 N            first seed of the range (default 1)\n"
      "  --contract NAME      check only this contract\n"
      "  --emit-repro DIR     write shrunk violations as JSON records\n"
      "  --no-shrink          report violations unshrunk\n"
      "  --max-failures N     stop after N violations (default 10)\n"
      "  --replay FILE        re-check one repro/corpus JSON record\n"
      "  --emit-corpus DIR    write generated cases as corpus records\n"
      "  --snippet FILE       print the C++ snippet for a record\n"
      "  --inject-bug NAME    arm a deliberate bug (fastmvm-row-drop)\n"
      "  --list-contracts     print the contract registry\n",
      argv0);
}

int check_one(const resipe::verify::CaseSpec& spec,
              const std::string& contract) {
  const auto result = resipe::verify::replay_case(spec, contract);
  std::printf("%s on %s: %s\n", contract.c_str(), spec.summary().c_str(),
              result.skipped ? "SKIP" : (result.pass ? "PASS" : "FAIL"));
  if (!result.detail.empty()) std::printf("  %s\n", result.detail.c_str());
  return result.violated() ? 1 : 0;
}

int replay_file(const std::string& path, bool print_snippet) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto record = resipe::verify::repro_from_json(buf.str());
  if (print_snippet) {
    std::printf("%s", resipe::verify::repro_snippet(record).c_str());
    return 0;
  }
  // Corpus records use contract "all": the case anchors every invariant.
  if (record.contract == "all") {
    int violations = 0;
    for (const auto& c : resipe::verify::contract_registry()) {
      violations += check_one(record.spec, c.name);
    }
    return violations > 0 ? 1 : 0;
  }
  return check_one(record.spec, record.contract);
}

int emit_corpus(const std::string& dir,
                const resipe::verify::FuzzOptions& options) {
  std::filesystem::create_directories(dir);
  for (std::uint64_t i = 0; i < options.cases; ++i) {
    const std::uint64_t seed = options.seed0 + i;
    resipe::verify::ReproRecord record;
    record.spec = resipe::verify::generate_case(
        resipe::verify::CaseDescriptor{resipe::verify::kSchemaVersion, seed});
    record.contract = "all";
    const auto path = std::filesystem::path(dir) /
                      ("case_seed" + std::to_string(seed) + ".json");
    std::ofstream out(path);
    out << resipe::verify::repro_to_json(record);
    std::printf("%s  %s\n", path.c_str(), record.spec.summary().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  resipe::verify::FuzzOptions options;
  std::string replay_path;
  std::string snippet_path;
  std::string corpus_dir;
  try {
    const resipe::Flags flags({argv + 1, argv + argc}, kFlags);
    if (flags.has("--help") || flags.has("-h")) {
      usage(stdout, argv[0]);
      return 0;
    }
    options.cases = flags.number("--cases", options.cases);
    options.budget_s = flags.number("--budget-s", options.budget_s);
    // A run of no cases would pass vacuously, and a negative budget
    // would read as none.
    if (options.cases == 0) {
      throw resipe::FlagError("bad value '" + flags.text("--cases") +
                              "' for '--cases' (need at least 1 case)");
    }
    if (options.budget_s < 0.0) {
      throw resipe::FlagError("bad value '" + flags.text("--budget-s") +
                              "' for '--budget-s' (need >= 0; 0 is off)");
    }
    options.seed0 = flags.number("--seed0", options.seed0);
    options.contract_filter = flags.text("--contract");
    options.repro_dir = flags.text("--emit-repro");
    options.shrink = !flags.has("--no-shrink");
    options.max_failures =
        flags.number("--max-failures", options.max_failures);
    replay_path = flags.text("--replay");
    corpus_dir = flags.text("--emit-corpus");
    snippet_path = flags.text("--snippet");
    if (flags.has("--inject-bug")) {
      const std::string bug = flags.text("--inject-bug");
      if (bug != "fastmvm-row-drop") {
        throw resipe::FlagError("unknown bug '" + bug +
                                "' for '--inject-bug'");
      }
      resipe::verify::set_injected_bug(
          resipe::verify::InjectedBug::kFastMvmRowDrop);
    }
    if (flags.has("--list-contracts")) {
      for (const auto& c : resipe::verify::contract_registry()) {
        std::printf("%-24s %s\n", c.name.c_str(), c.description.c_str());
      }
      return 0;
    }
  } catch (const resipe::FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage(stderr, argv[0]);
    return 2;
  }

  try {
    if (!replay_path.empty() || !snippet_path.empty()) {
      const bool snippet = !snippet_path.empty();
      return replay_file(snippet ? snippet_path : replay_path, snippet);
    }
    if (!corpus_dir.empty()) return emit_corpus(corpus_dir, options);
    const auto report = resipe::verify::run_fuzz(options);
    std::printf("%s", report.render().c_str());
    std::printf("%s\n", report.bench_json().c_str());
    return report.violations() > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
