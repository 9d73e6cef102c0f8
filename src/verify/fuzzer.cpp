#include "resipe/verify/fuzzer.hpp"

#include <chrono>
#include <filesystem>
#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/common/file.hpp"
#include "resipe/verify/serialize.hpp"
#include "resipe/verify/shrink.hpp"

namespace resipe::verify {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string write_repro(const std::string& dir, const FuzzFailure& failure) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  ReproRecord record{failure.shrunk, failure.contract, failure.detail};
  const fs::path path =
      fs::path(dir) / ("repro_" + failure.contract + "_seed" +
                       std::to_string(failure.original.descriptor.seed) +
                       ".json");
  write_file(path.string(),
             [&record](std::ostream& os) { os << repro_to_json(record); });
  return path.string();
}

}  // namespace

std::size_t FuzzReport::checks() const {
  std::size_t n = 0;
  for (const auto& [name, stats] : contracts) {
    n += stats.pass + stats.fail + stats.skip;
  }
  return n;
}

std::string FuzzReport::render() const {
  std::ostringstream os;
  os << "fuzz: " << cases_run << " cases, " << checks() << " checks, "
     << violations() << " violations in " << wall_s << " s"
     << (budget_exhausted ? " (budget exhausted)" : "") << "\n";
  for (const auto& [name, stats] : contracts) {
    os << "  " << name << ": " << stats.pass << " pass";
    if (stats.skip > 0) os << ", " << stats.skip << " skip";
    if (stats.fail > 0) os << ", " << stats.fail << " FAIL";
    os << "\n";
  }
  for (const FuzzFailure& f : failures) {
    os << "VIOLATION " << f.contract << "\n"
       << "  found:  " << f.original.summary() << "\n";
    if (f.shrink_steps > 0) {
      os << "  shrunk: " << f.shrunk.summary() << " (" << f.shrink_steps
         << " moves)\n";
    }
    os << "  " << f.detail << "\n";
    if (!f.repro_path.empty()) os << "  repro:  " << f.repro_path << "\n";
  }
  return os.str();
}

std::string FuzzReport::bench_json() const {
  std::ostringstream os;
  os << "BENCH_JSON {\"bench\": \"verify_fuzz\", \"schema_version\": "
     << kSchemaVersion << ", \"cases\": " << cases_run
     << ", \"checks\": " << checks() << ", \"violations\": " << violations()
     << ", \"wall_s\": " << wall_s << ", \"cases_per_s\": "
     << (wall_s > 0.0 ? static_cast<double>(cases_run) / wall_s : 0.0)
     << ", \"budget_exhausted\": " << (budget_exhausted ? "true" : "false")
     << "}";
  return os.str();
}

ContractResult replay_case(const CaseSpec& spec,
                           const std::string& contract_name) {
  const Contract* contract = find_contract(contract_name);
  RESIPE_REQUIRE(contract != nullptr,
                 "unknown contract '" << contract_name << "'");
  return contract->check(spec);
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  const auto& registry = contract_registry();
  if (!options.contract_filter.empty()) {
    RESIPE_REQUIRE(find_contract(options.contract_filter) != nullptr,
                   "unknown contract '" << options.contract_filter << "'");
  }

  FuzzReport report;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < options.cases; ++i) {
    if (options.budget_s > 0.0 && seconds_since(t0) >= options.budget_s) {
      report.budget_exhausted = true;
      break;
    }
    const CaseDescriptor descriptor{kSchemaVersion, options.seed0 + i};
    const CaseSpec spec = generate_case(descriptor);
    ++report.cases_run;

    for (const Contract& contract : registry) {
      if (!options.contract_filter.empty() &&
          contract.name != options.contract_filter) {
        continue;
      }
      ContractStats& stats = report.contracts[contract.name];
      ContractResult result;
      try {
        result = contract.check(spec);
      } catch (const std::exception& e) {
        result = ContractResult::fail(std::string("contract threw: ") +
                                      e.what());
      }
      if (result.skipped) {
        ++stats.skip;
        continue;
      }
      if (result.pass) {
        ++stats.pass;
        continue;
      }
      ++stats.fail;

      FuzzFailure failure;
      failure.contract = contract.name;
      failure.original = spec;
      failure.shrunk = spec;
      failure.detail = result.detail;
      if (options.shrink) {
        const ShrinkResult shrunk = shrink_case(spec, contract);
        failure.shrunk = shrunk.spec;
        failure.shrink_steps = shrunk.steps;
        if (!shrunk.detail.empty()) failure.detail = shrunk.detail;
      }
      if (!options.repro_dir.empty()) {
        failure.repro_path = write_repro(options.repro_dir, failure);
      }
      report.failures.push_back(std::move(failure));
      if (report.failures.size() >= options.max_failures) {
        report.wall_s = seconds_since(t0);
        return report;
      }
    }
  }
  report.wall_s = seconds_since(t0);
  return report;
}

}  // namespace resipe::verify
