// The verification harness verified: generator determinism, contract
// registry behaviour, the shrinker's minimality loop, repro round-trip,
// and replay of the committed corpus (tests/corpus/*.json).  Runs under
// `ctest -L verify` and in the telemetry-off build, where the off-flag
// and thread-determinism contracts double as bit-identity checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/resipe/network.hpp"
#include "resipe/verify/contracts.hpp"
#include "resipe/verify/fuzzer.hpp"
#include "resipe/verify/generators.hpp"
#include "resipe/verify/serialize.hpp"
#include "resipe/verify/shrink.hpp"
#include "testing/approx.hpp"
#include "testing/mutate.hpp"

#ifndef RESIPE_CORPUS_DIR
#error "RESIPE_CORPUS_DIR must point at the committed corpus"
#endif

namespace resipe::verify {
namespace {

CaseSpec case_for_seed(std::uint64_t seed) {
  return generate_case(CaseDescriptor{kSchemaVersion, seed});
}

// Disarms the deliberate bug even when an assertion bails out early.
struct BugGuard {
  explicit BugGuard(InjectedBug bug) { set_injected_bug(bug); }
  ~BugGuard() { set_injected_bug(InjectedBug::kNone); }
};

TEST(Generators, SameSeedSameCase) {
  for (std::uint64_t seed : {1ull, 17ull, 983ull}) {
    ReproRecord a{case_for_seed(seed), "all", ""};
    ReproRecord b{case_for_seed(seed), "all", ""};
    EXPECT_EQ(repro_to_json(a), repro_to_json(b)) << "seed " << seed;
  }
}

TEST(Generators, EveryCaseSatisfiesValidate) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    EXPECT_NO_THROW(spec.config.validate()) << spec.summary();
    EXPECT_NO_THROW(spec.serve.validate()) << spec.summary();
  }
}

TEST(Generators, CoversBothModelsAndAllMappings) {
  int linear = 0, exact = 0;
  int mappings[3] = {0, 0, 0};
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    (spec.config.circuit.model == circuits::TransferModel::kLinear ? linear
                                                                   : exact)++;
    ++mappings[static_cast<int>(spec.config.mapping)];
  }
  EXPECT_GT(linear, 0);
  EXPECT_GT(exact, 0);
  for (int m : mappings) EXPECT_GT(m, 0);
}

TEST(Contracts, RegistryHasStableUniqueNames) {
  const auto& registry = contract_registry();
  ASSERT_FALSE(registry.empty());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_FALSE(registry[i].description.empty()) << registry[i].name;
    for (std::size_t j = i + 1; j < registry.size(); ++j) {
      EXPECT_NE(registry[i].name, registry[j].name);
    }
  }
  EXPECT_NE(find_contract("fast_vs_tile"), nullptr);
  EXPECT_EQ(find_contract("no_such_contract"), nullptr);
}

TEST(Contracts, AllHoldOnGeneratedCases) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    for (const auto& contract : contract_registry()) {
      const ContractResult r = contract.check(spec);
      EXPECT_FALSE(r.violated())
          << contract.name << " on " << spec.summary() << ": " << r.detail;
    }
  }
}

TEST(Contracts, ThreadAndOffFlagDeterminismNeverSkip) {
  // These two are the bit-identity anchors the telemetry-off build
  // relies on; they must actually run, not skip.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CaseSpec spec = case_for_seed(seed);
    for (const char* name : {"threads_identical", "off_flags_identical"}) {
      const Contract* contract = find_contract(name);
      ASSERT_NE(contract, nullptr);
      const ContractResult r = contract->check(spec);
      EXPECT_TRUE(r.pass) << name << " on " << spec.summary() << ": "
                          << r.detail;
      EXPECT_FALSE(r.skipped) << name << " on " << spec.summary();
    }
  }
}

TEST(InjectedBug, RowDropIsCaughtAndShrunkToTiny) {
  const Contract* contract = find_contract("fast_vs_tile");
  ASSERT_NE(contract, nullptr);
  const BugGuard guard(InjectedBug::kFastMvmRowDrop);

  // The bug zeroes the last crossbar row inside FastMvm only, so the
  // differential contract must flag it within a handful of seeds.
  CaseSpec failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 50 && !found; ++seed) {
    failing = case_for_seed(seed);
    found = contract->check(failing).violated();
  }
  ASSERT_TRUE(found) << "row-drop bug survived 50 fuzz cases";

  const ShrinkResult shrunk = shrink_case(failing, *contract);
  EXPECT_LE(shrunk.spec.rows, 4u) << shrunk.spec.summary();
  EXPECT_LE(shrunk.spec.cols, 4u) << shrunk.spec.summary();
  EXPECT_TRUE(contract->check(shrunk.spec).violated());

  // The minimal reproducer must pass once the bug is gone.
  set_injected_bug(InjectedBug::kNone);
  EXPECT_FALSE(contract->check(shrunk.spec).violated());
}

TEST(Shrinker, RejectsPassingCase) {
  const Contract* contract = find_contract("fast_vs_tile");
  ASSERT_NE(contract, nullptr);
  EXPECT_THROW(shrink_case(case_for_seed(1), *contract), Error);
}

TEST(Serialize, ReproRoundTripsBitExact) {
  for (std::uint64_t seed : {1ull, 5ull, 33ull}) {
    ReproRecord record{case_for_seed(seed), "fast_vs_tile", "detail text"};
    const std::string json = repro_to_json(record);
    const ReproRecord parsed = repro_from_json(json);
    EXPECT_EQ(repro_to_json(parsed), json) << "seed " << seed;
    EXPECT_EQ(parsed.contract, record.contract);
    EXPECT_EQ(parsed.spec.summary(), record.spec.summary());
  }
}

TEST(Serialize, SnippetEmbedsReplayableRecord) {
  const ReproRecord record{case_for_seed(7), "perm_columns", ""};
  const std::string snippet = repro_snippet(record);
  EXPECT_NE(snippet.find("perm_columns"), std::string::npos);
  EXPECT_NE(snippet.find("repro_from_json"), std::string::npos);
}

// A multi-line detail stays commented out line by line: every line
// before the first #include is a comment, and the embedded record is
// repro_to_json's bytes.
TEST(Serialize, SnippetCommentsEveryDetailLine) {
  const ReproRecord record{case_for_seed(7), "fast_vs_tile",
                           "max abs err 1e-3\nat column 2\r\nrow 4\rend\n"};
  const std::string snippet = repro_snippet(record);
  std::istringstream lines(snippet);
  std::size_t comments = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("#include", 0) == 0) break;
    EXPECT_EQ(line.rfind("//", 0), 0u) << "uncommented line: " << line;
    ++comments;
  }
  EXPECT_EQ(comments, 2u + 6u);
  EXPECT_NE(snippet.find("// at column 2\n"), std::string::npos);
  EXPECT_NE(snippet.find("R\"json(\n" + repro_to_json(record) + ")json\""),
            std::string::npos);
}

TEST(Serialize, RejectsUnknownKeys) {
  EXPECT_THROW(repro_from_json("{\"schema_version\": 1, \"bogus\": 2}"),
               Error);
}

TEST(Serialize, DetailWithControlBytesRoundTrips) {
  ReproRecord record{case_for_seed(3), "fast_vs_tile",
                     "quote \" backslash \\ newline \n tab \t cr \r soh \x01"};
  const std::string json = repro_to_json(record);
  EXPECT_EQ(json.find('\t'), std::string::npos) << "raw tab written";
  EXPECT_EQ(json.find('\r'), std::string::npos) << "raw CR written";
  const ReproRecord parsed = repro_from_json(json);
  EXPECT_EQ(parsed.detail, record.detail);
  EXPECT_EQ(repro_to_json(parsed), json);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(RESIPE_CORPUS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// `text` with its first `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

TEST(Serialize, RejectsMalformedRecords) {
  const std::string base =
      read_file(std::filesystem::path(RESIPE_CORPUS_DIR) / "case_seed40.json");
  ASSERT_NO_THROW(repro_from_json(base));
  const struct {
    std::string json;
    std::string named;  // must appear in the error message
  } cases[] = {
      {replaced(base, "\"batch\": 4,", "\"batch\": 4, \"batch\": 4,"),
       "duplicate key 'batch'"},
      {replaced(base, "\"batch\": 4,", "\"batch\": -1,"), "'batch'"},
      {replaced(base, "\"device_levels\": 8,",
                "\"device_levels\": 4294967304,"),
       "'device_levels'"},
      {replaced(base, "\"classes\": 6,",
                "\"classes\": 18446744073709551617,"),
       "'classes'"},
      {replaced(base, "\"seed\": \"40\",", "\"seed\": \"-1\","), "'seed'"},
      {replaced(base, "\"batch\": 4,", "\"batch\": \"4\","), "'batch'"},
      // A retired key keeps its type; a non-zero device stuck-at rate
      // changed logits through a fault path that is gone.
      {replaced(base, "\"rel_mapper_reads_per_cell\": 3,",
                "\"rel_mapper_reads_per_cell\": 2.5,"),
       "'rel_mapper_reads_per_cell'"},
      {replaced(base, "\"device_stuck_lrs_rate\": 0,",
                "\"device_stuck_lrs_rate\": 0.01,"),
       "'device_stuck_lrs_rate'"},
      {replaced(base, "\"device_stuck_hrs_rate\": 0,",
                "\"device_stuck_hrs_rate\": -1e-9,"),
       "'device_stuck_hrs_rate'"},
      {base + "{}", "trailing bytes"},
  };
  for (const auto& c : cases) {
    try {
      repro_from_json(c.json);
      ADD_FAILURE() << "accepted a record that should name " << c.named;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.named), std::string::npos)
          << e.what();
    }
  }
  // An int field may be negative (validate() judges it, not the reader).
  EXPECT_EQ(repro_from_json(replaced(base, "\"device_levels\": 8,",
                                     "\"device_levels\": -8,"))
                .spec.config.device.levels,
            -8);
}

// The four keys retired with the device's own stuck-at draw and the
// march-test detector load from the records that carry them (a
// non-zero device stuck-at rate is refused by RejectsMalformedRecords)
// and are never written.
TEST(Serialize, RetiredFaultKeysLoadButAreNotWritten) {
  const std::string base =
      read_file(std::filesystem::path(RESIPE_CORPUS_DIR) / "case_seed40.json");
  const std::string written = repro_to_json(repro_from_json(base));
  for (const std::string key :
       {"device_stuck_lrs_rate", "device_stuck_hrs_rate",
        "rel_mapper_rail_tolerance", "rel_mapper_reads_per_cell"}) {
    EXPECT_NE(base.find('"' + key + '"'), std::string::npos) << key;
    EXPECT_EQ(written.find('"' + key + '"'), std::string::npos) << key;
  }
  // The mapper keys never reached a logit: any value of their type loads.
  EXPECT_EQ(repro_to_json(repro_from_json(
                replaced(base, "\"rel_mapper_reads_per_cell\": 3,",
                         "\"rel_mapper_reads_per_cell\": 7,"))),
            written);
}

// Byte mutations of every corpus record: each one is rejected with
// resipe::Error or parses to a record that writes and re-reads to the
// same bytes.  Any other exception type fails the test.
TEST(Serialize, MutatedCorpusIsRejectedOrRoundTrips) {
  constexpr int kMutationsPerFile = 400;
  const std::string inserts = "0123456789-+.eE\"\\,:{}[] \nnatrufl\x01\x7f";
  Rng rng(0x5E71A1);
  std::size_t accepted = 0, rejected = 0;
  for (const auto& path : corpus_files()) {
    const std::string original = read_file(path);
    for (int m = 0; m < kMutationsPerFile; ++m) {
      const std::string text = testing::mutate_bytes(original, rng, inserts);
      try {
        const std::string json = repro_to_json(repro_from_json(text));
        EXPECT_EQ(repro_to_json(repro_from_json(json)), json)
            << path.filename() << " mutation " << m;
        ++accepted;
      } catch (const Error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << path.filename() << " mutation " << m
                      << " threw a non-resipe exception: " << e.what();
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, accepted);
}

// A corpus record of the current schema that `resipe_fuzz
// --emit-corpus` wrote (contract "all", empty detail) is a generated
// case, so regenerating it from its descriptor must write the committed
// record back: a generator change that shifts the (schema, seed) stream
// fails here.  A shrunk reproducer keeps its failure detail and is not
// a generated case.
TEST(Generators, V3StreamMatchesCommittedCorpus) {
  std::size_t checked = 0;
  for (const auto& path : corpus_files()) {
    const ReproRecord record = repro_from_json(read_file(path));
    if (record.spec.descriptor.schema_version != kSchemaVersion ||
        !record.detail.empty()) {
      continue;
    }
    const ReproRecord regenerated{generate_case(record.spec.descriptor),
                                  "all", ""};
    EXPECT_EQ(repro_to_json(regenerated), repro_to_json(record))
        << path.filename();
    ++checked;
  }
  EXPECT_GE(checked, 3u) << "schema-v3 corpus records went missing";
}

TEST(Corpus, EveryCommittedCaseReplaysClean) {
  ASSERT_TRUE(std::filesystem::is_directory(RESIPE_CORPUS_DIR));
  const auto files = corpus_files();
  for (const auto& path : files) {
    const ReproRecord record = repro_from_json(read_file(path));
    for (const auto& contract : contract_registry()) {
      if (record.contract != "all" && record.contract != contract.name) {
        continue;
      }
      const ContractResult r = contract.check(record.spec);
      EXPECT_FALSE(r.violated()) << path.filename() << " " << contract.name
                                 << ": " << r.detail;
    }
  }
  EXPECT_GE(files.size(), 10u) << "corpus went missing";
}

TEST(Fuzzer, ReportAggregatesAndBenchLineIsStable) {
  FuzzOptions options;
  options.cases = 20;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.cases_run, 20u);
  EXPECT_EQ(report.violations(), 0u);
  EXPECT_GT(report.checks(), 0u);
  EXPECT_NE(report.bench_json().find("\"bench\": \"verify_fuzz\""),
            std::string::npos);
}

TEST(Fuzzer, ContractFilterRestrictsChecks) {
  FuzzOptions options;
  options.cases = 5;
  options.contract_filter = "codec_roundtrip";
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.contracts.size(), 1u);
  EXPECT_THROW(
      [] {
        FuzzOptions bad;
        bad.contract_filter = "no_such_contract";
        run_fuzz(bad);
      }(),
      Error);
}

// --- satellite 2: EngineConfig::validate at engine entry points --------

using resipe_core::EngineConfig;
using resipe_core::ProgrammedMatrix;

TEST(EngineConfigValidate, RejectsBadEngineKnobs) {
  EngineConfig cfg;
  cfg.tile_rows = 0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.tile_cols = 5;  // differential pairs need an even width
  EXPECT_THROW(cfg.validate(), Error);
  cfg.mapping = crossbar::SignedMapping::kOffsetColumn;
  EXPECT_NO_THROW(cfg.validate());

  cfg = EngineConfig{};
  cfg.calibration_headroom = 0.0;
  EXPECT_THROW(cfg.validate(), Error);
  cfg.calibration_headroom = 1.5;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.input_scale_margin = -1.0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.retention_time = -1.0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(EngineConfigValidate, SubConfigViolationsPropagate) {
  EngineConfig cfg;
  cfg.circuit.v_s = 0.0;
  EXPECT_THROW(cfg.validate(), Error);

  cfg = EngineConfig{};
  cfg.device.levels = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(EngineConfigValidate, GuardsProgrammedMatrixConstruction) {
  EngineConfig cfg;
  cfg.calibration_headroom = 2.0;
  Rng rng(1);
  const std::vector<double> w(4, 0.1);
  const std::vector<double> b(2, 0.0);
  EXPECT_THROW(ProgrammedMatrix(cfg, w, b, 2, 2, rng), Error);
}

// --- satellite 3: reliability x ir-drop, both thread counts

class FlagCrossProduct
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(FlagCrossProduct, LogitsBitIdenticalAcrossThreadCounts) {
  const auto [reliability, ir_drop] = GetParam();
  Rng rng(404);
  nn::Sequential model("flags_mlp");
  model.emplace<nn::Dense>(6, 10, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(10, 4, rng);

  EngineConfig cfg;
  cfg.tile_rows = 8;
  cfg.tile_cols = 8;
  cfg.reliability.enabled = reliability;
  cfg.reliability.faults.stuck_lrs_rate = reliability ? 0.01 : 0.0;
  cfg.model_wire_ir_drop = ir_drop;

  nn::Tensor calibration({8, 6});
  for (double& v : calibration.data()) v = rng.uniform(0.0, 1.0);
  nn::Tensor batch({3, 6});
  for (double& v : batch.data()) v = rng.uniform(0.0, 1.0);

  const resipe_core::ResipeNetwork net(model, cfg, calibration);
  std::vector<nn::Tensor> logits;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_default_threads(threads);
    logits.push_back(net.forward(batch));
  }
  set_default_threads(0);

  ASSERT_EQ(logits[0].data().size(), logits[1].data().size());
  EXPECT_EQ(std::memcmp(logits[0].data().data(), logits[1].data().data(),
                        logits[0].data().size() * sizeof(double)),
            0)
      << "rel=" << reliability << " ir=" << ir_drop;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, FlagCrossProduct,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

}  // namespace
}  // namespace resipe::verify
