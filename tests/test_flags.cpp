// The strict flag reader (resipe/common/flags.hpp) that every binary
// reads argv with: declared values, switches and fallbacks, the typed
// reads, the tokens each type refuses, the messages main prints, and a
// fixed-seed mutation stream over the command lines CI runs.  Carries
// the `flags` ctest label so the coverage job can gate the header on
// this suite alone.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "resipe/common/flags.hpp"
#include "resipe/common/rng.hpp"

namespace resipe {
namespace {

constexpr FlagSpec kSpec[] = {{"--rows", "N"},    {"--sigma", "S"},
                              {"--seed", "K"},    {"--threads", "N"},
                              {"--out", "FILE"}, {"--quick"},
                              {"--full"}};

Flags parse(std::vector<std::string> tokens,
            std::span<const FlagSpec> spec = kSpec,
            std::string_view scope = {}) {
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  return Flags(argv, spec, scope);
}

// The FlagError message `tokens` produce, or "" when they parse.
std::string parse_error(std::vector<std::string> tokens,
                        std::string_view scope = {}) {
  try {
    parse(std::move(tokens), kSpec, scope);
  } catch (const FlagError& e) {
    return e.what();
  }
  return "";
}

// The FlagError message a typed read of `name` throws, or "" when it
// returns.
template <typename T>
std::string read_error(const Flags& flags, std::string_view name) {
  try {
    (void)flags.number<T>(name, T{});
  } catch (const FlagError& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, ReadsDeclaredValuesSwitchesAndFallbacks) {
  const Flags flags = parse({"--rows", "8", "--quick", "--out", "a b.json"});
  EXPECT_TRUE(flags.has("--rows"));
  EXPECT_TRUE(flags.has("--quick"));
  EXPECT_TRUE(flags.has("--out"));
  EXPECT_FALSE(flags.has("--full"));
  EXPECT_FALSE(flags.has("--sigma"));
  EXPECT_EQ(flags.number<std::size_t>("--rows", 3), 8u);
  EXPECT_EQ(flags.number("--sigma", 0.25), 0.25);
  EXPECT_EQ(flags.number<std::uint64_t>("--seed", 7), 7u);
  EXPECT_EQ(flags.text("--out"), "a b.json");
  EXPECT_EQ(flags.text("--sigma", "none"), "none");
  EXPECT_EQ(flags.text("--quick"), "");

  // A value flag takes the next token whatever it looks like.
  EXPECT_EQ(parse({"--out", "--quick"}).text("--out"), "--quick");
  EXPECT_FALSE(parse({"--out", "--quick"}).has("--quick"));
  EXPECT_EQ(parse({"--out", ""}).text("--out", "x"), "");
  EXPECT_FALSE(parse({}).has("--rows"));

  // The declared value names, given or not; a switch has none.
  EXPECT_EQ(flags.value_name("--out"), "FILE");
  EXPECT_EQ(flags.value_name("--sigma"), "S");
  EXPECT_EQ(flags.value_name("--quick"), "");
}

TEST(Flags, TypedReadsParseTheWholeToken) {
  const Flags flags =
      parse({"--rows", "18446744073709551615", "--seed", "18446744073709551615",
             "--threads", "-3", "--sigma", "1e-7"});
  EXPECT_EQ(flags.number<std::size_t>("--rows", 0), SIZE_MAX);
  EXPECT_EQ(flags.number<std::uint64_t>("--seed", 0), UINT64_MAX);
  EXPECT_EQ(flags.number("--threads", 0), -3);
  EXPECT_EQ(flags.number("--sigma", 0.0), 1e-7);
  EXPECT_EQ(parse({"--sigma", "-3"}).number("--sigma", 0.0), -3.0);
  EXPECT_EQ(parse({"--sigma", "0.05"}).number("--sigma", 0.0), 0.05);
  EXPECT_EQ(parse({"--threads", "2147483647"}).number("--threads", 0),
            2147483647);
  EXPECT_EQ(read_error<int>(parse({"--threads", "2147483648"}), "--threads"),
            "bad value '2147483648' for '--threads'");
  EXPECT_EQ(read_error<std::size_t>(parse({"--rows", "18446744073709551616"}),
                                    "--rows"),
            "bad value '18446744073709551616' for '--rows'");
}

TEST(Flags, RejectsMalformedNumbers) {
  for (const std::string token :
       {"8x", "-3", "abc", "nan", "inf", "1e400", "", "+5", " 5", "5 ",
        "0x10", "1.5"}) {
    const Flags flags = parse({"--rows", token, "--seed", token, "--threads",
                               token, "--sigma", token});
    const auto message = [&](const char* flag) {
      return "bad value '" + token + "' for '" + flag + "'";
    };
    EXPECT_EQ(read_error<std::size_t>(flags, "--rows"), message("--rows"));
    EXPECT_EQ(read_error<std::uint64_t>(flags, "--seed"), message("--seed"));
    if (token == "-3") continue;  // whole for the signed types
    EXPECT_EQ(read_error<int>(flags, "--threads"), message("--threads"));
    if (token == "1.5") continue;  // whole for a double
    EXPECT_EQ(read_error<double>(flags, "--sigma"), message("--sigma"));
  }
  EXPECT_EQ(read_error<double>(parse({"--sigma", "-inf"}), "--sigma"),
            "bad value '-inf' for '--sigma'");
  EXPECT_THROW(parse_flag<double>("--rates", "0.1,0.2"), FlagError);
}

TEST(Flags, RejectsUnknownValuelessAndRepeatedFlags) {
  EXPECT_EQ(parse_error({"--rosw", "8"}), "unknown option '--rosw'");
  EXPECT_EQ(parse_error({"out.csv"}), "unknown option 'out.csv'");
  EXPECT_EQ(parse_error({"--quick", "8"}), "unknown option '8'");
  EXPECT_EQ(parse_error({"--bogus"}, "command 'mvm'"),
            "unknown option '--bogus' for command 'mvm'");
  EXPECT_EQ(parse_error({"--rows"}), "missing value for '--rows'");
  EXPECT_EQ(parse_error({"--quick", "--out"}), "missing value for '--out'");
  EXPECT_EQ(parse_error({"--rows", "8", "--rows", "4"}),
            "repeated option '--rows' ('8', then '4')");
  EXPECT_EQ(parse_error({"--quick", "--rows", "1", "--quick"}),
            "repeated option '--quick'");
  // Matching is exact: no prefixes, no --flag=value.
  EXPECT_EQ(parse_error({"--row", "8"}), "unknown option '--row'");
  EXPECT_EQ(parse_error({"--rows=8"}), "unknown option '--rows=8'");
}

TEST(Flags, ReadingAnUndeclaredFlagIsALogicError) {
  const Flags flags = parse({"--quick"});
  EXPECT_THROW((void)flags.has("--slow"), std::logic_error);
  EXPECT_THROW((void)flags.text("--slow"), std::logic_error);
  EXPECT_THROW((void)flags.number("--slow", 1), std::logic_error);
  EXPECT_THROW((void)flags.value_name("--slow"), std::logic_error);
}

TEST(Flags, SynopsisListsEveryFlag) {
  EXPECT_EQ(flag_synopsis(kSpec),
            "[--rows N] [--sigma S] [--seed K] [--threads N] [--out FILE] "
            "[--quick] [--full]");
  EXPECT_EQ(flag_synopsis({}), "");
}

// How a binary reads one of its flags.
enum class Kind { kSwitch, kText, kSize, kU64, kInt, kReal };

using FlagList = std::vector<std::pair<std::string_view, Kind>>;

FlagList operator+(FlagList a, const FlagList& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// A typed read either throws FlagError or returns a value whose
// shortest text parses back to the same bits.
template <typename T>
void expect_read_round_trips(const Flags& flags, std::string_view name,
                             std::size_t& bad_reads) {
  T value{};
  try {
    value = flags.number<T>(name, T{});
  } catch (const FlagError&) {
    ++bad_reads;
    return;
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  ASSERT_EQ(ec, std::errc()) << name;
  const T back = parse_flag<T>(name, std::string_view(buf, end));
  EXPECT_EQ(std::memcmp(&back, &value, sizeof(T)), 0)
      << name << " = " << flags.text(name);
}

// Token drops, duplications and swaps, and byte flips, insertions and
// deletions inside a token, over the argv of every CI invocation (each
// resipe_cli line without its command word, which main takes out before
// the reader sees the rest).  Every parse either throws FlagError or
// succeeds, and every typed read after a success either throws
// FlagError or round-trips; any other exception fails the test.
TEST(Flags, MutatedCommandLinesAreRejectedOrParsed) {
  using enum Kind;
  const FlagList cli = {
      {"--trace", kText}, {"--metrics", kText}, {"--threads", kInt}};
  const FlagList inspect =
      cli + FlagList{{"--net", kText},    {"--images", kSize},
                     {"--train", kSize},  {"--epochs", kSize},
                     {"--sigma", kReal},  {"--seed", kU64},
                     {"--out", kText}};
  const FlagList profile =
      cli + FlagList{{"--net", kText},      {"--images", kSize},
                     {"--train", kSize},    {"--epochs", kSize},
                     {"--reps", kSize},     {"--seed", kU64},
                     {"--calib-ms", kReal}, {"--out", kText},
                     {"--folded", kText}};
  const FlagList fuzz = {
      {"--cases", kSize},      {"--budget-s", kReal},
      {"--seed0", kU64},       {"--contract", kText},
      {"--emit-repro", kText}, {"--no-shrink", kSwitch},
      {"--max-failures", kSize}, {"--replay", kText},
      {"--emit-corpus", kText}, {"--snippet", kText},
      {"--inject-bug", kText}, {"--list-contracts", kSwitch},
      {"--help", kSwitch},     {"-h", kSwitch}};
  const FlagList serve = {
      {"--chips", kSize},      {"--rate", kReal},
      {"--duration", kReal},   {"--deadline", kReal},
      {"--defects", kReal},    {"--train", kSize},
      {"--images", kSize},     {"--epochs", kSize},
      {"--seed", kU64},        {"--tenants", kU64},
      {"--out", kText},        {"--trace", kText},
      {"--events", kText},     {"--slo-window", kReal},
      {"--slo-latency", kReal}, {"--slo-latency-obj", kReal},
      {"--slo-avail-obj", kReal}};
  const FlagList bench = {{"--json", kText}};
  const FlagList bench_serving =
      bench + FlagList{{"--quick", kSwitch}, {"--duration", kReal},
                       {"--train", kSize},   {"--images", kSize},
                       {"--epochs", kSize},  {"--seed", kU64}};

  const std::vector<std::pair<std::vector<std::string>, FlagList>> seeds = {
      {{"--trace", "trace.json", "--metrics", "metrics.csv"}, cli},
      {{"--net", "mlp1", "--train", "256", "--images", "48", "--epochs", "2",
        "--out", "inspect_report.json"},
       inspect},
      {{"--net", "mlp1", "--train", "256", "--images", "32", "--epochs", "2",
        "--reps", "3", "--calib-ms", "40", "--out", "roofline.json",
        "--folded", "profile.folded"},
       profile},
      {{"--cases", "2000", "--budget-s", "120", "--emit-repro",
        "fuzz-repros"},
       fuzz},
      {{"--cases", "50", "--inject-bug", "fastmvm-row-drop", "--contract",
        "fast_vs_tile", "--no-shrink"},
       fuzz},
      {{"--contract", "simd_equivalence", "--cases", "500", "--budget-s",
        "120"},
       fuzz},
      {{"--rate", "4000", "--duration", "0.02", "--defects", "0.02",
        "--train", "128", "--images", "64", "--epochs", "2", "--out",
        "serve.json", "--trace", "serve_trace.json", "--events",
        "serve_events.ndjson"},
       serve},
      {{"--quick"}, bench_serving},
      {{"--json", "parallel_scaling.json"}, bench},
      {{"--json", "event_engine.json"}, bench},
      {{"--json", "fault_tolerance.json"}, bench},
      {{"--json", "inspection.json"}, bench},
      {{"--json", "scalar_kernels.json"}, bench},
  };

  constexpr int kMutationsPerSeed = 600;
  const std::string bytes = "0123456789-+.eExn_ -\x01\xff";
  Rng rng(0xF1A65);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t parsed = 0, rejected = 0, bad_reads = 0;
  for (const auto& [argv, flags] : seeds) {
    std::vector<FlagSpec> spec;
    for (const auto& [name, kind] : flags) {
      spec.push_back({name, kind == kSwitch ? "" : "V"});
    }
    for (int m = 0; m < kMutationsPerSeed; ++m) {
      std::vector<std::string> tokens = argv;
      const auto edits = rng.uniform_int(1, 3);
      for (std::int64_t e = 0; e < edits && !tokens.empty(); ++e) {
        const std::size_t at = pick(tokens.size());
        std::string& token = tokens[at];
        switch (rng.uniform_int(0, 5)) {
          case 0:
            tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
            break;
          case 1:
            tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                          std::string(token));
            break;
          case 2:
            if (const std::size_t other = pick(tokens.size()); other != at) {
              std::swap(token, tokens[other]);
            }
            break;
          case 3:
            if (!token.empty()) {
              token[pick(token.size())] ^=
                  static_cast<char>(1 << rng.uniform_int(0, 7));
            }
            break;
          case 4:
            token.insert(pick(token.size() + 1), 1,
                         bytes[pick(bytes.size())]);
            break;
          default:
            if (!token.empty()) token.erase(pick(token.size()), 1);
        }
      }
      try {
        const Flags parsed_flags = parse(tokens, spec);
        ++parsed;
        for (const auto& [name, kind] : flags) {
          switch (kind) {
            case kSwitch:
              (void)parsed_flags.has(name);
              break;
            case kText:
              (void)parsed_flags.text(name);
              break;
            case kSize:
              expect_read_round_trips<std::size_t>(parsed_flags, name,
                                                   bad_reads);
              break;
            case kU64:
              expect_read_round_trips<std::uint64_t>(parsed_flags, name,
                                                     bad_reads);
              break;
            case kInt:
              expect_read_round_trips<int>(parsed_flags, name, bad_reads);
              break;
            case kReal:
              expect_read_round_trips<double>(parsed_flags, name, bad_reads);
          }
        }
      } catch (const FlagError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutation " << m << " threw a non-flag exception: "
                      << e.what();
      }
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(bad_reads, 0u);
}

}  // namespace
}  // namespace resipe
