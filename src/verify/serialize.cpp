#include "resipe/verify/serialize.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "resipe/common/error.hpp"
#include "resipe/telemetry/trace.hpp"

namespace resipe::verify {
namespace {

using circuits::TransferModel;
using crossbar::SignedMapping;

/// A 64-bit seed, written as a JSON string: a double-typed JSON reader
/// would round it past 2^53.  A wrapper rather than an overload on
/// std::uint64_t, which is std::size_t on LP64.
template <typename T>
struct Seed {
  T& value;
};

/// A retired key whose value only replays when it equals the value the
/// engine now fixes: a record holding anything else ran a path that is
/// gone.
template <typename T>
struct Retired {
  T value;
};
template <typename T>
Retired(T) -> Retired<T>;

// The record format, listed once: calls f(key, member) for every key in
// file order.  The writer instantiates it on a const record, the reader
// on a mutable one.
template <typename Record, typename F>
void each_field(Record& record, F&& f) {
  auto& s = record.spec;
  auto& cfg = s.config;
  auto& circuit = cfg.circuit;
  auto& device = cfg.device;
  auto& rel = cfg.reliability;
  auto& serve = s.serve;
  f("schema_version", s.descriptor.schema_version);
  f("seed", Seed{s.descriptor.seed});
  f("contract", record.contract);
  f("detail", record.detail);
  f("rows", s.rows);
  f("cols", s.cols);
  f("inputs", s.inputs);
  f("layers", s.layers);
  f("classes", s.classes);
  f("batch", s.batch);
  f("tile_rows", cfg.tile_rows);
  f("tile_cols", cfg.tile_cols);
  f("mapping", cfg.mapping);
  f("quantize_spikes", cfg.quantize_spikes);
  f("calibration_headroom", cfg.calibration_headroom);
  f("input_scale_margin", cfg.input_scale_margin);
  f("program_seed", Seed{cfg.program_seed});
  f("model_wire_ir_drop", cfg.model_wire_ir_drop);
  f("wire_r_wordline", cfg.wires.r_wordline_segment);
  f("wire_r_bitline", cfg.wires.r_bitline_segment);
  f("retention_time", cfg.retention_time);
  f("circuit_v_s", circuit.v_s);
  f("circuit_r_gd", circuit.r_gd);
  f("circuit_c_gd", circuit.c_gd);
  f("circuit_c_cog", circuit.c_cog);
  f("circuit_slice_length", circuit.slice_length);
  f("circuit_comp_stage", circuit.comp_stage);
  f("circuit_spike_width", circuit.spike_width);
  f("circuit_clock_period", circuit.clock_period);
  f("circuit_comparator_offset", circuit.comparator_offset);
  f("circuit_comparator_delay", circuit.comparator_delay);
  f("circuit_comparator_offset_sigma", circuit.comparator_offset_sigma);
  f("circuit_model", circuit.model);
  f("device_r_lrs", device.r_lrs);
  f("device_r_hrs", device.r_hrs);
  f("device_levels", device.levels);
  f("device_write_verify_tolerance", device.write_verify_tolerance);
  f("device_variation_sigma", device.variation_sigma);
  f("device_read_noise_sigma", device.read_noise_sigma);
  f("device_drift_nu", device.drift_nu);
  f("device_drift_t0", device.drift_t0);
  f("device_transistor_r_on", device.transistor_r_on);
  f("rel_enabled", rel.enabled);
  f("rel_stuck_lrs_rate", rel.faults.stuck_lrs_rate);
  f("rel_stuck_hrs_rate", rel.faults.stuck_hrs_rate);
  f("rel_cluster_fraction", rel.faults.cluster_fraction);
  f("rel_mit_enabled", rel.mitigation.enabled);
  f("rel_mit_spare_cols", rel.mitigation.spare_cols);
  f("rel_fault_seed", Seed{rel.fault_seed});
  // Retired knobs, which every committed record carries: the reader
  // checks each value and drops it, and the writer leaves them out.
  // The introspection knobs and the two march-test mapper knobs never
  // reached a logit, so only their type is checked; the others did, so
  // only the value the engine now fixes still replays.
  if constexpr (!std::is_const_v<Record>) {
    using reliability::kClusterCells;
    using reliability::kDegradeWindow;
    using reliability::kWriteVerifyAttempts;
    bool flag = false;
    std::size_t count = 0;
    double threshold = 0.0;
    f("device_stuck_lrs_rate", Retired{0.0});
    f("device_stuck_hrs_rate", Retired{0.0});
    f("rel_cluster_size", Retired{kClusterCells});
    f("rel_read_disturb_rate", Retired{0.0});
    f("rel_expected_mvms", Retired{0.0});
    f("rel_endurance_cycles", Retired{0.0});
    f("rel_wear_cycles", Retired{0.0});
    f("rel_mapper_miss_rate", Retired{0.0});
    f("rel_mapper_false_alarm_rate", Retired{0.0});
    f("rel_mit_remap_columns", Retired{true});
    f("rel_mit_compensate_pairs", Retired{true});
    f("rel_mit_write_verify_retries", Retired{kWriteVerifyAttempts});
    f("rel_mit_degrade_threshold", Retired{kDegradeWindow});
    f("rel_mapper_rail_tolerance", threshold);
    f("rel_mapper_reads_per_cell", count);
    f("insp_enabled", flag);
    f("insp_max_probe_vectors", count);
    f("insp_max_attribution_vectors", count);
    f("insp_attribute_error", flag);
    f("insp_accuracy_attribution", flag);
    f("insp_energy_ledger", flag);
    f("insp_spike_time_bins", count);
    f("insp_activity_threshold", threshold);
  }
  f("serve_queue_capacity", serve.queue_capacity);
  f("serve_batch_max", serve.batch_max);
  f("serve_batch_window", serve.batch_window);
  f("serve_default_deadline", serve.default_deadline);
  f("serve_retry_max", serve.retry_max);
  f("serve_backoff_base", serve.backoff_base);
  f("serve_backoff_multiplier", serve.backoff_multiplier);
  f("serve_backoff_max", serve.backoff_max);
  f("serve_backoff_jitter", serve.backoff_jitter);
  f("serve_canary_period", serve.health.canary_period);
  f("serve_canary_images", serve.health.canary_images);
  f("serve_max_canary_mismatch", serve.health.max_canary_mismatch);
  f("serve_logit_rmse_limit", serve.health.logit_rmse_limit);
  f("serve_quarantine_after", serve.health.quarantine_after);
  f("serve_readmit_after", serve.health.readmit_after);
  f("serve_seed", Seed{serve.seed});
  f("events_enabled", cfg.events.enabled);
}

template <typename E>
using Names = std::pair<E, std::string_view>[];

constexpr Names<SignedMapping> kMappingNames = {
    {SignedMapping::kDifferentialPair, "differential_pair"},
    {SignedMapping::kComplementaryPair, "complementary_pair"},
    {SignedMapping::kOffsetColumn, "offset_column"}};
constexpr Names<TransferModel> kModelNames = {
    {TransferModel::kExact, "exact"}, {TransferModel::kLinear, "linear"}};

const auto& names(SignedMapping) { return kMappingNames; }
const auto& names(TransferModel) { return kModelNames; }

template <typename T>
concept Integer = std::integral<T> && !std::same_as<T, bool>;

// --- writing: one overload per field type --------------------------------

void write(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write(std::ostream& os, bool v) { os << (v ? "true" : "false"); }

template <Integer T>
void write(std::ostream& os, T v) {
  os << std::to_string(v);
}

void write(std::ostream& os, const std::string& v) {
  telemetry::json_string(os, v);
}

void write(std::ostream& os, const std::vector<std::size_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "");
    write(os, v[i]);
  }
  os << ']';
}

void write(std::ostream& os, Seed<const std::uint64_t> seed) {
  os << '"' << std::to_string(seed.value) << '"';
}

template <typename E>
  requires std::is_enum_v<E>
void write(std::ostream& os, E v) {
  for (const auto& [value, name] : names(v)) {
    if (value == v) return telemetry::json_string(os, name);
  }
  RESIPE_ASSERT(false, "unnamed enum value in repro record");
}

// --- reading -------------------------------------------------------------
//
// A strict scanner for the flat JSON repro_to_json emits: one object
// whose values are numbers, booleans, strings or arrays of integers.  No
// external JSON dependency.

class Scanner {
 public:
  explicit Scanner(const std::string& text) : s_(text) {}

  /// Throws resipe::Error naming the problem, the offending text, the
  /// offset and the last key read.  The message reaches users as is
  /// (resipe_fuzz --replay), so it holds no source location.
  void require(bool ok, const char* what, std::string_view text = {}) const {
    if (ok) return;
    std::ostringstream os;
    os << "repro JSON: " << what;
    if (!text.empty()) os << " '" << text << "'";
    os << " at offset " << i_;
    if (!key_.empty()) os << " after key '" << key_ << "'";
    throw Error(os.str());
  }

  char peek() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ < s_.size() ? s_[i_] : '\0';
  }

  void expect(char c) {
    require(peek() == c, "expected", std::string_view(&c, 1));
    ++i_;
  }

  void expect_end() {
    peek();
    require(i_ == s_.size(), "trailing bytes",
            std::string_view(s_).substr(i_, 16));
  }

  /// Reads `"key":` and remembers the key for later messages.
  const std::string& key() {
    key_ = string_value();
    expect(':');
    return key_;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    for (;;) {
      require(i_ < s_.size(), "unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      constexpr std::string_view kFrom = "\"\\/bfnrt";
      constexpr std::string_view kTo = "\"\\/\b\f\n\r\t";
      const char e = i_ < s_.size() ? s_[i_++] : '\0';
      if (const auto k = kFrom.find(e); k != std::string_view::npos) {
        out += kTo[k];
      } else {
        require(e == 'u', "bad escape in string");
        const auto code = parse<unsigned>(std::string_view(s_).substr(i_, 4),
                                          "bad \\u escape", 16);
        require(code < 0x80, "\\u escape beyond ASCII");
        out += static_cast<char>(code);
        i_ += 4;
      }
    }
  }

  /// A bare value: number, true or false.
  std::string_view token() {
    peek();
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '+' || s_[i_] == '-' || s_[i_] == '.')) {
      ++i_;
    }
    require(i_ > start, "expected a bare value");
    return std::string_view(s_).substr(start, i_ - start);
  }

  /// The whole of `t` as a T, which must hold it exactly.
  template <typename T, typename... Base>
  T parse(std::string_view t, const char* what, Base... base) const {
    T v{};
    const auto [end, ec] =
        std::from_chars(t.data(), t.data() + t.size(), v, base...);
    require(!t.empty() && ec == std::errc() && end == t.data() + t.size(),
            what, t);
    return v;
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
  std::string key_;
};

// --- reading: one overload per field type --------------------------------

/// A bare token as the type of `like`.
double bare(const Scanner& sc, std::string_view t, double /*like*/) {
  return sc.parse<double>(t, "bad number");
}

bool bare(const Scanner& sc, std::string_view t, bool /*like*/) {
  sc.require(t == "true" || t == "false", "bad boolean", t);
  return t == "true";
}

template <Integer T>
T bare(const Scanner& sc, std::string_view t, T /*like*/) {
  return sc.parse<T>(t, "bad integer");
}

template <typename T>
  requires std::is_arithmetic_v<T>
void read(Scanner& sc, T& v) {
  v = bare(sc, sc.token(), v);
}

void read(Scanner& sc, std::string& v) { v = sc.string_value(); }

void read(Scanner& sc, std::vector<std::size_t>& v) {
  sc.expect('[');
  v.clear();
  while (sc.peek() != ']') {
    if (!v.empty()) sc.expect(',');
    read(sc, v.emplace_back());
  }
  sc.expect(']');
}

void read(Scanner& sc, Seed<std::uint64_t> seed) {
  seed.value = sc.parse<std::uint64_t>(sc.string_value(), "bad seed");
}

template <typename T>
void read(Scanner& sc, Retired<T> retired) {
  const std::string_view t = sc.token();
  if (bare(sc, t, retired.value) == retired.value) return;
  std::ostringstream what;
  what << "retired key, only ";
  write(what, retired.value);
  what << " replays, got";
  sc.require(false, what.str().c_str(), t);
}

template <typename E>
  requires std::is_enum_v<E>
void read(Scanner& sc, E& v) {
  const std::string s = sc.string_value();
  for (const auto& [value, name] : names(v)) {
    if (name == s) {
      v = value;
      return;
    }
  }
  sc.require(false, "unknown name", s);
}

}  // namespace

std::string repro_to_json(const ReproRecord& record) {
  std::ostringstream os;
  os << "{\n";
  const char* sep = "";
  each_field(record, [&](const char* key, const auto& value) {
    os << sep << "  \"" << key << "\": ";
    write(os, value);
    sep = ",\n";
  });
  os << "\n}\n";
  return os.str();
}

ReproRecord repro_from_json(const std::string& json) {
  ReproRecord record;
  Scanner sc(json);
  std::set<std::string> seen;
  sc.expect('{');
  while (sc.peek() != '}') {
    if (!seen.empty()) sc.expect(',');
    const std::string& key = sc.key();
    if (!seen.insert(key).second) {
      throw Error("duplicate key '" + key + "' in repro record");
    }
    bool known = false;
    each_field(record, [&](std::string_view name, auto&& member) {
      if (known || name != key) return;
      known = true;
      read(sc, member);
    });
    if (!known) throw Error("unknown key '" + key + "' in repro record");
  }
  sc.expect('}');
  sc.expect_end();
  return record;
}

std::string repro_snippet(const ReproRecord& record) {
  std::ostringstream os;
  os << "// Reproduces contract violation '" << record.contract << "'\n"
     << "// case: " << record.spec.summary() << "\n";
  // Every line of the detail stays a comment, so the snippet compiles;
  // a lone CR ends a line for the compiler too.
  const std::string_view detail = record.detail;
  for (std::size_t begin = 0; begin <= detail.size();) {
    const std::size_t end =
        std::min(detail.find_first_of("\r\n", begin), detail.size());
    os << "// " << detail.substr(begin, end - begin) << "\n";
    begin = end + 1;
  }
  os << "#include \"resipe/verify/contracts.hpp\"\n"
     << "#include \"resipe/verify/serialize.hpp\"\n\n"
     << "const auto record = resipe::verify::repro_from_json(R\"json(\n"
     << repro_to_json(record)
     << ")json\");\n"
     << "const auto* contract =\n"
     << "    resipe::verify::find_contract(record.contract);\n"
     << "const auto result = contract->check(record.spec);\n"
     << "// result.violated() is expected to be true until the bug is "
        "fixed.\n";
  return os.str();
}

}  // namespace resipe::verify
