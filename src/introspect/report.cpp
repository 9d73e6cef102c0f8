// Inspection-report serialization: provenance manifest, JSON document
// and the ASCII dashboard.
#include <cstdio>
#include <ctime>
#include <sstream>

#include "resipe/common/file.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/table.hpp"
#include "resipe/introspect/inspect.hpp"
#include "resipe/telemetry/metrics.hpp"
#include "resipe/telemetry/trace.hpp"

namespace resipe::introspect {

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

using telemetry::json_string;

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

std::string engine_config_hash(const resipe_core::EngineConfig& cfg) {
  // Canonical key=value dump of every knob that changes what the
  // simulated hardware computes.  Field order is fixed; values print at
  // full double precision, so equal hashes mean equal operating points.
  std::ostringstream os;
  os.precision(17);
  const auto& c = cfg.circuit;
  os << "vs=" << c.v_s << ";rgd=" << c.r_gd << ";cgd=" << c.c_gd
     << ";ccog=" << c.c_cog << ";slice=" << c.slice_length
     << ";dt=" << c.comp_stage << ";spike=" << c.spike_width
     << ";clk=" << c.clock_period << ";coff=" << c.comparator_offset
     << ";cdel=" << c.comparator_delay
     << ";csig=" << c.comparator_offset_sigma
     << ";model=" << static_cast<int>(c.model);
  const auto& d = cfg.device;
  os << ";lrs=" << d.r_lrs << ";hrs=" << d.r_hrs << ";lvl=" << d.levels
     << ";wvt=" << d.write_verify_tolerance << ";var=" << d.variation_sigma
     << ";rns=" << d.read_noise_sigma << ";dnu=" << d.drift_nu
     << ";dt0=" << d.drift_t0 << ";ron=" << d.transistor_r_on;
  os << ";rows=" << cfg.tile_rows << ";cols=" << cfg.tile_cols
     << ";map=" << static_cast<int>(cfg.mapping)
     << ";qspk=" << cfg.quantize_spikes
     << ";head=" << cfg.calibration_headroom
     << ";marg=" << cfg.input_scale_margin
     << ";seed=" << cfg.program_seed << ";ir=" << cfg.model_wire_ir_drop
     << ";rwl=" << cfg.wires.r_wordline_segment
     << ";rbl=" << cfg.wires.r_bitline_segment
     << ";ret=" << cfg.retention_time;
  const auto& r = cfg.reliability;
  os << ";rel=" << r.enabled << ";fslr=" << r.faults.stuck_lrs_rate
     << ";fshr=" << r.faults.stuck_hrs_rate
     << ";fcl=" << r.faults.cluster_fraction
     << ";fcs=" << r.faults.cluster_size << ";rdr=" << r.read_disturb_rate
     << ";emv=" << r.expected_mvms << ";end=" << r.endurance_cycles
     << ";wear=" << r.wear_cycles << ";miss=" << r.mapper.miss_rate
     << ";fa=" << r.mapper.false_alarm_rate
     << ";mit=" << r.mitigation.enabled
     << ";sp=" << r.mitigation.spare_cols
     << ";rm=" << r.mitigation.remap_columns
     << ";cp=" << r.mitigation.compensate_pairs
     << ";wvr=" << r.mitigation.write_verify_retries
     << ";dg=" << r.mitigation.degrade_threshold
     << ";fseed=" << r.fault_seed;

  // FNV-1a 64.
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char ch : os.str()) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Provenance collect_provenance(const resipe_core::EngineConfig& config) {
  Provenance p;
  p.engine_config_hash = engine_config_hash(config);
  p.program_seed = config.program_seed;
  p.fault_seed = config.reliability.fault_seed;
  p.threads = default_threads();
#if defined(RESIPE_TELEMETRY_DISABLED)
  p.telemetry_build = false;
#else
  p.telemetry_build = true;
#endif
  p.telemetry_enabled = telemetry::enabled();
#if defined(__VERSION__)
  p.compiler = __VERSION__;
#else
  p.compiler = "unknown";
#endif
#if defined(NDEBUG)
  p.build_type = "release";
#else
  p.build_type = "debug";
#endif
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  p.timestamp = buf;
  return p;
}

std::string InspectionReport::to_json() const {
  std::ostringstream os;
  os << "{\"provenance\":{\"engine_config_hash\":";
  json_string(os, provenance.engine_config_hash);
  os << ",\"program_seed\":" << provenance.program_seed
     << ",\"fault_seed\":" << provenance.fault_seed
     << ",\"threads\":" << provenance.threads << ",\"telemetry_build\":"
     << (provenance.telemetry_build ? "true" : "false")
     << ",\"telemetry_enabled\":"
     << (provenance.telemetry_enabled ? "true" : "false")
     << ",\"compiler\":";
  json_string(os, provenance.compiler);
  os << ",\"build_type\":";
  json_string(os, provenance.build_type);
  os << ",\"timestamp\":";
  json_string(os, provenance.timestamp);
  os << "},\"model\":";
  json_string(os, model_name);
  os << ",\"batch_size\":" << batch_size
     << ",\"analog_accuracy\":" << number(analog_accuracy)
     << ",\"digital_accuracy\":" << number(digital_accuracy)
     << ",\"logits_rmse\":" << number(logits_rmse)
     << ",\"total_energy_j\":" << number(total_energy) << ",\"layers\":[";
  bool first = true;
  for (const LayerReport& lr : layers) {
    if (!first) os << ",";
    first = false;
    os << "{\"step\":" << lr.step << ",\"name\":";
    json_string(os, lr.name);
    os << ",\"is_matrix\":" << (lr.is_matrix ? "true" : "false")
       << ",\"is_conv\":" << (lr.is_conv ? "true" : "false")
       << ",\"tiles\":" << lr.tiles;
    if (lr.probed) {
      const auto& pr = lr.probe;
      os << ",\"spike_health\":{\"vectors\":" << pr.vectors
         << ",\"spikes\":" << pr.spikes << ",\"no_spike\":" << pr.no_spike
         << ",\"pinned_start\":" << pr.pinned_start
         << ",\"pinned_end\":" << pr.pinned_end
         << ",\"inputs_clamped\":" << pr.inputs_clamped
         << ",\"time_hist\":[";
      for (std::size_t i = 0; i < pr.spike_time_hist.size(); ++i) {
        if (i > 0) os << ",";
        os << pr.spike_time_hist[i];
      }
      os << "]},\"activity\":{\"outputs\":" << lr.activity.outputs
         << ",\"dead\":" << lr.activity.dead
         << ",\"always_on\":" << lr.activity.always_on << "}";
    }
    if (lr.error.computed) {
      os << ",\"error\":{\"vectors\":" << lr.error.vectors
         << ",\"total\":" << number(lr.error.total)
         << ",\"quantization\":" << number(lr.error.quantization)
         << ",\"variation\":" << number(lr.error.variation)
         << ",\"nonlinearity\":" << number(lr.error.nonlinearity) << "}";
    }
    if (lr.energy.tile_mvms > 0.0) {
      os << ",\"energy\":{\"per_tile_mvm_j\":"
         << number(lr.energy.per_tile_mvm)
         << ",\"tile_mvms\":" << number(lr.energy.tile_mvms)
         << ",\"total_j\":" << number(lr.energy.total) << "}";
    }
    if (lr.accuracy_if_digital >= 0.0) {
      os << ",\"accuracy_if_digital\":" << number(lr.accuracy_if_digital);
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

void InspectionReport::write_json_file(const std::string& path) const {
  write_file(path, [this](std::ostream& os) { os << to_json() << "\n"; });
}

std::string InspectionReport::render_ascii() const {
  std::ostringstream os;
  os << "== inspection: " << model_name << " (" << batch_size
     << " images) ==\n";
  if (analog_accuracy >= 0.0) {
    os << "accuracy: analog " << format_percent(analog_accuracy)
       << ", digital " << format_percent(digital_accuracy) << " (";
    os << format_percent(digital_accuracy - analog_accuracy)
       << " lost to the analog engine)\n";
  }
  os << "logits RMSE vs digital: " << format_fixed(logits_rmse, 6) << "\n";
  if (total_energy > 0.0) {
    os << "batch energy: " << format_si(total_energy, "J") << "\n";
  }
  os << "\n";

  bool any_probe = false;
  TextTable health({"layer", "tiles", "silent", "pin@0", "pin@end",
                    "clamped", "dead", "always-on"});
  for (const LayerReport& lr : layers) {
    if (!lr.probed) continue;
    any_probe = true;
    const std::uint64_t cols = lr.probe.spikes + lr.probe.no_spike;
    health.add_row(
        {lr.name, std::to_string(lr.tiles),
         format_percent(share(lr.probe.no_spike, cols)),
         format_percent(share(lr.probe.pinned_start, cols)),
         format_percent(share(lr.probe.pinned_end, cols)),
         std::to_string(lr.probe.inputs_clamped),
         std::to_string(lr.activity.dead),
         std::to_string(lr.activity.always_on)});
  }
  if (any_probe) {
    os << "-- numerical health (per probed column read) --\n"
       << health.str() << "\n";
  }

  bool any_err = false;
  TextTable err({"layer", "total RMSE", "quantization", "variation",
                 "nonlinearity"});
  for (const LayerReport& lr : layers) {
    if (!lr.error.computed) continue;
    any_err = true;
    err.add_row({lr.name, format_fixed(lr.error.total, 6),
                 format_fixed(lr.error.quantization, 6),
                 format_fixed(lr.error.variation, 6),
                 format_fixed(lr.error.nonlinearity, 6)});
  }
  if (any_err) {
    os << "-- fidelity-drift attribution (components sum to total) --\n"
       << err.str() << "\n";
  }

  bool any_extra = false;
  TextTable extra({"layer", "energy", "tile MVMs", "acc. if digital"});
  for (const LayerReport& lr : layers) {
    if (lr.energy.tile_mvms <= 0.0 && lr.accuracy_if_digital < 0.0) {
      continue;
    }
    any_extra = true;
    extra.add_row({lr.name,
                   lr.energy.tile_mvms > 0.0
                       ? format_si(lr.energy.total, "J")
                       : "-",
                   lr.energy.tile_mvms > 0.0
                       ? format_fixed(lr.energy.tile_mvms, 0)
                       : "-",
                   lr.accuracy_if_digital >= 0.0
                       ? format_percent(lr.accuracy_if_digital)
                       : "-"});
  }
  if (any_extra) {
    os << "-- energy ledger / accuracy-loss attribution --\n"
       << extra.str() << "\n";
  }

  os << "provenance: config " << provenance.engine_config_hash
     << ", program_seed " << provenance.program_seed << ", threads "
     << provenance.threads << ", telemetry "
     << (provenance.telemetry_build
             ? (provenance.telemetry_enabled ? "on" : "built/off")
             : "compiled out")
     << ", " << provenance.build_type << " build, " << provenance.timestamp
     << "\n";
  return os.str();
}

}  // namespace resipe::introspect
