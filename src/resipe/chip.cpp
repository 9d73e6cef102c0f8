#include "resipe/resipe/chip.hpp"

#include <algorithm>
#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/common/table.hpp"
#include "resipe/telemetry/telemetry.hpp"
#include "resipe/resipe/design.hpp"
#include "resipe/resipe/pipeline.hpp"

namespace resipe::resipe_core {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

}  // namespace

ChipReport map_network(nn::Sequential& model,
                       const std::vector<std::size_t>& input_shape,
                       const ChipConfig& config) {
  RESIPE_TELEM_SCOPE("resipe_core.chip.map_network");
  RESIPE_REQUIRE(input_shape.size() == 3,
                 "input shape must be {channels, height, width}");
  RESIPE_REQUIRE(config.tile_rows > 0 && config.tile_cols > 0 &&
                     config.cols_per_logical > 0 &&
                     config.conv_replication > 0,
                 "bad chip configuration");

  ChipReport report;
  report.slice_length = config.circuit.slice_length;

  // Per-tile reference numbers from the Table II design model.
  ResipeDesign tile(config.circuit, config.device, config.tile_rows,
                    config.tile_cols);
  const auto tile_point = tile.evaluate();
  report.tile_area = tile_point.area;

  std::size_t c = input_shape[0];
  std::size_t h = input_shape[1];
  std::size_t w = input_shape[2];
  bool flattened = false;
  std::size_t flat = c * h * w;

  double total_mvms = 0.0;
  std::size_t max_slices = 1;

  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    nn::Layer& layer = model.layer(li);
    if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
      RESIPE_REQUIRE(flattened || h * w == 1 || flat == dense->in_features(),
                     "dense layer fan-in mismatch in mapping");
      LayerMapping m;
      m.description = dense->describe();
      m.logical_rows = dense->in_features();
      m.logical_cols = dense->out_features();
      const std::size_t phys_cols =
          m.logical_cols * config.cols_per_logical;
      m.tiles = ceil_div(m.logical_rows, config.tile_rows) *
                ceil_div(phys_cols, config.tile_cols);
      m.mvms_per_input = m.tiles;
      m.slices_per_input = 1;
      report.ops_per_inference +=
          2.0 * static_cast<double>(m.logical_rows * m.logical_cols);
      total_mvms += static_cast<double>(m.mvms_per_input);
      max_slices = std::max(max_slices, m.slices_per_input);
      report.layers.push_back(std::move(m));
      flat = dense->out_features();
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      const std::size_t oh = conv->out_size(h);
      const std::size_t ow = conv->out_size(w);
      LayerMapping m;
      m.description = conv->describe();
      m.is_conv = true;
      m.logical_rows =
          conv->in_channels() * conv->kernel() * conv->kernel();
      m.logical_cols = conv->out_channels();
      const std::size_t phys_cols =
          m.logical_cols * config.cols_per_logical;
      const std::size_t group = ceil_div(m.logical_rows, config.tile_rows) *
                                ceil_div(phys_cols, config.tile_cols);
      const std::size_t replication =
          std::min(config.conv_replication, oh * ow);
      m.tiles = group * replication;
      // The replicated groups split the output positions among them.
      m.slices_per_input = ceil_div(oh * ow, replication);
      m.mvms_per_input = group * oh * ow;
      report.ops_per_inference +=
          2.0 * static_cast<double>(m.logical_rows * m.logical_cols) *
          static_cast<double>(oh * ow);
      total_mvms += static_cast<double>(m.mvms_per_input);
      max_slices = std::max(max_slices, m.slices_per_input);
      report.layers.push_back(std::move(m));
      c = conv->out_channels();
      h = oh;
      w = ow;
      flat = c * h * w;
    } else if (auto* mp = dynamic_cast<nn::MaxPool2d*>(&layer)) {
      h /= mp->window();
      w /= mp->window();
      flat = c * h * w;
    } else if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
      flattened = true;
      flat = c * h * w;
    }
    // ReLU and other pointwise layers do not change the mapping.
  }
  RESIPE_REQUIRE(!report.layers.empty(), "network has no matrix layers");

  for (const auto& m : report.layers) report.total_tiles += m.tiles;
  report.total_area =
      static_cast<double>(report.total_tiles) * report.tile_area;

  // Timing: the layer pipeline (Fig. 1) with the slowest layer setting
  // the initiation interval.
  const TwoSlicePipeline pipe(report.layers.size(), report.slice_length);
  // A conv layer adds its position count in slices before its output
  // feature map is complete; latency sums each layer's occupancy.
  double latency_slices = 1.0;  // input presentation
  for (const auto& m : report.layers)
    latency_slices += static_cast<double>(m.slices_per_input);
  report.input_latency = latency_slices * report.slice_length;
  report.initiation_interval =
      static_cast<double>(max_slices) * report.slice_length;
  report.throughput = 1.0 / report.initiation_interval;

  // Power: every tile MVM costs the Table II per-MVM energy; at full
  // rate the chip starts total_mvms MVMs per initiation interval.
  report.power = tile_point.energy_per_mvm * total_mvms /
                 report.initiation_interval;
  report.power_efficiency =
      report.power > 0.0
          ? report.ops_per_inference * report.throughput / report.power
          : 0.0;
  return report;
}

std::string ChipReport::render() const {
  TextTable t({"Layer", "Fan-in x out", "Tiles", "MVMs/input",
               "Slices/input"});
  for (const auto& m : layers) {
    t.add_row({m.description,
               std::to_string(m.logical_rows) + " x " +
                   std::to_string(m.logical_cols),
               std::to_string(m.tiles), std::to_string(m.mvms_per_input),
               std::to_string(m.slices_per_input)});
  }
  std::ostringstream os;
  os << t.str() << "\n";
  os << "tiles              : " << total_tiles << " ("
     << format_fixed(total_area * 1e6, 4) << " mm2)\n";
  os << "input latency      : " << format_si(input_latency, "s") << "\n";
  os << "initiation interval: " << format_si(initiation_interval, "s")
     << "\n";
  os << "throughput         : " << format_si(throughput, "inferences/s")
     << "\n";
  os << "ops per inference  : " << format_si(ops_per_inference, "OP")
     << "\n";
  os << "power @ full rate  : " << format_si(power, "W") << "\n";
  os << "power efficiency   : " << format_si(power_efficiency, "OPS/W")
     << "\n";
  return os.str();
}

}  // namespace resipe::resipe_core
