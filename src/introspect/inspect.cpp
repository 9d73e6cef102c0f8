#include "resipe/introspect/inspect.hpp"

#include <algorithm>
#include <utility>

#include "resipe/common/error.hpp"
#include "resipe/common/stats.hpp"
#include "resipe/nn/layers.hpp"
#include "resipe/nn/train.hpp"
#include "resipe/resipe/design.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::introspect {

namespace {

using resipe_core::EngineConfig;
using resipe_core::ProgrammedMatrix;
using resipe_core::ResipeNetwork;

/// Per matrix layer, the input vectors (dense rows / conv im2col
/// patches) the probed re-run covers.
constexpr std::size_t kMaxProbeVectors = 512;
/// Per matrix layer, the vectors the fidelity-attribution arms run.
/// The arms reprogram the layer twice, so they are the expensive part.
constexpr std::size_t kMaxAttributionVectors = 128;
/// Bins of the normalized (t / slice) output spike-time histograms.
constexpr std::size_t kSpikeTimeBins = 20;
/// An output neuron is dead when its activation never exceeds this,
/// and always firing when it exceeds it on every vector.
constexpr double kActivityThreshold = 0.0;

/// One lowered-step boundary captured during forward_observed.
struct Capture {
  std::size_t step = 0;
  nn::Layer* layer = nullptr;
  const ProgrammedMatrix* matrix = nullptr;
  bool is_conv = false;
  nn::Tensor input;
  nn::Tensor output;
};

class CaptureObserver : public resipe_core::LayerObserver {
 public:
  void on_step(std::size_t index, nn::Layer& layer,
               const ProgrammedMatrix* matrix, bool is_conv,
               const nn::Tensor& input, const nn::Tensor& output) override {
    captures.push_back(Capture{index, &layer, matrix, is_conv, input,
                               output});
  }

  std::vector<Capture> captures;
};

/// Stride-samples up to `cap` of `total` positions.
std::vector<std::size_t> sample_positions(std::size_t total,
                                          std::size_t cap) {
  const std::size_t take = std::min(total, cap);
  std::vector<std::size_t> idx;
  if (take == 0) return idx;
  const std::size_t stride = std::max<std::size_t>(1, total / take);
  for (std::size_t pos = 0; pos < total && idx.size() < take;
       pos += stride) {
    idx.push_back(pos);
  }
  return idx;
}

/// Matrix-layer input vectors (dense rows / conv im2col patches) plus
/// the analog outputs the production forward actually computed for
/// them, stride-sampled from the captured batch.
struct VectorSet {
  std::size_t in = 0;
  std::size_t out = 0;
  std::size_t count = 0;
  std::vector<double> x;       // [count, in]
  std::vector<double> y_real;  // [count, out]
};

VectorSet gather_vectors(const Capture& cap, std::size_t max_vectors) {
  VectorSet vs;
  vs.in = cap.matrix->in_features();
  vs.out = cap.matrix->out_features();
  if (!cap.is_conv) {
    const std::size_t n = cap.input.dim(0);
    const std::vector<std::size_t> idx = sample_positions(n, max_vectors);
    vs.count = idx.size();
    vs.x.resize(vs.count * vs.in);
    vs.y_real.resize(vs.count * vs.out);
    const std::span<const double> xin = cap.input.data();
    const std::span<const double> yout = cap.output.data();
    for (std::size_t v = 0; v < vs.count; ++v) {
      std::copy_n(xin.data() + idx[v] * vs.in, vs.in,
                  vs.x.data() + v * vs.in);
      std::copy_n(yout.data() + idx[v] * vs.out, vs.out,
                  vs.y_real.data() + v * vs.out);
    }
    return vs;
  }
  const auto* conv = dynamic_cast<const nn::Conv2d*>(cap.layer);
  RESIPE_REQUIRE(conv != nullptr, "conv step without a Conv2d layer");
  const std::size_t n = cap.input.dim(0);
  const std::size_t oh = cap.output.dim(2);
  const std::size_t ow = cap.output.dim(3);
  const std::vector<std::size_t> idx =
      sample_positions(n * oh * ow, max_vectors);
  vs.count = idx.size();
  vs.x.resize(vs.count * vs.in);
  vs.y_real.resize(vs.count * vs.out);
  for (std::size_t v = 0; v < vs.count; ++v) {
    const std::size_t img = idx[v] / (oh * ow);
    const std::size_t rc = idx[v] % (oh * ow);
    const std::size_t r = rc / ow;
    const std::size_t c = rc % ow;
    resipe_core::gather_conv_patch(
        cap.input, img, conv->in_channels(), conv->kernel(),
        conv->stride(), conv->pad(), r, c,
        std::span<double>(vs.x.data() + v * vs.in, vs.in));
    for (std::size_t oc = 0; oc < vs.out; ++oc) {
      vs.y_real[v * vs.out + oc] = cap.output.at(img, oc, r, c);
    }
  }
  return vs;
}

/// The layer's logical weight matrix ([in, out] row-major) and bias —
/// the digital reference the attribution arms compare against.
std::vector<double> weight_matrix_of(nn::Layer& layer,
                                     std::vector<double>& bias) {
  if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
    const auto b = dense->bias().data();
    bias.assign(b.begin(), b.end());
    const auto w = dense->weights().data();
    return std::vector<double>(w.begin(), w.end());
  }
  auto* conv = dynamic_cast<nn::Conv2d*>(&layer);
  RESIPE_REQUIRE(conv != nullptr,
                 "matrix step is neither Dense nor Conv2d");
  const auto b = conv->bias().data();
  bias.assign(b.begin(), b.end());
  return resipe_core::conv_weight_matrix(*conv);
}

/// y = W^T x + b over every sampled vector — the ideal digital MVM.
std::vector<double> digital_reference(const VectorSet& vs,
                                      std::span<const double> wm,
                                      std::span<const double> bias) {
  std::vector<double> y(vs.count * vs.out, 0.0);
  for (std::size_t v = 0; v < vs.count; ++v) {
    const double* x = vs.x.data() + v * vs.in;
    double* yv = y.data() + v * vs.out;
    for (std::size_t j = 0; j < vs.out; ++j) yv[j] = bias[j];
    for (std::size_t i = 0; i < vs.in; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      const double* wrow = wm.data() + i * vs.out;
      for (std::size_t j = 0; j < vs.out; ++j) yv[j] += xi * wrow[j];
    }
  }
  return y;
}

/// Re-programs the layer under `cfg`, mirrors the production scales,
/// and returns its RMSE against the digital reference.
double run_arm(const EngineConfig& cfg, const ProgrammedMatrix& real,
               const VectorSet& vs, std::span<const double> wm,
               std::span<const double> bias,
               std::span<const double> y_dig, std::uint64_t seed) {
  Rng rng(seed);
  ProgrammedMatrix pm(cfg, wm, bias, vs.in, vs.out, rng);
  pm.set_input_scale(real.input_scale());
  pm.set_time_scale(real.time_scale());
  std::vector<double> y(vs.count * vs.out, 0.0);
  for (std::size_t v = 0; v < vs.count; ++v) {
    pm.forward(std::span<const double>(vs.x.data() + v * vs.in, vs.in),
               std::span<double>(y.data() + v * vs.out, vs.out));
  }
  return rmse(y, y_dig);
}

/// Telescoping fidelity-drift decomposition.  Arm Q keeps only the
/// deterministic quantizers (conductance levels + clock grid) on a
/// linearized transfer; arm QV adds every stochastic device/circuit
/// effect; the production layer adds the exact RC transfer on top.
/// quant = err(Q), variation = err(QV) - err(Q), nonlinearity =
/// total - err(QV): the components sum to the measured total exactly.
ErrorAttribution attribute_error(const EngineConfig& base,
                                 const Capture& cap,
                                 std::size_t matrix_index,
                                 const VectorSet& vs,
                                 std::span<const double> wm,
                                 std::span<const double> bias) {
  ErrorAttribution att;
  if (vs.count == 0) return att;
  const std::vector<double> y_dig = digital_reference(vs, wm, bias);
  att.total = rmse(vs.y_real, y_dig);

  EngineConfig quant = base;
  quant.circuit.model = circuits::TransferModel::kLinear;
  quant.circuit.comparator_offset = 0.0;
  quant.circuit.comparator_offset_sigma = 0.0;
  quant.circuit.comparator_delay = 0.0;
  quant.device.write_verify_tolerance = 0.0;
  quant.device.variation_sigma = 0.0;
  quant.device.read_noise_sigma = 0.0;
  quant.retention_time = 0.0;
  quant.model_wire_ir_drop = false;
  quant.reliability.enabled = false;

  EngineConfig qv = base;
  qv.circuit.model = circuits::TransferModel::kLinear;
  if (qv.reliability.enabled) {
    // Mirror the per-layer fault stream the engine used, so the arm
    // sees the same defective silicon as the production layer.
    qv.reliability.fault_seed =
        hash_seed(base.reliability.fault_seed, matrix_index);
  }

  const double err_q =
      run_arm(quant, *cap.matrix, vs, wm, bias, y_dig,
              hash_seed(base.program_seed, 0x1A5B0000u + matrix_index, 1));
  const double err_qv =
      run_arm(qv, *cap.matrix, vs, wm, bias, y_dig,
              hash_seed(base.program_seed, 0x1A5B0000u + matrix_index, 2));
  att.quantization = err_q;
  att.variation = err_qv - err_q;
  att.nonlinearity = att.total - err_qv;
  att.vectors = vs.count;
  att.computed = true;
  return att;
}

/// Dead / always-firing output units measured on the captured analog
/// activations: per dense feature, or per conv output channel.
NeuronActivity measure_activity(const Capture& cap, double threshold) {
  NeuronActivity act;
  if (!cap.is_conv) {
    const std::size_t n = cap.output.dim(0);
    const std::size_t out = cap.output.dim(1);
    act.outputs = out;
    const std::span<const double> y = cap.output.data();
    for (std::size_t j = 0; j < out; ++j) {
      bool ever_above = false;
      bool always_above = true;
      for (std::size_t s = 0; s < n; ++s) {
        const bool above = y[s * out + j] > threshold;
        ever_above = ever_above || above;
        always_above = always_above && above;
      }
      if (!ever_above) ++act.dead;
      if (always_above && n > 0) ++act.always_on;
    }
    return act;
  }
  const std::size_t n = cap.output.dim(0);
  const std::size_t cout = cap.output.dim(1);
  const std::size_t oh = cap.output.dim(2);
  const std::size_t ow = cap.output.dim(3);
  act.outputs = cout;
  for (std::size_t oc = 0; oc < cout; ++oc) {
    bool ever_above = false;
    bool always_above = true;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const bool above = cap.output.at(s, oc, r, c) > threshold;
          ever_above = ever_above || above;
          always_above = always_above && above;
        }
      }
    }
    if (!ever_above) ++act.dead;
    if (always_above && n > 0) ++act.always_on;
  }
  return act;
}

}  // namespace

InspectionReport inspect(const ResipeNetwork& net, const nn::Tensor& batch,
                         std::span<const int> labels) {
  RESIPE_TELEM_SCOPE("introspect.inspect");
  const EngineConfig& cfg = net.config();

  InspectionReport rep;
  rep.provenance = collect_provenance(cfg);
  rep.model_name = net.model().name();
  rep.batch_size = batch.dim(0);

  // Layer skeleton straight from the model: one lowered step per layer.
  for (std::size_t i = 0; i < net.model().layer_count(); ++i) {
    LayerReport lr;
    lr.step = i;
    lr.name = net.model().layer(i).describe();
    lr.is_matrix = net.model().layer(i).is_matrix_layer();
    rep.layers.push_back(std::move(lr));
  }

  // One observed pass: the logits are bit-identical to net.forward(),
  // and every step boundary is captured for the probes below.
  CaptureObserver obs;
  const nn::Tensor analog_logits = net.forward_observed(batch, obs);
  const nn::Tensor digital_logits = net.model().forward(batch, false);
  rep.logits_rmse = rmse(analog_logits.data(), digital_logits.data());
  if (!labels.empty()) {
    rep.analog_accuracy = nn::accuracy(analog_logits, labels);
    rep.digital_accuracy = nn::accuracy(digital_logits, labels);
  }

  const resipe_core::ResipeDesign design(cfg.circuit, cfg.device,
                                         cfg.tile_rows, cfg.tile_cols);
  const double energy_per_tile_mvm = design.mvm_report().total_energy();

  std::size_t matrix_index = 0;
  for (const Capture& cap : obs.captures) {
    LayerReport& lr = rep.layers.at(cap.step);
    lr.is_conv = cap.is_conv;
    if (cap.matrix == nullptr) continue;
    lr.tiles = cap.matrix->tile_count();

    // Spike-time / saturation / clamp probes over a sampled re-run.
    lr.probe = ProgrammedMatrix::ProbeStats(kSpikeTimeBins);
    {
      const VectorSet vs = gather_vectors(cap, kMaxProbeVectors);
      std::vector<double> y(vs.out, 0.0);
      for (std::size_t v = 0; v < vs.count; ++v) {
        cap.matrix->forward_probed(
            std::span<const double>(vs.x.data() + v * vs.in, vs.in), y,
            lr.probe);
      }
      lr.probed = true;
    }

    lr.activity = measure_activity(cap, kActivityThreshold);

    {
      std::vector<double> bias;
      const std::vector<double> wm = weight_matrix_of(*cap.layer, bias);
      const VectorSet vs = gather_vectors(cap, kMaxAttributionVectors);
      lr.error = attribute_error(cfg, cap, matrix_index, vs, wm, bias);
    }

    const double vectors =
        cap.is_conv ? static_cast<double>(cap.output.dim(0) *
                                          cap.output.dim(2) *
                                          cap.output.dim(3))
                    : static_cast<double>(cap.output.dim(0));
    lr.energy.per_tile_mvm = energy_per_tile_mvm;
    lr.energy.tile_mvms =
        vectors * static_cast<double>(cap.matrix->tile_count());
    lr.energy.total = lr.energy.per_tile_mvm * lr.energy.tile_mvms;
    rep.total_energy += lr.energy.total;

    if (!labels.empty()) {
      std::vector<bool> mask(net.step_count(), false);
      mask[cap.step] = true;
      lr.accuracy_if_digital =
          nn::accuracy(net.forward_hybrid(batch, mask), labels);
    }
    ++matrix_index;
  }
  return rep;
}

}  // namespace resipe::introspect
