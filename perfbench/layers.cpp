#include "layers.hpp"

#include <algorithm>

#include "resipe/common/error.hpp"
#include "resipe/crossbar/mapping.hpp"
#include "resipe/resipe/events/event_queue.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"

namespace perfbench {

namespace core = resipe::resipe_core;
namespace nn = resipe::nn;

// ---------------------------------------------------------------- StepClock

void StepClock::on_step(std::size_t index, nn::Layer& layer,
                        const core::ProgrammedMatrix* matrix, bool,
                        const nn::Tensor&, const nn::Tensor&) {
  const double t = now_s();
  if (index >= rows_.size()) {
    rows_.resize(index + 1);
    rows_[index].kind = layer.describe();
    rows_[index].matrix = matrix != nullptr;
  }
  rows_[index].seconds += t - last_;
  last_ = t;
}

double StepClock::matrix_s() const {
  double s = 0.0;
  for (const Row& r : rows_) s += r.matrix ? r.seconds : 0.0;
  return s;
}

double StepClock::func_s() const {
  double s = 0.0;
  for (const Row& r : rows_) s += r.matrix ? 0.0 : r.seconds;
  return s;
}

// ---------------------------------------------------------------- lowering

namespace {

// Physical columns the mapping gives a matrix with `out` logical columns.
std::size_t physical_cols(const core::EngineConfig& config, std::size_t out) {
  return config.mapping == resipe::crossbar::SignedMapping::kOffsetColumn
             ? out + 1
             : 2 * out;
}

// The weight matrix ([in, out] row-major) a matrix layer is lowered
// from; empty for functional layers.
std::vector<double> lowered_weights(const nn::Layer& layer) {
  if (const auto* dense = dynamic_cast<const nn::Dense*>(&layer)) {
    const auto w = dense->weights().data();
    return {w.begin(), w.end()};
  }
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
    return core::conv_weight_matrix(*conv);
  }
  return {};
}

}  // namespace

Lowering lower_timed(nn::Sequential& model, const core::EngineConfig& config,
                     const nn::Tensor& calibration) {
  // Mirrors ResipeNetwork's constructor step for step; MatrixReplay
  // checks the matrices it yields against the network's own.
  constexpr std::size_t kMaxCalibVectors = 512;
  Lowering low;
  resipe::Rng rng(config.program_seed);
  core::EngineConfig layer_cfg = config;
  nn::Tensor h = calibration;
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    nn::Layer& layer = model.layer(li);
    const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer);
    const auto* dense = dynamic_cast<const nn::Dense*>(&layer);
    if (conv != nullptr || dense != nullptr) {
      if (config.reliability.enabled) {
        layer_cfg.reliability.fault_seed = resipe::hash_seed(
            config.reliability.fault_seed, low.matrices.size());
      }
      const std::vector<double> w = lowered_weights(layer);
      const std::size_t in = conv != nullptr
                                 ? conv->in_channels() * conv->kernel() *
                                       conv->kernel()
                                 : dense->in_features();
      const std::size_t out =
          conv != nullptr ? conv->out_channels() : dense->out_features();
      const auto bias =
          conv != nullptr ? conv->bias().data() : dense->bias().data();

      double t0 = now_s();
      auto pm = std::make_unique<core::ProgrammedMatrix>(layer_cfg, w, bias,
                                                         in, out, rng);
      low.program_s += now_s() - t0;
      low.cells += static_cast<double>(in * physical_cols(config, out));

      t0 = now_s();
      const double m = h.abs_max() * config.input_scale_margin;
      pm->set_input_scale(m > 0.0 ? m : 1.0);
      if (dense != nullptr) {
        const std::size_t n = std::min<std::size_t>(h.dim(0), kMaxCalibVectors);
        pm->calibrate_alpha(std::span<const double>(h.data().data(), n * in),
                            n);
      } else {
        // The constructor calibrates on an even subsample of im2col
        // patches.
        const std::size_t oh = conv->out_size(h.dim(2));
        const std::size_t ow = conv->out_size(h.dim(3));
        const std::size_t total = h.dim(0) * oh * ow;
        const std::size_t take = std::min(total, kMaxCalibVectors);
        const std::size_t stride = std::max<std::size_t>(1, total / take);
        std::vector<double> patches(take * in, 0.0);
        std::size_t written = 0;
        for (std::size_t pos = 0; pos < total && written < take;
             pos += stride, ++written) {
          const std::size_t img = pos / (oh * ow);
          const std::size_t rc = pos % (oh * ow);
          core::gather_conv_patch(
              h, img, conv->in_channels(), conv->kernel(), conv->stride(),
              conv->pad(), rc / ow, rc % ow,
              std::span<double>(patches.data() + written * in, in));
        }
        pm->calibrate_alpha(
            std::span<const double>(patches.data(), written * in), written);
      }
      low.calibrate_s += now_s() - t0;
      low.matrices.push_back(std::move(pm));
    }
    const double t0 = now_s();
    h = layer.forward(h, /*train=*/false);
    low.forward_s += now_s() - t0;
  }
  return low;
}

// ------------------------------------------------------------- MatrixReplay

struct MatrixReplay::Captured {
  std::size_t index = 0;    ///< step index
  std::size_t ordinal = 0;  ///< position among matrix steps
  const nn::Layer* layer = nullptr;
  const core::ProgrammedMatrix* matrix = nullptr;
  bool is_conv = false;
  nn::Tensor input;
  nn::Tensor output;
};

// Stand-in tiles with the step's geometry and target conductances: the
// programmed FastMvm blocks are private to ProgrammedMatrix, so the
// kernel share is an estimate on tiles of the same shape fed the same
// encoded times.
struct MatrixReplay::Estimator {
  struct Tile {
    std::size_t row0 = 0;
    std::size_t rows = 0;
    std::unique_ptr<core::FastMvm> mvm;
  };
  explicit Estimator(const core::EngineConfig& config)
      : codec(config.circuit, config.quantize_spikes),
        slice_length(config.circuit.slice_length) {}

  core::SpikeCodec codec;
  double slice_length;
  std::size_t in = 0;
  std::vector<Tile> tiles;
  // Scratch reused across calls.
  std::vector<double> scaled, t_in, t_rows, t_out;
  core::FastMvm::BatchScratch scratch;
  core::events::EventQueue queue;
};

namespace {

class Capture : public core::LayerObserver {
 public:
  explicit Capture(std::vector<std::unique_ptr<MatrixReplay::Captured>>& out)
      : out_(out) {}
  void on_step(std::size_t index, nn::Layer& layer,
               const core::ProgrammedMatrix* matrix, bool is_conv,
               const nn::Tensor& input, const nn::Tensor& output) override {
    if (matrix == nullptr) return;
    auto c = std::make_unique<MatrixReplay::Captured>();
    c->index = index;
    c->ordinal = ordinal_++;
    c->layer = &layer;
    c->matrix = matrix;
    c->is_conv = is_conv;
    c->input = input;
    c->output = output;
    out_.push_back(std::move(c));
  }

 private:
  std::vector<std::unique_ptr<MatrixReplay::Captured>>& out_;
  std::size_t ordinal_ = 0;
};

// run_dense's decomposition at one thread: parallel_for_chunked with
// grain 0 hands forward_batch chunks of max(1, n / 4) vectors.
std::size_t dense_chunk(std::size_t n) { return std::max<std::size_t>(1, n / 4); }

}  // namespace

MatrixReplay::MatrixReplay(const core::ResipeNetwork& net) : net_(net) {}
MatrixReplay::~MatrixReplay() = default;

MatrixReplay::Estimator& MatrixReplay::estimator(const Captured& step) {
  auto it = estimators_.find(step.index);
  if (it != estimators_.end()) return *it->second;
  const core::EngineConfig& cfg = net_.config();
  auto est = std::make_unique<Estimator>(cfg);
  const std::size_t in = step.matrix->in_features();
  const std::size_t out = step.matrix->out_features();
  const resipe::crossbar::MappedWeights mapped = resipe::crossbar::map_weights(
      lowered_weights(*step.layer), in, out, cfg.device, cfg.mapping);
  est->in = in;
  // Same block grid as ProgrammedMatrix: tile_rows x tile_cols blocks
  // over [in, physical cols].
  for (std::size_t row0 = 0; row0 < in; row0 += cfg.tile_rows) {
    const std::size_t rows = std::min(cfg.tile_rows, in - row0);
    for (std::size_t col0 = 0; col0 < mapped.cols; col0 += cfg.tile_cols) {
      const std::size_t cols = std::min(cfg.tile_cols, mapped.cols - col0);
      std::vector<double> g(rows * cols);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          g[r * cols + c] =
              mapped.g_targets[(row0 + r) * mapped.cols + col0 + c];
        }
      }
      est->tiles.push_back({row0, rows, std::make_unique<core::FastMvm>(
                                            cfg.circuit, rows, cols,
                                            std::move(g))});
    }
  }
  return *estimators_.emplace(step.index, std::move(est)).first->second;
}

void MatrixReplay::estimate_vectors(const Captured& step, const double* x,
                                    std::size_t n) {
  Estimator& e = estimator(step);
  const core::ProgrammedMatrix& pm = *step.matrix;
  const std::size_t in = e.in;
  e.scaled.resize(in);
  e.t_in.resize(n * in);

  // Spike encode, as forward_batch runs it: clamp-normalize one vector,
  // then the codec's batched ramp inversion.
  double t0 = now_s();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < in; ++i) {
      e.scaled[i] = pm.time_scale() *
                    std::clamp(x[s * in + i] / pm.input_scale(), 0.0, 1.0);
    }
    e.codec.encode_times(e.scaled,
                         std::span<double>(e.t_in.data() + s * in, in));
  }
  totals_.encode_s += now_s() - t0;

  // Event activity of the encoded vectors, with the queue build timed.
  for (std::size_t s = 0; s < n; ++s) {
    const std::span<const double> t_vec(e.t_in.data() + s * in, in);
    t0 = now_s();
    e.queue.build(t_vec, e.slice_length);
    totals_.queue_build_s += now_s() - t0;
    totals_.rows += in;
    totals_.active_rows += e.queue.size();
    for (const Estimator::Tile& tile : e.tiles) {
      ++totals_.groups;
      if (e.queue.any_in_range(tile.row0, tile.rows)) ++totals_.groups_woken;
    }
  }

  // FastMvm kernel on stand-in tiles of the same shapes.
  for (const Estimator::Tile& tile : e.tiles) {
    e.t_rows.resize(n * tile.rows);
    for (std::size_t s = 0; s < n; ++s) {
      const double* src = e.t_in.data() + s * in + tile.row0;
      std::copy(src, src + tile.rows, e.t_rows.data() + s * tile.rows);
    }
    e.t_out.resize(n * tile.mvm->cols());
    t0 = now_s();
    tile.mvm->mvm_times_batch(e.t_rows, n, e.t_out, e.scratch);
    totals_.kernel_s += now_s() - t0;
    totals_.kernel_flops += 2.0 * static_cast<double>(tile.rows) *
                            static_cast<double>(tile.mvm->cols()) *
                            static_cast<double>(n);
  }
}

void MatrixReplay::replay_step(const Captured& step, Outcome& out,
                               SpanLog* spans,
                               const core::ProgrammedMatrix* replica) {
  const core::ProgrammedMatrix& pm = *step.matrix;
  const nn::Tensor& x = step.input;
  const std::size_t n = x.dim(0);
  const std::size_t in = pm.in_features();
  const std::size_t out_f = pm.out_features();
  core::ProgrammedMatrix::BatchWorkspace ws;
  nn::Tensor y;
  // One probe call of the replica lowering, on the step's first call
  // input, must match the network's matrix bit for bit.
  const auto check_replica = [&](std::span<const double> xs, std::size_t m,
                                 std::span<const double> ys) {
    if (replica == nullptr) return;
    std::vector<double> yr(m * out_f);
    core::ProgrammedMatrix::BatchWorkspace wr;
    replica->forward_batch(xs, m, yr, wr);
    if (!bit_equal(yr, ys)) {
      out.fail("lowering replay of matrix " + std::to_string(step.ordinal) +
               " differs from the network's matrix");
    }
    replica = nullptr;
  };

  const double t_begin = now_s();
  if (step.is_conv) {
    const auto& conv = dynamic_cast<const nn::Conv2d&>(*step.layer);
    const std::size_t cin = conv.in_channels();
    const std::size_t k = conv.kernel();
    const std::size_t stride = conv.stride();
    const std::size_t pad = conv.pad();
    const std::size_t oh = (x.dim(2) + 2 * pad - k) / stride + 1;
    const std::size_t ow = (x.dim(3) + 2 * pad - k) / stride + 1;
    y = nn::Tensor({n, out_f, oh, ow});
    std::vector<double> patches(ow * in);
    std::vector<double> out_row(ow * out_f);
    // Pass 1, timed as run_conv runs it: gather a row of patches, one
    // batched MVM, scatter the row into the NCHW output.
    for (std::size_t img = 0; img < n; ++img) {
      for (std::size_t r = 0; r < oh; ++r) {
        const double t0 = now_s();
        for (std::size_t c = 0; c < ow; ++c) {
          core::gather_conv_patch(x, img, cin, k, stride, pad, r, c,
                                  std::span<double>(patches.data() + c * in, in));
        }
        const double t1 = now_s();
        pm.forward_batch(patches, ow, out_row, ws);
        const double t2 = now_s();
        for (std::size_t c = 0; c < ow; ++c) {
          for (std::size_t oc = 0; oc < out_f; ++oc)
            y.at(img, oc, r, c) = out_row[c * out_f + oc];
        }
        const double t3 = now_s();
        totals_.gather_s += t1 - t0;
        totals_.forward_batch_s += t2 - t1;
        totals_.scatter_s += t3 - t2;
        check_replica(patches, ow, out_row);
      }
    }
    if (spans) spans->record("step " + std::to_string(step.index) + " conv",
                             "replay", t_begin, now_s());
    // Pass 2, untimed gather: encode / kernel / event estimates per row.
    const double t_est = now_s();
    for (std::size_t img = 0; img < n; ++img) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          core::gather_conv_patch(x, img, cin, k, stride, pad, r, c,
                                  std::span<double>(patches.data() + c * in, in));
        }
        estimate_vectors(step, patches.data(), ow);
      }
    }
    if (spans) spans->record("step " + std::to_string(step.index) + " estimate",
                             "estimate", t_est, now_s());
  } else {
    y = nn::Tensor({n, out_f});
    const std::size_t chunk = dense_chunk(n);
    const double* xd = x.data().data();
    double* yd = y.data().data();
    for (std::size_t b = 0; b < n; b += chunk) {
      const std::size_t m = std::min(chunk, n - b);
      const double t0 = now_s();
      pm.forward_batch(std::span<const double>(xd + b * in, m * in), m,
                       std::span<double>(yd + b * out_f, m * out_f), ws);
      totals_.forward_batch_s += now_s() - t0;
      check_replica(std::span<const double>(xd + b * in, m * in), m,
                    std::span<const double>(yd + b * out_f, m * out_f));
    }
    if (spans) spans->record("step " + std::to_string(step.index) + " dense",
                             "replay", t_begin, now_s());
    const double t_est = now_s();
    for (std::size_t b = 0; b < n; b += chunk) {
      estimate_vectors(step, xd + b * in, std::min(chunk, n - b));
    }
    if (spans) spans->record("step " + std::to_string(step.index) + " estimate",
                             "estimate", t_est, now_s());
  }
  if (!bit_equal(y.data(), step.output.data())) {
    out.fail("one-thread replay of step " + std::to_string(step.index) +
             " differs from the observed step output");
  }
}

nn::Tensor MatrixReplay::run(const nn::Tensor& batch, Outcome& out,
                             SpanLog* spans, const Lowering* replica) {
  std::vector<std::unique_ptr<Captured>> steps;
  Capture capture(steps);
  nn::Tensor logits = net_.forward_observed(batch, capture);
  for (const auto& step : steps) {
    const core::ProgrammedMatrix* rep = nullptr;
    if (replica != nullptr) {
      if (step->ordinal >= replica->matrices.size()) {
        out.fail("lowering replay produced fewer matrices than the network");
      } else {
        rep = replica->matrices[step->ordinal].get();
      }
    }
    replay_step(*step, out, spans, rep);
  }
  ++totals_.batches;
  return logits;
}

}  // namespace perfbench
