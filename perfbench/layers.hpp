// Per-layer measurements of a lowered network, taken from the benchmark's
// own files through the engine's public API (nothing is traced inside
// the engine):
//
//  * StepClock     — host time per lowered step of forward_observed, at
//                    whatever thread count the caller runs it;
//  * lower_timed   — the lowering ResipeNetwork's constructor performs,
//                    redone step by step with ProgrammedMatrix
//                    construction and calibrate_alpha timed apart;
//  * MatrixReplay  — each matrix step's captured input replayed at one
//                    thread through gather_conv_patch, forward_batch and
//                    the output scatter (checked bit-identical to the
//                    step output), then split into spike encode and an
//                    estimate of the FastMvm kernel share, with the
//                    event-activity counts of the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/resipe/network.hpp"

namespace perfbench {

/// Accumulates host time per lowered step over forward_observed calls.
/// Step i runs from the previous boundary (or start()) to its on_step.
class StepClock : public resipe::resipe_core::LayerObserver {
 public:
  struct Row {
    std::string kind;   ///< layer description
    bool matrix = false;
    double seconds = 0.0;  ///< summed over calls
  };

  /// Marks the start of one forward_observed call.
  void start() { last_ = now_s(); }

  void on_step(std::size_t index, resipe::nn::Layer& layer,
               const resipe::resipe_core::ProgrammedMatrix* matrix,
               bool is_conv, const resipe::nn::Tensor& input,
               const resipe::nn::Tensor& output) override;

  const std::vector<Row>& rows() const { return rows_; }
  double matrix_s() const;
  double func_s() const;
  double total_s() const { return matrix_s() + func_s(); }

 private:
  double last_ = 0.0;
  std::vector<Row> rows_;
};

/// Lowering times of one network, redone outside the engine.
struct Lowering {
  double program_s = 0.0;    ///< ProgrammedMatrix constructors
  double calibrate_s = 0.0;  ///< calibrate_alpha calls
  double forward_s = 0.0;    ///< software forward of the calibration batch
  double cells = 0.0;        ///< programmed cells (rows x physical cols)
  /// The lowered matrices in step order, for checking against the
  /// network the lowering replicates.
  std::vector<std::unique_ptr<resipe::resipe_core::ProgrammedMatrix>> matrices;
};

/// Lowers `model` exactly as ResipeNetwork(model, config, calibration)
/// does — one program stream over the layers in order, input scale from
/// the calibration activations, calibrate_alpha on at most 512 vectors —
/// timing construction and calibration apart.
Lowering lower_timed(resipe::nn::Sequential& model,
                     const resipe::resipe_core::EngineConfig& config,
                     const resipe::nn::Tensor& calibration);

/// Totals of MatrixReplay over every batch it was given.
struct MatrixBreakdown {
  std::size_t batches = 0;
  double gather_s = 0.0;         ///< conv im2col gather
  double scatter_s = 0.0;        ///< conv y.at(...) scatter
  double forward_batch_s = 0.0;  ///< ProgrammedMatrix::forward_batch
  double encode_s = 0.0;         ///< input clamp + SpikeCodec::encode_times
  double kernel_s = 0.0;         ///< FastMvm::mvm_times_batch (estimate)
  double kernel_flops = 0.0;     ///< 2 x rows x cols x vectors
  double queue_build_s = 0.0;    ///< EventQueue::build per vector
  std::uint64_t rows = 0;        ///< input rows seen
  std::uint64_t active_rows = 0; ///< rows carrying a spike
  std::uint64_t groups = 0;      ///< (vector, tile) pairs
  std::uint64_t groups_woken = 0;///< of those, with a spike in the window
};

/// One-thread replay of a network's matrix steps.  Call with the
/// process at one thread (set_default_threads(1)).
class MatrixReplay {
 public:
  explicit MatrixReplay(const resipe::resipe_core::ResipeNetwork& net);
  ~MatrixReplay();
  MatrixReplay(const MatrixReplay&) = delete;
  MatrixReplay& operator=(const MatrixReplay&) = delete;

  /// Captures every matrix step's input for `batch` with
  /// forward_observed, replays it, and adds to totals().  Returns the
  /// captured logits.  A replay that is not bit-identical to the step
  /// output is booked in `out`, and so is a `replica` lowering whose
  /// matrices do not reproduce the network's on the captured inputs.
  resipe::nn::Tensor run(const resipe::nn::Tensor& batch, Outcome& out,
                         SpanLog* spans, const Lowering* replica = nullptr);

  const MatrixBreakdown& totals() const { return totals_; }

  /// One matrix step's observed input and output.
  struct Captured;

 private:
  struct Estimator;

  Estimator& estimator(const Captured& step);
  void replay_step(const Captured& step, Outcome& out, SpanLog* spans,
                   const resipe::resipe_core::ProgrammedMatrix* replica);
  void estimate_vectors(const Captured& step, const double* x,
                        std::size_t n);

  const resipe::resipe_core::ResipeNetwork& net_;
  std::map<std::size_t, std::unique_ptr<Estimator>> estimators_;
  MatrixBreakdown totals_;
};

}  // namespace perfbench
