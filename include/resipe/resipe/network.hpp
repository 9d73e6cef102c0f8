// Network-level inference through the ReSiPE circuit model.
//
// Maps every matrix layer (Dense / Conv2d) of a trained network onto
// virtual ReSiPE tiles and replaces its forward pass with the
// single-spiking circuit simulation; pooling, ReLU and flatten run
// functionally (they live in the spike/peripheral domain in hardware).
//
// Mapping pipeline per matrix layer (see DESIGN.md):
//   1. the logical weight matrix [in, out] is mapped to conductances
//      (differential column pairs by default) with the layer's max |w|
//      as the normalization scale;
//   2. rows are partitioned into tile_rows-sized blocks, columns into
//      tile_cols-sized blocks; each block is programmed cell-by-cell
//      (level quantization + write-verify + process variation);
//   3. at inference, activations are scaled to [0, 1] by a calibrated
//      per-layer input scale, encoded as ramp-coherent spike times
//      (scaled by a calibrated alpha) and turned into wordline voltages
//      by S1 once per activation, run through each block's FastMvm,
//      and read back per physical column as the raw current-sum via
//      the per-column trim
//        sum_i(V_i G_ij) = V_cog,j * g_total_j / k_j
//      (g_total and k are programming-time constants — a per-column
//      digital gain calibration, standard practice in PIM macros);
//   4. differential pairs and row-block partial sums combine in the
//      recovered-sum domain; the layer bias is added last.
//
// Partial-sum combination across row blocks happens in the recovered
// domain — the paper does not describe a multi-tile accumulation
// circuit, so the substitution is documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "resipe/circuits/params.hpp"
#include "resipe/crossbar/ir_drop.hpp"
#include "resipe/crossbar/mapping.hpp"
#include "resipe/device/reram.hpp"
#include "resipe/nn/model.hpp"
#include "resipe/reliability/config.hpp"
#include "resipe/resipe/events/config.hpp"
#include "resipe/resipe/fast_mvm.hpp"
#include "resipe/resipe/spike_code.hpp"

namespace resipe::reliability {
class FaultMap;
}  // namespace resipe::reliability

namespace resipe::resipe_core {

/// Configuration of the network-level engine.
struct EngineConfig {
  /// Circuit operating point — defaults to the clock-calibrated GD
  /// time constant (see CircuitParams::nn_calibrated); the Fig. 3/5
  /// characterization benches use paper_defaults() explicitly.
  circuits::CircuitParams circuit = circuits::CircuitParams::nn_calibrated();
  device::ReramSpec device = device::ReramSpec::nn_mapping();
  std::size_t tile_rows = 32;
  std::size_t tile_cols = 32;
  crossbar::SignedMapping mapping =
      crossbar::SignedMapping::kDifferentialPair;
  /// Quantize spike arrival times to the clock grid (true = hardware).
  bool quantize_spikes = true;
  /// Fraction of the slice the calibrated worst-case output may use.
  double calibration_headroom = 0.9;
  /// Safety margin on the per-layer activation scale: the calibration
  /// batch underestimates the true activation maxima, and hard
  /// clamping of over-range activations is the more damaging error.
  double input_scale_margin = 1.25;
  /// Seed for programming randomness (write-verify + variation).
  std::uint64_t program_seed = 42;

  /// When true, each tile's effective conductances include the
  /// position-dependent wordline/bitline wire resistance (first-order
  /// IR-drop model, see crossbar/ir_drop.hpp).
  bool model_wire_ir_drop = false;
  crossbar::WireModel wires;

  /// Retention time applied to every programmed cell before inference
  /// (power-law drift per the device spec); 0 = fresh arrays.
  double retention_time = 0.0;

  /// Hard-fault injection + mitigation (stuck-at cells, bounded
  /// write-verify, spare-column remapping, differential compensation).
  /// Disabled by default: the engine then takes the exact legacy
  /// programming path and outputs are bit-identical to before.
  reliability::ReliabilityConfig reliability;

  /// Event-driven execution (see resipe/events/ and DESIGN.md §15):
  /// selects the row list of ProgrammedMatrix's one forward loop.
  /// Disabled by default: every block visits every row.  Enabled, each
  /// row window visits only the rows whose wordline voltage is nonzero
  /// in some sample of the batch — with logits bit-identical to
  /// the dense run at any thread count (pinned by the
  /// sparse_dense_identity contract and tests/test_events.cpp).  The
  /// flag cannot affect logits, so it is excluded from
  /// engine_config_hash.
  events::EventConfig events;

  /// "Ideal" configuration: linearized transfers, continuous timing,
  /// noiseless devices — the reference accuracy in Fig. 7.
  static EngineConfig ideal();

  /// Checks every sub-config and engine-level invariant (positive tile
  /// geometry, even tile width for paired mappings, headroom in (0, 1],
  /// positive scale margin, finite non-negative retention) and throws
  /// resipe::Error with a precise message on the first violation.
  /// Called at engine entry points (ProgrammedMatrix / ResipeNetwork
  /// construction); the verify fuzzer's generators treat "validate()
  /// accepts" as the definition of the valid configuration domain.
  void validate() const;
};

/// One logical weight matrix programmed onto a grid of virtual tiles.
class ProgrammedMatrix {
 public:
  /// Maps and programs `weights` ([in, out] row-major) with the given
  /// bias (length out).
  ProgrammedMatrix(const EngineConfig& config,
                   std::span<const double> weights,
                   std::span<const double> bias, std::size_t in,
                   std::size_t out, Rng& rng);

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  std::size_t tile_count() const { return blocks_.size(); }
  std::size_t mvms_per_forward() const { return row_blocks_; }

  /// Sets the activation normalization scale (max activation expected
  /// at this layer's input; inputs are clamped to [0, scale]).  It must
  /// be finite and positive.
  void set_input_scale(double scale);
  double input_scale() const { return input_scale_; }

  /// Sets the spike-time scale alpha in (0, 1]: inputs are encoded at
  /// alpha * x * t_full to keep worst-case outputs inside the slice.
  void set_time_scale(double alpha);
  double time_scale() const { return alpha_; }

  /// Circuit-model forward: y = W^T x + b for one input vector.
  /// x must be non-negative (spike times cannot encode sign).
  void forward(std::span<const double> x, std::span<double> y) const;

  /// Numerical-health counters accumulated by forward_probed.  All
  /// column events are counted per block MVM, over every physical data
  /// column touched, so the saturation rates describe the analog
  /// readout the paper's comparator actually sees.
  struct ProbeStats {
    /// Histogram of normalized output spike times t / slice_length over
    /// [0, 1); only columns that spiked inside the slice contribute.
    std::vector<std::uint64_t> spike_time_hist;
    std::uint64_t spikes = 0;         ///< comparator fired in the slice
    std::uint64_t no_spike = 0;       ///< comparator never fired (readout
                                      ///< books the slice-boundary value)
    std::uint64_t pinned_start = 0;   ///< spike in the first clock period
                                      ///< (column at/over full scale)
    std::uint64_t pinned_end = 0;     ///< spike in the last clock period
                                      ///< (about to fall silent)
    std::uint64_t inputs_clamped = 0; ///< encode clamp engaged (x outside
                                      ///< [0, input_scale])
    std::uint64_t vectors = 0;        ///< probed input vectors

    explicit ProbeStats(std::size_t bins = 20)
        : spike_time_hist(bins == 0 ? 1 : bins, 0) {}
    void merge(const ProbeStats& other);
  };

  /// forward() plus probes: y is bit-identical to forward(x, y) — the
  /// same core runs it — and `stats` accumulates across calls.  Not
  /// part of the hot path: the regular forward entry points never call
  /// it.
  void forward_probed(std::span<const double> x, std::span<double> y,
                      ProbeStats& stats) const;

  /// Reusable scratch for forward_batch and forward_voltages_batch.
  /// Hoist one per worker (e.g. thread_local) so steady-state batched
  /// inference never allocates.
  struct BatchWorkspace {
    std::vector<double> v_in;  // [n, in] wordline voltages
    // [n, padded slots] one block's spike times
    FastMvm::aligned_vector t_out;
    // [n, padded physical cols] current-sums, one padded segment per
    // column block
    FastMvm::aligned_vector recovered;
    // events: the row window's row list
    std::vector<FastMvm::Wordline> rows;
  };

  /// Batched forward: x is row-major [n, in], y row-major [n, out].
  /// forward() is this at n = 1, so batch and single calls are
  /// bit-identical per sample.  The batch is encoded to wordline
  /// voltages once; every block then runs once over the whole batch,
  /// reading its row window's voltages in place
  /// (FastMvm::mvm_voltages_batch over the identity table) over the
  /// window's row list; all scratch lives in `ws`.
  void forward_batch(std::span<const double> x, std::size_t n,
                     std::span<double> y, BatchWorkspace& ws) const;

  /// The encode step of every forward: v[i] receives the wordline
  /// voltage of x[i], clamp-normalized to [0, 1] by the input scale,
  /// scaled by alpha, run through one SpikeCodec::encode_times call and
  /// then through S1 (FastMvm::wordline).  The spans may have any
  /// (equal) length.  Encoding is pointwise, so a value encodes to the
  /// same voltage in any span, which lets a conv step encode each
  /// activation once and read every patch's voltages in place.
  void encode(std::span<const double> x, std::span<double> v) const;

  /// The wordline table of an input layout: entry i holds input i's
  /// tile row within its row window and offsets[i], where sample s's
  /// voltage of input i sits at s * stride + offsets[i] of a voltage
  /// buffer.  A forward hands each block its window's slice of the table
  /// as the FastMvm row list, so build a table once per layout.  Throws
  /// unless offsets holds in_features() values below 2^32.
  std::vector<FastMvm::Wordline> wordline_table(
      std::span<const std::size_t> offsets) const;

  /// forward_batch from wordline voltages: v is row-major [n, in] as
  /// encode() writes it, y row-major [n, out].  forward_batch(x) is
  /// encode(x) followed by this, bit for bit, and both book the
  /// resipe_core.matrix.forward_batch span.
  void forward_voltages_batch(std::span<const double> v, std::size_t n,
                              std::span<double> y, BatchWorkspace& ws) const;

  /// The same forward in any layout: sample s's voltage of input i is
  /// v[s * v_stride + table[i].offset], with `table` a wordline_table,
  /// and its output j goes to y[s * y_stride + j * out_stride].  Samples
  /// may overlap (v_stride below in_features()), so a conv step runs an
  /// output row of im2col patches in place in its padded image plane and
  /// decodes straight into its output planes.  Each output gets the bits
  /// the [n, in] call gives the same voltages.  Throws unless the table
  /// holds in_features() entries, v reaches every listed voltage and y
  /// every output.
  void forward_voltages_batch(std::span<const double> v, std::size_t n,
                              std::size_t v_stride,
                              std::span<const FastMvm::Wordline> table,
                              std::span<double> y, std::size_t y_stride,
                              std::size_t out_stride,
                              BatchWorkspace& ws) const;

  /// Analytic voltage-domain forward (no time quantization, no slice
  /// clamping) — the noise-free reference used by calibration; also
  /// returns the largest COG voltage observed.
  double forward_analytic(std::span<const double> x,
                          std::span<double> y) const;

  /// Calibrates alpha from a batch of representative inputs (row-major
  /// [n, in]) so the worst-case COG voltage stays on the ramp within
  /// the headroom fraction of the slice.
  void calibrate_alpha(std::span<const double> x_batch, std::size_t n);

  /// Reliability roll-up for this matrix (all zero when the
  /// reliability config is disabled).
  struct ReliabilityStats {
    std::size_t cells_faulty = 0;        ///< injected hard faults
    std::size_t columns_remapped = 0;    ///< physical columns moved
    std::size_t spares_used = 0;         ///< spare columns consumed
    std::size_t columns_unrepairable = 0;///< left computing over faults
    std::size_t cells_compensated = 0;   ///< pair-compensated stuck cells
    std::size_t write_giveups = 0;       ///< verify budget exhausted
  };
  const ReliabilityStats& reliability_stats() const { return rstats_; }

  /// Per-logical-output trust flags (graceful degradation): false when
  /// the output is decoded from a column left unrepaired on defective
  /// cells.  All true when reliability is disabled.
  const std::vector<bool>& output_ok() const { return output_ok_; }
  std::size_t degraded_outputs() const;

 private:
  struct Block {
    std::size_t row0 = 0;
    std::size_t rows = 0;
    std::size_t col0 = 0;  // physical column offset
    std::size_t rec0 = 0;  // offset of its segment in a recovered row
    std::size_t cols = 0;  // data columns in this block
    std::size_t slots = 0; // physical columns incl. spares (== cols
                           // when reliability is off)
    /// Physical slot of each data column (empty = identity).
    std::vector<std::size_t> slot_of_col;
    std::unique_ptr<FastMvm> mvm;
  };

  /// forward, forward_probed and forward_batch: encode() into ws.v_in,
  /// then run_voltages over the identity table.  `probe`, when set, also
  /// counts encode clamps.
  void run(std::span<const double> x, std::size_t n, std::span<double> y,
           BatchWorkspace& ws, ProbeStats* probe) const;
  /// The one forward core from wordline voltages, in the layout of
  /// forward_voltages_batch: run every block once over the whole batch
  /// over its window's row list (the window's slice of `table`, or with
  /// config_.events on its rows driven in some sample), reading each
  /// voltage in place, read each block's output times back into its
  /// recovered segment in one FastMvm::add_current_sums call, then
  /// decode the batch once into y.  `probe`, when set, also counts
  /// column outcomes.  Never writes ws.v_in, so `v` may be it.
  void run_voltages(std::span<const double> v, std::size_t n,
                    std::size_t v_stride,
                    std::span<const FastMvm::Wordline> table,
                    std::span<double> y, std::size_t y_stride,
                    std::size_t out_stride, BatchWorkspace& ws,
                    ProbeStats* probe) const;
  /// Counts one block's column outcomes into `probe`: n samples of
  /// output times at the block's padded stride, each data column read
  /// from its physical slot.
  void probe_outputs(const Block& block, std::span<const double> t_out,
                     std::size_t n, ProbeStats& probe) const;
  /// Converts n rows of accumulated recovered sums (rec_stride_ apart)
  /// + bias into outputs: output j of sample s goes to
  /// y[s * y_stride + j * out_stride].
  void decode(std::span<const double> recovered, std::size_t n,
              std::span<double> y, std::size_t y_stride,
              std::size_t out_stride) const;

  /// The one block builder of both programming paths: walks the tile
  /// grid, programs every cell (through the bounded write-verify loop
  /// over pinned defects when config_.reliability is enabled), reads
  /// back its effective conductance and builds each block's FastMvm
  /// with its comparator offsets.
  void program_blocks(Rng& rng);
  /// The fault path's placement of one block: draws its defect map from
  /// the dedicated fault stream, remaps and compensates per the
  /// mitigation policy, writes the per-slot targets and flags degraded
  /// columns.  Returns the defects to pin.
  reliability::FaultMap place_block(Block& block,
                                    std::vector<double>& targets,
                                    Rng& fault_rng,
                                    std::vector<bool>& col_degraded);

  EngineConfig config_;
  SpikeCodec codec_;
  std::size_t in_ = 0;
  std::size_t out_ = 0;
  std::size_t row_blocks_ = 0;
  crossbar::MappedWeights mapping_;
  std::vector<Block> blocks_;
  // The [n, in] layout's wordline table: input i at offset i.
  std::vector<FastMvm::Wordline> identity_;
  std::size_t rec_stride_ = 0;  // padded width of a recovered row
  // Each output's plus and minus column as an index into a recovered row.
  std::vector<std::size_t> plus_at_;
  std::vector<std::size_t> minus_at_;
  std::vector<double> bias_;
  double input_scale_ = 1.0;
  double alpha_ = 1.0;
  ReliabilityStats rstats_;
  std::vector<bool> output_ok_;
};

/// Extracts one im2col patch (layout matching conv_weight_matrix) for
/// conv lowering, with 0 at padding positions.  Calibration, the eval
/// diagnostics and replays of a conv step use it; the forward reads the
/// same layout in place from its padded plane of wordline voltages.
void gather_conv_patch(const nn::Tensor& x, std::size_t img,
                       std::size_t cin, std::size_t k, std::size_t stride,
                       std::size_t pad, std::size_t r, std::size_t c,
                       std::span<double> patch);

/// Flattens conv weights [Cout, Cin, K, K] to the [Cin*K*K, Cout]
/// matrix the lowering maps onto tiles.
std::vector<double> conv_weight_matrix(const nn::Conv2d& conv);

/// Callback receiving every lowered-step boundary during
/// ResipeNetwork::forward_observed.  `matrix` is null for functional
/// steps (pooling / activation / flatten); `layer` is always the
/// software layer the step was lowered from.  `input` and `output` are
/// valid only during the callback: the forward reuses their storage for
/// later steps and later calls, so an observer that keeps one copies it.
/// A callback may forward a network itself, this one included.
class LayerObserver {
 public:
  virtual ~LayerObserver() = default;
  virtual void on_step(std::size_t index, nn::Layer& layer,
                       const ProgrammedMatrix* matrix, bool is_conv,
                       const nn::Tensor& input,
                       const nn::Tensor& output) = 0;
};

/// A whole trained network lowered onto ReSiPE hardware.
class ResipeNetwork {
 public:
  /// Lowers `model` (trained, borrowed for the lifetime of this
  /// object) onto virtual tiles.  `calibration` is a representative
  /// input batch used to set per-layer scales; it is run through the
  /// software model once.  A non-finite calibration value is rejected
  /// with its flat index and image.
  ResipeNetwork(nn::Sequential& model, const EngineConfig& config,
                const nn::Tensor& calibration);

  /// Circuit-model logits for an input batch.
  nn::Tensor forward(const nn::Tensor& batch) const;

  /// forward() that additionally reports every step boundary to `obs`.
  /// The returned logits are bit-identical to forward(batch); the only
  /// extra cost is the tensor handoff to the observer.
  nn::Tensor forward_observed(const nn::Tensor& batch,
                              LayerObserver& obs) const;

  /// Hybrid forward for accuracy-loss attribution: steps whose index
  /// is flagged in `digital_steps` run through the original software
  /// layer instead of the crossbars.  Indices beyond the mask (or
  /// flags on functional steps) are ignored.
  nn::Tensor forward_hybrid(const nn::Tensor& batch,
                            const std::vector<bool>& digital_steps) const;

  /// Lowered steps (matrix + functional), in execution order.
  std::size_t step_count() const { return steps_.size(); }

  /// The software model this network was lowered from.
  nn::Sequential& model() const { return model_; }

  /// Total virtual 32x32-class tiles used by the mapping.
  std::size_t tile_count() const;

  /// Matrix layers lowered.
  std::size_t programmed_layers() const { return matrices_.size(); }

  /// Reliability roll-up summed over every programmed layer (all zero
  /// when the reliability config is disabled).
  ProgrammedMatrix::ReliabilityStats reliability_stats() const;

  /// Logical outputs flagged untrusted across all layers (graceful
  /// degradation: they still compute, but over known defects).
  std::size_t degraded_outputs() const;

  const EngineConfig& config() const { return config_; }

 private:
  struct Step {
    nn::Layer* layer = nullptr;            // functional layers
    ProgrammedMatrix* matrix = nullptr;    // circuit layers
    // Conv geometry when the matrix implements a Conv2d: its lowered
    // input plane [cin, h, w] and the wordline table of its padded
    // voltage plane [cin, h + 2 pad, w + 2 pad], where patch element
    // (ic, kr, kc) of the patch at the plane's origin sits at
    // (ic * (h + 2 pad) + kr) * (w + 2 pad) + kc.
    bool is_conv = false;
    std::size_t cin = 0, cout = 0, k = 0, stride = 0, pad = 0, h = 0, w = 0;
    std::vector<FastMvm::Wordline> plane_table;
  };

  /// The one walker over steps_ behind forward, forward_observed and
  /// forward_hybrid: reports each step to `obs` when set, and runs a
  /// matrix step through its software layer when `digital` flags it.
  /// Runs through nn::walk_steps, so the steps write into two
  /// activation buffers the calling thread keeps across forwards (and
  /// shares with eval-mode Sequential::forward): a steady-state forward
  /// allocates only the logits it returns.
  nn::Tensor walk(const nn::Tensor& batch, LayerObserver* obs,
                  const std::vector<bool>& digital) const;
  /// A matrix step's forward into `y`, written whole.
  void run_dense(const Step& step, const nn::Tensor& x, nn::Tensor& y) const;
  /// Implicit im2col, one image per work item: encode the image's
  /// cin * h * w activations once, place the voltages inside the zero
  /// border of the thread's padded plane, then run each output row as
  /// one forward_voltages_batch call whose ow patches sit `stride` apart
  /// in the plane, decoding straight into y's [cout, oh, ow] planes.
  void run_conv(const Step& step, const nn::Tensor& x, nn::Tensor& y) const;

  nn::Sequential& model_;
  EngineConfig config_;
  std::vector<std::unique_ptr<ProgrammedMatrix>> matrices_;
  std::vector<Step> steps_;
};

}  // namespace resipe::resipe_core
