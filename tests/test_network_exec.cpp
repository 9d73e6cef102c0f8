#include "resipe/resipe/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/eval/fidelity.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/telemetry/telemetry.hpp"

// This binary's global allocation functions count the blocks and bytes
// every thread allocates while a test has switched counting on.
namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_blocks{0};
std::atomic<std::size_t> g_bytes{0};

void* allocate(std::size_t n, std::size_t align) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_blocks.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  void* p = nullptr;
  const std::size_t a = std::max(align, sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  return allocate(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return allocate(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace resipe::resipe_core {
namespace {

// Blocks and bytes `f` allocates on any thread.
struct Allocations {
  std::size_t blocks = 0;
  std::size_t bytes = 0;
};

template <class F>
Allocations allocations_of(F&& f) {
  g_blocks = 0;
  g_bytes = 0;
  g_count_allocations = true;
  f();
  g_count_allocations = false;
  return {g_blocks.load(), g_bytes.load()};
}

bool bit_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// A zoo network lowered on synthetic digits: `batch` images to forward
// (pixels below 0.25 silenced, as in the event-engine workloads) and a
// separate calibration batch.
struct DigitNet {
  DigitNet(nn::BenchmarkNet net, std::size_t n, bool events)
      : model([&] {
          Rng rng(0xC0FFEEull);
          return nn::build_benchmark(net, rng);
        }()) {
    Rng data_rng(3);
    nn::Dataset data = nn::synthetic_digits(n + 16, data_rng);
    for (double& v : data.images.data()) {
      if (v < 0.25) v = 0.0;
    }
    std::vector<std::size_t> first(n), rest(16);
    std::iota(first.begin(), first.end(), std::size_t{0});
    std::iota(rest.begin(), rest.end(), n);
    batch = data.gather(first).first;
    EngineConfig cfg;
    cfg.events.enabled = events;
    hw = std::make_unique<ResipeNetwork>(model, cfg, data.gather(rest).first);
  }

  nn::Sequential model;
  nn::Tensor batch;
  std::unique_ptr<ResipeNetwork> hw;
};

// Calls and booked flops of every span named `name` in a call tree.
struct SpanTotals {
  std::uint64_t calls = 0;
  double flops = 0.0;
};

[[maybe_unused]] SpanTotals span_totals(const telemetry::ProfileNode& node,
                                        const char* name) {
  SpanTotals sum;
  for (const auto& c : node.children) {
    if (std::strcmp(c->name, name) == 0) {
      sum.calls += c->count;
      sum.flops += c->flops;
    }
    const SpanTotals below = span_totals(*c, name);
    sum.calls += below.calls;
    sum.flops += below.flops;
  }
  return sum;
}

TEST(EngineConfig, IdealPresetIsNoiseless) {
  const EngineConfig cfg = EngineConfig::ideal();
  EXPECT_EQ(cfg.circuit.model, circuits::TransferModel::kLinear);
  EXPECT_FALSE(cfg.quantize_spikes);
  EXPECT_DOUBLE_EQ(cfg.device.variation_sigma, 0.0);
  EXPECT_DOUBLE_EQ(cfg.device.transistor_r_on, 0.0);
}

TEST(ProgrammedMatrix, IdealConfigReproducesTheMatmul) {
  const auto score = eval::mvm_fidelity(EngineConfig::ideal());
  EXPECT_LT(score.rmse, 1e-3);
  EXPECT_LT(score.worst, 5e-3);
}

TEST(ProgrammedMatrix, PaperConfigStaysWithinFewPercent) {
  const auto score = eval::mvm_fidelity(EngineConfig{});
  // Device quantization (32 levels) + write verify + clocked spikes.
  EXPECT_LT(score.rmse, 0.05);
}

TEST(ProgrammedMatrix, VariationDegradesFidelityMonotonically) {
  EngineConfig low;
  low.device.variation_sigma = 0.02;
  EngineConfig high;
  high.device.variation_sigma = 0.20;
  const auto s_low = eval::mvm_fidelity(low);
  const auto s_high = eval::mvm_fidelity(high);
  EXPECT_GT(s_high.rmse, s_low.rmse);
}

TEST(ProgrammedMatrix, TileCountMatchesBlocking) {
  EngineConfig cfg;
  cfg.tile_rows = 32;
  cfg.tile_cols = 32;
  Rng rng(1);
  // 70 x 20 logical, differential -> 40 physical columns.
  const std::vector<double> w(70 * 20, 0.1);
  const std::vector<double> b(20, 0.0);
  const ProgrammedMatrix pm(cfg, w, b, 70, 20, rng);
  // ceil(70/32) = 3 row blocks x ceil(40/32) = 2 column blocks.
  EXPECT_EQ(pm.tile_count(), 6u);
  EXPECT_EQ(pm.mvms_per_forward(), 3u);
  EXPECT_EQ(pm.in_features(), 70u);
  EXPECT_EQ(pm.out_features(), 20u);
}

TEST(ProgrammedMatrix, BiasIsApplied) {
  EngineConfig cfg = EngineConfig::ideal();
  Rng rng(1);
  const std::vector<double> w(4, 0.0);  // zero weights
  const std::vector<double> b{1.5, -2.5};
  const ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);
  std::vector<double> y(2, 0.0);
  pm.forward(std::vector<double>{0.7, 0.3}, y);
  EXPECT_NEAR(y[0], 1.5, 1e-6);
  EXPECT_NEAR(y[1], -2.5, 1e-6);
}

TEST(ProgrammedMatrix, InputScaleNormalizesActivations) {
  EngineConfig cfg = EngineConfig::ideal();
  Rng rng(1);
  const std::vector<double> w{1.0};
  const std::vector<double> b{0.0};
  ProgrammedMatrix pm(cfg, w, b, 1, 1, rng);
  pm.set_input_scale(10.0);  // inputs up to 10
  std::vector<double> y(1, 0.0);
  pm.forward(std::vector<double>{5.0}, y);
  EXPECT_NEAR(y[0], 5.0, 0.05);
  // Inputs beyond the scale clamp — the hardware range is hard.
  pm.forward(std::vector<double>{25.0}, y);
  EXPECT_NEAR(y[0], 10.0, 0.1);
}

TEST(ProgrammedMatrix, RejectsBadShapes) {
  EngineConfig cfg;
  Rng rng(1);
  const std::vector<double> w(6, 0.1);
  const std::vector<double> b(3, 0.0);
  EXPECT_THROW(ProgrammedMatrix(cfg, w, b, 3, 3, rng), Error);
  const ProgrammedMatrix pm(cfg, w, b, 2, 3, rng);
  std::vector<double> y(2, 0.0);
  EXPECT_THROW(pm.forward(std::vector<double>{1.0, 2.0}, y), Error);
  EXPECT_THROW(ProgrammedMatrix(cfg, w, b, 2, 2, rng), Error);
}

TEST(ProgrammedMatrix, AlphaSetterValidates) {
  EngineConfig cfg;
  Rng rng(1);
  const std::vector<double> w(4, 0.1);
  const std::vector<double> b(2, 0.0);
  ProgrammedMatrix pm(cfg, w, b, 2, 2, rng);
  EXPECT_THROW(pm.set_time_scale(0.0), Error);
  EXPECT_THROW(pm.set_time_scale(1.5), Error);
  EXPECT_THROW(pm.set_input_scale(-1.0), Error);
  EXPECT_THROW(pm.set_input_scale(std::numeric_limits<double>::infinity()),
               Error);
  EXPECT_THROW(pm.set_input_scale(std::numeric_limits<double>::quiet_NaN()),
               Error);
  EXPECT_NO_THROW(pm.set_time_scale(0.5));
}

TEST(ProgrammedMatrix, WireIrDropIsTinyAtPaperGeometry) {
  EngineConfig plain;
  EngineConfig wired;
  wired.model_wire_ir_drop = true;
  const auto s_plain = eval::mvm_fidelity(plain);
  const auto s_wired = eval::mvm_fidelity(wired);
  // 2.5 ohm per segment against >= 50 k cells barely registers.
  EXPECT_NEAR(s_wired.rmse, s_plain.rmse, 0.01);
}

TEST(ProgrammedMatrix, RetentionDriftAddsGainError) {
  EngineConfig fresh;
  EngineConfig aged;
  aged.device.drift_nu = 0.02;
  aged.retention_time = 365.0 * 24 * 3600;
  const auto s_fresh = eval::mvm_fidelity(fresh);
  const auto s_aged = eval::mvm_fidelity(aged);
  EXPECT_GT(s_aged.rmse, s_fresh.rmse);
}

TEST(ProgrammedMatrix, ComparatorMismatchDegradesFidelity) {
  EngineConfig clean;
  EngineConfig offset;
  offset.circuit.comparator_offset_sigma = 10e-3;  // 10 mV sigma
  const auto s_clean = eval::mvm_fidelity(clean);
  const auto s_offset = eval::mvm_fidelity(offset);
  EXPECT_GT(s_offset.rmse, s_clean.rmse);
}

TEST(ProgrammedMatrix, StuckAtFaultsDegradeFidelity) {
  EngineConfig clean;
  EngineConfig faulty;
  faulty.device.stuck_lrs_rate = 0.02;
  faulty.device.stuck_hrs_rate = 0.02;
  const auto s_clean = eval::mvm_fidelity(clean);
  const auto s_faulty = eval::mvm_fidelity(faulty);
  EXPECT_GT(s_faulty.rmse, s_clean.rmse);
}

class MlpThroughHardware : public ::testing::Test {
 protected:
  MlpThroughHardware() : rng_(5) {
    model_.emplace<nn::Flatten>();
    model_.emplace<nn::Dense>(16, 12, rng_);
    model_.emplace<nn::ReLU>();
    model_.emplace<nn::Dense>(12, 4, rng_);
    calib_ = nn::Tensor({8, 1, 4, 4});
    for (std::size_t i = 0; i < calib_.size(); ++i) {
      calib_[i] = rng_.uniform(0.0, 1.0);
    }
  }

  Rng rng_;
  nn::Sequential model_{"tiny-mlp"};
  nn::Tensor calib_;
};

TEST_F(MlpThroughHardware, IdealEngineMatchesSoftware) {
  const ResipeNetwork hw(model_, EngineConfig::ideal(), calib_);
  const nn::Tensor ref = model_.forward(calib_, false);
  const nn::Tensor out = hw.forward(calib_);
  ASSERT_TRUE(ref.same_shape(out));
  const double scale = std::max(ref.abs_max(), 1e-9);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 0.01 * scale) << "logit " << i;
  }
}

TEST_F(MlpThroughHardware, ExactEngineStaysClose) {
  const ResipeNetwork hw(model_, EngineConfig{}, calib_);
  const nn::Tensor ref = model_.forward(calib_, false);
  const nn::Tensor out = hw.forward(calib_);
  const double scale = std::max(ref.abs_max(), 1e-9);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 0.12 * scale) << "logit " << i;
  }
}

TEST_F(MlpThroughHardware, RejectsANonFiniteCalibrationBatch) {
  // +Inf would become some layer's input scale; NaN would drop out of
  // abs_max.  Either is named by flat index and image.
  const struct {
    double value;
    std::size_t index;
    const char* where;
  } cases[] = {
      {std::numeric_limits<double>::infinity(), 5, "flat index 5 (image 0)"},
      {std::numeric_limits<double>::quiet_NaN(), 37,
       "flat index 37 (image 2)"}};
  for (const auto& c : cases) {
    nn::Tensor calib = calib_;
    calib[c.index] = c.value;
    try {
      const ResipeNetwork hw(model_, EngineConfig{}, calib);
      ADD_FAILURE() << "calibration with " << c.value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.where), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(MlpThroughHardware, TileAccounting) {
  const ResipeNetwork hw(model_, EngineConfig{}, calib_);
  EXPECT_EQ(hw.programmed_layers(), 2u);
  // 16x12 diff -> 24 phys cols -> 1 block; 12x4 -> 8 cols -> 1 block.
  EXPECT_EQ(hw.tile_count(), 2u);

  // A dense step hands each thread one contiguous chunk: at one thread
  // a 5-sample batch reaches each matrix in one call, and the logits do
  // not depend on how the batch is cut.
  struct RestoreThreads {
    ~RestoreThreads() { set_default_threads(0); }
  } restore;
  const nn::Tensor batch(
      {5, 1, 4, 4},
      std::vector<double>(calib_.data().begin(), calib_.data().begin() + 80));
  set_default_threads(1);
#if !defined(RESIPE_TELEMETRY_DISABLED)
  telemetry::set_enabled(true);
  telemetry::CallProfile::this_thread().reset();
#endif
  const nn::Tensor ref = hw.forward(batch);
#if !defined(RESIPE_TELEMETRY_DISABLED)
  EXPECT_EQ(span_totals(telemetry::CallProfile::this_thread().root(),
                        "resipe_core.matrix.forward_batch")
                .calls,
            2u);
  telemetry::set_enabled(false);
  telemetry::CallProfile::this_thread().reset();
#endif
  for (const std::size_t threads : {1, 2, 8}) {
    set_default_threads(threads);
    const nn::Tensor again = hw.forward(batch);
    EXPECT_EQ(std::memcmp(ref.data().data(), again.data().data(),
                          ref.size() * sizeof(double)),
              0)
        << "threads " << threads;
  }
}

// The at()-indexed im2col the direct-indexed gather replaced: layout
// (ic, kr, kc), zero outside the padded image.
std::vector<double> indexed_patch(const nn::Tensor& x, std::size_t img,
                                  std::size_t cin, std::size_t k,
                                  std::size_t stride, std::size_t pad,
                                  std::size_t r, std::size_t c) {
  std::vector<double> patch;
  for (std::size_t ic = 0; ic < cin; ++ic) {
    for (std::size_t kr = 0; kr < k; ++kr) {
      for (std::size_t kc = 0; kc < k; ++kc) {
        const auto ir = static_cast<std::ptrdiff_t>(r * stride + kr) -
                        static_cast<std::ptrdiff_t>(pad);
        const auto icol = static_cast<std::ptrdiff_t>(c * stride + kc) -
                          static_cast<std::ptrdiff_t>(pad);
        const bool inside = ir >= 0 && icol >= 0 &&
                            ir < static_cast<std::ptrdiff_t>(x.dim(2)) &&
                            icol < static_cast<std::ptrdiff_t>(x.dim(3));
        patch.push_back(inside ? x.at(img, ic, static_cast<std::size_t>(ir),
                                      static_cast<std::size_t>(icol))
                               : 0.0);
      }
    }
  }
  return patch;
}

TEST(ConvLowering, GatherMatchesIndexedReference) {
  Rng rng(8);
  nn::Tensor x({2, 3, 7, 6});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1.0, 1.0);
  const struct { std::size_t cin, k, stride, pad; } shapes[] = {
      {3, 3, 1, 1}, {3, 3, 2, 1}, {2, 5, 1, 2}, {3, 5, 2, 2}, {1, 2, 2, 0}};
  for (const auto& sh : shapes) {
    const std::size_t oh = (7 + 2 * sh.pad - sh.k) / sh.stride + 1;
    const std::size_t ow = (6 + 2 * sh.pad - sh.k) / sh.stride + 1;
    std::vector<double> patch(sh.cin * sh.k * sh.k);
    for (std::size_t img = 0; img < 2; ++img) {
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          gather_conv_patch(x, img, sh.cin, sh.k, sh.stride, sh.pad, r, c,
                            patch);
          EXPECT_EQ(patch, indexed_patch(x, img, sh.cin, sh.k, sh.stride,
                                         sh.pad, r, c))
              << "k " << sh.k << " stride " << sh.stride << " pad "
              << sh.pad << " at (" << img << ", " << r << ", " << c << ")";
        }
      }
    }
  }
}

TEST(ConvLowering, GatherValidatesArgumentsOnce) {
  nn::Tensor x({1, 2, 4, 4});
  x.fill(0.5);
  // A span one element short, carved from a larger buffer: nothing may
  // be written past its end.
  std::vector<double> buf(2 * 3 * 3 + 1, -1.0);
  EXPECT_THROW(gather_conv_patch(x, 0, 2, 3, 1, 1, 0, 0,
                                 std::span<double>(buf.data(), 17)),
               Error);
  EXPECT_EQ(buf[17], -1.0);
  std::vector<double> patch(2 * 3 * 3);
  EXPECT_THROW(gather_conv_patch(x, 1, 2, 3, 1, 1, 0, 0, patch), Error);
  std::vector<double> wide(3 * 3 * 3);
  EXPECT_THROW(gather_conv_patch(x, 0, 3, 3, 1, 1, 0, 0, wide),
               Error);  // 3 channels asked of a 2-channel input
  const nn::Tensor flat({4, 8});
  EXPECT_THROW(gather_conv_patch(flat, 0, 2, 3, 1, 1, 0, 0, patch), Error);
  EXPECT_NO_THROW(gather_conv_patch(x, 0, 2, 3, 1, 1, 0, 0, patch));
}

TEST(ResipeNetworkConv, IdealEngineMatchesSoftwareConv) {
  Rng rng(6);
  nn::Sequential model("tiny-cnn");
  model.emplace<nn::Conv2d>(1, 3, 3, 1, 1, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::MaxPool2d>(2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(3 * 3 * 3, 4, rng);

  nn::Tensor calib({4, 1, 6, 6});
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib[i] = rng.uniform(0.0, 1.0);

  const ResipeNetwork hw(model, EngineConfig::ideal(), calib);
  const nn::Tensor ref = model.forward(calib, false);
  const nn::Tensor out = hw.forward(calib);
  ASSERT_TRUE(ref.same_shape(out));
  const double scale = std::max(ref.abs_max(), 1e-9);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 0.02 * scale) << "logit " << i;
  }
}

TEST(ResipeNetworkConv, CodecEncodesEachConvActivationOncePerImage) {
#if defined(RESIPE_TELEMETRY_DISABLED)
  GTEST_SKIP() << "codec counters compile away with telemetry off";
#else
  // Codecs snapshot the telemetry switch when the network is lowered.
  telemetry::set_enabled(true);
  Rng rng(12);
  nn::Sequential model("counted-cnn");
  model.emplace<nn::Conv2d>(2, 3, 3, 1, 1, rng);  // [2, 8, 8] -> [3, 8, 8]
  model.emplace<nn::ReLU>();
  model.emplace<nn::MaxPool2d>(2);                // -> [3, 4, 4]
  model.emplace<nn::Conv2d>(3, 4, 3, 2, 0, rng);  // -> [4, 1, 1]
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(4, 5, rng);
  nn::Tensor batch({3, 2, 8, 8});
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i] = rng.uniform(-0.2, 1.2);
  const ResipeNetwork hw(model, EngineConfig{}, batch);

  telemetry::MetricRegistry::instance().reset_values();
  telemetry::CallProfile::this_thread().reset();
  hw.forward(batch);
  // Each conv step encodes its n*cin*h*w activations once (not
  // n*oh*ow*cin*k*k patch elements; padding gathers the +0.0 V that
  // value 0 encodes to); a dense step encodes its n*in inputs.
  const std::uint64_t want = 3 * 2 * 8 * 8 + 3 * 3 * 4 * 4 + 3 * 4;
  EXPECT_EQ(telemetry::MetricRegistry::instance()
                .counter("resipe_core.spike_codec.encoded")
                .value(),
            want);
  // S1 runs in the encode, once per encoded activation at 4 flops each.
  const SpanTotals s1 =
      span_totals(telemetry::CallProfile::this_thread().root(),
                  "resipe_core.fast_mvm.wordline");
  EXPECT_EQ(s1.flops, 4.0 * static_cast<double>(want));
  telemetry::set_enabled(false);
  telemetry::MetricRegistry::instance().reset_values();
  telemetry::CallProfile::this_thread().reset();
#endif
}

TEST(ResipeNetworkBuffers, SteadyStateForwardAllocatesOnlyTheLogits) {
  // After a warm-up, the walk reads the batch in place and its steps
  // write into the thread's activation buffers, so a forward allocates
  // exactly what constructing its logits tensor allocates.
  struct RestoreThreads {
    ~RestoreThreads() { set_default_threads(0); }
  } restore;
  set_default_threads(1);
  const struct {
    nn::BenchmarkNet net;
    std::size_t n;
    bool events;
  } cases[] = {{nn::BenchmarkNet::kCnn1, 64, true},
               {nn::BenchmarkNet::kMlp2, 8, false}};
  for (const auto& c : cases) {
    const DigitNet d(c.net, c.n, c.events);
    const nn::Tensor first = d.hw->forward(d.batch);
    d.hw->forward(d.batch);
    const Allocations logits =
        allocations_of([&] { nn::Tensor y({c.n, std::size_t{10}}); });
    nn::Tensor again;
    const Allocations forward =
        allocations_of([&] { again = d.hw->forward(d.batch); });
    EXPECT_EQ(forward.blocks, logits.blocks) << nn::benchmark_name(c.net);
    EXPECT_EQ(forward.bytes, logits.bytes) << nn::benchmark_name(c.net);
    EXPECT_TRUE(bit_equal(again, first)) << nn::benchmark_name(c.net);
  }
}

TEST(ResipeNetworkBuffers, AnObserverMayForwardNetworksOnItsThread) {
  // Every on_step forwards a second network and the observed one itself
  // from inside the walk; the nested walks take buffers of their own, so
  // every logit keeps its bits.
  const DigitNet outer(nn::BenchmarkNet::kCnn1, 6, true);
  const DigitNet inner(nn::BenchmarkNet::kMlp2, 5, false);
  const nn::Tensor outer_ref = outer.hw->forward(outer.batch);
  const nn::Tensor inner_ref = inner.hw->forward(inner.batch);

  struct Nesting : LayerObserver {
    const DigitNet* outer = nullptr;
    const DigitNet* inner = nullptr;
    std::vector<nn::Tensor> inner_logits, outer_logits;
    std::size_t steps = 0;
    void on_step(std::size_t, nn::Layer&, const ProgrammedMatrix*, bool,
                 const nn::Tensor& input, const nn::Tensor& output) override {
      const nn::Tensor in_copy = input;
      const nn::Tensor out_copy = output;
      inner_logits.push_back(inner->hw->forward(inner->batch));
      if (steps++ % 4 == 0) {
        outer_logits.push_back(outer->hw->forward(outer->batch));
      }
      // The step's tensors are untouched by the nested walks.
      EXPECT_TRUE(bit_equal(input, in_copy));
      EXPECT_TRUE(bit_equal(output, out_copy));
    }
  } obs;
  obs.outer = &outer;
  obs.inner = &inner;
  const nn::Tensor observed = outer.hw->forward_observed(outer.batch, obs);
  EXPECT_TRUE(bit_equal(observed, outer_ref));
  EXPECT_EQ(obs.steps, outer.hw->step_count());
  for (const nn::Tensor& y : obs.inner_logits) {
    EXPECT_TRUE(bit_equal(y, inner_ref));
  }
  ASSERT_FALSE(obs.outer_logits.empty());
  for (const nn::Tensor& y : obs.outer_logits) {
    EXPECT_TRUE(bit_equal(y, outer_ref));
  }
  EXPECT_TRUE(bit_equal(outer.hw->forward(outer.batch), outer_ref));
}

TEST(ResipeNetworkBuffers, OneNetworkForwardsFromTwoThreadsAtOnce) {
  // Each calling thread walks through buffers of its own.
  const DigitNet d(nn::BenchmarkNet::kCnn1, 8, true);
  const nn::Tensor ref = d.hw->forward(d.batch);
  std::atomic<int> mismatches{0};
  const auto run = [&] {
    for (int i = 0; i < 4; ++i) {
      if (!bit_equal(d.hw->forward(d.batch), ref)) ++mismatches;
    }
  };
  std::thread a(run), b(run);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace resipe::resipe_core
