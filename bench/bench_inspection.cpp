// Introspection cost and report figures.
//
// Times a full inspect() pass against a plain forward of the same batch
// and records the report's headline figures, so the perf trajectory
// covers the probes themselves.
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_report.hpp"
#include "resipe/common/rng.hpp"
#include "resipe/introspect/inspect.hpp"
#include "resipe/nn/data.hpp"
#include "resipe/nn/train.hpp"
#include "resipe/nn/zoo.hpp"
#include "resipe/resipe/network.hpp"

namespace {

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resipe;
  bench::BenchReport report("inspection", argc, argv);

  std::puts("=== Introspection: probe cost and report figures ===\n");

  Rng data_rng(7);
  Rng train_rng = data_rng.split();
  Rng test_rng = data_rng.split();
  const nn::Dataset train = nn::synthetic_digits(512, train_rng);
  const nn::Dataset test = nn::synthetic_digits(96, test_rng);

  Rng model_rng(0xC0FFEEull +
                static_cast<std::uint64_t>(nn::BenchmarkNet::kMlp1));
  nn::Sequential model = nn::build_benchmark(nn::BenchmarkNet::kMlp1,
                                             model_rng);
  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 32;
  tc.lr = 1e-3;
  const auto tr = nn::fit(model, train, test, tc);
  std::printf("trained %s: test acc %.3f\n\n", model.name().c_str(),
              tr.test_accuracy);

  std::vector<std::size_t> calib_idx;
  for (std::size_t i = 0; i < 48; ++i) calib_idx.push_back(i);
  const auto [calib, calib_labels] = train.gather(calib_idx);
  (void)calib_labels;

  resipe_core::EngineConfig cfg;
  cfg.device.variation_sigma = 0.1;
  const resipe_core::ResipeNetwork net(model, cfg, calib);

  // The forward the probes are priced against: mean of five runs.
  const int reps = 5;
  const double t_forward = seconds_of([&] {
    for (int r = 0; r < reps; ++r) (void)net.forward(test.images);
  }) / reps;
  std::printf("forward: %.4f s over %zu images\n", t_forward,
              test.images.dim(0));

  // Probe cost and headline figures of a full inspection pass.
  introspect::InspectionReport insp;
  const double t_inspect = seconds_of(
      [&] { insp = introspect::inspect(net, test.images, test.labels); });
  std::printf("inspect(): %.3f s over %zu images\n", t_inspect,
              insp.batch_size);
  report.add("inspect_s", t_inspect);
  report.add("inspect_cost_vs_forward", t_inspect / t_forward);
  report.add("analog_accuracy", insp.analog_accuracy);
  report.add("digital_accuracy", insp.digital_accuracy);
  report.add("logits_rmse", insp.logits_rmse);
  report.add("batch_energy_j", insp.total_energy);
  for (const auto& lr : insp.layers) {
    if (!lr.error.computed) continue;
    const std::string step = std::to_string(lr.step);
    report.add("err_total_step" + step, lr.error.total);
    report.add("err_quant_step" + step, lr.error.quantization);
    report.add("err_var_step" + step, lr.error.variation);
    report.add("err_nonlin_step" + step, lr.error.nonlinearity);
  }
  std::printf("\n%s", insp.render_ascii().c_str());
  return report.emit();
}
