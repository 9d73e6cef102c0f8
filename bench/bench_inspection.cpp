// Introspection cost and report figures.
//
// Times a full inspect() pass against a plain forward of the same batch
// and records the report's headline figures, so the perf trajectory
// covers the probes themselves.
#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_report.hpp"
#include "resipe/introspect/inspect.hpp"
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

  auto [model, test, calib, fit] = nn::train_benchmark(
      nn::BenchmarkNet::kMlp1,
      {.train_samples = 512, .test_samples = 96, .epochs = 2});
  std::printf("trained %s: test acc %.3f\n\n", model.name().c_str(),
              fit->test_accuracy);

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
