#include "resipe/eval/fault_tolerance.hpp"

#include <cstdio>
#include <memory>
#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/table.hpp"
#include "resipe/nn/train.hpp"
#include "resipe/telemetry/telemetry.hpp"

namespace resipe::eval {

FaultToleranceResult evaluate_fault_tolerance(
    const FaultToleranceConfig& cfg) {
  RESIPE_TELEM_SCOPE("eval.fault_tolerance");
  RESIPE_REQUIRE(!cfg.defect_rates.empty() && cfg.mc_seeds >= 1,
                 "empty fault-tolerance sweep");

  auto [model, test, calib, fit] = nn::train_benchmark(
      cfg.net, {.train_samples = cfg.train_samples,
                .test_samples = cfg.test_samples,
                .epochs = cfg.epochs,
                .data_seed = cfg.data_seed,
                .verbose = cfg.verbose});
  if (cfg.verbose) {
    std::printf("  [%s] trained: train acc %.3f, test acc %.3f\n",
                model.name().c_str(), fit->train_accuracy, fit->test_accuracy);
  }

  FaultToleranceResult result;
  result.network = nn::benchmark_name(cfg.net);
  result.software_accuracy = nn::evaluate(model, test);

  const auto run_arm = [&](double rate, std::size_t seed, bool mitigate,
                           std::unique_ptr<resipe_core::ResipeNetwork>&
                               holder) {
    resipe_core::EngineConfig ec;
    ec.program_seed = 1000 + 77 * seed;
    ec.reliability.enabled = true;
    ec.reliability.faults.stuck_lrs_rate = rate / 2.0;
    ec.reliability.faults.stuck_hrs_rate = rate / 2.0;
    ec.reliability.faults.cluster_fraction = cfg.cluster_fraction;
    ec.reliability.mitigation.enabled = mitigate;
    ec.reliability.mitigation.spare_cols = cfg.spare_cols;
    // Both arms must see the same defective silicon: the fault seed
    // depends on the Monte-Carlo seed only, never on the arm.
    ec.reliability.fault_seed = hash_seed(cfg.fault_seed, seed);
    holder = std::make_unique<resipe_core::ResipeNetwork>(model, ec, calib);
    return nn::evaluate_with(test, [&](const nn::Tensor& b) {
      return holder->forward(b);
    });
  };

  // Zero-defect circuit baseline: reliability disabled entirely.  Each
  // Monte-Carlo seed is an independent arm writing its own slot; the
  // fold below runs in seed order, so results are bit-identical for
  // any thread count (likewise for the sweep arms further down).
  {
    std::vector<double> base_acc(cfg.mc_seeds, 0.0);
    parallel_for(
        cfg.mc_seeds,
        [&](std::size_t seed) {
          resipe_core::EngineConfig ec;
          ec.program_seed = 1000 + 77 * seed;
          const resipe_core::ResipeNetwork hw(model, ec, calib);
          base_acc[seed] = nn::evaluate_with(
              test, [&hw](const nn::Tensor& b) { return hw.forward(b); });
        },
        cfg.threads);
    double acc_sum = 0.0;
    for (std::size_t seed = 0; seed < cfg.mc_seeds; ++seed) {
      acc_sum += base_acc[seed];
    }
    result.baseline_accuracy =
        acc_sum / static_cast<double>(cfg.mc_seeds);
    if (cfg.verbose) {
      std::printf("  [%s] zero-defect baseline: %.3f\n",
                  result.network.c_str(), result.baseline_accuracy);
    }
  }

  // One work item per (rate, seed) pair; the paired OFF/ON arms stay
  // together inside the item because they share a fault realization.
  struct ArmResult {
    double off = 0.0;
    double on = 0.0;
    resipe_core::ProgrammedMatrix::ReliabilityStats stats;
    std::size_t degraded = 0;
  };
  const std::size_t n_arms = cfg.defect_rates.size() * cfg.mc_seeds;
  std::vector<ArmResult> arms(n_arms);
  parallel_for(
      n_arms,
      [&](std::size_t a) {
        const double rate = cfg.defect_rates[a / cfg.mc_seeds];
        const std::size_t seed = a % cfg.mc_seeds;
        std::unique_ptr<resipe_core::ResipeNetwork> holder;
        arms[a].off = run_arm(rate, seed, /*mitigate=*/false, holder);
        arms[a].on = run_arm(rate, seed, /*mitigate=*/true, holder);
        arms[a].stats = holder->reliability_stats();
        arms[a].degraded = holder->degraded_outputs();
      },
      cfg.threads);

  for (std::size_t ri = 0; ri < cfg.defect_rates.size(); ++ri) {
    FaultTolerancePoint point;
    point.defect_rate = cfg.defect_rates[ri];
    double off_sum = 0.0;
    double on_sum = 0.0;
    for (std::size_t seed = 0; seed < cfg.mc_seeds; ++seed) {
      const ArmResult& arm = arms[ri * cfg.mc_seeds + seed];
      off_sum += arm.off;
      on_sum += arm.on;
      point.cells_faulty += arm.stats.cells_faulty;
      point.columns_remapped += arm.stats.columns_remapped;
      point.spares_used += arm.stats.spares_used;
      point.columns_unrepairable += arm.stats.columns_unrepairable;
      point.cells_compensated += arm.stats.cells_compensated;
      point.degraded_outputs += arm.degraded;
    }
    point.accuracy_off = off_sum / static_cast<double>(cfg.mc_seeds);
    point.accuracy_on = on_sum / static_cast<double>(cfg.mc_seeds);
    if (cfg.verbose) {
      std::printf("  [%s] defect rate %.2f%%: off %.3f, on %.3f\n",
                  result.network.c_str(), point.defect_rate * 100.0,
                  point.accuracy_off, point.accuracy_on);
    }
    RESIPE_TELEM_COUNT("eval.fault_tolerance.points", 1);
    result.points.push_back(point);
  }
  return result;
}

std::string render_fault_tolerance(const FaultToleranceResult& r) {
  RESIPE_REQUIRE(!r.points.empty(), "no fault-tolerance points");
  std::ostringstream os;
  os << "Network " << r.network << ": software accuracy "
     << format_percent(r.software_accuracy) << ", zero-defect circuit "
     << format_percent(r.baseline_accuracy) << "\n\n";
  TextTable t({"Defect rate", "Mitigation OFF", "Mitigation ON",
               "Recovered", "Faulty cells", "Remapped", "Compensated",
               "Unrepairable", "Degraded out"});
  for (const auto& p : r.points) {
    t.add_row({format_percent(p.defect_rate),
               format_percent(p.accuracy_off),
               format_percent(p.accuracy_on),
               format_percent(p.accuracy_on - p.accuracy_off),
               std::to_string(p.cells_faulty),
               std::to_string(p.columns_remapped),
               std::to_string(p.cells_compensated),
               std::to_string(p.columns_unrepairable),
               std::to_string(p.degraded_outputs)});
  }
  os << t.str() << "\n";
  os << "Mitigation = statistical detection + spare-column remapping +\n"
        "differential pair compensation; both arms share each fault\n"
        "realization, so 'Recovered' is a paired accuracy gain on\n"
        "identical defective silicon.\n";
  return os.str();
}

}  // namespace resipe::eval
