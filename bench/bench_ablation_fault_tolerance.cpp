// Ablation: hard-fault tolerance — mitigation OFF vs ON.
//
// The reliability ablation (bench_ablation_reliability) measures how
// much raw MVM fidelity each defect mechanism costs; this bench closes
// the loop at the application level: classification accuracy of a
// trained network under stuck-at cell defects, with the mitigation
// pipeline (statistical detection, spare-column remapping, differential
// pair compensation) disabled and enabled on identical fault
// realizations.  The headline figures: at a 1% cell defect rate the
// mitigated engine must beat the blind engine and stay close to the
// zero-defect baseline.
#include <cstdio>

#include "bench_report.hpp"
#include "resipe/eval/fault_tolerance.hpp"

int main(int argc, char** argv) {
  using namespace resipe;
  bench::BenchReport report("ablation_fault_tolerance", argc, argv);

  std::puts("=== Ablation: fault tolerance (mitigation OFF vs ON) ===\n");

  eval::FaultToleranceConfig cfg;
  cfg.defect_rates = {0.0025, 0.005, 0.01, 0.02};
  const auto r = eval::evaluate_fault_tolerance(cfg);
  std::puts(eval::render_fault_tolerance(r).c_str());

  report.add("software_accuracy", r.software_accuracy);
  report.add("baseline_accuracy", r.baseline_accuracy);
  for (const auto& p : r.points) {
    // Keys carry the rate in basis points: acc_on_bp100 = 1% defects.
    const int bp = static_cast<int>(p.defect_rate * 10000.0 + 0.5);
    char key[64];
    std::snprintf(key, sizeof key, "acc_off_bp%d", bp);
    report.add(key, p.accuracy_off);
    std::snprintf(key, sizeof key, "acc_on_bp%d", bp);
    report.add(key, p.accuracy_on);
    if (bp == 100) {
      report.add("recovered_at_1pct", p.accuracy_on - p.accuracy_off);
      report.add("gap_to_baseline_at_1pct",
                 r.baseline_accuracy - p.accuracy_on);
      report.add("cells_faulty_at_1pct",
                 static_cast<double>(p.cells_faulty));
      report.add("cells_compensated_at_1pct",
                 static_cast<double>(p.cells_compensated));
      report.add("columns_remapped_at_1pct",
                 static_cast<double>(p.columns_remapped));
      report.add("degraded_outputs_at_1pct",
                 static_cast<double>(p.degraded_outputs));
    }
  }
  return report.emit();
}
