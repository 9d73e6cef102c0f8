// Reproduces Fig. 7: classification accuracy of the six benchmark
// networks (MLP-1/2 on the digit task; CNN-1..4 on the object task)
// mapped through the ReSiPE circuit model, sweeping ReRAM process
// variation sigma over {0, 5, 10, 15, 20}% (Sec. IV-C).
//
// Expected shape: the sigma = 0 column isolates the circuit
// non-linearity penalty (< ~2.5%); accuracy degrades as sigma grows,
// and the deeper networks degrade more (1..15% at sigma = 20%).
//
// Usage: bench_fig7_accuracy [--quick] [--full]
//   --quick : MLPs + LeNet only, 1 Monte-Carlo seed (CI-friendly)
//   --full  : all six networks, 2 Monte-Carlo seeds (default)
#include <cctype>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_report.hpp"
#include "resipe/eval/accuracy.hpp"

int main(int argc, char** argv) {
  using namespace resipe;

  bench::BenchReport report("fig7_accuracy", argc, argv,
                            {{"--quick"}, {"--full"}});
  const bool quick = report.has("--quick");

  eval::AccuracyConfig cfg;
  cfg.weight_cache_dir = ".";
  cfg.verbose = true;
  if (quick) cfg.mc_seeds = 1;

  std::puts("=== Fig. 7: accuracy under circuit non-linearity and "
            "process variation ===\n");

  std::vector<eval::NetworkAccuracy> rows;
  const auto nets = nn::all_benchmarks();
  const std::size_t count = quick ? 3 : nets.size();
  for (std::size_t i = 0; i < count; ++i) {
    std::printf("-- %s --\n", nn::benchmark_name(nets[i]).c_str());
    rows.push_back(eval::evaluate_network_accuracy(nets[i], cfg));
  }

  std::puts("");
  std::cout << eval::render_accuracy(rows);

  report.add("networks", static_cast<double>(rows.size()));
  report.add("mode", quick ? "quick" : "full");
  for (const auto& row : rows) {
    std::string key = row.name;
    for (char& ch : key) {
      if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
    }
    std::string acc_key = key;
    acc_key += "_software_acc";
    report.add(acc_key, row.software_accuracy);
    if (!row.accuracy.empty()) {
      std::string max_key = key;
      max_key += "_acc_sigma_max";
      report.add(max_key, row.accuracy.back());
    }
  }
  return report.emit();
}
