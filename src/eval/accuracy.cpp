#include "resipe/eval/accuracy.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "resipe/common/error.hpp"
#include "resipe/common/parallel.hpp"
#include "resipe/common/table.hpp"
#include "resipe/nn/train.hpp"

namespace resipe::eval {
namespace {

/// Per-network scaling of the training budget: the deep CNNs train on
/// fewer samples so the full Fig. 7 sweep stays CPU-tractable; the
/// synthetic tasks are easy enough that accuracy stays high.
double train_budget_factor(nn::BenchmarkNet net) {
  switch (net) {
    case nn::BenchmarkNet::kMlp1:
    case nn::BenchmarkNet::kMlp2: return 1.0;
    case nn::BenchmarkNet::kCnn1: return 0.7;
    case nn::BenchmarkNet::kCnn2: return 0.5;
    case nn::BenchmarkNet::kCnn3:
    case nn::BenchmarkNet::kCnn4: return 0.4;
  }
  return 1.0;
}

/// Deep CNNs need more optimization steps to converge on the synthetic
/// task; the MLPs would just overfit.
std::size_t epochs_for(nn::BenchmarkNet net, std::size_t base) {
  switch (net) {
    case nn::BenchmarkNet::kCnn2: return base + 2;
    case nn::BenchmarkNet::kCnn3:
    case nn::BenchmarkNet::kCnn4: return 2 * base + 2;
    default: return base;
  }
}

std::string cache_path(const AccuracyConfig& cfg, nn::BenchmarkNet net) {
  if (cfg.weight_cache_dir.empty()) return {};
  std::string tag;
  switch (net) {
    case nn::BenchmarkNet::kMlp1: tag = "mlp1"; break;
    case nn::BenchmarkNet::kMlp2: tag = "mlp2"; break;
    case nn::BenchmarkNet::kCnn1: tag = "cnn1"; break;
    case nn::BenchmarkNet::kCnn2: tag = "cnn2"; break;
    case nn::BenchmarkNet::kCnn3: tag = "cnn3"; break;
    case nn::BenchmarkNet::kCnn4: tag = "cnn4"; break;
  }
  return cfg.weight_cache_dir + "/resipe_weights_" + tag + ".bin";
}

}  // namespace

NetworkAccuracy evaluate_network_accuracy(nn::BenchmarkNet net,
                                          const AccuracyConfig& cfg) {
  RESIPE_REQUIRE(!cfg.sigmas.empty() && cfg.mc_seeds >= 1,
                 "empty accuracy sweep");
  const std::size_t n_train = std::max<std::size_t>(
      64, static_cast<std::size_t>(static_cast<double>(cfg.train_samples) *
                                   train_budget_factor(net)));
  auto [model, test, calib, fit] = nn::train_benchmark(
      net, {.train_samples = n_train,
            .test_samples = cfg.test_samples,
            .epochs = epochs_for(net, cfg.epochs),
            .data_seed = cfg.data_seed,
            .weight_cache = cache_path(cfg, net),
            .verbose = cfg.verbose});
  if (cfg.verbose && fit) {
    std::printf("  [%s] trained: train acc %.3f, test acc %.3f\n",
                model.name().c_str(), fit->train_accuracy, fit->test_accuracy);
  } else if (cfg.verbose) {
    std::printf("  [%s] loaded cached weights\n", model.name().c_str());
  }

  NetworkAccuracy row;
  row.name = nn::benchmark_name(net);
  row.software_accuracy = nn::evaluate(model, test);
  row.sigmas = cfg.sigmas;

  // Each (sigma, seed) arm is an independent Monte-Carlo chip: it
  // derives all randomness from its own program seed and only reads
  // the shared trained model, so the arms parallelize freely.  Each
  // arm writes an index-addressed slot and the reduction below folds
  // them in the original (sigma-outer, seed-inner) order, making the
  // sweep bit-identical for any thread count.
  const std::size_t n_arms = cfg.sigmas.size() * cfg.mc_seeds;
  std::vector<double> arm_acc(n_arms, 0.0);
  parallel_for(
      n_arms,
      [&](std::size_t a) {
        const std::size_t si = a / cfg.mc_seeds;
        const std::size_t seed = a % cfg.mc_seeds;
        resipe_core::EngineConfig ec;
        ec.device.variation_sigma = cfg.sigmas[si];
        // Common random numbers across the sigma sweep: the same
        // underlying Gaussian draws scale with sigma, so each
        // Monte-Carlo chip degrades monotonically and the sweep is not
        // drowned in sampling noise.
        ec.program_seed = 1000 + 77 * seed;
        const resipe_core::ResipeNetwork hw(model, ec, calib);
        arm_acc[a] = nn::evaluate_with(
            test, [&hw](const nn::Tensor& b) { return hw.forward(b); });
      },
      cfg.threads);

  for (std::size_t si = 0; si < cfg.sigmas.size(); ++si) {
    double acc_sum = 0.0;
    for (std::size_t seed = 0; seed < cfg.mc_seeds; ++seed) {
      acc_sum += arm_acc[si * cfg.mc_seeds + seed];
    }
    row.accuracy.push_back(acc_sum / static_cast<double>(cfg.mc_seeds));
    if (cfg.verbose) {
      std::printf("  [%s] sigma %.0f%%: accuracy %.3f\n", row.name.c_str(),
                  cfg.sigmas[si] * 100.0, row.accuracy.back());
    }
  }
  return row;
}

std::string render_accuracy(const std::vector<NetworkAccuracy>& rows) {
  RESIPE_REQUIRE(!rows.empty(), "no accuracy rows");
  std::vector<std::string> header{"Network", "Ideal (software)"};
  for (double s : rows.front().sigmas)
    header.push_back("sigma=" + format_fixed(s * 100.0, 0) + "%");
  TextTable t(std::move(header));
  for (const auto& r : rows) {
    std::vector<std::string> cells{r.name,
                                   format_percent(r.software_accuracy)};
    for (double a : r.accuracy) cells.push_back(format_percent(a));
    t.add_row(std::move(cells));
  }
  std::ostringstream os;
  os << t.str() << "\n";
  os << "Accuracy drop vs ideal (paper: <2.5% at sigma=0; 1..15% at "
        "sigma=20%, larger for deeper nets):\n";
  for (const auto& r : rows) {
    os << "  " << r.name << ": sigma=0 drop "
       << format_percent(r.drop(0)) << ", sigma="
       << format_fixed(r.sigmas.back() * 100.0, 0) << "% drop "
       << format_percent(r.drop(r.accuracy.size() - 1)) << "\n";
  }
  return os.str();
}

}  // namespace resipe::eval
