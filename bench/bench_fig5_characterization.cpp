// Reproduces Fig. 5: the input-output characterization of the
// single-spiking MVM — t_out versus the input strength t_in * G for
// 100 random sample points with total conductance 0.32..3.2 mS and
// arrival times 10..80 ns, plus the three fitting curves (Sec. III-D).
//
// Expected shape (checked in EXPERIMENTS.md):
//   * samples with G_total <= 1.6 mS hug Curve 1 with only slight
//     non-linearity;
//   * the 2.5 mS and 3.2 mS sweeps fall below Curve 1 and flatten at
//     large t_in*G (Ccog saturation).
//
// `--csv FILE` also writes every sample point as CSV.
#include <cstdio>
#include <exception>
#include <string>

#include "bench_report.hpp"
#include "resipe/common/csv.hpp"
#include "resipe/common/table.hpp"
#include "resipe/eval/characterization.hpp"

int main(int argc, char** argv) {
  using namespace resipe;
  bench::BenchReport report("fig5_characterization", argc, argv,
                            {{"--csv", "FILE"}});
  const std::string csv_path = report.text("--csv");

  eval::CharacterizationConfig cfg;
  const auto result = eval::characterize(cfg);

  std::puts("=== Fig. 5: t_out vs input strength t_in * G ===\n");
  std::printf("random samples: %zu, G_total in [%.2f, %.2f] mS, t_in in "
              "[%.0f, %.0f] ns\n\n",
              result.random_samples.size(), cfg.g_total_min * 1e3,
              cfg.g_total_max * 1e3, cfg.t_in_min * 1e9,
              cfg.t_in_max * 1e9);

  // A digest of the random samples (every 10th point).
  TextTable t({"t_in", "G_total", "t_in*G (x-axis)", "t_out (measured)",
               "t_out (Eq.6 linear)"});
  for (std::size_t i = 0; i < result.random_samples.size(); i += 10) {
    const auto& p = result.random_samples[i];
    t.add_row({format_si(p.t_in, "s"), format_si(p.g_total, "S"),
               format_fixed(p.strength * 1e12, 2) + " ps*S",
               format_si(p.t_out, "s"), format_si(p.t_out_ideal, "s")});
  }
  std::puts(t.str().c_str());

  auto print_curve = [](const char* name, const PolyFit& fit) {
    std::printf("%s: t_out ~ %.3e + %.3e x + %.3e x^2   (r^2 = %.4f)\n",
                name, fit.coeffs[0], fit.coeffs[1], fit.coeffs[2], fit.r2);
  };
  print_curve("Curve 1 (G_total <= 1.6 mS)", result.curve1);
  print_curve("Curve 2 (G_total  = 2.5 mS)", result.curve2);
  print_curve("Curve 3 (G_total  = 3.2 mS)", result.curve3);

  // Saturation evidence: compare the three curves at a large input
  // strength (they must be ordered curve1 > curve2 > curve3).
  const double x_probe = 100e-12;  // 100 ps*S
  std::printf("\nAt t_in*G = 100 ps*S: curve1 = %s, curve2 = %s, "
              "curve3 = %s\n",
              format_si(result.curve1(x_probe), "s").c_str(),
              format_si(result.curve2(x_probe), "s").c_str(),
              format_si(result.curve3(x_probe), "s").c_str());

  // Shape checks (Sec. III-D): points above 1.6 mS fall below Curve 1;
  // saturation grows with t_in.
  std::size_t below = 0;
  std::size_t high_g = 0;
  for (const auto& p : result.random_samples) {
    if (p.g_total <= 1.6e-3) continue;
    ++high_g;
    if (p.t_out < result.curve1(p.strength)) ++below;
  }
  std::printf("\nSamples with G_total > 1.6 mS lying below Curve 1: "
              "%zu / %zu\n",
              below, high_g);

  if (!csv_path.empty()) {
    CsvWriter csv;
    std::vector<double> t_in, g, x, y, y_lin;
    for (const auto& p : result.random_samples) {
      t_in.push_back(p.t_in);
      g.push_back(p.g_total);
      x.push_back(p.strength);
      y.push_back(p.t_out);
      y_lin.push_back(p.t_out_ideal);
    }
    csv.add_column("t_in_s", t_in);
    csv.add_column("g_total_S", g);
    csv.add_column("strength_sS", x);
    csv.add_column("t_out_s", y);
    csv.add_column("t_out_linear_s", y_lin);
    try {
      csv.write_file(csv_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("\nwrote %s\n", csv_path.c_str());
  }

  report.add("samples", static_cast<double>(result.random_samples.size()));
  report.add("curve1_r2", result.curve1.r2);
  report.add("curve2_r2", result.curve2.r2);
  report.add("curve3_r2", result.curve3.r2);
  report.add("high_g_below_curve1_frac",
             high_g > 0 ? static_cast<double>(below) /
                              static_cast<double>(high_g)
                        : 0.0);
  return report.emit();
}
