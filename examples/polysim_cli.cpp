// Command-line driver for the §4.2 polyvalue-count simulation.
//
// Explore the parameter space beyond the paper's tables:
//
//   polysim_cli --u=10 --f=0.01 --i=10000 --r=0.01 --y=0 --d=1
//               --warmup=2000 --measure=10000 --seed=1 [--series]
//
// (one command line, wrapped here for width)
//
// Prints the simulated steady-state polyvalue count next to the model
// prediction; --series additionally prints a P(t) time series (useful
// for plotting the transient).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/model/analytic.h"
#include "src/sim/poly_sim.h"

using namespace polyvalue;

namespace {

bool ParseFlag(const char* arg, const char* name, double* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) {
    return false;
  }
  *out = std::atof(arg + prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double u = 10, f = 0.01, i = 10000, r = 0.01, y = 0, d = 1;
  double warmup = 2000, measure = 10000, seed = 1;
  bool series = false;
  for (int k = 1; k < argc; ++k) {
    if (ParseFlag(argv[k], "u", &u) || ParseFlag(argv[k], "f", &f) ||
        ParseFlag(argv[k], "i", &i) || ParseFlag(argv[k], "r", &r) ||
        ParseFlag(argv[k], "y", &y) || ParseFlag(argv[k], "d", &d) ||
        ParseFlag(argv[k], "warmup", &warmup) ||
        ParseFlag(argv[k], "measure", &measure) ||
        ParseFlag(argv[k], "seed", &seed)) {
      continue;
    }
    if (std::strcmp(argv[k], "--series") == 0) {
      series = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag %s\n", argv[k]);
    return 2;
  }

  ModelParams m;
  m.updates_per_second = u;
  m.failure_probability = f;
  m.items = i;
  m.recovery_rate = r;
  m.overwrite_probability = y;
  m.dependency_degree = d;
  const Prediction pred = Predict(m);

  PolySimParams p;
  p.updates_per_second = u;
  p.failure_probability = f;
  p.items = static_cast<uint64_t>(i);
  p.recovery_rate = r;
  p.overwrite_probability = y;
  p.dependency_degree = d;
  p.seed = static_cast<uint64_t>(seed);
  p.warmup_seconds = warmup;
  p.measure_seconds = measure;

  std::printf("parameters: %s\n", m.ToString().c_str());
  if (pred.stable) {
    std::printf("model: P = %.3f (decay rate k = %.5f /s, saturation "
                "P/I = %.5f)\n",
                pred.steady_state, pred.decay_rate, pred.saturation);
  } else {
    std::printf("model: UNSTABLE (IR + UY - UD <= 0); expect saturation "
                "behaviour\n");
  }

  if (series) {
    PolySim sim(p);
    std::printf("\n%-10s %-10s\n", "t (s)", "P(t)");
    const double horizon = warmup + measure;
    const double step = horizon / 40.0;
    for (double t = step; t <= horizon + 1e-9; t += step) {
      sim.AdvanceTo(t);
      std::printf("%-10.0f %zu\n", t, sim.CurrentPolyvalues());
    }
    sim.StartMeasurement();
    return 0;
  }

  const PolySimStats stats = RunPolySim(p);
  std::printf("sim:   P = %.3f (peak %.0f; %llu updates, %llu failures, "
              "%llu recoveries, %llu propagations, %llu overwrites)\n",
              stats.average_polyvalues, stats.peak_polyvalues,
              static_cast<unsigned long long>(stats.updates),
              static_cast<unsigned long long>(stats.failures),
              static_cast<unsigned long long>(stats.recoveries),
              static_cast<unsigned long long>(stats.propagations),
              static_cast<unsigned long long>(stats.overwrites));
  if (pred.stable && pred.steady_state > 0) {
    std::printf("sim / model = %.3f\n",
                stats.average_polyvalues / pred.steady_state);
  }
  return 0;
}
