// Ablation: straggler sensitivity of the exchange mode.
//
// The paper runs on a best-effort cluster where per-process speed varies,
// and its implementation synchronizes the grid with a per-epoch allgather.
// This bench sweeps the straggler jitter sigma for both exchange modes:
//   allgather       — lockstep; per-iteration noise compounds as a
//                     max-of-members effect every epoch;
//   async-neighbors — point-to-point newest-available exchange; a slave
//                     never waits, so noise averages instead of compounding.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/session.hpp"

namespace {

using namespace cellgan;

double run_with_sigma(core::RunSpec spec, const core::WorkloadProbe& probe,
                      const data::Dataset& train, const data::Dataset& test,
                      double sigma, core::ExchangeMode mode) {
  spec.config.exchange_mode = mode;
  core::CostProfile profile = core::CostProfile::table3();
  profile.reference_iterations = static_cast<double>(spec.config.iterations);
  profile.straggler_sigma = sigma;
  profile.node_sigma = 0.0;  // isolate per-iteration noise
  core::Session session(spec);
  session.set_cost_model(core::CostModel::calibrated(profile, probe));
  session.set_datasets(train, test);
  return session.run().virtual_s / 60.0;
}

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.grid_rows = defaults.config.grid_cols = 3;
  defaults.config.iterations = 20;
  defaults.dataset.samples = 200;
  defaults.backend = core::Backend::kDistributed;
  auto spec = core::RunSpec::from_args(
      argc, argv, "ablation_sync: straggler jitter vs makespan", defaults);
  if (!spec) return 1;
  if (!spec->result_json.empty()) {
    std::fprintf(stderr, "note: --result-json is ignored by this sweep bench\n");
    spec->result_json.clear();
  }
  const core::TrainingConfig& config = spec->config;

  core::Session probe_session(*spec);
  if (!probe_session.prepare()) {
    std::fprintf(stderr, "error: %s\n", probe_session.error().c_str());
    return 1;
  }
  const data::Dataset& train = probe_session.train_set();
  const data::Dataset& test = probe_session.test_set();
  const core::WorkloadProbe probe =
      core::InProcessTrainer::measure_workload(config, train);

  std::printf("ablation: exchange mode under straggler noise (%ux%u grid,"
              " %u iterations)\n",
              config.grid_rows, config.grid_cols, config.iterations);
  const double sync_base = run_with_sigma(*spec, probe, train, test, 0.0,
                                          core::ExchangeMode::kAllgather);
  const double async_base = run_with_sigma(*spec, probe, train, test, 0.0,
                                           core::ExchangeMode::kAsyncNeighbors);
  std::printf("  %-8s | %16s %10s | %16s %10s\n", "sigma", "allgather(min)",
              "slowdown", "async(min)", "slowdown");
  std::printf("  %-8.2f | %16.2f %10s | %16.2f %10s\n", 0.0, sync_base, "1.000x",
              async_base, "1.000x");
  for (const double sigma : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    const double sync_makespan = run_with_sigma(
        *spec, probe, train, test, sigma, core::ExchangeMode::kAllgather);
    const double async_makespan = run_with_sigma(
        *spec, probe, train, test, sigma, core::ExchangeMode::kAsyncNeighbors);
    std::printf("  %-8.2f | %16.2f %9.3fx | %16.2f %9.3fx\n", sigma, sync_makespan,
                sync_makespan / sync_base, async_makespan,
                async_makespan / async_base);
  }
  std::printf("\nreading: the allgather's per-epoch barrier compounds per-rank\n"
              "noise into a max-of-members penalty; async newest-available\n"
              "exchange keeps the makespan at the mean rank speed (and moves\n"
              "s-1 instead of n-1 genomes per epoch)\n");
  return 0;
}
