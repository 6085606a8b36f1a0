// Ablation: exchange payload size vs gather cost.
//
// The gather routine's cost is driven by the genome payload (the paper's
// full MLPs serialize to ~2.2 MB per cell). This bench sweeps the hidden
// width of the networks, measures the actual serialized genome, and reports
// the per-iteration virtual gather cost on a 3x3 grid — confirming the
// linear payload/time relation the NetModel charges.
#include <cstdio>

#include "core/session.hpp"

namespace {

using namespace cellgan;

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.arch.hidden_dim = 16;
  defaults.config.grid_rows = defaults.config.grid_cols = 3;
  defaults.config.iterations = 10;
  defaults.dataset.samples = 200;
  defaults.backend = core::Backend::kDistributed;
  auto spec = core::RunSpec::from_args(
      argc, argv, "ablation_payload: genome size vs gather time", defaults);
  if (!spec) return 1;
  if (!spec->result_json.empty()) {
    std::fprintf(stderr, "note: --result-json is ignored by this sweep bench\n");
    spec->result_json.clear();
  }

  // Calibrate ONCE at the reference width, then hold the network model fixed
  // while the payload sweeps — otherwise per-width recalibration would hide
  // the effect by construction. The custom profile (jitter zeroed to isolate
  // the payload effect) goes in through Session::set_cost_model.
  core::Session reference_session(*spec);
  if (!reference_session.prepare()) {
    std::fprintf(stderr, "error: %s\n", reference_session.error().c_str());
    return 1;
  }
  const core::WorkloadProbe reference_probe = core::InProcessTrainer::measure_workload(
      spec->config, reference_session.train_set());
  core::CostProfile profile = core::CostProfile::table3();
  profile.reference_iterations = static_cast<double>(spec->config.iterations);
  profile.straggler_sigma = 0.0;  // isolate the payload effect
  profile.node_sigma = 0.0;
  const core::CostModel cost =
      core::CostModel::calibrated(profile, reference_probe);

  std::printf("ablation: exchange payload vs gather cost (%ux%u grid, fixed"
              " network model)\n", spec->config.grid_rows, spec->config.grid_cols);
  std::printf("  %-12s | %14s | %20s | %18s\n", "hidden dim", "genome (KB)",
              "gather (min/run)", "min per MB-iter");

  for (const std::size_t hidden : {8u, 16u, 32u, 64u}) {
    core::RunSpec run_spec = *spec;
    run_spec.config.arch.hidden_dim = hidden;
    core::Session session(run_spec);
    session.set_cost_model(cost);
    // The dataset depends only on the image dimension, which the sweep holds
    // fixed — share the reference session's copy.
    session.set_datasets(reference_session.train_set(),
                         reference_session.test_set());
    if (!session.prepare()) {
      std::fprintf(stderr, "error: %s\n", session.error().c_str());
      return 1;
    }
    const core::WorkloadProbe probe = core::InProcessTrainer::measure_workload(
        run_spec.config, session.train_set());
    const core::RunResult outcome = session.run();
    const double gather_min =
        outcome.slave_routine_virtual_min(common::routine::kGather);
    const double genome_kb = probe.genome_bytes / 1024.0;
    const double mb_iter = probe.genome_bytes / (1024.0 * 1024.0) *
                           static_cast<double>(run_spec.config.iterations);
    std::printf("  %-12zu | %14.1f | %20.3f | %18.3f\n", hidden, genome_kb,
                gather_min, gather_min / mb_iter);
  }
  std::printf("\nreading: gather time scales linearly with the serialized"
              " genome\n(constant minutes per transferred megabyte), so wider"
              " networks pay\nproportionally more for the per-epoch"
              " exchange\n");
  return 0;
}
