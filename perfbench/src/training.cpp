// Training phase: Session set-up repetitions, then timed Session::run()s of
// the workload's grid until the phase budget is spent. Every run of a seed
// must end with finite fitnesses that are bit-identical to the first run's.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/session.hpp"

namespace perfbench {

namespace {

using namespace cellgan;

constexpr int kSetupReps = 5;
constexpr int kMinRuns = 3;
constexpr int kMaxRuns = 60;

/// Benchmark-side observer: stamps each completed epoch record's arrival.
class EpochClock final : public core::TrainObserver {
 public:
  void on_epoch_completed(const core::EpochRecord& /*record*/) override {
    stamps_.push_back(Clock::now());
  }
  /// Milliseconds between consecutive epochs of one run.
  void harvest(std::vector<double>& out) {
    for (std::size_t i = 1; i < stamps_.size(); ++i) {
      out.push_back(
          std::chrono::duration<double, std::milli>(stamps_[i] - stamps_[i - 1]).count());
    }
    stamps_.clear();
  }

 private:
  std::vector<Clock::time_point> stamps_;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool all_finite(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return !values.empty();
}

double share(const common::Profiler& profiler, const char* routine) {
  double total = 0.0;
  for (const char* name : {common::routine::kTrain, common::routine::kGather,
                           common::routine::kUpdateGenomes, common::routine::kMutate}) {
    total += profiler.cost(name).wall_s;
  }
  return total > 0.0 ? profiler.cost(routine).wall_s / total : 0.0;
}

}  // namespace

TrainingReport run_training(const Workload& workload, std::uint64_t seed,
                            const std::string& idx_dir, const std::string& work_dir,
                            double budget_s, bool traced, Ops& ops) {
  TrainingReport report;
  const core::RunSpec spec = training_spec(workload, seed, idx_dir);

  std::unique_ptr<core::Session> prepared;
  for (int rep = 0; rep < (traced ? 1 : kSetupReps); ++rep) {
    prepared.reset();
    const auto start = Clock::now();
    auto session = std::make_unique<core::Session>(spec);
    if (!session->prepare()) throw std::runtime_error(session->error());
    report.setup_s.push_back(seconds_since(start));
    prepared = std::move(session);
  }

  const double steps = static_cast<double>(spec.config.grid_cells()) *
                       static_cast<double>(spec.config.iterations);
  std::vector<double> first_g;
  std::vector<double> first_d;
  std::vector<double> epoch_ms;
  common::Profiler routines;
  EpochClock epoch_clock;

  // A run starts only if one more of the last run's length fits the budget.
  const auto phase_start = Clock::now();
  double last_run_s = 0.0;
  for (int run = 0; run < kMaxRuns && (run < kMinRuns ||
                                       seconds_since(phase_start) + last_run_s <= budget_s);
       ++run) {
    const auto run_start = Clock::now();
    // The traced run attaches an epoch observer to every other run; only the
    // unobserved runs count towards cell_steps_per_s.
    const bool observed = traced && run % 2 == 1;
    core::Session session(spec);
    session.set_datasets(prepared->train_set(), prepared->test_set());
    if (observed) session.observers().subscribe(&epoch_clock);
    if (!session.prepare()) throw std::runtime_error(session.error());

    const auto start = Clock::now();
    const core::RunResult result = session.run();
    const double wall_s = seconds_since(start);

    bool ok = all_finite(result.g_fitnesses) && all_finite(result.d_fitnesses);
    report.finite = report.finite && ok;
    if (run == 0) {
      first_g = result.g_fitnesses;
      first_d = result.d_fitnesses;
      report.checkpoint = work_dir + "/trained.ckpt";
      if (!core::save_checkpoint(report.checkpoint, session.result_checkpoint(result))) {
        throw std::runtime_error("cannot write " + report.checkpoint);
      }
      const tensor::Tensor reference =
          session.sample_best(result, kRequestSamples, parity_seed(seed));
      const auto floats = reference.data();
      report.parity_reference.assign(floats.begin(), floats.end());
    } else if (!same_bits(first_g, result.g_fitnesses) ||
               !same_bits(first_d, result.d_fitnesses)) {
      report.bit_identical = false;
      ok = false;
    }
    ops.attempted += static_cast<std::uint64_t>(steps);
    if (!ok) ops.failed += static_cast<std::uint64_t>(steps);

    if (!result.g_fitnesses.empty()) {
      const auto best = static_cast<std::size_t>(result.best_cell);
      report.best_g_loss = result.g_fitnesses[best];
      report.best_d_loss = result.d_fitnesses[best];
    }
    if (observed) {
      epoch_clock.harvest(epoch_ms);
    } else {
      report.cell_steps_per_s.push_back(steps / wall_s);
    }
    routines.merge(result.profiler);
    last_run_s = seconds_since(run_start);
  }
  if (!traced) return report;

  // Lane efficiency: the same runs on one lane (the sequential backend)
  // against the workload's own throughput.
  core::RunSpec single = spec;
  single.backend = core::Backend::kSequential;
  core::Session one_lane(single);
  one_lane.set_datasets(prepared->train_set(), prepared->test_set());
  if (!one_lane.prepare()) throw std::runtime_error(one_lane.error());
  const auto start = Clock::now();
  one_lane.run();
  const double one_lane_rate =
      static_cast<double>(single.config.grid_cells() * single.config.iterations) /
      seconds_since(start);
  const double untraced = median(report.cell_steps_per_s);

  std::vector<double> sorted = epoch_ms;
  std::sort(sorted.begin(), sorted.end());
  const double epoch_p90 =
      sorted.empty() ? 0.0 : sorted[static_cast<std::size_t>(0.9 * (sorted.size() - 1))];

  report.layers
      .num("core.routine_share.train", share(routines, common::routine::kTrain))
      .num("core.routine_share.gather", share(routines, common::routine::kGather))
      .num("core.routine_share.update_genomes",
           share(routines, common::routine::kUpdateGenomes))
      .num("core.routine_share.mutate", share(routines, common::routine::kMutate))
      .num("core.epoch_ms_p50", median(epoch_ms))
      .num("core.epoch_ms_p90", epoch_p90)
      .num("core.lane_efficiency",
           untraced / (static_cast<double>(kLanes) * one_lane_rate));
  return report;
}

}  // namespace perfbench
