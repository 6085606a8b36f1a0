// Per-rank execution context threaded through the trainers.
//
// Bundles the virtual clock, per-routine profiler, straggler jitter stream
// and calibrated cost model of the rank (or worker lane, or process) running
// a trainer, so the same CellTrainer code serves the in-process trainer
// (SingleCore mode, contexts of one worker lane share its clock and
// profiler), the distributed slaves and pure real-time runs. charge() is the
// single point where a routine's wall time and simulated time enter the
// books.
#pragma once

#include <string>

#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/cost_model.hpp"

namespace cellgan::core {

struct ExecContext {
  ExecMode mode = ExecMode::RealTime;
  int grid_cells = 1;
  const CostModel* cost = nullptr;       ///< may be null (no virtual time)
  common::VirtualClock* clock = nullptr; ///< may be null
  common::Profiler* profiler = nullptr;  ///< may be null
  common::Rng* jitter_rng = nullptr;     ///< Distributed mode only; may be null
  /// When set, every simulated charge is also summed here — the owning
  /// cell's cumulative virtual seconds for the observer records. Summing at
  /// the charging point (same charge sequence whatever the schedule) keeps
  /// the total bit-identical across trainers, which clock deltas are not.
  double* virtual_accumulator = nullptr;
  /// Run-level speed multiplier of the node this rank landed on.
  double node_factor = 1.0;

  bool virtual_time() const { return cost != nullptr && cost->enabled(); }

  /// Record `wall_s` measured and `virtual_s` simulated seconds against a
  /// routine bucket, advancing the rank clock by the simulated cost.
  void charge(const std::string& routine, double wall_s, double virtual_s) const {
    if (clock != nullptr && virtual_s > 0.0) clock->advance(virtual_s);
    if (virtual_accumulator != nullptr) *virtual_accumulator += virtual_s;
    if (profiler != nullptr) profiler->add(routine, wall_s, virtual_s);
  }

  /// Straggler multiplier for compute charges (1.0 outside Distributed mode):
  /// the run-level node factor times per-charge lognormal noise.
  double compute_jitter() const {
    if (mode != ExecMode::Distributed || cost == nullptr || jitter_rng == nullptr) {
      return 1.0;
    }
    return node_factor * cost->jitter(*jitter_rng);
  }
};

}  // namespace cellgan::core
