// The in-process cellular trainer: the whole grid in one process, each
// epoch's cell steps run by `lanes` workers — the "single core" (1 lane) and
// "p cores" (p lanes) columns of Table III.
//
// Cells are independent within an epoch (Section III.A's two-level model:
// threads within a rank, messages across ranks), so each epoch's cell steps
// run concurrently on a common::ThreadPool sized to the lanes. Determinism
// is preserved by construction, not by luck:
//
//   * the epoch-staged GenomeStore guarantees every cell reads exactly its
//     neighbors' previous-epoch genomes, whatever the interleaving — the
//     same schedule-independent semantics as the distributed allgather, so
//     every backend is comparable run for run;
//   * each cell keeps its private forked rng stream, so the schedule never
//     perturbs any cell's random sequence;
//   * cells are statically partitioned into balanced contiguous lanes, so
//     the lane a cell bills its virtual time to depends only on the lane
//     count, never on scheduling.
//
// Results (fitness trajectories, flops, per-routine virtual totals) are
// therefore bit-identical at every lane count. Each lane owns a
// VirtualClock and a Profiler: a lane's clock advances by the serial sum of
// its own cells' charges, the epoch barrier synchronizes all lanes to the
// slowest (wait_until the max), and the run's virtual makespan is that max.
// With one lane this is the serial sum over the whole grid, and the cost
// model's SingleCore working-set penalty applies at every lane count (the
// process still holds the whole grid). Profilers merge at the end, keeping
// the per-charge hot path on uncontended per-lane instances.
//
// Note: cell-level parallelism composes with the tensor kernels' inline
// (single-thread) global pool. Enabling both would make concurrent
// parallel_for calls race on the shared global pool — pick one level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/thread_pool.hpp"
#include "core/cell_trainer.hpp"
#include "core/checkpoint.hpp"
#include "core/comm_manager.hpp"
#include "core/config.hpp"
#include "core/cost_model.hpp"
#include "core/grid.hpp"
#include "core/observer.hpp"
#include "data/dataset.hpp"

namespace cellgan::core {

/// Result of a full training run (any mode).
struct TrainOutcome {
  double wall_s = 0.0;
  double virtual_s = 0.0;              ///< simulated makespan (0 if disabled)
  double train_flops = 0.0;            ///< total flops spent in train, all cells
  common::Profiler profiler;           ///< per-routine totals (see Table IV)
  std::vector<double> g_fitnesses;     ///< final per-cell generator losses
  std::vector<double> d_fitnesses;
  int best_cell = 0;                   ///< argmin generator fitness
};

class InProcessTrainer {
 public:
  /// `dataset` must outlive the trainer. `lanes` is the number of worker
  /// lanes requested (clamped to [1, cells]); the pool starts one OS thread
  /// per lane beyond the caller's, so 1 lane steps every cell on the caller.
  InProcessTrainer(const TrainingConfig& config, const data::Dataset& dataset,
                   std::size_t lanes, const CostModel& cost_model = {});

  InProcessTrainer(const InProcessTrainer&) = delete;
  InProcessTrainer& operator=(const InProcessTrainer&) = delete;

  /// Run the configured number of iterations over every cell.
  TrainOutcome run();

  /// Subscribe the run to an event bus (epoch-started / cell-stepped /
  /// epoch-completed; may be null / empty: observation is strictly
  /// pay-for-use). Call before run(); the bus must outlive the trainer.
  void set_observers(EventBus* bus) { bus_ = bus; }

  /// Worker lanes actually used (== min(lanes, cells)).
  std::size_t lanes() const { return lanes_.size(); }

  /// Access to trained cells (valid after run()) for sampling / inspection.
  Grid& grid() { return grid_; }
  CellTrainer& cell(int cell_id) { return *cells_[cell_id]; }
  int cells() const { return static_cast<int>(cells_.size()); }

  /// Snapshot the whole grid for persistence (see core/checkpoint.hpp).
  Checkpoint checkpoint() const;

  /// Restore every cell from a checkpoint taken with a compatible
  /// configuration (same grid and architecture); a subsequent run() trains
  /// `config.iterations` further epochs.
  void restore(const Checkpoint& snapshot);

  /// Calibration probe: per-cell-per-iteration work of this configuration
  /// (runs one throwaway iteration on a scratch cell).
  static WorkloadProbe measure_workload(const TrainingConfig& config,
                                        const data::Dataset& dataset);

 private:
  /// Per-worker accounting lane: cells [lane_begin_[l], lane_begin_[l+1])
  /// bill their virtual time and routine costs here. Cache-line aligned so
  /// one lane's clock/profiler words never share a line with a neighbor's
  /// (each charge is a read-modify-write on the owning worker thread; see
  /// common/aligned.hpp).
  struct alignas(common::kCacheLineBytes) Lane {
    common::VirtualClock clock;
    common::Profiler profiler;
  };

  /// One cell's epoch: collect the visible source genomes, run the cell's
  /// coevolutionary step, stage the new center genome for the next epoch.
  /// Safe to call concurrently for distinct cells. When observing, the
  /// cell's record is assembled here on the stepping thread (distinct cells
  /// write distinct slots) but published only at the epoch barrier, in cell
  /// order — the stream stays deterministic at any lane count.
  void run_cell_epoch(int cell);

  /// Publish the completed epoch's cell-stepped events (cell order) and the
  /// assembled EpochRecord. Called after the barrier, from one thread.
  void publish_epoch();

  TrainingConfig config_;
  const data::Dataset& dataset_;
  CostModel cost_model_;
  Grid grid_;
  GenomeStore store_;
  std::vector<std::size_t> lane_begin_;  ///< lanes()+1 partition offsets
  std::vector<Lane> lanes_;              ///< never resized: contexts point in
  common::ThreadPool pool_;              ///< one participant per lane
  /// Per-cell cumulative own charges, written concurrently by whichever lane
  /// steps the cell. One cache line per counter: packed doubles would put
  /// eight lanes' hot accumulators on one line and turn every charge into
  /// coherence traffic.
  std::vector<common::CacheAligned<double>> cell_virtual_s_;
  std::vector<ExecContext> contexts_;    ///< one per cell; addresses stable
  std::vector<std::unique_ptr<CellTrainer>> cells_;
  std::vector<std::unique_ptr<LocalCommManager>> comms_;

  // Observation state (inert while no observer is subscribed).
  EventBus* bus_ = nullptr;
  std::uint32_t epoch_ = 0;
  bool recording_ = false;               ///< records armed for this epoch
  std::vector<CellEpochRecord> epoch_records_;  ///< one slot per cell
};

}  // namespace cellgan::core
