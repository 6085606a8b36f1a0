// Shared pieces of the benchmark harness: the workload table, the span
// recorder, a small JSON writer and the phase entry points.
//
// The harness drives the system only through its public APIs
// (core::Session, serve::Server / serve::ServeClient, and each layer's own
// functions for the traced replay). It prints raw samples; run.py turns them
// into medians, percentiles and the contract's result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/run_spec.hpp"
#include "data/dataset.hpp"

namespace perfbench {

// ---- workloads --------------------------------------------------------------

/// One named workload: a training phase on a grid, then a serving phase on
/// the first training run's checkpoint. Every workload has both because every
/// end-to-end metric is reported on every workload. Training runs on the
/// threads backend with kLanes lanes, whose busy threads fill the cores.
struct Workload {
  std::string name;
  cellgan::core::TrainingConfig config;  ///< arch, grid, batch (seed set per run)
  std::uint32_t epochs_per_run = 1;  ///< epochs of one timed Session::run()
  bool serving_setup = false;        ///< setup_s is the server's, not the Session's
  double train_share = 0.0;          ///< share of --seconds spent training; serving gets the rest
};

inline constexpr std::size_t kLanes = 4;
/// Fixed offered rate of the latency phase, about half of capacity.
inline constexpr double kLatencyRps = 500.0;
/// Offered rate of the capacity phase, above capacity.
inline constexpr double kOverloadRps = 2500.0;

/// Requests of one round's latency phase; percentiles pool the rounds, and
/// three rounds give a p99 with more than ten samples beyond it.
inline constexpr std::size_t kLatencyRequests = 500;
/// Send window of one round's capacity phase.
inline constexpr double kCapacityWindowS = 1.0;

const Workload* find_workload(const std::string& name);

/// Session spec of the workload's training phase on the IDX set in `idx_dir`.
cellgan::core::RunSpec training_spec(const Workload& workload, std::uint64_t seed,
                                     const std::string& idx_dir);

inline constexpr std::uint32_t kRequestSamples = 8;  ///< samples per serve request

// ---- timing -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb();

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder for the traced run. A span has a name, a start and
/// end (µs since the tracer was made) and the id of the span open on the same
/// thread when it began (its parent, -1 at the top).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  /// RAII scope: opens a span on construction, closes it on destruction.
  /// Records nothing while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
    int saved_parent_;
  };

  Tracer();

  /// Whether scopes record spans (on by default).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Durations (ms) of every span named `name`, in record order.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Per-parent sums (ms) of the children of spans named `parent_name`.
  std::vector<double> child_sums_ms(const std::string& parent_name) const;
  /// Write every span as JSON lines.
  bool write(const std::string& path) const;

 private:
  double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< single-threaded use: the replay runs on one thread
  bool enabled_ = true;
};

// ---- JSON -------------------------------------------------------------------

/// Flat-to-nested JSON object builder (keys in insertion order).
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& boolean(const std::string& key, bool value);
  Json& str(const std::string& key, const std::string& value);
  Json& nums(const std::string& key, const std::vector<double>& values);
  Json& obj(const std::string& key, const Json& value);
  Json& objs(const std::string& key, const std::vector<Json>& values);
  std::string text() const;

 private:
  void key(const std::string& key);
  std::string body_;
};

double median(std::vector<double> values);

// ---- phases -----------------------------------------------------------------

/// Render the seeded MNIST-shaped IDX quartet into `dir`.
int generate_inputs(std::uint64_t seed, const std::string& dir);

inline std::uint64_t parity_seed(std::uint64_t seed) { return seed * 7919 + 17; }

/// Request accounting shared by the phases (the contract's attempted/failed).
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct TrainingReport {
  std::vector<double> setup_s;          ///< Session construction + prepare()
  std::vector<double> cell_steps_per_s; ///< one per untraced timed run
  bool bit_identical = true;
  bool finite = true;
  double best_g_loss = 0.0;
  double best_d_loss = 0.0;
  std::string checkpoint;               ///< the first run's grid, saved for serving
  std::vector<float> parity_reference;  ///< Session::sample_best(result, 8, parity seed)
  Json layers;                          ///< traced run only
};

/// Setup repetitions + timed Session runs for `budget_s` seconds.
TrainingReport run_training(const Workload& workload, std::uint64_t seed,
                            const std::string& idx_dir, const std::string& work_dir,
                            double budget_s, bool traced, Ops& ops);

/// One serving round: a fresh Server + ServeClient, a parity request, the
/// latency phase and the capacity phase.
struct ServingRound {
  double setup_s = 0.0;                 ///< Server construction + start() + first reply
  std::vector<double> latency_ms;       ///< latency phase, from scheduled send time
  std::vector<double> overload_recv_s;  ///< capacity phase completion times
};

struct ServingReport {
  std::vector<ServingRound> rounds;
  double max_send_lag_ms = 0.0;
  bool parity = true;
  Json layers;  ///< traced run only
};

/// Serve `checkpoint` (whose parity request must answer `reference`) in
/// rounds until `budget_s` has passed (at least `min_rounds` rounds).
ServingReport run_serving(const Workload& workload, std::uint64_t seed,
                          const std::string& checkpoint,
                          const std::vector<float>& reference, double budget_s,
                          int min_rounds, bool traced, Ops& ops);

/// Traced per-layer replay of one cell step and of the layer calls under it.
Json replay_layers(const Workload& workload, std::uint64_t seed, const std::string& idx_dir,
                   const cellgan::data::Dataset& train_set, double budget_s,
                   double cell_steps_per_s, const std::string& trace_path);

}  // namespace perfbench
