// Traced per-layer replay. Spans are recorded from this file around calls
// into each layer's public functions, never inside the program:
//
//   core     CellTrainer::step on the workload's grid, stepped one cell at a
//            time, and a replay of one step from the calls it makes
//            (train_generator_step, train_discriminator_step, evaluate_*_loss,
//            the mixture probe forwards, genome decodes and batch fetches).
//            The replay is a copy of CellTrainer's step written here, so it
//            follows the program only as far as the copy is kept in step;
//   nn       Sequential::forward/backward, Adam::step, load_parameters;
//   tensor   matmul/matmul_tn/matmul_nt and tanh forward/backward at the
//            workload's layer shapes, on activations captured from a forward,
//            scaled to a cell step by the real step's flop count;
//   evolve   genome export, decode + install;
//   minimpi  Comm::allgather of genome-sized payloads at the grid's size: the
//            exchange one epoch of the distributed backend makes;
//   datastore / data   SampleStore::map_idx, BatchFeed::batch, IDX load +
//            downsample.
//
// trace.coverage is the replayed step's summed child spans over the measured
// cell step: how closely the replay's calls account for a real step.
// trace.overhead is the replayed step's throughput with spans recorded over
// its throughput with the tracer disabled: the median over pairs of one
// traced and one untraced replay run back to back.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/cell_trainer.hpp"
#include "core/evolution.hpp"
#include "core/gan_trainer.hpp"
#include "datastore/batch_feed.hpp"
#include "datastore/sample_store.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/runtime.hpp"
#include "nn/linear.hpp"
#include "tensor/flops.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using namespace cellgan;
using Scope = Tracer::Scope;

/// Runs `body` at least `min_reps` times and until `budget_s` has passed.
template <typename Body>
void repeat(double budget_s, int min_reps, Body body) {
  const auto start = Clock::now();
  for (int rep = 0; rep < min_reps || seconds_since(start) < budget_s; ++rep) body();
}

/// The GEMM and tanh calls of one network's forward + backward, captured
/// from a real forward pass and replayed one call at a time.
struct LayerCalls {
  struct Gemm {
    tensor::Tensor input, weight, output;
  };
  struct Act {
    tensor::Tensor pre, post;
  };
  std::vector<Gemm> gemms;
  std::vector<Act> acts;
};

LayerCalls capture(nn::Sequential& net, const tensor::Tensor& input) {
  LayerCalls calls;
  tensor::Tensor x = input;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    nn::Layer& layer = net.layer(i);
    tensor::Tensor y = layer.forward(x);
    if (dynamic_cast<nn::Linear*>(&layer) != nullptr) {
      calls.gemms.push_back({x, *layer.parameters()[0], y});
    } else {
      calls.acts.push_back({x, y});
    }
    x = std::move(y);
  }
  return calls;
}

/// The GEMMs and activations of one forward + backward pass of a network.
struct TensorTimes {
  double act_ms = 0.0;      ///< tanh forward + backward of every activation
  double gemm_flops = 0.0;  ///< matmul + matmul_tn + matmul_nt of every Linear
  double gemm_s = 0.0;      ///< wall of those GEMMs
};

void time_calls(Tracer& tracer, const LayerCalls& calls, const std::string& net,
                double budget_s, TensorTimes& out) {
  for (std::size_t i = 0; i < calls.gemms.size(); ++i) {
    const auto& g = calls.gemms[i];
    const std::string tag = net + std::to_string(i);
    repeat(budget_s, 5, [&] {
      { Scope s(tracer, "tensor.matmul." + tag); (void)tensor::matmul(g.input, g.weight); }
      { Scope s(tracer, "tensor.matmul_tn." + tag); (void)tensor::matmul_tn(g.input, g.output); }
      { Scope s(tracer, "tensor.matmul_nt." + tag); (void)tensor::matmul_nt(g.output, g.weight); }
    });
    const double ms = median(tracer.durations_ms("tensor.matmul." + tag)) +
                      median(tracer.durations_ms("tensor.matmul_tn." + tag)) +
                      median(tracer.durations_ms("tensor.matmul_nt." + tag));
    const double flops = 2.0 * static_cast<double>(g.input.rows() * g.weight.rows() *
                                                   g.weight.cols());
    out.gemm_flops += 3.0 * flops;
    out.gemm_s += ms / 1000.0;
  }
  for (std::size_t i = 0; i < calls.acts.size(); ++i) {
    const auto& a = calls.acts[i];
    const std::string tag = net + std::to_string(i);
    repeat(budget_s, 5, [&] {
      { Scope s(tracer, "tensor.tanh_forward." + tag); (void)tensor::tanh_forward(a.pre); }
      { Scope s(tracer, "tensor.tanh_backward." + tag); (void)tensor::tanh_backward(a.post, a.post); }
    });
    out.act_ms += median(tracer.durations_ms("tensor.tanh_forward." + tag)) +
                  median(tracer.durations_ms("tensor.tanh_backward." + tag));
  }
}

}  // namespace

Json replay_layers(const Workload& workload, std::uint64_t seed, const std::string& idx_dir,
                   const data::Dataset& train_set, double budget_s,
                   double cell_steps_per_s, const std::string& trace_path) {
  Tracer tracer;
  core::TrainingConfig config = workload.config;
  config.seed = seed;
  const nn::GanArch& arch = config.arch;
  const std::size_t batch = config.batch_size;
  const double slice = budget_s / 8.0;

  // ---- core: real cell steps, one cell at a time -----------------------------
  const core::Grid grid(static_cast<int>(config.grid_rows),
                        static_cast<int>(config.grid_cols));
  const core::ExecContext context;
  const common::Rng root(seed);
  std::vector<std::unique_ptr<core::CellTrainer>> cells;
  for (int c = 0; c < grid.size(); ++c) {
    cells.push_back(std::make_unique<core::CellTrainer>(config, grid, c, train_set,
                                                        root.fork(c), context));
  }
  std::vector<std::vector<std::uint8_t>> gathered(cells.size());
  std::vector<double> step_flops;
  const auto epoch = [&](bool timed) {
    for (auto& cell : cells) {
      if (!timed) {
        cell->step(gathered);
        continue;
      }
      tensor::ScopedFlopsCounter flops;
      {
        Scope s(tracer, "core.cell_step");
        cell->step(gathered);
      }
      step_flops.push_back(static_cast<double>(flops.taken()));
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Scope s(tracer, "evolve.export");
      gathered[c] = cells[c]->export_genome();
    }
  };
  epoch(false);
  epoch(false);

  // ---- core: one step replayed from the calls it makes ---------------------
  common::Rng rng = root.fork(1000);
  nn::Sequential g = nn::make_generator(arch, rng);
  nn::Sequential d = nn::make_discriminator(arch, rng);
  nn::Sequential scratch_g = nn::make_generator(arch, rng);
  nn::Sequential scratch_d = nn::make_discriminator(arch, rng);
  const core::CellGenome center = core::CellGenome::deserialize(gathered[0]);
  center.install(g, d);
  nn::Adam g_opt(center.g_learning_rate);
  nn::Adam d_opt(center.d_learning_rate);
  auto feed = datastore::make_feed(config.data_plane, train_set, batch);
  feed->reshuffle(rng);
  std::size_t next = 0;
  const auto fetch = [&] {
    if (next >= feed->batches_per_epoch()) {
      feed->reshuffle(rng);
      next = 0;
    }
    Scope s(tracer, "datastore.batch");
    return feed->batch(next++);
  };
  const std::vector<int>& neighbours = grid.neighbors_of(0);
  const std::size_t eval_n = std::min<std::size_t>(config.fitness_eval_samples, batch);
  const std::size_t probe = std::max<std::size_t>(8, config.fitness_eval_samples / 4);

  // Real epochs and replayed steps interleave, so both see the same machine.
  const auto replay_step = [&] {
    Scope step(tracer, "replay.cell_step");
    std::vector<core::CellGenome> members;
    {
      Scope s(tracer, "evolve.update");
      for (const int n : neighbours) {
        members.push_back(core::CellGenome::deserialize(gathered[static_cast<std::size_t>(n)]));
      }
      // Cellular selection: a strictly fitter neighbour centre is adopted.
      for (const auto& m : members) {
        if (m.g_fitness < center.g_fitness) g.load_parameters(m.generator_params);
        if (m.d_fitness < center.d_fitness) d.load_parameters(m.discriminator_params);
      }
    }
    std::vector<double> g_table{center.g_fitness};
    std::vector<double> d_table{center.d_fitness};
    for (const auto& m : members) {
      g_table.push_back(m.g_fitness);
      d_table.push_back(m.d_fitness);
    }
    const tensor::Tensor real = fetch();
    nn::Sequential* opponent_d = &d;
    if (const std::size_t pick = core::tournament_select(d_table, config.tournament_size, rng);
        pick > 0) {
      Scope s(tracer, "nn.load_params");
      scratch_d.load_parameters(members[pick - 1].discriminator_params);
      opponent_d = &scratch_d;
    }
    {
      Scope s(tracer, "core.g_step");
      core::train_generator_step(g, g_opt, *opponent_d, batch, arch.latent_dim, rng);
    }
    nn::Sequential* opponent_g = &g;
    if (const std::size_t pick = core::tournament_select(g_table, config.tournament_size, rng);
        pick > 0) {
      Scope s(tracer, "nn.load_params");
      scratch_g.load_parameters(members[pick - 1].generator_params);
      opponent_g = &scratch_g;
    }
    {
      Scope s(tracer, "core.d_step");
      core::train_discriminator_step(d, d_opt, *opponent_g, real, arch.latent_dim, rng);
    }
    const tensor::Tensor eval_batch = fetch();
    {
      Scope s(tracer, "core.fitness_eval");
      const tensor::Tensor eval_real = eval_batch.slice_rows(0, eval_n);
      core::evaluate_generator_loss(g, d, eval_n, arch.latent_dim, rng);
      core::evaluate_discriminator_loss(d, g, eval_real, arch.latent_dim, rng);
    }
    {
      // Two mixture probes (incumbent and candidate weights), as in mutate().
      Scope s(tracer, "core.mutate");
      const evolve::MixtureWeights weights(members.size() + 1);
      for (int candidate = 0; candidate < 2; ++candidate) {
        std::vector<std::size_t> counts(weights.size(), 0);
        for (std::size_t i = 0; i < probe; ++i) ++counts[weights.sample_index(rng)];
        tensor::Tensor samples(probe, arch.image_dim);
        std::size_t row = 0;
        for (std::size_t m = 0; m < counts.size(); ++m) {
          if (counts[m] == 0) continue;
          nn::Sequential* gen = &g;
          if (m > 0) {
            scratch_g.load_parameters(members[m - 1].generator_params);
            gen = &scratch_g;
          }
          const tensor::Tensor images =
              gen->forward(tensor::Tensor::randn(counts[m], arch.latent_dim, rng, 1.0f));
          for (std::size_t k = 0; k < counts[m]; ++k, ++row) {
            const auto src = images.row_span(k);
            std::copy(src.begin(), src.end(), samples.row_span(row).begin());
          }
        }
        const tensor::Tensor logits = d.forward(samples);
        (void)tensor::bce_with_logits(logits, tensor::Tensor::full(probe, 1, 1.0f));
      }
    }
  };
  // Each traced replay is paired with an untraced one right after it.
  std::vector<double> untraced_replay_ms;
  repeat(4 * slice, 3, [&] {
    epoch(true);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      replay_step();
      tracer.set_enabled(false);
      const auto start = Clock::now();
      replay_step();
      untraced_replay_ms.push_back(seconds_since(start) * 1000.0);
      tracer.set_enabled(true);
    }
  });
  const std::vector<double> traced_replay_ms = tracer.durations_ms("replay.cell_step");
  std::vector<double> replay_speed_ratios;
  for (std::size_t i = 0; i < traced_replay_ms.size(); ++i) {
    replay_speed_ratios.push_back(untraced_replay_ms[i] / traced_replay_ms[i]);
  }

  // ---- evolve: decode + install of one neighbour genome --------------------
  repeat(slice / 2, 5, [&] {
    Scope s(tracer, "evolve.install");
    core::CellGenome::deserialize(gathered[static_cast<std::size_t>(neighbours[0])])
        .install(scratch_g, scratch_d);
  });

  // ---- nn: forward / backward / Adam at the batch size -----------------------
  double pass_flops = 0.0;  // every tensor flop of one G + D forward + backward
  repeat(slice, 5, [&] {
    const tensor::Tensor z = tensor::Tensor::randn(batch, arch.latent_dim, rng, 1.0f);
    const tensor::Tensor dlogits = tensor::Tensor::full(batch, 1, 0.01f);
    tensor::Tensor fake;
    tensor::Tensor logits;
    tensor::Tensor dx;
    {
      tensor::ScopedFlopsCounter flops;
      { Scope s(tracer, "nn.forward.g"); fake = g.forward(z); }
      { Scope s(tracer, "nn.forward.d"); logits = d.forward(fake); }
      { Scope s(tracer, "nn.backward.d"); dx = d.backward(dlogits); }
      { Scope s(tracer, "nn.backward.g"); (void)g.backward(dx); }
      pass_flops = static_cast<double>(flops.taken());
    }
    { Scope s(tracer, "nn.adam"); g_opt.step(g); d_opt.step(d); }
    g.zero_grad();
    d.zero_grad();
  });

  // ---- tensor: GEMM and tanh calls at the layer shapes ----------------------
  const tensor::Tensor z = tensor::Tensor::randn(batch, arch.latent_dim, rng, 1.0f);
  const LayerCalls g_calls = capture(g, z);
  const LayerCalls d_calls = capture(d, g_calls.acts.back().post);
  TensorTimes times;
  time_calls(tracer, g_calls, "g", slice / 12, times);
  time_calls(tracer, d_calls, "d", slice / 12, times);

  // ---- minimpi: allgather of genome-sized payloads --------------------------
  const std::size_t genome_bytes = gathered[0].size();
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  int gathers = 0;
  {
    minimpi::Runtime runtime(grid.size());
    runtime.run([&](minimpi::Comm& comm) {
      const std::vector<std::uint8_t> payload(genome_bytes,
                                              static_cast<std::uint8_t>(comm.rank()));
      const auto start = Clock::now();
      for (int rep = 0;; ++rep) {
        // Rank 0 decides for everyone whether another round fits the budget.
        const double more = comm.allreduce_max(
            comm.rank() == 0 && (rep < 5 || seconds_since(start) < slice) ? 1.0 : 0.0);
        if (more == 0.0) break;
        comm.barrier();
        std::vector<std::vector<std::uint8_t>> all;
        if (comm.rank() == 0) {
          Scope s(tracer, "minimpi.allgather");
          all = comm.allgather(payload);
          ++gathers;
        } else {
          all = comm.allgather(payload);
        }
        for (int r = 0; r < comm.size(); ++r) {
          if (r == comm.rank()) continue;
          messages += 1;
          bytes += all[static_cast<std::size_t>(r)].size();
        }
      }
    });
  }

  // ---- datastore: mmap ingest and bytes mapped ------------------------------
  std::size_t mapped = 0;
  repeat(slice / 2, 3, [&] {
    Scope s(tracer, "datastore.map_idx");
    mapped = datastore::SampleStore::map_idx(idx_dir + "/train-images-idx3-ubyte")
                 ->bytes_mapped();
  });

  const double cell_step_ms = median(tracer.durations_ms("core.cell_step"));
  const double step_flops_median = median(step_flops);
  // A cell step's GEMM time is its counted flops at the measured GEMM rate
  // (GEMMs carry nearly all of the count); its activation time is one pass's
  // activation time scaled by the step's flops over one pass's flops.
  const double gemm_flops_per_s = times.gemm_flops / times.gemm_s;
  Json layers;
  layers.num("tensor.gemm_gflops", gemm_flops_per_s / 1e9)
      .num("tensor.gemm_ms_per_cell_step", 1000.0 * step_flops_median / gemm_flops_per_s)
      .num("tensor.act_ms_per_cell_step", times.act_ms * step_flops_median / pass_flops)
      .num("tensor.flops_per_cell_step", step_flops_median)
      .num("tensor.achieved_gflops", step_flops_median * cell_steps_per_s / 1e9)
      .num("nn.forward_ms.g", median(tracer.durations_ms("nn.forward.g")))
      .num("nn.forward_ms.d", median(tracer.durations_ms("nn.forward.d")))
      .num("nn.backward_ms.g", median(tracer.durations_ms("nn.backward.g")))
      .num("nn.backward_ms.d", median(tracer.durations_ms("nn.backward.d")))
      .num("nn.adam_ms", median(tracer.durations_ms("nn.adam")))
      .num("nn.load_params_ms", median(tracer.durations_ms("nn.load_params")))
      .num("core.d_step_ms", median(tracer.durations_ms("core.d_step")))
      .num("core.g_step_ms", median(tracer.durations_ms("core.g_step")))
      .num("core.fitness_eval_ms", median(tracer.durations_ms("core.fitness_eval")))
      .num("core.cell_step_ms", cell_step_ms)
      .num("evolve.genome_bytes", static_cast<double>(genome_bytes))
      .num("evolve.export_ms", median(tracer.durations_ms("evolve.export")))
      .num("evolve.install_ms", median(tracer.durations_ms("evolve.install")))
      .num("minimpi.allgather_ms", median(tracer.durations_ms("minimpi.allgather")))
      .num("minimpi.bytes_per_epoch", static_cast<double>(bytes.load()) / gathers)
      .num("minimpi.msgs_per_epoch", static_cast<double>(messages.load()) / gathers)
      .num("datastore.ingest_ms", median(tracer.durations_ms("datastore.map_idx")))
      .num("datastore.batch_us", 1000.0 * median(tracer.durations_ms("datastore.batch")))
      .num("datastore.bytes_mapped", static_cast<double>(mapped))
      .num("trace.coverage",
           median(tracer.child_sums_ms("replay.cell_step")) / cell_step_ms)
      .num("trace.overhead", median(replay_speed_ratios));
  tracer.write(trace_path);
  return layers;
}

}  // namespace perfbench
