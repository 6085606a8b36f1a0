// perfbench: the benchmark's measuring program. run.py builds and drives it.
//
//   perfbench gen --seed N --out DIR
//       render the seed's IDX set into DIR
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --inputs DIR --work DIR --out FILE
//       run one workload on the IDX set in DIR; write raw samples to FILE
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/session.hpp"
#include "data/dataset.hpp"
#include "datastore/data_plane.hpp"
#include "evolve/exchange.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {

namespace {

using namespace cellgan;

std::vector<Workload> make_workloads() {
  core::TrainingConfig paper;  // Table I: latent 64, 2 x 256 hidden, 784 out, batch 100
  paper.grid_rows = 2;
  paper.grid_cols = 2;

  Workload threads;
  threads.name = "paper-grid-threads";
  threads.config = paper;
  threads.epochs_per_run = 10;
  threads.train_share = 0.5;

  // Mostly serving, whose batcher forwards on one thread; setup_s is the
  // server's set-up. Its training phase repeats paper-grid-threads' runs on a
  // smaller budget. (5-epoch runs, where backend construction weighs more,
  // spread up to 0.23 across ten seeds, against at most 0.15 for 10-epoch
  // runs in the same sets.)
  Workload serving = threads;
  serving.name = "paper-serve";
  serving.serving_setup = true;
  serving.train_share = 0.3;
  return {threads, serving};
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = make_workloads();
  return table;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    flags[key] = argv[i + 1];
  }
  return flags;
}

Json machine() {
  return Json()
      .num("nproc", std::thread::hardware_concurrency())
      .str("simd", tensor::simd_instruction_set())
      .str("kernel", tensor::to_string(tensor::active_kernel_kind()))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("data_plane",
           datastore::to_string(datastore::resolve_data_plane(datastore::DataPlane::kAuto)))
      .str("exchange", evolve::to_string(evolve::resolve_exchange_policy(
                           evolve::ExchangePolicyKind::kAuto)));
}

/// The training set as the Session resolves it for the 28 x 28 paper
/// architecture: an IDX load, with no downsampling. Timed for
/// data.downsample_ms.
data::Dataset load_train_set(const std::string& idx_dir, std::vector<double>& load_ms) {
  data::Dataset train;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    auto loaded = data::load_mnist_idx(idx_dir);
    if (!loaded) throw std::runtime_error("cannot load " + idx_dir);
    train = std::move(loaded->first);
    load_ms.push_back(seconds_since(start) * 1000.0);
  }
  return train;
}

int run(const std::map<std::string, std::string>& flags) {
  const Workload* workload = find_workload(flags.at("workload"));
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", flags.at("workload").c_str());
    return 2;
  }
  const std::uint64_t seed = std::stoull(flags.at("seed"));
  const double seconds = std::stod(flags.at("seconds"));
  const bool traced = flags.at("trace") == "1";
  const std::string idx_dir = flags.at("inputs");
  const std::string work = flags.at("work");

  Ops ops;
  const TrainingReport training = run_training(
      *workload, seed, idx_dir, work, seconds * workload->train_share, traced, ops);
  const ServingReport serving =
      run_serving(*workload, seed, training.checkpoint, training.parity_reference,
                  seconds * (1.0 - workload->train_share), 3, traced, ops);

  std::vector<Json> rounds_json;
  for (const ServingRound& round : serving.rounds) {
    rounds_json.push_back(Json()
                              .num("setup_s", round.setup_s)
                              .nums("latency_ms", round.latency_ms)
                              .nums("overload_recv_s", round.overload_recv_s));
  }
  Json out;
  out.obj("machine", machine())
      .str("workload", workload->name)
      .num("attempted", static_cast<double>(ops.attempted))
      .num("failed", static_cast<double>(ops.failed))
      .boolean("finite", training.finite)
      .boolean("bit_identical", training.bit_identical)
      .boolean("parity", serving.parity)
      .num("best_g_loss", training.best_g_loss)
      .num("best_d_loss", training.best_d_loss)
      .boolean("serving_setup", workload->serving_setup)
      .nums("setup_s", training.setup_s)
      .nums("cell_steps_per_s", training.cell_steps_per_s)
      .objs("serve_rounds", rounds_json)
      .num("latency_offered_rps", kLatencyRps)
      .num("overload_offered_rps", kOverloadRps)
      .num("max_send_lag_ms", serving.max_send_lag_ms)
      .num("peak_rss_mb", peak_rss_mb());
  if (traced) {
    std::vector<double> load_ms;
    const data::Dataset train = load_train_set(idx_dir, load_ms);
    Json layers = replay_layers(*workload, seed, idx_dir, train, seconds * 0.3,
                                median(training.cell_steps_per_s), work + "/trace.jsonl");
    layers.num("data.downsample_ms", median(load_ms));
    out.obj("layers", layers).obj("training_layers", training.layers)
        .obj("serving_layers", serving.layers);
  }
  std::ofstream file(flags.at("out"));
  file << out.text() << "\n";
  return file ? 0 : 1;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

core::RunSpec training_spec(const Workload& workload, std::uint64_t seed,
                            const std::string& idx_dir) {
  core::RunSpec spec;
  spec.config = workload.config;
  spec.config.seed = seed;
  spec.config.iterations = workload.epochs_per_run;
  spec.backend = core::Backend::kThreads;
  spec.threads = kLanes;
  spec.dataset.kind = core::DatasetSpec::Kind::kIdx;
  spec.dataset.idx_dir = idx_dir;
  return spec;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|run --flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = perfbench::parse_flags(argc, argv);
  try {
    if (command == "gen") {
      return perfbench::generate_inputs(std::stoull(flags.at("seed")), flags.at("out"));
    }
    if (command == "run") return perfbench::run(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown command %s\n", command.c_str());
  return 2;
}
