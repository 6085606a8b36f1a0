// Serving phase: an in-process serve::Server on loopback and one
// serve::ServeClient. Set-up is Server construction + start() until the
// first warm-up reply. Then a parity request, an open-loop latency phase at a
// fixed offered rate, and a capacity phase offered above capacity. Latency is
// timed from each request's scheduled send time.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "core/observer.hpp"
#include "serve/client.hpp"
#include "serve/model_cache.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace cellgan;

constexpr double kWaitS = 60.0;

/// Benchmark-side observer on the server's event bus (traced run only).
/// Records arrive on the batcher's one worker thread; they are read after
/// the server has stopped.
class ServeRecords final : public core::TrainObserver {
 public:
  void on_serve_request(const core::ServeRequestRecord& record) override {
    if (!active.load()) return;
    queue_us.push_back(record.queue_us);
    server_us.push_back(record.queue_us + record.forward_us);
  }
  void on_serve_batch(const core::ServeBatchRecord& record) override {
    if (!active.load()) return;
    forward_us.push_back(record.forward_us);
    requests += record.requests;
  }

  std::atomic<bool> active{false};
  std::vector<double> queue_us;
  std::vector<double> server_us;
  std::vector<double> forward_us;
  double requests = 0.0;
};

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

struct Load {
  std::vector<double> latency_ms;  ///< per completed request, from schedule
  std::vector<double> recv_s;      ///< completion time since the phase start
  double max_lag_ms = 0.0;         ///< sender lateness behind its schedule
};

/// Open loop: request i is due at start + i / rate whatever the replies do.
Load open_loop(serve::ServeClient& client, double rate, double duration_s,
               std::uint64_t seed_base, std::size_t image_dim, Ops& ops) {
  const auto count = static_cast<std::size_t>(rate * duration_s);
  std::vector<std::uint64_t> ids(count);
  std::vector<Clock::time_point> due(count);
  Load load;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(i) / rate));
    // Spin rather than sleep: a sleeping sender's wake-up latency would
    // show up as lag in every request's latency.
    while (Clock::now() < due[i]) {
    }
    load.max_lag_ms = std::max(
        load.max_lag_ms,
        std::chrono::duration<double, std::milli>(Clock::now() - due[i]).count());
    ids[i] = client.send_request(seed_base + i, kRequestSamples);
  }
  for (std::size_t i = 0; i < count; ++i) {
    ++ops.attempted;
    serve::ServeClient::Completion done;
    if (ids[i] == 0 || !client.wait(ids[i], &done, kWaitS) || !done.response.ok() ||
        done.response.samples.size() != kRequestSamples * image_dim) {
      ++ops.failed;
      continue;
    }
    load.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done.received - due[i]).count());
    load.recv_s.push_back(std::chrono::duration<double>(done.received - start).count());
  }
  return load;
}

}  // namespace

ServingReport run_serving(const Workload& workload, std::uint64_t seed,
                          const std::string& checkpoint,
                          const std::vector<float>& reference, double budget_s,
                          int min_rounds, bool traced, Ops& ops) {
  ServingReport report;
  ServeRecords records;
  core::EventBus bus;
  bus.subscribe(&records);
  serve::ServerOptions options;
  options.checkpoint = checkpoint;
  const std::size_t image_dim = workload.config.arch.image_dim;

  const double latency_s = static_cast<double>(kLatencyRequests) / kLatencyRps;
  // A round starts only if one more of the last round's length fits the budget.
  const auto phase_start = Clock::now();
  double last_round_s = 0.0;
  for (int round = 0;
       round < min_rounds || seconds_since(phase_start) + last_round_s <= budget_s;
       ++round) {
    const auto round_start = Clock::now();
    ServingRound result;
    std::string error;
    serve::Server server(options, traced ? &bus : nullptr);
    serve::ServeClient client;
    if (!server.start(&error) || !client.connect(server.endpoint(), 10.0, &error)) {
      throw std::runtime_error("serve set-up: " + error);
    }
    serve::ServeClient::Completion warm;
    const std::uint64_t warm_id = client.send_request(seed, kRequestSamples);
    if (warm_id == 0 || !client.wait(warm_id, &warm, kWaitS) || !warm.response.ok()) {
      throw std::runtime_error("serve set-up: no warm-up reply");
    }
    result.setup_s = seconds_since(round_start);

    // Parity: the served bytes must equal Session::sample_best on the same
    // checkpoint and request seed.
    ++ops.attempted;
    serve::ServeClient::Completion parity;
    const std::uint64_t id = client.send_request(parity_seed(seed), kRequestSamples);
    const bool same = id != 0 && client.wait(id, &parity, kWaitS) && parity.response.ok() &&
                      parity.response.samples.size() == reference.size() &&
                      std::memcmp(parity.response.samples.data(), reference.data(),
                                  reference.size() * sizeof(float)) == 0;
    if (!same) ++ops.failed;
    report.parity = report.parity && same;

    const std::uint64_t seed_base = seed * 1000003 + static_cast<std::uint64_t>(round) * 100000;
    records.active = true;
    Load latency = open_loop(client, kLatencyRps, latency_s, seed_base,
                             image_dim, ops);
    records.active = false;
    Load overload = open_loop(client, kOverloadRps, kCapacityWindowS,
                              seed_base + 50000, image_dim, ops);
    result.latency_ms = std::move(latency.latency_ms);
    result.overload_recv_s = std::move(overload.recv_s);
    report.max_send_lag_ms =
        std::max({report.max_send_lag_ms, latency.max_lag_ms, overload.max_lag_ms});
    report.rounds.push_back(std::move(result));
    client.close();
    server.drain_and_stop();
    last_round_s = seconds_since(round_start);
  }
  if (!traced) return report;

  std::vector<double> decode_ms;
  for (int rep = 0; rep < 5; ++rep) {
    serve::ModelCache cache(1);
    const auto start = Clock::now();
    const auto lookup = cache.get(checkpoint);
    decode_ms.push_back(seconds_since(start) * 1000.0);
    if (!lookup.model) throw std::runtime_error("cold decode: " + lookup.error);
  }
  std::vector<double> latency_ms;
  for (const auto& round : report.rounds) {
    latency_ms.insert(latency_ms.end(), round.latency_ms.begin(), round.latency_ms.end());
  }
  const double batches = static_cast<double>(records.forward_us.size());
  report.layers.num("serve.decode_ms", median(decode_ms))
      .num("serve.forward_us_per_batch", mean(records.forward_us))
      .num("serve.queue_us_per_request", mean(records.queue_us))
      .num("serve.requests_per_batch", batches > 0 ? records.requests / batches : 0.0)
      .num("serve.unattributed_ms", mean(latency_ms) - mean(records.server_us) / 1000.0);
  return report;
}

}  // namespace perfbench
