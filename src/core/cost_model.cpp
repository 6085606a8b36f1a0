#include "core/cost_model.hpp"

#include <cmath>

#include "common/expect.hpp"

namespace cellgan::core {

namespace {
constexpr double kSecondsPerMinute = 60.0;
// Table IV's single-core gather row (19.4 min) divided by 16 cells.
constexpr double kSeqGatherPercellMin = 19.4 / 16.0;
// Calibration assumes the five-cell neighborhood: 4 exchanged genomes/cell.
constexpr double kReferenceNeighbors = 4.0;
}  // namespace

CostProfile CostProfile::table3() {
  CostProfile p;
  // Distributed core (train/update/mutate) totals 12.13 min/slave; split in
  // Table IV's distributed routine proportions 43.8 : 16.8 : 17.9.
  p.dist_train_perslave_min = 6.77;
  p.dist_update_perslave_min = 2.60;
  p.dist_mutate_perslave_min = 2.77;
  // Sequential clean (pre-penalty) per-cell costs equal the distributed
  // per-slave core costs; the affine working-set penalty scales train+update.
  p.seq_train_percell_min = p.dist_train_perslave_min;
  p.seq_update_percell_min = p.dist_update_perslave_min;
  p.seq_mutate_percell_min = p.dist_mutate_perslave_min;
  p.seq_gather_percell_min = kSeqGatherPercellMin;
  p.seq_affine_penalty = true;
  p.seq_affine_cinf_min = 131.6;  // fits Table III: 339.6 / 999.5 / 1920.0
  p.seq_affine_k_min = 185.1;
  p.gather_per_member_min = 19.4 / 15.0;  // Table IV gather at 16 members
  p.mgmt_per_slave_min = 5.95;
  p.straggler_sigma = 0.02;
  return p;
}

CostProfile CostProfile::table4() {
  CostProfile p;
  // Table IV single-core column divided by 16 cells.
  p.seq_train_percell_min = 264.9 / 16.0;
  p.seq_update_percell_min = 199.8 / 16.0;
  p.seq_mutate_percell_min = 25.6 / 16.0;
  p.seq_gather_percell_min = kSeqGatherPercellMin;
  p.seq_affine_penalty = false;  // single grid size; no scaling model needed
  // Table IV distributed column, per slave.
  p.dist_train_perslave_min = 43.8;
  p.dist_update_perslave_min = 16.8;
  p.dist_mutate_perslave_min = 17.9;
  p.gather_per_member_min = 19.4 / 15.0;
  p.mgmt_per_slave_min = 5.95;
  p.straggler_sigma = 0.02;
  return p;
}

CostModel CostModel::calibrated(const CostProfile& profile, const WorkloadProbe& probe) {
  CG_EXPECT(probe.train_flops > 0.0);
  CG_EXPECT(probe.update_bytes > 0.0);
  CG_EXPECT(probe.mutate_calls > 0.0);
  CG_EXPECT(probe.genome_bytes > 0.0);
  CostModel m;
  m.enabled_ = true;
  m.profile_ = profile;
  m.probe_ = probe;
  const double per_iter = kSecondsPerMinute / profile.reference_iterations;
  m.seq_train_s_per_flop_ = profile.seq_train_percell_min * per_iter / probe.train_flops;
  m.dist_train_s_per_flop_ =
      profile.dist_train_perslave_min * per_iter / probe.train_flops;
  m.seq_update_s_per_byte_ =
      profile.seq_update_percell_min * per_iter / probe.update_bytes;
  m.dist_update_s_per_byte_ =
      profile.dist_update_perslave_min * per_iter / probe.update_bytes;
  m.seq_mutate_s_per_call_ =
      profile.seq_mutate_percell_min * per_iter / probe.mutate_calls;
  m.dist_mutate_s_per_call_ =
      profile.dist_mutate_perslave_min * per_iter / probe.mutate_calls;
  m.seq_gather_s_per_byte_ = profile.seq_gather_percell_min * per_iter /
                             (kReferenceNeighbors * probe.genome_bytes);
  return m;
}

double CostModel::seq_penalty(int grid_cells) const {
  if (!profile_.seq_affine_penalty) return 1.0;
  CG_EXPECT(grid_cells >= 1);
  // Target per-cell total (minutes/ref-run) from the affine Table III fit.
  const double target = profile_.seq_affine_cinf_min -
                        profile_.seq_affine_k_min / static_cast<double>(grid_cells);
  const double fixed = profile_.seq_mutate_percell_min + profile_.seq_gather_percell_min;
  const double clean =
      profile_.seq_train_percell_min + profile_.seq_update_percell_min;
  // Keep the model sane for tiny grids where the fit would go negative.
  return std::max(1.0, (target - fixed) / clean);
}

double CostModel::train_seconds(ExecMode mode, int grid_cells, double flops) const {
  if (!enabled_ || mode == ExecMode::RealTime) return 0.0;
  if (mode == ExecMode::SingleCore) {
    return flops * seq_train_s_per_flop_ * seq_penalty(grid_cells);
  }
  return flops * dist_train_s_per_flop_;
}

double CostModel::update_seconds(ExecMode mode, int grid_cells, double bytes) const {
  if (!enabled_ || mode == ExecMode::RealTime) return 0.0;
  if (mode == ExecMode::SingleCore) {
    return bytes * seq_update_s_per_byte_ * seq_penalty(grid_cells);
  }
  return bytes * dist_update_s_per_byte_;
}

double CostModel::mutate_seconds(ExecMode mode, int /*grid_cells*/, double calls) const {
  if (!enabled_ || mode == ExecMode::RealTime) return 0.0;
  return calls * (mode == ExecMode::SingleCore ? seq_mutate_s_per_call_
                                                : dist_mutate_s_per_call_);
}

double CostModel::seq_gather_seconds(int /*grid_cells*/, double bytes) const {
  if (!enabled_) return 0.0;
  return bytes * seq_gather_s_per_byte_;
}

double CostModel::mgmt_seconds_per_slave(double iterations) const {
  if (!enabled_) return 0.0;
  return profile_.mgmt_per_slave_min * kSecondsPerMinute * iterations /
         profile_.reference_iterations;
}

double CostModel::jitter(common::Rng& rng) const {
  if (!enabled_ || profile_.straggler_sigma <= 0.0) return 1.0;
  const double sigma = profile_.straggler_sigma;
  // mu = -sigma^2/2 gives E[jitter] = 1.
  return rng.lognormal(-0.5 * sigma * sigma, sigma);
}

double CostModel::node_factor(common::Rng& rng) const {
  if (!enabled_ || profile_.node_sigma <= 0.0) return 1.0;
  const double sigma = profile_.node_sigma;
  return rng.lognormal(-0.5 * sigma * sigma, sigma);
}

minimpi::NetModelConfig CostModel::net_config() const {
  minimpi::NetModelConfig net;
  if (!enabled_) return net;
  net.enabled = true;
  net.latency_s = 1e-3;
  const double per_member_s = profile_.gather_per_member_min * kSecondsPerMinute /
                              profile_.reference_iterations;
  CG_EXPECT(per_member_s > 0.0);
  net.bandwidth_Bps = probe_.genome_bytes / per_member_s;
  net.recv_overhead_s_per_B = 0.0;  // deserialization is charged as update
  return net;
}

}  // namespace cellgan::core
