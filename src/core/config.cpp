#include "core/config.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "common/cli.hpp"
#include "common/serialize.hpp"

namespace cellgan::core {

const char* to_string(ExchangeMode mode) {
  switch (mode) {
    case ExchangeMode::kAllgather: return "allgather";
    case ExchangeMode::kAsyncNeighbors: return "async-neighbors";
  }
  return "unknown";
}

std::optional<ExchangeMode> exchange_mode_from_string(std::string_view name) {
  if (name == "allgather") return ExchangeMode::kAllgather;
  if (name == "async-neighbors" || name == "async") {
    return ExchangeMode::kAsyncNeighbors;
  }
  return std::nullopt;
}

const char* to_string(LossMode mode) {
  switch (mode) {
    case LossMode::kHeuristic: return "heuristic";
    case LossMode::kMinimax: return "minimax";
    case LossMode::kLeastSquares: return "least-squares";
    case LossMode::kMustangs: return "mustangs";
    case LossMode::kWasserstein: return "wasserstein";
  }
  return "unknown";
}

std::optional<LossMode> loss_mode_from_string(std::string_view name) {
  if (name == "heuristic") return LossMode::kHeuristic;
  if (name == "minimax") return LossMode::kMinimax;
  if (name == "lsq" || name == "least-squares") return LossMode::kLeastSquares;
  if (name == "mustangs") return LossMode::kMustangs;
  if (name == "wasserstein" || name == "wgan") return LossMode::kWasserstein;
  return std::nullopt;
}

TrainingConfig TrainingConfig::tiny() {
  TrainingConfig config;
  config.arch = nn::GanArch::tiny();
  config.iterations = 3;
  config.batch_size = 16;
  config.fitness_eval_samples = 16;
  config.batches_per_iteration = 1;
  return config;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr FieldBound at_least(double min) { return {min, false, kInf}; }
constexpr FieldBound above(double min) { return {min, true, kInf}; }
constexpr FieldBound within(double min, double max) { return {min, false, max}; }

// Rows are in wire order: TrainingConfig::serialize writes them positionally
// (checkpoint kVersion 4), so new fields append. json_slot keeps the RunSpec
// "config" object in the key order saved specs already use.
// Columns: key, member, json_slot, bound, flag, help, boolean.
using C = TrainingConfig;
constexpr const char* kDashedKey = "";
const ConfigField kFields[] = {
    {"latent_dim", &nn::GanArch::latent_dim, 0, at_least(1)},
    {"hidden_dim", &nn::GanArch::hidden_dim, 1, at_least(1)},
    {"hidden_layers", &nn::GanArch::hidden_layers, 2},
    {"image_dim", &nn::GanArch::image_dim, 3, at_least(1)},
    {"iterations", &C::iterations, 4, {}, kDashedKey, "training epochs"},
    {"population_per_cell", &C::population_per_cell, 5, at_least(1)},
    {"tournament_size", &C::tournament_size, 6, at_least(1)},
    {"grid_rows", &C::grid_rows, 7, at_least(1)},
    {"grid_cols", &C::grid_cols, 8, at_least(1)},
    {"mixture_mutation_scale", &C::mixture_mutation_scale, 9, at_least(0)},
    {"initial_learning_rate", &C::initial_learning_rate, 10, above(0)},
    {"lr_mutation_sigma", &C::lr_mutation_sigma, 11, at_least(0)},
    {"lr_mutation_probability", &C::lr_mutation_probability, 12, within(0, 1)},
    {"batch_size", &C::batch_size, 13, at_least(1), kDashedKey, "training batch size"},
    {"discriminator_skip_steps", &C::discriminator_skip_steps, 14},
    {"batches_per_iteration", &C::batches_per_iteration, 15, at_least(1), kDashedKey,
     "gradient batches per epoch per cell"},
    {"fitness_eval_samples", &C::fitness_eval_samples, 16, at_least(1)},
    {"loss_mode", &C::loss_mode, 17, {}, "loss",
     "objective: heuristic | minimax | lsq | mustangs | wasserstein"},
    {"exchange_mode", &C::exchange_mode, 18, {}, "exchange-transport",
     "genome transport: allgather | async-neighbors (cellular only)"},
    {"data_dieting_fraction", &C::data_dieting_fraction, 23, {0, true, 1}, "dieting",
     "data-dieting fraction: each cell trains on this share of the data"},
    {"genome_record_every", &C::genome_record_every, 24},
    {"genome_record_every_b", &C::genome_record_every_b, 25},
    {"forward_records", &C::forward_records, -1, within(0, 1)},
    {"data_plane", &C::data_plane, 26, {}, kDashedKey,
     "batch source: auto (CELLGAN_DATA_PLANE/legacy) | legacy (per-trainer"
     " DataLoader) | store (shared prefetching SampleStore); bit-identical"
     " trajectories"},
    {"seed", &C::seed, 27, {}, kDashedKey, "global training seed"},
    {"exchange_policy", &C::exchange_policy, 19, {}, "exchange",
     "population-exchange policy: auto (CELLGAN_EXCHANGE/cellular) | cellular |"
     " ltfb | gap"},
    {"exchange_every", &C::exchange_every, 20, at_least(1), kDashedKey,
     "ltfb tournament / gap rotation cadence in epochs"},
    {"conditional", &C::conditional, 21, within(0, 1), kDashedKey,
     "class-conditional training: one-hot labels ride the latent and image planes",
     true},
    {"weight_clip", &C::weight_clip, 22, above(0), kDashedKey,
     "critic weight-clipping bound for --loss wasserstein"},
};

// The wire writes arch sizes as u64 and enums as their u32 underlying value.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
template <typename T>
using Wire = typename std::conditional_t<std::is_enum_v<T>, std::underlying_type<T>,
                                         std::type_identity<T>>::type;

template <typename Config, typename T>
auto& member_ref(Config& config, T TrainingConfig::*member) {
  return config.*member;
}
template <typename Config>
auto& member_ref(Config& config, std::size_t nn::GanArch::*member) {
  return config.arch.*member;
}

/// Call `f` with a reference to the config member `field` names.
template <typename Config, typename F>
decltype(auto) with_member(const ConfigField& field, Config& config, F&& f) {
  return std::visit(
      [&](auto member) -> decltype(auto) { return f(member_ref(config, member)); },
      field.member);
}

auto parse_enum(std::string_view name, LossMode) { return loss_mode_from_string(name); }
auto parse_enum(std::string_view name, ExchangeMode) {
  return exchange_mode_from_string(name);
}
auto parse_enum(std::string_view name, datastore::DataPlane) {
  return datastore::data_plane_from_string(name);
}
auto parse_enum(std::string_view name, evolve::ExchangePolicyKind) {
  return evolve::exchange_policy_from_string(name);
}

template <typename E>
bool known_enum(E value) {
  return parse_enum(to_string(value), value) == value;
}

/// "a | b | c": the canonical names, enumerated from 0 until one is unknown.
template <typename E>
std::string enum_choices() {
  std::string joined;
  for (Wire<E> raw = 0; known_enum(static_cast<E>(raw)); ++raw) {
    if (!joined.empty()) joined += " | ";
    joined += to_string(static_cast<E>(raw));
  }
  return joined;
}

std::string format_double(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

/// Text of one field value: JSON form (enums quoted, doubles exact, booleans
/// 0/1) or the form --help shows (bare names, short doubles, true/false).
template <typename T>
std::string format_value(T value, bool for_flag, bool boolean) {
  if constexpr (std::is_enum_v<T>) {
    return for_flag ? to_string(value) : '"' + std::string(to_string(value)) + '"';
  } else if constexpr (std::is_floating_point_v<T>) {
    return format_double(for_flag ? "%g" : "%.17g", value);
  } else if (for_flag && boolean) {
    return value != 0 ? "true" : "false";
  } else {
    return std::to_string(value);
  }
}

std::string describe(const FieldBound& bound) {
  const std::string min = format_double("%g", bound.min);
  if (bound.max == kInf) return (bound.min_open ? "> " : ">= ") + min;
  return std::string("in ") + (bound.min_open ? "(" : "[") + min + ", " +
         format_double("%g", bound.max) + "]";
}

bool in_bound(double value, const FieldBound& bound) {
  // Written so NaN fails every comparison and is rejected.
  return (bound.min_open ? value > bound.min : value >= bound.min) &&
         value <= bound.max;
}

}  // namespace

std::span<const ConfigField> config_fields() { return kFields; }

std::string ConfigField::flag_name() const {
  if (flag == nullptr) return {};
  if (*flag != '\0') return flag;
  std::string name = key;
  std::ranges::replace(name, '_', '-');
  return name;
}

bool ConfigField::quoted() const { return json_value(TrainingConfig{}).front() == '"'; }

std::string ConfigField::json_value(const TrainingConfig& config) const {
  return with_member(*this, config,
                     [](auto value) { return format_value(value, false, false); });
}

std::string ConfigField::flag_default(const TrainingConfig& config) const {
  return with_member(*this, config,
                     [this](auto value) { return format_value(value, true, boolean); });
}

bool ConfigField::parse(std::string_view text, TrainingConfig& config,
                        std::string* error) const {
  const std::string given = std::string(key) + " '" + std::string(text) + "'";
  const std::string problem = with_member(*this, config, [&](auto& value) -> std::string {
    using T = std::remove_cvref_t<decltype(value)>;
    if constexpr (std::is_enum_v<T>) {
      const auto parsed = parse_enum(text, value);
      if (!parsed) return "unknown " + given + " (want " + enum_choices<T>() + ")";
      value = *parsed;
    } else if constexpr (std::is_floating_point_v<T>) {
      const std::string digits(text);
      char* end = nullptr;
      const double parsed = std::strtod(digits.c_str(), &end);
      if (end == digits.c_str() || *end != '\0') return "bad " + given;
      value = parsed;
    } else {
      if (boolean && (text == "true" || text == "yes" || text == "on")) text = "1";
      if (boolean && (text == "false" || text == "no" || text == "off")) text = "0";
      if (!common::parse_unsigned(text, value)) return "bad " + given;
    }
    return {};
  });
  if (problem.empty()) return true;
  if (error != nullptr) *error = problem;
  return false;
}

std::vector<std::uint8_t> TrainingConfig::serialize() const {
  common::ByteWriter w;
  for (const ConfigField& field : kFields) {
    with_member(field, *this, [&w](auto value) {
      w.write(static_cast<Wire<decltype(value)>>(value));
    });
  }
  return w.take();
}

TrainingConfig TrainingConfig::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  TrainingConfig config;
  for (const ConfigField& field : kFields) {
    with_member(field, config, [&r](auto& value) {
      using T = std::remove_cvref_t<decltype(value)>;
      value = static_cast<T>(r.read<Wire<T>>());
    });
  }
  CG_ENSURE(r.exhausted());
  return config;
}

bool validate(const TrainingConfig& config, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  for (const ConfigField& field : kFields) {
    const auto check = [&](auto value) -> std::string {
      using T = decltype(value);
      if constexpr (std::is_enum_v<T>) {
        if (!known_enum(value)) {
          return "must be one of " + enum_choices<T>() + ", got " +
                 std::to_string(static_cast<Wire<T>>(value));
        }
      } else if (!in_bound(static_cast<double>(value), field.bound)) {
        return "must be " + describe(field.bound) + ", got " +
               format_value(value, false, false);
      }
      return {};
    };
    const std::string problem = with_member(field, config, check);
    if (!problem.empty()) {
      std::string name = field.key;
      if (field.flag != nullptr) name += " (--" + field.flag_name() + ")";
      return fail(name + " " + problem);
    }
  }
  const auto policy = evolve::resolve_exchange_policy(config.exchange_policy);
  if (policy != evolve::ExchangePolicyKind::kCellular &&
      config.exchange_mode == ExchangeMode::kAsyncNeighbors) {
    return fail(std::string("exchange policy '") + evolve::to_string(policy) +
                "' needs the allgather transport (async-neighbors only moves "
                "neighbor genomes)");
  }
  return true;
}

}  // namespace cellgan::core
