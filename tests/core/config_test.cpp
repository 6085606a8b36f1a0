// The TrainingConfig field table: the positional wire bytes and the RunSpec
// JSON text must stay byte-identical to the hand-written format checkpoints
// and saved specs already use, and every row must round-trip through the
// binary form, the JSON form and its CLI flag.
#include "core/config.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/run_spec.hpp"

namespace cellgan::core {
namespace {

// Captured from the hand-written serializer this table replaced (checkpoint
// kVersion 4); a changed byte here breaks every checkpoint on disk.
const std::vector<std::uint8_t> kDefaultBytes = {
    0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x10, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f,
    0x2d, 0x43, 0x1c, 0xeb, 0xe2, 0x36, 0x2a, 0x3f, 0x2d, 0x43, 0x1c, 0xeb,
    0xe2, 0x36, 0x1a, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
    0x64, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7b, 0x14, 0xae, 0x47,
    0xe1, 0x7a, 0x84, 0x3f,
};

const std::vector<std::uint8_t> kTinyBytes = {
    0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f,
    0x2d, 0x43, 0x1c, 0xeb, 0xe2, 0x36, 0x2a, 0x3f, 0x2d, 0x43, 0x1c, 0xeb,
    0xe2, 0x36, 0x1a, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
    0x10, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7b, 0x14, 0xae, 0x47,
    0xe1, 0x7a, 0x84, 0x3f,
};

/// Every field set apart from its neighbours, so a row swapped with another
/// of the same type (grid_rows/grid_cols) changes the bytes.
TrainingConfig distinct_config() {
  TrainingConfig c;
  c.arch = {.latent_dim = 5, .hidden_dim = 7, .hidden_layers = 3, .image_dim = 36};
  c.iterations = 9;
  c.population_per_cell = 2;
  c.tournament_size = 3;
  c.grid_rows = 4;
  c.grid_cols = 6;
  c.mixture_mutation_scale = 0.125;
  c.initial_learning_rate = 0.0005;
  c.lr_mutation_sigma = 0.25;
  c.lr_mutation_probability = 0.75;
  c.batch_size = 12;
  c.discriminator_skip_steps = 5;
  c.batches_per_iteration = 7;
  c.fitness_eval_samples = 24;
  c.loss_mode = LossMode::kWasserstein;
  c.exchange_mode = ExchangeMode::kAsyncNeighbors;
  c.data_dieting_fraction = 0.5;
  c.genome_record_every = 8;
  c.genome_record_every_b = 10;
  c.forward_records = 1;
  c.data_plane = datastore::DataPlane::kStore;
  c.seed = 0x0123456789abcdefULL;
  c.exchange_policy = evolve::ExchangePolicyKind::kCellular;
  c.exchange_every = 11;
  c.conditional = 1;
  c.weight_clip = 0.02;
  return c;
}

const std::vector<std::uint8_t> kDistinctBytes = {
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x24, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f,
    0xfc, 0xa9, 0xf1, 0xd2, 0x4d, 0x62, 0x40, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f,
    0x0c, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x18, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x08, 0x00, 0x00, 0x00,
    0x0a, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x01, 0x00, 0x00, 0x00,
    0x0b, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x7b, 0x14, 0xae, 0x47,
    0xe1, 0x7a, 0x94, 0x3f,
};

const char* const kDefaultSpecText = R"json({
  "backend": "sequential",
  "threads": 2,
  "dataset": "synthetic:600@7",
  "cost_profile": "none",
  "tensor_kernel": "auto",
  "observers": {
    "eval_every": 0,
    "eval_samples": 256,
    "telemetry": "",
    "checkpoint_every": 0,
    "checkpoint_path": ""
  },
  "result_json": "",
  "config": {
    "latent_dim": 64,
    "hidden_dim": 256,
    "hidden_layers": 2,
    "image_dim": 784,
    "iterations": 200,
    "population_per_cell": 1,
    "tournament_size": 2,
    "grid_rows": 2,
    "grid_cols": 2,
    "mixture_mutation_scale": 0.01,
    "initial_learning_rate": 0.00020000000000000001,
    "lr_mutation_sigma": 0.0001,
    "lr_mutation_probability": 0.5,
    "batch_size": 100,
    "discriminator_skip_steps": 1,
    "batches_per_iteration": 1,
    "fitness_eval_samples": 100,
    "loss_mode": "heuristic",
    "exchange_mode": "allgather",
    "exchange_policy": "auto",
    "exchange_every": 1,
    "conditional": 0,
    "weight_clip": 0.01,
    "data_dieting_fraction": 1,
    "genome_record_every": 0,
    "genome_record_every_b": 0,
    "data_plane": "auto",
    "seed": 42
  }
}
)json";

/// A non-default, in-range value for each row, as flag / JSON value text.
/// A new row fails FieldTableWalk until it gets an entry here.
const std::map<std::string, std::string> kWalkValues = {
    {"latent_dim", "5"},
    {"hidden_dim", "7"},
    {"hidden_layers", "3"},
    {"image_dim", "36"},
    {"iterations", "9"},
    {"population_per_cell", "2"},
    {"tournament_size", "3"},
    {"grid_rows", "3"},
    {"grid_cols", "4"},
    {"mixture_mutation_scale", "0.125"},
    {"initial_learning_rate", "0.0005"},
    {"lr_mutation_sigma", "0.25"},
    {"lr_mutation_probability", "0.75"},
    {"batch_size", "12"},
    {"discriminator_skip_steps", "2"},
    {"batches_per_iteration", "2"},
    {"fitness_eval_samples", "24"},
    {"loss_mode", "wasserstein"},
    {"exchange_mode", "async-neighbors"},
    {"data_dieting_fraction", "0.5"},
    {"genome_record_every", "4"},
    {"genome_record_every_b", "6"},
    {"forward_records", "1"},
    {"data_plane", "store"},
    {"seed", "18446744073709551615"},
    {"exchange_policy", "ltfb"},
    {"exchange_every", "5"},
    {"conditional", "1"},
    {"weight_clip", "0.02"},
};

TEST(ConfigFieldTableTest, WireBytesMatchTheVersion4Layout) {
  EXPECT_EQ(TrainingConfig{}.serialize(), kDefaultBytes);
  EXPECT_EQ(TrainingConfig::tiny().serialize(), kTinyBytes);
  EXPECT_EQ(TrainingConfig::deserialize(kDefaultBytes), TrainingConfig{});
  EXPECT_EQ(TrainingConfig::deserialize(kTinyBytes), TrainingConfig::tiny());
  EXPECT_EQ(distinct_config().serialize(), kDistinctBytes);
  EXPECT_EQ(TrainingConfig::deserialize(kDistinctBytes), distinct_config());
}

TEST(ConfigFieldTableTest, DefaultSpecTextIsUnchanged) {
  EXPECT_EQ(RunSpec{}.to_text(), kDefaultSpecText);
}

TEST(ConfigFieldTableTest, KeysAndJsonSlotsAreUnique) {
  std::set<std::string> keys;
  std::set<int> slots;
  int json_fields = 0;
  for (const ConfigField& field : config_fields()) {
    EXPECT_TRUE(keys.insert(field.key).second) << field.key;
    if (field.json_slot < 0) continue;
    ++json_fields;
    EXPECT_TRUE(slots.insert(field.json_slot).second) << field.key;
  }
  // Slots are dense: the JSON object lists every non-wire-only field once.
  ASSERT_FALSE(slots.empty());
  EXPECT_EQ(*slots.begin(), 0);
  EXPECT_EQ(*slots.rbegin(), json_fields - 1);
}

TEST(ConfigFieldTableTest, FieldTableWalk) {
  // Pinned so the async transport is valid whatever CELLGAN_EXCHANGE says.
  TrainingConfig base;
  base.exchange_policy = evolve::ExchangePolicyKind::kCellular;
  RunSpec defaults;
  defaults.config = base;
  for (const ConfigField& field : config_fields()) {
    SCOPED_TRACE(field.key);
    const auto value = kWalkValues.find(field.key);
    ASSERT_NE(value, kWalkValues.end()) << "no walk value for this row";

    TrainingConfig config = base;
    std::string error;
    ASSERT_TRUE(field.parse(value->second, config, &error)) << error;
    EXPECT_NE(config, base);
    EXPECT_TRUE(validate(config, &error)) << error;
    // Only this row's member moved (no two rows alias one member).
    for (const ConfigField& other : config_fields()) {
      if (&other != &field) {
        EXPECT_EQ(other.json_value(config), other.json_value(base)) << other.key;
      }
    }

    EXPECT_EQ(TrainingConfig::deserialize(config.serialize()), config);

    RunSpec spec = defaults;
    spec.config = config;
    const auto reparsed = RunSpec::from_text(spec.to_text(), &error);
    ASSERT_TRUE(reparsed.has_value()) << error;
    // Wire-only fields are runtime-derived and never saved in a spec.
    EXPECT_EQ(reparsed->config, field.json_slot >= 0 ? config : base);

    if (field.flag == nullptr) continue;
    const std::string flag = "--" + field.flag_name();
    std::vector<const char*> argv = {"prog", flag.c_str(), value->second.c_str()};
    common::CliParser cli("walk");
    RunSpec::add_flags(cli, defaults);
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    const auto from_flag = RunSpec::from_cli(cli, defaults);
    ASSERT_TRUE(from_flag.has_value());
    EXPECT_EQ(from_flag->config, config);
  }
}

TEST(ConfigFieldTableTest, ValidateRejectsUnknownEnumValues) {
  // Wire bytes carry enums as raw u32s; one no name maps to is rejected.
  std::vector<std::uint8_t> bytes = TrainingConfig{}.serialize();
  bytes[100] = 99;  // loss_mode: after 4 u64, 5 u32, 4 f64, 4 u32
  std::string error;
  EXPECT_FALSE(validate(TrainingConfig::deserialize(bytes), &error));
  EXPECT_NE(error.find("loss_mode"), std::string::npos) << error;
}

}  // namespace
}  // namespace cellgan::core
