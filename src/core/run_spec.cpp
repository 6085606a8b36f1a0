#include "core/run_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "core/session.hpp"  // BackendRegistry: parse-time backend validation

namespace cellgan::core {

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kSequential: return "sequential";
    case Backend::kThreads: return "threads";
    case Backend::kDistributed: return "distributed";
    case Backend::kDistributedTcp: return "distributed-tcp";
  }
  return "unknown";
}

std::optional<Backend> backend_from_string(std::string_view name) {
  if (name == "sequential" || name == "seq") return Backend::kSequential;
  if (name == "threads" || name == "parallel") return Backend::kThreads;
  if (name == "distributed" || name == "dist") return Backend::kDistributed;
  if (name == "distributed-tcp" || name == "tcp") return Backend::kDistributedTcp;
  return std::nullopt;
}

std::string registered_backend_names() {
  std::string joined;
  for (const auto& name : BackendRegistry::instance().names()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

namespace {

/// Resolve a user-supplied backend name against both the enum vocabulary and
/// the live registry; on failure `error` holds a diagnostic listing every
/// registered backend (the parse-time rejection that used to happen only
/// inside Session::run).
std::optional<Backend> resolve_backend_name(const std::string& name,
                                            std::string* error) {
  const auto backend = backend_from_string(name);
  if (!backend) {
    if (BackendRegistry::instance().has(name)) {
      // Registered under a name outside the RunSpec vocabulary (custom
      // vehicles normally re-register a built-in name to swap it everywhere).
      *error = "backend '" + name + "' is registered with the Session but is "
               "not a RunSpec backend; re-register it as one of: sequential, "
               "threads, distributed, distributed-tcp";
    } else {
      *error = "unknown backend '" + name + "' (registered: " +
               registered_backend_names() + ")";
    }
    return std::nullopt;
  }
  if (!BackendRegistry::instance().has(to_string(*backend))) {
    *error = "backend '" + name + "' is not registered in this build (registered: " +
             registered_backend_names() + ")";
    return std::nullopt;
  }
  return backend;
}

}  // namespace

const char* to_string(CostProfileKind kind) {
  switch (kind) {
    case CostProfileKind::kNone: return "none";
    case CostProfileKind::kTable3: return "table3";
    case CostProfileKind::kTable4: return "table4";
  }
  return "unknown";
}

std::optional<CostProfileKind> cost_profile_from_string(std::string_view name) {
  if (name == "none") return CostProfileKind::kNone;
  if (name == "table3") return CostProfileKind::kTable3;
  if (name == "table4") return CostProfileKind::kTable4;
  return std::nullopt;
}

const char* to_string(TensorKernel kernel) {
  switch (kernel) {
    case TensorKernel::kAuto: return "auto";
    case TensorKernel::kScalar: return "scalar";
    case TensorKernel::kSimd: return "simd";
  }
  return "unknown";
}

std::optional<TensorKernel> tensor_kernel_from_string(std::string_view name) {
  if (name == "auto") return TensorKernel::kAuto;
  if (name == "scalar") return TensorKernel::kScalar;
  if (name == "simd") return TensorKernel::kSimd;
  return std::nullopt;
}

// --- DatasetSpec ------------------------------------------------------------

std::optional<DatasetSpec> DatasetSpec::parse(const std::string& text,
                                              std::string* error) {
  return parse(text, DatasetSpec{}, error);
}

std::optional<DatasetSpec> DatasetSpec::parse(const std::string& text,
                                              const DatasetSpec& base,
                                              std::string* error) {
  const auto fail = [&](const std::string& message) -> std::optional<DatasetSpec> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  DatasetSpec spec = base;
  if (text.rfind("idx:", 0) == 0) {
    spec.kind = Kind::kIdx;
    spec.idx_dir = text.substr(4);
    if (spec.idx_dir.empty()) return fail("idx: dataset needs a directory");
    return spec;
  }
  spec.kind = Kind::kSynthetic;
  spec.idx_dir.clear();
  if (text == "synthetic") return spec;
  if (text.rfind("synthetic:", 0) == 0) {
    std::string rest = text.substr(10);
    std::string count = rest;
    const auto at = rest.find('@');
    if (at != std::string::npos) {
      count = rest.substr(0, at);
      const std::string seed_text = rest.substr(at + 1);
      if (!common::parse_unsigned(seed_text, spec.seed)) {
        return fail("bad dataset seed: '" + seed_text + "'");
      }
    }
    if (!common::parse_unsigned(count, spec.samples) || spec.samples == 0) {
      return fail("bad synthetic sample count: '" + count + "'");
    }
    return spec;
  }
  return fail("unknown dataset '" + text +
              "' (want synthetic[:N[@SEED]] or idx:DIR)");
}

std::string DatasetSpec::to_text() const {
  if (kind == Kind::kIdx) return "idx:" + idx_dir;
  return "synthetic:" + std::to_string(samples) + "@" + std::to_string(seed);
}

// --- command-line flags -----------------------------------------------------

namespace {

/// The config fields of the RunSpec JSON form, in key order; their flags are
/// registered in the same order.
std::vector<const ConfigField*> json_fields() {
  std::vector<const ConfigField*> ordered;
  for (const ConfigField& field : config_fields()) {
    if (field.json_slot >= 0) ordered.push_back(&field);
  }
  std::ranges::sort(ordered, {}, &ConfigField::json_slot);
  return ordered;
}

}  // namespace

void RunSpec::add_flags(common::CliParser& cli, const RunSpec& defaults) {
  cli.add_flag("spec", "", "load a RunSpec JSON file first; explicit flags override");
  cli.add_flag("backend", to_string(defaults.backend),
               "execution backend: sequential | threads | distributed |"
               " distributed-tcp");
  cli.add_flag("threads", std::to_string(defaults.threads),
               "worker lanes for --backend threads");
  cli.add_flag("grid", std::to_string(defaults.config.grid_rows),
               "grid side (grid x grid cells)");
  cli.add_flag("dataset", defaults.dataset.to_text(),
               "training data: synthetic[:N[@SEED]] | idx:DIR");
  cli.add_flag("samples", std::to_string(defaults.dataset.samples),
               "shorthand for the synthetic dataset's sample count");
  for (const ConfigField* field : json_fields()) {
    if (field->flag != nullptr) {
      cli.add_flag(field->flag_name(), field->flag_default(defaults.config), field->help);
    }
  }
  cli.add_flag("paper-arch",
               defaults.config.arch == nn::GanArch::paper() ? "true" : "false",
               "use the paper's full-size MLPs (Table I); upgrade-only");
  cli.add_flag("cost-profile", to_string(defaults.cost_profile),
               "virtual-time calibration: none | table3 | table4");
  cli.add_flag("tensor-kernel", to_string(defaults.tensor_kernel),
               "tensor microkernels: auto (env/default) | scalar (bit-exact"
               " reference) | simd (packed vectorized)");
  cli.add_flag("eval-every", std::to_string(defaults.observers.eval_every),
               "compute IS/FID/mode coverage every N epochs (0 = off; needs a"
               " metric evaluator, attached by cellgan_run / table2_metrics)");
  cli.add_flag("eval-samples", std::to_string(defaults.observers.eval_samples),
               "samples per generator / mixture in each metric evaluation");
  cli.add_flag("telemetry", defaults.observers.telemetry,
               "append a JSONL training-event stream to this file");
  cli.add_flag("checkpoint-every",
               std::to_string(defaults.observers.checkpoint_every),
               "write a rolling checkpoint every N epochs (0 = off)");
  cli.add_flag("checkpoint-path", defaults.observers.checkpoint_path,
               "rolling checkpoint file for --checkpoint-every");
  cli.add_flag("result-json", defaults.result_json,
               "write the unified RunResult JSON to this file");
}

std::optional<RunSpec> RunSpec::from_cli(const common::CliParser& cli,
                                         const RunSpec& defaults) {
  // Integer flags funnel through this guard before any unsigned cast, so a
  // negative value is a diagnostic instead of a 2^64 wrap-around.
  bool flags_ok = true;
  const auto int_flag = [&](const char* name, std::int64_t min) -> std::int64_t {
    const std::int64_t value = cli.get_int(name);
    if (value < min) {
      std::fprintf(stderr, "--%s must be >= %lld\n", name,
                   static_cast<long long>(min));
      flags_ok = false;
    }
    return value;
  };
  RunSpec spec = defaults;
  if (cli.was_set("spec")) {
    std::string error;
    auto loaded = RunSpec::load(cli.get("spec"), &error);
    if (!loaded) {
      std::fprintf(stderr, "--spec %s: %s\n", cli.get("spec").c_str(), error.c_str());
      return std::nullopt;
    }
    spec = *loaded;
  }
  if (cli.was_set("backend")) {
    std::string backend_error;
    const auto backend = resolve_backend_name(cli.get("backend"), &backend_error);
    if (!backend) {
      std::fprintf(stderr, "--backend: %s\n", backend_error.c_str());
      return std::nullopt;
    }
    spec.backend = *backend;
  }
  if (cli.was_set("threads")) {
    spec.threads = static_cast<std::size_t>(int_flag("threads", 1));
  }
  if (cli.was_set("grid")) {
    spec.config.grid_rows = spec.config.grid_cols =
        static_cast<std::uint32_t>(int_flag("grid", 1));
  }
  if (cli.was_set("dataset")) {
    std::string error;
    const auto dataset = DatasetSpec::parse(cli.get("dataset"), spec.dataset, &error);
    if (!dataset) {
      std::fprintf(stderr, "--dataset: %s\n", error.c_str());
      return std::nullopt;
    }
    spec.dataset = *dataset;
  }
  if (cli.was_set("samples")) {
    spec.dataset.samples = static_cast<std::size_t>(int_flag("samples", 1));
  }
  for (const ConfigField& field : config_fields()) {
    const std::string flag = field.flag_name();
    if (flag.empty() || !cli.was_set(flag)) continue;
    std::string error;
    if (!field.parse(cli.get(flag), spec.config, &error)) {
      std::fprintf(stderr, "--%s: %s\n", flag.c_str(), error.c_str());
      flags_ok = false;
    }
  }
  // Upgrade-only: programs whose defaults already use the paper arch (with
  // their own batch size) are untouched, and an explicit --batch-size wins.
  if (cli.was_set("paper-arch") && cli.get_bool("paper-arch") &&
      spec.config.arch != nn::GanArch::paper()) {
    spec.config.arch = nn::GanArch::paper();
    if (!cli.was_set("batch-size")) spec.config.batch_size = 100;
  }
  if (cli.was_set("cost-profile")) {
    const auto kind = cost_profile_from_string(cli.get("cost-profile"));
    if (!kind) {
      std::fprintf(stderr, "unknown cost profile '%s' (want none | table3 |"
                   " table4)\n", cli.get("cost-profile").c_str());
      return std::nullopt;
    }
    spec.cost_profile = *kind;
  }
  if (cli.was_set("tensor-kernel")) {
    const auto kernel = tensor_kernel_from_string(cli.get("tensor-kernel"));
    if (!kernel) {
      std::fprintf(stderr, "unknown tensor kernel '%s' (want auto | scalar |"
                   " simd)\n", cli.get("tensor-kernel").c_str());
      return std::nullopt;
    }
    spec.tensor_kernel = *kernel;
  }
  if (cli.was_set("eval-every")) {
    spec.observers.eval_every = static_cast<std::uint32_t>(int_flag("eval-every", 0));
  }
  if (cli.was_set("eval-samples")) {
    // FID fits a Gaussian per side; fewer than 2 samples has no covariance.
    spec.observers.eval_samples =
        static_cast<std::size_t>(int_flag("eval-samples", 2));
  }
  if (cli.was_set("telemetry")) spec.observers.telemetry = cli.get("telemetry");
  if (cli.was_set("checkpoint-every")) {
    spec.observers.checkpoint_every =
        static_cast<std::uint32_t>(int_flag("checkpoint-every", 0));
  }
  if (cli.was_set("checkpoint-path")) {
    spec.observers.checkpoint_path = cli.get("checkpoint-path");
  }
  if (spec.observers.checkpoint_every > 0 && spec.observers.checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint-every needs --checkpoint-path\n");
    flags_ok = false;
  }
  if (cli.was_set("result-json")) spec.result_json = cli.get("result-json");
  if (!flags_ok) return std::nullopt;
  std::string config_error;
  if (!validate(spec.config, &config_error)) {
    std::fprintf(stderr, "%s\n", config_error.c_str());
    return std::nullopt;
  }
  return spec;
}

std::optional<RunSpec> RunSpec::from_args(int argc, const char* const* argv,
                                          const std::string& description,
                                          const RunSpec& defaults) {
  common::CliParser cli(description);
  add_flags(cli, defaults);
  if (!cli.parse(argc, argv)) return std::nullopt;
  return from_cli(cli, defaults);
}

// --- JSON text form ---------------------------------------------------------

namespace {

std::string escaped(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// Minimal parser for the subset RunSpec emits: one flat object of
/// string/number values plus one nested "config" object.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }
  const std::string& error() const { return error_; }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool peek(char c) {
    skip_space();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool at_end() {
    skip_space();
    return pos_ >= text_.size();
  }

  bool read_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = text_[pos_++];
      out += c;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool read_number(std::string& out) {
    skip_space();
    out.clear();
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      out += text_[pos_++];
    }
    if (out.empty()) return fail("expected a number");
    return true;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool parse_object(JsonReader& reader,
                  const std::function<bool(JsonReader&, const std::string&)>& on_key) {
  if (!reader.consume('{')) return false;
  if (reader.peek('}')) return reader.consume('}');
  for (;;) {
    std::string key;
    if (!reader.read_string(key)) return false;
    if (!reader.consume(':')) return false;
    if (!on_key(reader, key)) return false;
    if (reader.peek(',')) {
      if (!reader.consume(',')) return false;
      continue;
    }
    return reader.consume('}');
  }
}

}  // namespace

std::string RunSpec::to_text() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"backend\": \"" << to_string(backend) << "\",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"dataset\": " << escaped(dataset.to_text()) << ",\n";
  out << "  \"cost_profile\": \"" << to_string(cost_profile) << "\",\n";
  out << "  \"tensor_kernel\": \"" << to_string(tensor_kernel) << "\",\n";
  out << "  \"observers\": {\n";
  out << "    \"eval_every\": " << observers.eval_every << ",\n";
  out << "    \"eval_samples\": " << observers.eval_samples << ",\n";
  out << "    \"telemetry\": " << escaped(observers.telemetry) << ",\n";
  out << "    \"checkpoint_every\": " << observers.checkpoint_every << ",\n";
  out << "    \"checkpoint_path\": " << escaped(observers.checkpoint_path) << "\n";
  out << "  },\n";
  out << "  \"result_json\": " << escaped(result_json) << ",\n";
  out << "  \"config\": {\n";
  const auto fields = json_fields();
  for (const ConfigField* field : fields) {
    out << "    \"" << field->key << "\": " << field->json_value(config)
        << (field == fields.back() ? "\n" : ",\n");
  }
  out << "  }\n";
  out << "}\n";
  return out.str();
}

std::optional<RunSpec> RunSpec::from_text(const std::string& text,
                                          std::string* error) {
  RunSpec spec;
  JsonReader reader(text);
  const auto on_top_key = [&](JsonReader& r, const std::string& key) -> bool {
    std::string value;
    if (key == "backend") {
      if (!r.read_string(value)) return false;
      std::string backend_error;
      const auto backend = resolve_backend_name(value, &backend_error);
      if (!backend) return r.fail(backend_error);
      spec.backend = *backend;
      return true;
    }
    if (key == "threads") {
      if (!r.read_number(value)) return false;
      if (!common::parse_unsigned(value, spec.threads) || spec.threads == 0) {
        return r.fail("bad threads");
      }
      return true;
    }
    if (key == "dataset") {
      if (!r.read_string(value)) return false;
      std::string dataset_error;
      const auto dataset = DatasetSpec::parse(value, &dataset_error);
      if (!dataset) return r.fail(dataset_error);
      spec.dataset = *dataset;
      return true;
    }
    if (key == "cost_profile") {
      if (!r.read_string(value)) return false;
      const auto kind = cost_profile_from_string(value);
      if (!kind) return r.fail("unknown cost_profile '" + value + "'");
      spec.cost_profile = *kind;
      return true;
    }
    if (key == "tensor_kernel") {
      if (!r.read_string(value)) return false;
      const auto kernel = tensor_kernel_from_string(value);
      if (!kernel) return r.fail("unknown tensor_kernel '" + value + "'");
      spec.tensor_kernel = *kernel;
      return true;
    }
    if (key == "result_json") return r.read_string(spec.result_json);
    if (key == "observers") {
      return parse_object(r, [&](JsonReader& obs, const std::string& obs_key) {
        std::string obs_value;
        if (obs_key == "telemetry") return obs.read_string(spec.observers.telemetry);
        if (obs_key == "checkpoint_path") {
          return obs.read_string(spec.observers.checkpoint_path);
        }
        if (!obs.read_number(obs_value)) return false;
        if (obs_key == "eval_every") {
          return common::parse_unsigned(obs_value, spec.observers.eval_every) ||
                 obs.fail("bad eval_every");
        }
        if (obs_key == "eval_samples") {
          return common::parse_unsigned(obs_value, spec.observers.eval_samples) ||
                 obs.fail("bad eval_samples");
        }
        if (obs_key == "checkpoint_every") {
          return common::parse_unsigned(obs_value, spec.observers.checkpoint_every) ||
                 obs.fail("bad checkpoint_every");
        }
        return obs.fail("unknown observers key '" + obs_key + "'");
      });
    }
    if (key == "config") {
      return parse_object(r, [&](JsonReader& cr, const std::string& config_key) {
        const auto fields = config_fields();
        const auto field = std::ranges::find_if(fields, [&](const ConfigField& f) {
          return f.json_slot >= 0 && config_key == f.key;
        });
        if (field == fields.end()) {
          return cr.fail("unknown config key '" + config_key + "'");
        }
        std::string value;
        std::string field_error;
        if (!(field->quoted() ? cr.read_string(value) : cr.read_number(value))) {
          return false;
        }
        return field->parse(value, spec.config, &field_error) || cr.fail(field_error);
      });
    }
    return r.fail("unknown key '" + key + "'");
  };
  if (!parse_object(reader, on_top_key) || !reader.at_end()) {
    if (error != nullptr) {
      *error = reader.error().empty() ? "malformed RunSpec text" : reader.error();
    }
    return std::nullopt;
  }
  if (!validate(spec.config, error)) return std::nullopt;
  return spec;
}

std::optional<RunSpec> RunSpec::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return from_text(text.str(), error);
}

bool RunSpec::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << to_text();
  return out.good();
}

}  // namespace cellgan::core
