#include <fstream>
#include <map>

#include "bench.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const { return seconds_since(origin_) * 1e6; }

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), id_(-1), saved_parent_(tracer.open_) {
  if (!tracer_.enabled_) return;
  id_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back({std::move(name), tracer_.now_us(), 0.0, saved_parent_});
  tracer_.open_ = id_;
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(id_)].end_us = tracer_.now_us();
  tracer_.open_ = saved_parent_;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back((span.end_us - span.start_us) / 1000.0);
  }
  return out;
}

std::vector<double> Tracer::child_sums_ms(const std::string& parent_name) const {
  std::map<int, double> sums;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == parent_name) sums[static_cast<int>(i)] = 0.0;
  }
  for (const Span& span : spans_) {
    const auto it = sums.find(span.parent);
    if (it != sums.end()) it->second += (span.end_us - span.start_us) / 1000.0;
  }
  std::vector<double> out;
  for (const auto& [id, sum] : sums) out.push_back(sum);
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << Json()
               .num("id", static_cast<double>(i))
               .str("name", span.name)
               .num("start_us", span.start_us)
               .num("end_us", span.end_us)
               .num("parent", span.parent)
               .text()
        << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
