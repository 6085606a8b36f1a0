#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Json::key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += quoted(key) + ": ";
}

Json& Json::num(const std::string& k, double value) {
  key(k);
  body_ += format_number(value);
  return *this;
}

Json& Json::boolean(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += quoted(value);
  return *this;
}

Json& Json::nums(const std::string& k, const std::vector<double>& values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += format_number(values[i]);
  }
  body_ += "]";
  return *this;
}

Json& Json::obj(const std::string& k, const Json& value) {
  key(k);
  body_ += value.text();
  return *this;
}

Json& Json::objs(const std::string& k, const std::vector<Json>& values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ", ";
    body_ += values[i].text();
  }
  body_ += "]";
  return *this;
}

std::string Json::text() const { return "{" + body_ + "}"; }

}  // namespace perfbench
