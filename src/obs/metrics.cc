#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace polyvalue {
namespace {

// JSON has no Inf/NaN; clamp to null-safe zero (registries hold
// finite measurements in practice).
void AppendDouble(std::ostringstream* out, double v) {
  if (v != v || v == std::numeric_limits<double>::infinity() ||
      v == -std::numeric_limits<double>::infinity()) {
    *out << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out << buf;
}

}  // namespace

void MetricsRegistry::Counter(const std::string& name, uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::SetCounter(const std::string& name, uint64_t value) {
  counters_[name] = value;
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::Gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

double MetricsRegistry::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

RunningStat* MetricsRegistry::Stat(const std::string& name) {
  return &stats_[name];
}

bool MetricsRegistry::Has(const std::string& name) const {
  return counters_.count(name) > 0 || gauges_.count(name) > 0 ||
         stats_.count(name) > 0;
}

size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + stats_.size();
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name] = value;
  }
  for (const auto& [name, stat] : other.stats_) {
    stats_[name].Merge(stat);
  }
}

std::string MetricsRegistry::EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream out;
  out << "{";
  out << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ", ") << "\"" << EscapeJson(name)
        << "\": " << value;
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out << (first ? "" : ", ") << "\"" << EscapeJson(name) << "\": ";
    AppendDouble(&out, value);
    first = false;
  }
  out << "}, \"stats\": {";
  first = true;
  for (const auto& [name, stat] : stats_) {
    out << (first ? "" : ", ") << "\"" << EscapeJson(name)
        << "\": {\"count\": " << stat.count() << ", \"mean\": ";
    AppendDouble(&out, stat.mean());
    out << ", \"stddev\": ";
    AppendDouble(&out, stat.stddev());
    out << ", \"min\": ";
    AppendDouble(&out, stat.min());
    out << ", \"max\": ";
    AppendDouble(&out, stat.max());
    out << ", \"sum\": ";
    AppendDouble(&out, stat.sum());
    out << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return UnavailableError("cannot open metrics file '" + path + "'");
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return UnavailableError("short write to metrics file '" + path + "'");
  }
  return OkStatus();
}

}  // namespace polyvalue
