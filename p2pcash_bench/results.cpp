#include "results.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace p2pcash_bench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Full precision: a value must read as measured, with all its digits.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  if (find(name) != nullptr)
    throw std::logic_error("metric reported twice: " + name);
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::gate(std::string name, bool pass, std::string detail) {
  gates_.push_back({std::move(name), pass, std::move(detail)});
}

void Report::context(std::string key, double value) {
  context_.emplace_back(std::move(key), value);
}

void Report::text(std::string line) { text_.push_back(std::move(line)); }

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

double Report::at(const std::string& name) const {
  const Metric* m = find(name);
  if (m == nullptr) throw std::logic_error("metric not measured: " + name);
  return m->value;
}

bool Report::gates_pass() const {
  for (const auto& g : gates_)
    if (!g.pass) return false;
  return true;
}

void Report::print_lines() const {
  for (const auto& m : metrics_) {
    if (m.samples > 0)
      std::printf("%s %s %.6g %s n=%zu\n", m.name.c_str(), workload_.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    else
      std::printf("%s %s %.6g %s\n", m.name.c_str(), workload_.c_str(),
                  m.value, m.unit.c_str());
  }
  for (const auto& g : gates_)
    std::printf("gate %s %s %s%s%s\n", g.name.c_str(), workload_.c_str(),
                g.pass ? "pass" : "FAIL", g.detail.empty() ? "" : " — ",
                g.detail.c_str());
}

std::string Report::to_json() const {
  std::string out = "{\n  \"workload\": " + quoted(workload_) + ",\n";
  out += "  \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    out += (i ? ", " : "") + quoted(context_[i].first) + ": " +
           number(context_[i].second);
  }
  out += "},\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += "    " + quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit);
    if (m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += i + 1 < metrics_.size() ? "},\n" : "}\n";
  }
  out += "  },\n  \"gates\": {\n";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    out += "    " + quoted(g.name) + ": {\"pass\": " +
           (g.pass ? "true" : "false") + ", \"detail\": " + quoted(g.detail) +
           (i + 1 < gates_.size() ? "},\n" : "}\n");
  }
  out += "  },\n  \"text\": [";
  for (std::size_t i = 0; i < text_.size(); ++i)
    out += (i ? ",\n    " : "\n    ") + quoted(text_[i]);
  out += text_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string Report::summary_line(const std::vector<std::string>& names,
                                 std::size_t attempted,
                                 std::size_t failed) const {
  std::string out = "{\"correct\": ";
  out += gates_pass() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric* m = find(names[i]);
    if (m == nullptr || !std::isfinite(m->value))
      throw std::logic_error("declared metric missing or not finite: " +
                             names[i]);
    out += (i ? ", " : "") + quoted(m->name) + ": {\"value\": " +
           number(m->value) + ", \"unit\": " + quoted(m->unit) + "}";
  }
  return out + "}}";
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace p2pcash_bench
