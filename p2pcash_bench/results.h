// results.h — one workload run's numbers, gates and output formats.
//
// Every metric is printed as `name workload value unit` (plus its sample
// count when it is a percentile), written to RESULTS_<workload>.json for
// bench_compare.py, and the declared subset is emitted as the one-line
// JSON summary that ends the run's standard output.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace p2pcash_bench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< percentile sample count; 0 = not a percentile
};

struct Gate {
  std::string name;
  bool pass = false;
  std::string detail;
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0);
  void gate(std::string name, bool pass, std::string detail);
  /// Free-form context recorded in the results file (seed, host, ...).
  void context(std::string key, double value);

  const Metric* find(const std::string& name) const;
  /// Value of a metric that must exist (throws std::logic_error otherwise).
  double at(const std::string& name) const;
  bool gates_pass() const;

  /// Appends a text line (budget table, cross-check) kept in the results.
  void text(std::string line);

  /// `name workload value unit [n=...]` for every metric, then the gates.
  void print_lines() const;
  /// The results document (all metrics, gates, context, text lines).
  std::string to_json() const;
  /// The run's closing summary line: {"correct", "attempted", "failed",
  /// "metrics"} with exactly the metrics in `names`, in full precision.
  std::string summary_line(const std::vector<std::string>& names,
                           std::size_t attempted, std::size_t failed) const;

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<Gate> gates_;
  std::vector<std::pair<std::string, double>> context_;
  std::vector<std::string> text_;
};

/// Writes `content` to `path`; returns false on failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace p2pcash_bench
