// The bench registry behind `dprof bench <name> [--json]`.
//
// Each bench is a named function producing a flat list of metrics. CI runs
// `dprof bench micro_costs --json` and archives the document, so every PR
// gets a perf trajectory baseline; new benchmarks plug in with one
// Register() call.

#ifndef DPROF_SRC_CLI_BENCH_REGISTRY_H_
#define DPROF_SRC_CLI_BENCH_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace dprof {

struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct BenchReport {
  std::string bench;
  std::vector<BenchMetric> metrics;
  // Free-form output (the paper reproductions' rendered tables); printed
  // before the metrics in text mode, embedded as "output" in JSON.
  std::string text;
};

struct BenchParams {
  // Scale factor for iteration counts; CI uses 1, perf runs can raise it.
  double scale = 1.0;
  uint64_t seed = 1;
};

// The largest scale a bench accepts. Benches multiply base iteration counts
// of up to 4e7 by it, so scaled counts stay far inside uint64_t.
constexpr double kMaxBenchScale = 1e6;

// Returns "" when `params` is in range, else a one-line error naming the flag.
std::string ValidateBenchParams(const BenchParams& params);

using BenchFn = std::function<BenchReport(const BenchParams&)>;

struct BenchInfo {
  std::string name;
  std::string description;
  BenchFn fn;
};

class BenchRegistry {
 public:
  bool Register(const std::string& name, const std::string& description, BenchFn fn);

  const BenchInfo* Find(const std::string& name) const;
  std::vector<std::string> Names() const;
  size_t size() const { return benches_.size(); }

  // The registry with the built-in benches (micro_costs,
  // memcached_throughput, apache_throughput) pre-registered.
  static BenchRegistry& Default();

 private:
  std::map<std::string, BenchInfo> benches_;
};

void RegisterBuiltinBenches(BenchRegistry& registry);

// Registers the paper reproductions (table_*, figure_*, ablation_*; see
// paper_benches.cc). Part of RegisterBuiltinBenches.
void RegisterPaperBenches(BenchRegistry& registry);

// Renders `report` as the machine-readable JSON document
// `dprof bench --json` prints.
std::string BenchReportToJson(const BenchReport& report);

// Renders `report` as an aligned human-readable table.
std::string BenchReportToText(const BenchReport& report);

}  // namespace dprof

#endif  // DPROF_SRC_CLI_BENCH_REGISTRY_H_
