// The repo benchmark: four closed-loop workloads over the SQL
// auto-completion world of paper §6.2, each run from a single process.
// See README.md for why each workload exists and which per-layer metric
// should move which end-to-end metric.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics of an untraced run. true: per-layer metrics
  /// of a traced run, plus the tracing overhead against an untraced run of
  /// the same length.
  bool trace = false;
  /// Tiny worlds and few jobs, for the benchmark's own tests.
  bool smoke = false;
  /// Scratch directory for behavior stores and span dumps.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (host, tail rank,
  /// tracing overhead, digest checks).
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

/// \brief Run one workload. Every job's table is checked against the bare
/// engine; a mismatch or a failed job clears `correct`.
Report RunWorkload(const RunOptions& options);

/// \brief Spin-loop probe of effective parallelism: wall seconds for a
/// fixed amount of work per thread at 1, 2 and 4 threads.
std::string HostLine();

}  // namespace perfbench
