// perfbench: run one workload of the repo benchmark and print its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Lines starting with '#' describe the host and the run; the last line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}, where
// `correct` says whether every job succeeded and matched the bare engine.
// The exit code is nonzero only when no result could be produced.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) known |= w == opts.workload;
  if (!known) return Usage(("unknown workload '" + opts.workload + "'").c_str());
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");

  std::printf("# %s\n", perfbench::HostLine().c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Report report;
  try {
    report = perfbench::RunWorkload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
