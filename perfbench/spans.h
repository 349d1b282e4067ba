// In-memory spans recorded by the benchmark around the public calls it
// makes into each layer, plus the statistics the report is built from.
// Spans are recorded only from the benchmark's own files: the entry-point
// spans in workloads.cc and the delegating wrappers in wrappers.h.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock now, in nanoseconds.
int64_t NowNs();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuSeconds();
/// User + system CPU time of the whole process.
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();
/// Heap bytes the process holds in use right now (allocated and not yet
/// freed, across all malloc arenas), in MiB. Unlike RSS, it does not
/// depend on how the allocator's arenas kept freed pages.
double HeapInUseMb();

/// \brief One timed call. `name` points at a string literal.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = no enclosing span on the recording thread
  uint64_t job = 0;     ///< id of the job span this call worked for; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_s = 0;   ///< thread CPU time spent inside the span
  uint64_t rows = 0;  ///< work items (behavior rows for measure spans)

  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// \brief Process-wide span sink. Disabled by default: a disabled recorder
/// costs one relaxed load per wrapped call.
class SpanRecorder {
 public:
  static SpanRecorder& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Job used for spans recorded on threads that are not inside a job span
  /// (engine pool lanes, cluster workers). Only meaningful while a single
  /// job is in flight; 0 clears it.
  void SetSoleJob(uint64_t job) { sole_job_.store(job, std::memory_order_relaxed); }
  uint64_t sole_job() const { return sole_job_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  /// Spans recorded so far, in completion order; clears the recorder.
  std::vector<Span> Take();
  /// Spans dropped because the in-memory buffer was full.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Write spans as tab-separated lines (name, id, parent, job, start_ns,
  /// end_ns, wall_s, cpu_s, rows). Returns false on an I/O error.
  static bool WriteTsv(const std::vector<Span>& spans, const std::string& path);

 private:
  static constexpr size_t kMaxSpans = size_t{1} << 20;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> sole_job_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// \brief RAII span on the global recorder. Nested ScopedSpans on one
/// thread form parent chains; a job span (`is_job`) also becomes the job
/// of every span recorded under it on the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool is_job = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_rows(uint64_t rows) { span_.rows = rows; }
  /// 0 when the recorder was disabled at construction.
  uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
  uint64_t saved_parent_ = 0;
  uint64_t saved_job_ = 0;
  double cpu_start_ = 0;
};

/// \brief Self time of `parent`: its wall time minus the part of its
/// interval covered by the union of `children` (clipped to the parent).
/// Overlapping children — concurrent shard lanes — count once.
double SelfSeconds(const Span& parent, const std::vector<Span>& children);

/// \brief Tail of a latency sample: the highest percentile that still has
/// at least `min_beyond` samples above it.
struct Tail {
  double value = 0;
  double percentile = 0;  ///< share of samples at or below `value`, x100
  size_t beyond = 0;      ///< samples strictly above the tail rank
  size_t samples = 0;
  bool defined = false;   ///< false when fewer than min_beyond + 1 samples
};
Tail TailOf(std::vector<double> samples, size_t min_beyond = 10);

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> samples);

}  // namespace perfbench
