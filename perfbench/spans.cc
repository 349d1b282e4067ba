#include "spans.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>

namespace perfbench {

namespace {
thread_local uint64_t tl_parent = 0;
thread_local uint64_t tl_job = 0;
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

bool SpanRecorder::WriteTsv(const std::vector<Span>& spans,
                            const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tid\tparent\tjob\tstart_ns\tend_ns\twall_s\tcpu_s\trows\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\t%.9f\t%.9f\t%llu\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.job),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.wall_s(), s.cpu_s,
                 static_cast<unsigned long long>(s.rows));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, bool is_job) {
  SpanRecorder& rec = SpanRecorder::Global();
  if (!rec.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = rec.NextId();
  span_.parent = tl_parent;
  span_.job = is_job ? span_.id : (tl_job != 0 ? tl_job : rec.sole_job());
  saved_parent_ = tl_parent;
  saved_job_ = tl_job;
  tl_parent = span_.id;
  if (is_job) tl_job = span_.id;
  cpu_start_ = ThreadCpuSeconds();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  span_.cpu_s = ThreadCpuSeconds() - cpu_start_;
  tl_parent = saved_parent_;
  tl_job = saved_job_;
  SpanRecorder::Global().Record(span_);
}

double SelfSeconds(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(children.size());
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, parent.start_ns);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return static_cast<double>(parent.end_ns - parent.start_ns - covered) * 1e-9;
}

Tail TailOf(std::vector<double> samples, size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Rank k (0-based) has n - 1 - k samples above it; the highest rank
  // with at least min_beyond above it is n - 1 - min_beyond.
  if (n < min_beyond + 1) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  const size_t k = n - 1 - min_beyond;
  tail.value = samples[k];
  tail.beyond = min_beyond;
  tail.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  tail.defined = true;
  return tail;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
