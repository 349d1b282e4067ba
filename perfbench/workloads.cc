#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench/common.h"
#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "core/extractors.h"
#include "grammar/cfg.h"
#include "grammar/sql_grammar.h"
#include "nn/lstm_lm.h"
#include "server/client.h"
#include "server/server.h"
#include "service/inspection_session.h"
#include "service/scheduler.h"
#include "spans.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wrappers.h"

namespace perfbench {

namespace {

using deepbase::Catalog;
using deepbase::Dataset;
using deepbase::Extractor;
using deepbase::HypothesisPtr;
using deepbase::InspectionSession;
using deepbase::InspectOptions;
using deepbase::InspectRequest;
using deepbase::MeasureFactoryPtr;
using deepbase::Result;
using deepbase::ResultTable;
using deepbase::RuntimeStats;
using deepbase::SessionConfig;
namespace cluster = deepbase::cluster;
namespace wire = deepbase::wire;

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

// ---------------------------------------------------------------------------
// Workload shapes.
// ---------------------------------------------------------------------------

enum class Kind { kInspectCorr, kInspectLogReg, kServeMix, kClusterSliced };

struct Shape {
  Kind kind;
  size_t n_queries;  ///< corpus size the world samples
  size_t hidden;     ///< LSTM width per layer (2 layers)
  size_t records;    ///< records inspected (a prefix of the corpus)
  size_t units;      ///< units inspected (the first ones)
  size_t window;     ///< hypotheses per job
  const char* measure;
  size_t max_jobs;   ///< cap on closed-loop jobs (smoke runs only)
};

Shape ShapeFor(const std::string& name, bool smoke) {
  // Full scale = the scalability world of bench/scalability.cc
  // (ScalabilityWorld(true) + DefaultScale(true)); inspect_logreg uses the
  // default Fig 5 scale (384 records x 32 units, 32-hypothesis windows).
  // cluster_sliced sweeps the first 512 records: its jobs are full sweeps
  // (no early stopping) on two 1-thread workers, and at 2048 records a job
  // takes over a second, too few per run for a tail.
  const size_t cap = smoke ? 3 : SIZE_MAX;
  if (name == "inspect_corr") {
    return smoke ? Shape{Kind::kInspectCorr, 96, 8, 96, 16, 12, "pearson", cap}
                 : Shape{Kind::kInspectCorr, 2048, 32, 2048, 64, 60, "pearson", cap};
  }
  if (name == "inspect_logreg") {
    return smoke ? Shape{Kind::kInspectLogReg, 96, 8, 64, 12, 8, "logreg_l1", cap}
                 : Shape{Kind::kInspectLogReg, 768, 24, 384, 32, 32, "logreg_l1", cap};
  }
  if (name == "serve_mix") {
    return smoke ? Shape{Kind::kServeMix, 96, 8, 96, 16, 6, "pearson", 6}
                 : Shape{Kind::kServeMix, 2048, 32, 2048, 64, 16, "pearson", cap};
  }
  if (name == "cluster_sliced") {
    return smoke ? Shape{Kind::kClusterSliced, 96, 8, 96, 16, 6, "pearson", cap}
                 : Shape{Kind::kClusterSliced, 2048, 32, 512, 64, 16, "pearson", cap};
  }
  Fail("unknown workload: " + name);
}

constexpr const char* kModel = "sql_lm";
constexpr const char* kHypSet = "sql";
constexpr const char* kDataset = "sql";
constexpr size_t kClusterShards = 4;
constexpr size_t kServeClients = 4;
constexpr size_t kClusterWorkers = 2;

// ---------------------------------------------------------------------------
// World: corpus and trained model (built once per run), then the records,
// extractor, hypothesis library and measure of each set-up — all from the
// seed. `traced` registers the delegating wrappers instead of the objects.
// ---------------------------------------------------------------------------

/// deepbase::bench::BuildSqlWorld (level-3 grammar, 96-symbol records, a
/// 2-layer LSTM trained for one epoch) without its accuracy pass, which
/// nothing here reads and which would add a third to every set-up.
deepbase::bench::SqlWorld TrainSqlWorld(size_t n_queries, size_t hidden,
                                        uint64_t seed) {
  constexpr size_t kNs = 96;
  deepbase::bench::SqlWorld world;
  world.grammar = deepbase::MakeSqlGrammar(/*level=*/3);
  deepbase::GrammarSampler sampler(&world.grammar, seed);
  std::vector<std::string> queries;
  std::string all;
  while (queries.size() < n_queries) {
    std::string q = sampler.Sample(8);
    if (q.size() > kNs) continue;  // truncated queries would not parse
    all += q;
    queries.push_back(std::move(q));
  }
  world.dataset = Dataset(deepbase::Vocab::FromChars(all), kNs);
  for (const std::string& q : queries) world.dataset.AddText(q);
  world.model = std::make_unique<deepbase::LstmLm>(
      world.dataset.vocab().size(), hidden, /*layers=*/2, seed + 1);
  world.model->TrainEpoch(world.dataset, 0.01f, seed + 100);
  return world;
}

/// Everything a set-up builds on top of the trained model: the inspected
/// records, the extractor, the hypothesis library and the measure.
struct World {
  World(const deepbase::bench::SqlWorld& trained, const Shape& shape, bool traced)
      : sql(trained),
        data(sql.dataset.Slice(
            0, std::min(shape.records, sql.dataset.num_records()))),
        extractor(kModel, sql.model.get()),
        hyps(deepbase::bench::SqlHypotheses(&sql.grammar, SIZE_MAX)),
        measure_name(shape.measure) {
    for (size_t u = 0; u < std::min(shape.units, extractor.num_units()); ++u) {
      units.push_back(static_cast<int>(u));
    }
    Result<MeasureFactoryPtr> m = Catalog().GetMeasure(measure_name);
    if (!m.ok()) Fail(m.status().ToString());
    measure = *m;
    if (traced) {
      traced_extractor = std::make_unique<TracedExtractor>(&extractor);
      catalog_hyps = WrapHypotheses(hyps);
      catalog_measure = std::make_shared<TracedMeasureFactory>(measure);
    } else {
      catalog_hyps = hyps;
      catalog_measure = measure;
    }
    for (const HypothesisPtr& h : hyps) names.push_back(h->name());
  }

  const Extractor* catalog_extractor() const {
    if (traced_extractor) return traced_extractor.get();
    return &extractor;
  }

  void Register(Catalog* catalog) const {
    catalog->RegisterModel(kModel, catalog_extractor());
    catalog->RegisterHypotheses(kHypSet, catalog_hyps);
    catalog->RegisterDataset(kDataset, &data);
    catalog->RegisterMeasure(measure_name, catalog_measure);
  }

  /// Block size of bench/scalability.cc: ~12 blocks per pass, so early
  /// stopping has convergence checkpoints to act on.
  size_t block_size() const {
    return std::max<size_t>(16, data.num_records() / 12);
  }

  const deepbase::bench::SqlWorld& sql;
  Dataset data;
  deepbase::LstmLmExtractor extractor;
  std::vector<HypothesisPtr> hyps;
  std::vector<std::string> names;
  std::string measure_name;  ///< catalog name of the measure
  std::vector<int> units;
  MeasureFactoryPtr measure;
  std::unique_ptr<TracedExtractor> traced_extractor;
  std::vector<HypothesisPtr> catalog_hyps;
  MeasureFactoryPtr catalog_measure;
};

InspectRequest MakeRequest(const World& world,
                           const std::vector<std::string>& hyp_names,
                           std::optional<InspectOptions> options) {
  InspectRequest request;
  InspectRequest::ModelRef model;
  model.name = kModel;
  model.groups.push_back({"all", world.units});
  request.models.push_back(std::move(model));
  request.hypothesis_sets = {kHypSet};
  request.hypothesis_filter = hyp_names;
  request.dataset_name = kDataset;
  request.measure_names = {world.measure_name};
  request.options = std::move(options);
  return request;
}

std::string KeyOf(const std::vector<std::string>& names) {
  std::string key;
  for (const std::string& n : names) {
    key += n;
    key += '\x1f';
  }
  return key;
}

uint64_t Digest(const ResultTable& table) {
  const std::string bytes = table.SerializeToString();
  return deepbase::Fnv1a(bytes.data(), bytes.size());
}

/// Seeded stream of distinct contiguous hypothesis windows of `window`
/// +- 1/8 names, so consecutive jobs overlap but never repeat. The
/// jitter leaves room for about 190 distinct windows on inspect_corr,
/// four times the jobs of an 18 s run on a 4-vCPU host; past that,
/// windows repeat.
class WindowStream {
 public:
  WindowStream(const std::vector<std::string>& names, size_t window,
               uint64_t seed)
      : names_(names), window_(std::min(window, names.size())), rng_(seed) {}

  std::vector<std::string> Next() {
    const size_t jitter = window_ / 8;
    for (int attempt = 0;; ++attempt) {
      size_t size = window_;
      if (jitter > 0) {
        size = window_ - jitter + rng_.UniformInt(2 * jitter + 1);
      }
      size = std::clamp<size_t>(size, 1, names_.size());
      const size_t start = rng_.UniformInt(names_.size() - size + 1);
      if (!used_.insert({start, size}).second && attempt < 1000) continue;
      return {names_.begin() + static_cast<std::ptrdiff_t>(start),
              names_.begin() + static_cast<std::ptrdiff_t>(start + size)};
    }
  }

 private:
  const std::vector<std::string>& names_;
  size_t window_;
  deepbase::Rng rng_;
  std::set<std::pair<size_t, size_t>> used_;
};

// ---------------------------------------------------------------------------
// One job as the benchmark saw it.
// ---------------------------------------------------------------------------

struct Job {
  std::string key;
  std::vector<std::string> hyps;
  std::optional<InspectOptions> options;
  bool ok = false;
  std::string error;
  uint64_t digest = 0;
  double latency_s = 0;
  double submit_s = 0;  ///< serve_mix: client Submit() call
  bool engine_ran = false;
  RuntimeStats stats;               ///< local jobs
  wire::ResultSummaryWire summary;  ///< remote jobs
  uint64_t span = 0;
};

/// One measured window: the closed-loop jobs and what the process did.
struct Window {
  std::vector<Job> jobs;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;   ///< process high-water mark at the end of the window
  double heap_mb = 0;  ///< heap bytes in use at the end of the window
  deepbase::SchedulerStats sched_before;
  deepbase::SchedulerStats sched_after;
  cluster::CoordinatorStats coord_before;
  cluster::CoordinatorStats coord_after;
  /// serve_mix: engine stats and session-side overhead of the server's jobs.
  std::vector<RuntimeStats> server_stats;
  std::vector<double> server_session_overhead_s;
  size_t reference_shards = 0;
  std::vector<Span> spans;
};

// ---------------------------------------------------------------------------
// Environment: everything one set-up builds, torn down in reverse.
// ---------------------------------------------------------------------------

class Env {
 public:
  Env(const deepbase::bench::SqlWorld& trained, const Shape& shape,
      const RunOptions& opts, bool traced, int index)
      : shape_(shape), traced_(traced) {
    world_ = std::make_unique<World>(trained, shape, traced);
    SessionConfig config;
    config.options.block_size = world_->block_size();
    if (shape.kind == Kind::kServeMix) {
      store_dir_ = (std::filesystem::path(opts.work_dir) /
                    ("store-" + std::to_string(::getpid()) + "-" +
                     std::to_string(index)))
                       .string();
      std::filesystem::remove_all(store_dir_);
      config.store_dir = store_dir_;
    }
    session_ = std::make_unique<InspectionSession>(config);
    world_->Register(&session_->catalog());

    if (shape.kind == Kind::kServeMix) {
      server_ = std::make_unique<deepbase::InspectionServer>(session_.get());
      deepbase::Status st = server_->Start();
      if (!st.ok()) Fail("server start: " + st.ToString());
    }
    if (shape.kind == Kind::kClusterSliced) {
      cluster::CoordinatorConfig cc;
      cc.total_shards = kClusterShards;
      coordinator_ =
          std::make_unique<cluster::ClusterCoordinator>(session_.get(), cc);
      deepbase::Status st = coordinator_->Start();
      if (!st.ok()) Fail("coordinator start: " + st.ToString());
      for (size_t w = 0; w < kClusterWorkers; ++w) {
        SessionConfig wc;
        wc.num_threads = 1;
        wc.options.block_size = world_->block_size();
        worker_sessions_.push_back(std::make_unique<InspectionSession>(wc));
        world_->Register(&worker_sessions_.back()->catalog());
        cluster::WorkerConfig worker_config;
        worker_config.worker_id = "w" + std::to_string(w);
        worker_config.coordinator_port = coordinator_->port();
        workers_.push_back(std::make_unique<cluster::InspectionWorker>(
            worker_sessions_.back().get(), worker_config));
        st = workers_.back()->Connect();
        if (!st.ok()) Fail("worker connect: " + st.ToString());
      }
      for (int i = 0; i < 10000 && coordinator_->num_workers() < kClusterWorkers;
           ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (coordinator_->num_workers() < kClusterWorkers) {
        Fail("cluster workers did not register");
      }
      if (traced) {
        // Time the coordinator entry point: the same engine the
        // coordinator installed, behind a span.
        cluster::ClusterCoordinator* coord = coordinator_.get();
        session_->scheduler().SetEngine(
            [coord](const InspectRequest& request,
                    const InspectOptions& defaults, RuntimeStats* stats) {
              ScopedSpan span("cluster.distributed_run");
              return coord->DistributedRun(request, defaults, stats);
            });
      }
    }
    // Warm-up: one job over every hypothesis fills the hypothesis caches
    // (and, on serve_mix, materializes unit and hypothesis behaviors into
    // the store), as a long-running deployment would have them.
    Result<ResultTable> warm = session_->Inspect(
        MakeRequest(*world_, world_->names, RequestOptions()));
    if (!warm.ok()) Fail("warm-up: " + warm.status().ToString());
  }

  ~Env() {
    for (auto& w : workers_) w->Shutdown();
    if (coordinator_) coordinator_->Shutdown();
    if (server_) server_->Shutdown();
    workers_.clear();
    coordinator_.reset();
    server_.reset();
    worker_sessions_.clear();
    session_.reset();
    if (!store_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir_, ec);
    }
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  const World& world() const { return *world_; }
  InspectionSession& session() { return *session_; }
  deepbase::InspectionServer* server() { return server_.get(); }
  cluster::ClusterCoordinator* coordinator() { return coordinator_.get(); }
  bool traced() const { return traced_; }

  /// Options carried by each request (cluster jobs pin theirs).
  std::optional<InspectOptions> RequestOptions() const {
    if (shape_.kind != Kind::kClusterSliced) return std::nullopt;
    InspectOptions o;
    o.block_size = world_->block_size();
    o.streaming = false;        // sliceable: no sequential lane
    o.early_stopping = false;   // full sweep: bit-exact at any worker count
    o.num_shards = kClusterShards;
    return o;
  }

 private:
  Shape shape_;
  bool traced_;
  std::unique_ptr<World> world_;
  std::string store_dir_;
  std::unique_ptr<InspectionSession> session_;
  std::unique_ptr<deepbase::InspectionServer> server_;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator_;
  std::vector<std::unique_ptr<InspectionSession>> worker_sessions_;
  std::vector<std::unique_ptr<cluster::InspectionWorker>> workers_;
};

// ---------------------------------------------------------------------------
// Closed loops.
// ---------------------------------------------------------------------------

Job RunLocal(Env& env, std::vector<std::string> hyps, const char* span_name) {
  Job job;
  job.key = KeyOf(hyps);
  job.options = env.RequestOptions();
  const InspectRequest request = MakeRequest(env.world(), hyps, job.options);
  job.hyps = std::move(hyps);
  Result<ResultTable> result = [&] {
    ScopedSpan span(span_name, /*is_job=*/true);
    job.span = span.id();
    SpanRecorder::Global().SetSoleJob(span.id());
    const int64_t t0 = NowNs();
    Result<ResultTable> r = env.session().Inspect(request, &job.stats);
    job.latency_s = static_cast<double>(NowNs() - t0) * 1e-9;
    SpanRecorder::Global().SetSoleJob(0);
    return r;
  }();
  job.ok = result.ok();
  if (job.ok) {
    job.digest = Digest(*result);
  } else {
    job.error = result.status().ToString();
  }
  job.engine_ran = job.stats.result_cache_hits == 0 && job.stats.dedup_hits == 0;
  return job;
}

/// One analyst, closed loop.
void SingleAnalyst(Env& env, const Shape& shape, uint64_t seed,
                   double seconds, Window* win) {
  const char* span_name =
      shape.kind == Kind::kClusterSliced ? "cluster.inspect" : "session.inspect";
  WindowStream windows(env.world().names, shape.window, seed * 7919 + 1);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (win->jobs.empty() ||
         (NowNs() < end && win->jobs.size() < shape.max_jobs)) {
    win->jobs.push_back(RunLocal(env, windows.Next(), span_name));
  }
}

/// serve_mix: kServeClients closed-loop clients over loopback TCP.
void ServeMix(Env& env, const Shape& shape, uint64_t seed, double seconds,
              Window* win) {
  const std::vector<std::string>& names = env.world().names;
  const size_t set_size = std::min(shape.window, names.size());
  const uint16_t port = env.server()->port();
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<Job>> per_client(kServeClients);
  std::vector<std::string> errors(kServeClients);

  auto hot_set = [&](size_t index) {
    // Shared by every client at the same job index.
    deepbase::Rng rng(seed * 104729 + index);
    const size_t start = rng.UniformInt(names.size() - set_size + 1);
    return std::vector<std::string>(
        names.begin() + static_cast<std::ptrdiff_t>(start),
        names.begin() + static_cast<std::ptrdiff_t>(start + set_size));
  };

  auto client_loop = [&](size_t c) {
    deepbase::ClientConfig cc;
    cc.port = port;
    deepbase::InspectionClient client(cc);
    deepbase::Status st = client.Connect();
    if (!st.ok()) {
      errors[c] = st.ToString();
      return;
    }
    deepbase::Rng rng(seed * 31 + c + 1);
    // The mix is dealt from shuffled decks of 20 (12 fresh, 5 repeats,
    // 3 hot), so every stretch of a client's jobs has the stated shares.
    std::vector<char> deck;
    std::vector<std::vector<std::string>> history;
    std::vector<Job>& jobs = per_client[c];
    while (jobs.empty() || (NowNs() < end && jobs.size() < shape.max_jobs)) {
      if (deck.empty()) {
        deck.assign(12, 'f');
        deck.insert(deck.end(), 5, 'r');
        deck.insert(deck.end(), 3, 'h');
        for (size_t i = deck.size() - 1; i > 0; --i) {
          std::swap(deck[i], deck[rng.UniformInt(i + 1)]);
        }
      }
      const char kind = deck.back();
      deck.pop_back();
      std::vector<std::string> hyps;
      if (kind == 'f' || (kind == 'r' && history.empty())) {
        // Fresh: a random subset in library order.
        std::vector<size_t> idx(names.size());
        for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
        for (size_t i = 0; i < set_size; ++i) {
          std::swap(idx[i], idx[i + rng.UniformInt(idx.size() - i)]);
        }
        std::sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(set_size));
        for (size_t i = 0; i < set_size; ++i) hyps.push_back(names[idx[i]]);
        history.push_back(hyps);
      } else if (kind == 'r') {
        hyps = history[rng.UniformInt(history.size())];
      } else {
        hyps = hot_set(jobs.size());
      }
      Job job;
      job.key = KeyOf(hyps);
      job.hyps = hyps;
      const InspectRequest request = MakeRequest(env.world(), hyps, std::nullopt);
      Result<ResultTable> result = [&]() -> Result<ResultTable> {
        ScopedSpan span("client.inspect", /*is_job=*/true);
        job.span = span.id();
        const int64_t t0 = NowNs();
        Result<deepbase::RemoteJob> remote = [&] {
          ScopedSpan submit("client.submit");
          return client.Submit(request);
        }();
        job.submit_s = static_cast<double>(NowNs() - t0) * 1e-9;
        if (!remote.ok()) {
          job.latency_s = job.submit_s;
          return remote.status();
        }
        Result<ResultTable> r = remote->Wait();
        job.latency_s = static_cast<double>(NowNs() - t0) * 1e-9;
        job.summary = remote->Summary();
        return r;
      }();
      job.ok = result.ok();
      if (job.ok) {
        job.digest = Digest(*result);
      } else {
        job.error = result.status().ToString();
      }
      job.engine_ran =
          job.summary.result_cache_hits == 0 && job.summary.dedup_hits == 0;
      jobs.push_back(std::move(job));
    }
    client.Close();
  };

  const size_t jobs_before = env.session().Jobs().size();
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kServeClients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();
  win->wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  for (size_t c = 0; c < kServeClients; ++c) {
    if (!errors[c].empty()) Fail("client connect: " + errors[c]);
    for (Job& j : per_client[c]) win->jobs.push_back(std::move(j));
  }
  const std::vector<deepbase::JobHandle> handles = env.session().Jobs();
  for (size_t i = jobs_before; i < handles.size(); ++i) {
    const RuntimeStats stats = handles[i].Stats();
    win->server_stats.push_back(stats);
    for (const deepbase::TraceSpan& s : handles[i].TraceSpans()) {
      if (s.name == "sched.job" && stats.blocks_processed > 0) {
        win->server_session_overhead_s.push_back(
            static_cast<double>(s.duration_ns) * 1e-9 - stats.total_s);
      }
    }
  }
}

/// Run one measured window on a set-up environment.
Window Measure(Env& env, const Shape& shape, const RunOptions& opts,
               double seconds) {
  Window win;
  win.sched_before = env.session().scheduler().stats();
  if (env.coordinator()) win.coord_before = env.coordinator()->stats();
  SpanRecorder::Global().Take();
  SpanRecorder::Global().SetEnabled(env.traced());
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  if (shape.kind == Kind::kServeMix) {
    ServeMix(env, shape, opts.seed, seconds, &win);
  } else {
    SingleAnalyst(env, shape, opts.seed, seconds, &win);
    win.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }
  win.cpu_s = ProcessCpuSeconds() - cpu0;
  SpanRecorder::Global().SetEnabled(false);
  win.spans = SpanRecorder::Global().Take();
  win.rss_mb = PeakRssMb();
  win.heap_mb = HeapInUseMb();
  win.sched_after = env.session().scheduler().stats();
  if (env.coordinator()) win.coord_after = env.coordinator()->stats();

  // Shard count the session resolved for its engine runs; the reference
  // must use the same one.
  std::set<size_t> shards;
  for (const Job& j : win.jobs) {
    // Remote jobs carry no RuntimeStats; their server-side stats follow.
    if (j.ok && j.engine_ran && shape.kind != Kind::kServeMix) {
      shards.insert(j.stats.num_shards);
    }
  }
  for (const RuntimeStats& s : win.server_stats) {
    if (s.blocks_processed > 0) shards.insert(s.num_shards);
  }
  if (shape.kind == Kind::kClusterSliced) shards = {kClusterShards};
  if (shards.size() != 1) {
    std::string seen;
    for (size_t s : shards) seen += " " + std::to_string(s);
    Fail("engine jobs resolved to differing shard counts:" + seen);
  }
  win.reference_shards = *shards.begin();
  return win;
}

// ---------------------------------------------------------------------------
// Correctness: every job's table against the bare engine Inspect() under
// the same effective options. Unit behaviors come from one fresh full
// extraction served by a PrecomputedExtractor, so the reference shares no
// cache, store, scan or cluster path with the system under test.
// ---------------------------------------------------------------------------

class Reference {
 public:
  explicit Reference(const World& world) : world_(world), pool_(kThreads) {
    deepbase::LstmLmExtractor live(kModel, world.sql.model.get(), &pool_);
    std::vector<size_t> all(world.data.num_records());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    std::vector<int> units(live.num_units());
    for (size_t u = 0; u < units.size(); ++u) units[u] = static_cast<int>(u);
    extractor_ = std::make_unique<deepbase::PrecomputedExtractor>(
        kModel, live.ExtractBlock(world.data, all, units), world.data.ns());
    catalog_.RegisterModel(kModel, extractor_.get());
    catalog_.RegisterHypotheses(kHypSet, world.hyps);
    catalog_.RegisterDataset(kDataset, &world.data);
    catalog_.RegisterMeasure(world.measure_name, world.measure);
  }

  /// Reference digests of every distinct request among `jobs`, computed
  /// on kThreads threads that share one pool and one hypothesis cache.
  void Compute(const std::vector<const Job*>& jobs, const InspectOptions& defaults,
               size_t num_shards) {
    std::vector<const Job*> todo;
    for (const Job* job : jobs) {
      if (digests_.emplace(job->key, 0).second) todo.push_back(job);
    }
    std::vector<uint64_t> out(todo.size());
    std::vector<std::string> errors(kThreads);
    std::atomic<size_t> next{0};
    auto worker = [&](size_t t) {
      for (size_t i = next++; i < todo.size(); i = next++) {
        Result<deepbase::InspectPlan> plan = catalog_.Compile(
            MakeRequest(world_, todo[i]->hyps, todo[i]->options), defaults);
        if (!plan.ok()) {
          errors[t] = plan.status().ToString();
          return;
        }
        InspectOptions options = plan->options;
        options.num_shards = num_shards;
        options.pool = &pool_;
        options.hypothesis_cache = &hyp_cache_;
        options.behavior_store = nullptr;
        options.shared_scan = nullptr;
        out[i] = Digest(deepbase::Inspect(plan->models, *plan->dataset,
                                          plan->measures, plan->hypotheses,
                                          options));
      }
    };
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
    for (std::thread& t : threads) t.join();
    for (const std::string& e : errors) {
      if (!e.empty()) Fail("reference compile: " + e);
    }
    for (size_t i = 0; i < todo.size(); ++i) digests_[todo[i]->key] = out[i];
  }

  uint64_t digest(const std::string& key) const { return digests_.at(key); }

 private:
  static constexpr size_t kThreads = 4;

  const World& world_;
  deepbase::ThreadPool pool_;
  deepbase::HypothesisCache hyp_cache_;
  std::unique_ptr<deepbase::PrecomputedExtractor> extractor_;
  Catalog catalog_;
  std::map<std::string, uint64_t> digests_;
};

struct Check {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_problem;
};

void CheckWindow(const InspectOptions& defaults, const Window& win,
                 Reference* ref, Check* check) {
  std::vector<const Job*> ok_jobs;
  for (const Job& job : win.jobs) {
    ++check->attempted;
    if (job.ok) {
      ok_jobs.push_back(&job);
    } else {
      ++check->failed;
      if (check->first_problem.empty()) check->first_problem = job.error;
    }
  }
  ref->Compute(ok_jobs, defaults, win.reference_shards);
  for (const Job* job : ok_jobs) {
    if (ref->digest(job->key) == job->digest) continue;
    ++check->failed;
    ++check->mismatches;
    if (check->first_problem.empty()) {
      check->first_problem = "digest mismatch for a job of " +
                             std::to_string(job->hyps.size()) + " hypotheses";
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct EndToEnd {
  double jobs_per_s = 0;
  double p50 = 0;
  Tail tail;
  double cached_p50 = 0;
  size_t cached_samples = 0;
  double cpu_per_job = 0;
};

EndToEnd ComputeEndToEnd(const Window& win) {
  EndToEnd e;
  std::vector<double> engine;
  std::vector<double> cached;
  for (const Job& j : win.jobs) {
    if (!j.ok) continue;
    (j.engine_ran ? engine : cached).push_back(j.latency_s);
  }
  const double n = static_cast<double>(win.jobs.size());
  e.jobs_per_s = n / win.wall_s;
  e.p50 = Median(engine);
  e.tail = TailOf(engine);
  e.cached_p50 = Median(cached);
  e.cached_samples = cached.size();
  e.cpu_per_job = win.cpu_s / n;
  return e;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayer(const Shape& shape, const Window& win,
                             std::vector<std::string>* notes) {
  const double n = static_cast<double>(win.jobs.size());
  struct Agg {
    double calls = 0, wall = 0, cpu = 0, rows = 0;
  };
  std::map<std::string, Agg> by_name;
  std::map<uint64_t, std::vector<Span>> children;
  std::map<uint64_t, Span> job_spans;
  std::set<uint64_t> job_ids;
  for (const Job& j : win.jobs) job_ids.insert(j.span);
  for (const Span& s : win.spans) {
    Agg& a = by_name[s.name];
    a.calls += 1;
    a.wall += s.wall_s();
    a.cpu += s.cpu_s;
    a.rows += static_cast<double>(s.rows);
    if (job_ids.count(s.id)) job_spans[s.id] = s;
    const std::string name = s.name;
    if (s.job != 0 && (name.rfind("nn.", 0) == 0 || name.rfind("hypothesis.", 0) == 0 ||
                       name.rfind("measures.", 0) == 0)) {
      children[s.job].push_back(s);
    }
  }

  // Engine counters: local jobs report through RuntimeStats; serve_mix's
  // jobs run inside the server, whose session reports them per job.
  RuntimeStats sum;
  size_t engine_jobs = 0;
  if (shape.kind == Kind::kServeMix) {
    for (const RuntimeStats& s : win.server_stats) {
      sum.Accumulate(s);
      if (s.blocks_processed > 0) ++engine_jobs;
    }
  } else {
    for (const Job& j : win.jobs) {
      sum.Accumulate(j.stats);
      if (j.engine_ran) ++engine_jobs;
    }
  }
  const double ej = static_cast<double>(std::max<size_t>(engine_jobs, 1));

  double self_sum = 0;
  size_t self_n = 0;
  if (shape.kind != Kind::kServeMix) {
    // Only single-analyst workloads attribute lane and worker spans to a job.
    for (const auto& [id, span] : job_spans) {
      self_sum += SelfSeconds(span, children[id]);
      ++self_n;
    }
  }

  double session_overhead = 0;
  double queue_s = 0;
  double server_overhead = 0;
  double submit_s = 0;
  if (shape.kind == Kind::kServeMix) {
    for (double v : win.server_session_overhead_s) session_overhead += v;
    session_overhead = Ratio(session_overhead,
                             static_cast<double>(win.server_session_overhead_s.size()));
    for (const Job& j : win.jobs) {
      queue_s += j.summary.queue_s;
      server_overhead += j.latency_s - j.summary.total_s;
      submit_s += j.submit_s;
    }
    queue_s /= n;
    server_overhead /= n;
    submit_s /= n;
  } else {
    for (const Job& j : win.jobs) {
      if (j.engine_ran) session_overhead += j.latency_s - j.stats.total_s;
    }
    session_overhead /= ej;
  }

  const deepbase::SchedulerStats& sb = win.sched_before;
  const deepbase::SchedulerStats& sa = win.sched_after;
  const double rc_hits = static_cast<double>(sa.result_cache_hits - sb.result_cache_hits);
  const double rc_miss =
      static_cast<double>(sa.result_cache_misses - sb.result_cache_misses);
  const double followers =
      static_cast<double>(sa.dedup_followers - sb.dedup_followers);

  const bool is_cluster = shape.kind == Kind::kClusterSliced;
  const cluster::CoordinatorStats& cb = win.coord_before;
  const cluster::CoordinatorStats& ca = win.coord_after;
  const double sliced = static_cast<double>(ca.jobs_sliced - cb.jobs_sliced);
  const double dist_jobs =
      sliced + static_cast<double>(ca.jobs_whole - cb.jobs_whole) +
      static_cast<double>(ca.jobs_local_fallback - cb.jobs_local_fallback) +
      static_cast<double>(ca.jobs_degraded_local - cb.jobs_degraded_local);

  const Agg& nn = by_name["nn.extract"];
  const Agg& hyp = by_name["hypothesis.eval"];
  const Agg& pb = by_name["measures.process_block"];
  const double store_hits = static_cast<double>(
      sum.store_mem_hits + sum.store_disk_hits + sum.store_mmap_hits);
  const double hyp_store_hits =
      static_cast<double>(sum.store_hyp_mem_hits + sum.store_hyp_disk_hits);

  // Which layer's wrapped calls burned the most CPU (the workload-design
  // check: nn on inspect_corr, measures on inspect_logreg).
  const double merge_cpu = by_name["measures.merge"].cpu;
  const std::pair<double, const char*> layers[] = {
      {nn.cpu, "nn"}, {hyp.cpu, "hypothesis"}, {pb.cpu + merge_cpu, "measures"}};
  const auto* top = std::max_element(std::begin(layers), std::end(layers));
  notes->push_back(Fmt("child-span CPU per job: nn=%.4f s, hypothesis=%.4f s, "
                       "measures=%.4f s",
                       nn.cpu / n, hyp.cpu / n, (pb.cpu + merge_cpu) / n) +
                   "; largest: " + top->second);
  if (SpanRecorder::Global().dropped() > 0) {
    notes->push_back("spans dropped: " +
                     std::to_string(SpanRecorder::Global().dropped()));
  }

  return {
      {"nn.extract_calls", nn.calls / n, "calls/job"},
      {"nn.extract_wall_s", nn.wall / n, "s/job"},
      {"nn.extract_cpu_s", nn.cpu / n, "s/job"},
      {"hypothesis.eval_calls", hyp.calls / n, "calls/job"},
      {"hypothesis.eval_cpu_s", hyp.cpu / n, "s/job"},
      {"measures.process_block_calls", pb.calls / n, "calls/job"},
      {"measures.process_block_cpu_s", pb.cpu / n, "s/job"},
      {"measures.rows_per_cpu_s", Ratio(pb.rows, pb.cpu), "rows/s"},
      {"core.pipeline_self_s", Ratio(self_sum, static_cast<double>(self_n)), "s/job"},
      {"core.early_stop_ratio",
       Ratio(static_cast<double>(sum.blocks_processed),
             static_cast<double>(sum.blocks_total_planned)),
       "ratio"},
      {"core.merge_s", is_cluster ? 0 : sum.merge_s / ej, "s/job"},
      {"core.cpu_per_wall", win.cpu_s / win.wall_s, "ratio"},
      {"core.hyp_cache_hit_ratio",
       Ratio(static_cast<double>(sum.cache_hits),
             static_cast<double>(sum.cache_hits + sum.cache_misses)),
       "ratio"},
      {"core.store_hit_ratio",
       Ratio(store_hits, store_hits + static_cast<double>(sum.store_misses)), "ratio"},
      {"core.store_hyp_hit_ratio",
       Ratio(hyp_store_hits,
             hyp_store_hits + static_cast<double>(sum.store_hyp_misses)),
       "ratio"},
      {"core.scan_shared_ratio",
       Ratio(static_cast<double>(sum.scan_shared_hits),
             static_cast<double>(sum.scan_shared_hits + sum.scan_extractions)),
       "ratio"},
      {"service.session_overhead_s", session_overhead, "s/job"},
      {"service.queue_s", queue_s, "s/job"},
      {"service.result_cache_hit_ratio", Ratio(rc_hits, rc_hits + rc_miss), "ratio"},
      {"service.dedup_followers", followers / n, "count/job"},
      {"server.overhead_s", server_overhead, "s/job"},
      {"server.submit_call_s", submit_s, "s/job"},
      {"cluster.worker_hop_s", is_cluster ? sum.worker_hop_s / ej : 0, "s/job"},
      {"cluster.merge_s", is_cluster ? sum.merge_s / ej : 0, "s/job"},
      {"cluster.assignments_per_job",
       is_cluster ? static_cast<double>(ca.assignments_sent - cb.assignments_sent) / ej : 0,
       "count/job"},
      {"cluster.sliced_ratio", Ratio(sliced, dist_jobs), "ratio"},
  };
}

InspectOptions SessionDefaults(const World& world) {
  InspectOptions o;
  o.block_size = world.block_size();
  return o;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "inspect_corr", "inspect_logreg", "serve_mix", "cluster_sliced"};
  return names;
}

std::string HostLine() {
  auto spin = [](uint64_t iters) {
    volatile uint64_t x = 1;
    for (uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  };
  const uint64_t iters = 20'000'000;
  double secs[3] = {0, 0, 0};
  const size_t threads[3] = {1, 2, 4};
  for (int k = 0; k < 3; ++k) {
    const int64_t t0 = NowNs();
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads[k]; ++t) pool.emplace_back(spin, iters);
    for (std::thread& t : pool) t.join();
    secs[k] = static_cast<double>(NowNs() - t0) * 1e-9;
  }
  return "host: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         Fmt(" spin_s(1/2/4 threads)=%.3f/%.3f/%.3f", secs[0], secs[1], secs[2]) +
         Fmt(" effective_parallelism(2/4 threads)=%.2f/%.2f",
             2 * secs[0] / secs[1], 4 * secs[0] / secs[2]);
}

Report RunWorkload(const RunOptions& opts) {
  const Shape shape = ShapeFor(opts.workload, opts.smoke);
  Report report;
  std::filesystem::create_directories(opts.work_dir);

  // setup_s = training the model once (deterministic from the seed, so
  // the same work every time) + the median of three set-ups of everything
  // else; the last set-up serves. A traced run reports no setup_s: it sets
  // up once for its untraced window and once, with the wrappers, for its
  // traced one.
  int64_t t0 = NowNs();
  const deepbase::bench::SqlWorld trained =
      TrainSqlWorld(shape.n_queries, shape.hidden, opts.seed);
  const double train_s = static_cast<double>(NowNs() - t0) * 1e-9;
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  const int setups = opts.trace || opts.smoke ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    env.reset();
    t0 = NowNs();
    env = std::make_unique<Env>(trained, shape, opts, /*traced=*/false, i);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const InspectOptions defaults = SessionDefaults(env->world());
  const double setup_heap_mb = HeapInUseMb();

  // Untraced window: the end-to-end metrics (half the time in a traced
  // run, where it is the baseline of the tracing overhead).
  const double untraced_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  Window plain = Measure(*env, shape, opts, untraced_seconds);
  const EndToEnd e2e = ComputeEndToEnd(plain);

  std::optional<Window> traced;
  std::unique_ptr<Env> traced_env;
  if (opts.trace) {
    env.reset();
    traced_env = std::make_unique<Env>(trained, shape, opts, /*traced=*/true, setups);
    traced = Measure(*traced_env, shape, opts, opts.seconds / 2);
  }

  // Correctness: both windows against one reference.
  Reference ref(traced_env ? traced_env->world() : env->world());
  Check check;
  CheckWindow(defaults, plain, &ref, &check);
  if (traced) {
    CheckWindow(defaults, *traced, &ref, &check);
    // Same seed, same request stream: the traced and untraced windows
    // must agree on every request they both ran.
    std::map<std::string, uint64_t> plain_digests;
    for (const Job& j : plain.jobs) {
      if (j.ok) plain_digests[j.key] = j.digest;
    }
    size_t shared = 0;
    for (const Job& j : traced->jobs) {
      auto it = plain_digests.find(j.key);
      if (!j.ok || it == plain_digests.end()) continue;
      ++shared;
      if (it->second != j.digest) {
        ++check.mismatches;
        ++check.failed;
        if (check.first_problem.empty()) {
          check.first_problem = "traced and untraced digests differ";
        }
      }
    }
    report.notes.push_back("traced vs untraced: " + std::to_string(shared) +
                           " shared requests compared");
  }
  report.attempted = check.attempted;
  report.failed = check.failed;
  report.correct = check.failed == 0;
  report.notes.push_back("checked " + std::to_string(check.attempted) +
                         " tables against the bare engine (" +
                         std::to_string(plain.reference_shards) +
                         " shards): " + std::to_string(check.mismatches) +
                         " digest mismatches, " +
                         std::to_string(check.failed - check.mismatches) +
                         " failed jobs" +
                         (check.first_problem.empty() ? ""
                                                      : "; first: " + check.first_problem));
  RuntimeStats engine;
  for (const RuntimeStats& s : plain.server_stats) engine.Accumulate(s);
  for (const Job& j : plain.jobs) engine.Accumulate(j.stats);
  report.notes.push_back(
      Fmt("engine blocks processed/planned: %.0f/%.0f", engine.blocks_processed,
          engine.blocks_total_planned) +
      Fmt("; store unit hits mem/disk/mmap: %.0f/%.0f/%.0f", engine.store_mem_hits,
          engine.store_disk_hits, engine.store_mmap_hits) +
      Fmt(", hypothesis hits mem/disk: %.0f/%.0f", engine.store_hyp_mem_hits,
          engine.store_hyp_disk_hits));
  report.notes.push_back(
      Fmt("jobs: %.0f timed, %.0f cached-latency samples", plain.jobs.size(),
          e2e.cached_samples) +
      Fmt(", tail = p%.1f of %.0f engine jobs (%.0f beyond)", e2e.tail.percentile,
          e2e.tail.samples, e2e.tail.beyond) +
      (e2e.tail.defined ? "" : " [fewer than 11 samples: tail is the maximum]"));
  std::string setups_line = Fmt("set-up: model training %.3f s, set-ups", train_s);
  for (double s : setup_s) setups_line += Fmt(" %.3f", s);
  report.notes.push_back(setups_line + " s");
  report.notes.push_back(
      Fmt("cached latency p50 %.6f s; heap in use %.1f MiB after set-up, "
          "%.1f MiB after the window; peak RSS %.1f MiB",
          e2e.cached_p50, setup_heap_mb, plain.heap_mb, plain.rss_mb));

  const double ok_ratio =
      Ratio(static_cast<double>(check.attempted - check.failed),
            static_cast<double>(check.attempted));
  if (!opts.trace) {
    report.metrics = {
        {"setup_s", train_s + Median(setup_s), "s"},
        {"jobs_per_s", e2e.jobs_per_s, "1/s"},
        {"inspect_latency_p50_s", e2e.p50, "s"},
        {"inspect_latency_tail_s", e2e.tail.value, "s"},
        {"cpu_s_per_job", e2e.cpu_per_job, "s"},
        {"heap_mb", setup_heap_mb, "MiB"},
        {"ok_ratio", ok_ratio, "ratio"},
    };
    return report;
  }

  report.metrics = PerLayer(shape, *traced, &report.notes);
  const EndToEnd t = ComputeEndToEnd(*traced);
  report.metrics.push_back({"service.cached_latency_p50_s", t.cached_p50, "s"});
  auto pct = [](double traced_v, double plain_v) {
    return plain_v > 0 ? 100.0 * (traced_v - plain_v) / plain_v : 0.0;
  };
  report.notes.push_back(
      Fmt("tracing overhead (traced vs untraced window): jobs_per_s %+.1f%%, "
          "inspect_latency_p50_s %+.1f%%, cpu_s_per_job %+.1f%%",
          pct(t.jobs_per_s, e2e.jobs_per_s), pct(t.p50, e2e.p50),
          pct(t.cpu_per_job, e2e.cpu_per_job)) +
      Fmt(", cached_latency_p50_s %+.1f%%", pct(t.cached_p50, e2e.cached_p50)));
  const std::string spans_path =
      (std::filesystem::path(opts.work_dir) / ("spans-" + opts.workload + ".tsv"))
          .string();
  if (SpanRecorder::WriteTsv(traced->spans, spans_path)) {
    report.notes.push_back("spans: " + std::to_string(traced->spans.size()) +
                           " written to " + spans_path);
  }
  return report;
}

}  // namespace perfbench
