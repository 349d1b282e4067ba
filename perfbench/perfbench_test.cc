// Tests of the benchmark itself: span self time, the tail rule, wrapper
// transparency, and a smoke-size run of every workload.
//
//   python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/engine.h"
#include "core/extractors.h"
#include "core/catalog.h"
#include "spans.h"
#include "util/thread_pool.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {
namespace {

Span MakeSpan(int64_t start, int64_t end) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfSecondsTest, NoChildrenIsTheWholeSpan) {
  EXPECT_DOUBLE_EQ(SelfSeconds(MakeSpan(0, 1'000'000'000), {}), 1.0);
}

TEST(SelfSecondsTest, DisjointChildrenAreSubtracted) {
  const Span parent = MakeSpan(0, 1000);
  const std::vector<Span> kids = {MakeSpan(100, 200), MakeSpan(500, 800)};
  EXPECT_NEAR(SelfSeconds(parent, kids), 600e-9, 1e-15);
}

TEST(SelfSecondsTest, OverlappingLanesCountOnce) {
  // Four lanes running the same interval, plus one nested inside another:
  // the union is [100, 600), not the sum of the durations.
  const Span parent = MakeSpan(0, 1000);
  const std::vector<Span> kids = {MakeSpan(100, 500), MakeSpan(100, 500),
                                  MakeSpan(200, 600), MakeSpan(300, 400),
                                  MakeSpan(100, 500)};
  EXPECT_NEAR(SelfSeconds(parent, kids), 500e-9, 1e-15);
}

TEST(SelfSecondsTest, ChildrenAreClippedToTheParent) {
  const Span parent = MakeSpan(100, 200);
  const std::vector<Span> kids = {MakeSpan(0, 150), MakeSpan(180, 400),
                                  MakeSpan(300, 500)};
  EXPECT_NEAR(SelfSeconds(parent, kids), 30e-9, 1e-15);
}

TEST(TailTest, HighestPercentileWithTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 25; ++i) samples.push_back(i);
  const Tail tail = TailOf(samples);
  ASSERT_TRUE(tail.defined);
  EXPECT_EQ(tail.value, 15);  // ten samples (16..25) lie beyond it
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 25u);
  EXPECT_DOUBLE_EQ(tail.percentile, 60.0);

  samples.clear();
  for (int i = 1000; i >= 1; --i) samples.push_back(i);  // order-independent
  const Tail big = TailOf(samples);
  EXPECT_EQ(big.value, 990);
  EXPECT_DOUBLE_EQ(big.percentile, 99.0);
}

TEST(TailTest, TooFewSamplesFallsBackToTheMaximum) {
  const Tail exact = TailOf({5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11});
  ASSERT_TRUE(exact.defined);
  EXPECT_EQ(exact.value, 1);
  const Tail tail = TailOf({3, 1, 2});
  EXPECT_FALSE(tail.defined);
  EXPECT_EQ(tail.value, 3);
  EXPECT_EQ(TailOf({}).samples, 0u);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

// Wrapped objects must leave every score bit-identical: sharded Pearson
// (CloneState/MergeFrom through the wrappers) and model-merged logreg
// (CreateMerged), with span recording on.
TEST(WrapperTest, WrappedRunEqualsUnwrappedRunBitForBit) {
  deepbase::bench::SqlWorld world = deepbase::bench::BuildSqlWorld(
      /*level=*/3, /*n_queries=*/64, /*ns=*/48, /*hidden=*/8, /*layers=*/2,
      /*epochs=*/1, /*seed=*/5);
  deepbase::LstmLmExtractor extractor("lm", world.model.get());
  const std::vector<deepbase::HypothesisPtr> hyps =
      deepbase::bench::SqlHypotheses(&world.grammar, 10);
  deepbase::ThreadPool pool(3);

  for (const char* measure : {"pearson", "logreg_l1"}) {
    deepbase::MeasureFactoryPtr factory =
        *deepbase::Catalog().GetMeasure(measure);
    deepbase::InspectOptions options;
    options.block_size = 8;
    options.num_shards = 3;
    options.pool = &pool;

    const deepbase::ResultTable plain = deepbase::Inspect(
        {deepbase::AllUnitsGroup(&extractor)}, world.dataset, {factory}, hyps,
        options);

    TracedExtractor traced_extractor(&extractor);
    SpanRecorder::Global().SetEnabled(true);
    const deepbase::ResultTable wrapped = deepbase::Inspect(
        {deepbase::AllUnitsGroup(&traced_extractor)}, world.dataset,
        {std::make_shared<TracedMeasureFactory>(factory)}, WrapHypotheses(hyps),
        options);
    SpanRecorder::Global().SetEnabled(false);
    const std::vector<Span> spans = SpanRecorder::Global().Take();

    EXPECT_GT(plain.size(), 0u) << measure;
    EXPECT_EQ(plain.SerializeToString(), wrapped.SerializeToString()) << measure;
    size_t extract = 0, blocks = 0;
    for (const Span& s : spans) {
      extract += std::string(s.name) == "nn.extract";
      blocks += std::string(s.name) == "measures.process_block";
    }
    EXPECT_GT(extract, 0u) << measure;
    EXPECT_GT(blocks, 0u) << measure;
  }
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, UntracedAndTracedRunsAreCorrect) {
  const std::string work = "perfbench_test_work";
  for (bool trace : {false, true}) {
    RunOptions opts;
    opts.workload = GetParam();
    opts.seed = 3;
    opts.seconds = 0.2;
    opts.trace = trace;
    opts.smoke = true;
    opts.work_dir = work;
    const Report report = RunWorkload(opts);
    EXPECT_TRUE(report.correct) << GetParam() << " trace=" << trace;
    EXPECT_EQ(report.failed, 0u);
    EXPECT_GT(report.attempted, 0u);
    EXPECT_EQ(report.metrics.size(), trace ? 27u : 7u);
    for (const Metric& m : report.metrics) {
      EXPECT_GE(m.value, 0) << m.name;
    }
  }
  std::filesystem::remove_all(work);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SmokeTest,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
