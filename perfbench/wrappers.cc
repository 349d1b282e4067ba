#include "wrappers.h"

#include "spans.h"

namespace perfbench {

namespace {

using deepbase::Matrix;
using deepbase::Measure;
using deepbase::MeasureScores;
using deepbase::MergedMeasure;

class TracedMeasure : public Measure {
 public:
  explicit TracedMeasure(std::unique_ptr<Measure> inner)
      : inner_(std::move(inner)) {}

  void BeginBlock(uint64_t serial) override { inner_->BeginBlock(serial); }
  void ProcessBlock(const Matrix& units, std::span<const float> hyp) override {
    ScopedSpan span("measures.process_block");
    span.set_rows(units.rows());
    inner_->ProcessBlock(units, hyp);
  }
  MeasureScores Scores() const override { return inner_->Scores(); }
  double ErrorEstimate() const override { return inner_->ErrorEstimate(); }
  bool SupportsConvergence() const override {
    return inner_->SupportsConvergence();
  }
  deepbase::MergeExactness merge_exactness() const override {
    return inner_->merge_exactness();
  }
  std::unique_ptr<Measure> CloneState() const override {
    std::unique_ptr<Measure> clone = inner_->CloneState();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TracedMeasure>(std::move(clone));
  }
  void MergeFrom(const Measure& other) override {
    // Replicas come from CloneState, so the peer is a wrapper too: merge
    // the wrapped states, which is what the inner type expects.
    ScopedSpan span("measures.merge");
    inner_->MergeFrom(*deepbase::measure_internal::MergePeer<TracedMeasure>(other)
                           .inner_);
  }
  bool SerializeState(deepbase::codec::Writer* w) const override {
    return inner_->SerializeState(w);
  }
  bool DeserializeState(deepbase::codec::Reader* r) override {
    return inner_->DeserializeState(r);
  }

 private:
  std::unique_ptr<Measure> inner_;
};

class TracedMergedMeasure : public MergedMeasure {
 public:
  explicit TracedMergedMeasure(std::unique_ptr<MergedMeasure> inner)
      : inner_(std::move(inner)) {}

  void ProcessBlock(const Matrix& units, const Matrix& hyps) override {
    ScopedSpan span("measures.process_block");
    span.set_rows(units.rows());
    inner_->ProcessBlock(units, hyps);
  }
  MeasureScores ScoresFor(size_t hyp_index) const override {
    return inner_->ScoresFor(hyp_index);
  }
  double ErrorEstimate(size_t hyp_index) const override {
    return inner_->ErrorEstimate(hyp_index);
  }

 private:
  std::unique_ptr<MergedMeasure> inner_;
};

}  // namespace

deepbase::Matrix TracedExtractor::ExtractRecord(
    const deepbase::Record& rec, const std::vector<int>& unit_ids) const {
  ScopedSpan span("nn.extract");
  span.set_rows(rec.size());
  return inner_->ExtractRecord(rec, unit_ids);
}

deepbase::Matrix TracedExtractor::ExtractBlock(
    const deepbase::Dataset& dataset, const std::vector<size_t>& record_idx,
    const std::vector<int>& unit_ids) const {
  ScopedSpan span("nn.extract");
  span.set_rows(record_idx.size() * dataset.ns());
  return inner_->ExtractBlock(dataset, record_idx, unit_ids);
}

std::vector<float> TracedHypothesis::Eval(const deepbase::Record& rec) const {
  ScopedSpan span("hypothesis.eval");
  span.set_rows(rec.size());
  return inner_->Eval(rec);
}

std::unique_ptr<deepbase::Measure> TracedMeasureFactory::Create(
    size_t num_units, int num_classes) const {
  std::unique_ptr<Measure> inner = inner_->Create(num_units, num_classes);
  if (inner == nullptr) return nullptr;
  return std::make_unique<TracedMeasure>(std::move(inner));
}

std::unique_ptr<deepbase::MergedMeasure> TracedMeasureFactory::CreateMerged(
    size_t num_units, size_t num_hyps) const {
  std::unique_ptr<MergedMeasure> inner = inner_->CreateMerged(num_units, num_hyps);
  if (inner == nullptr) return nullptr;
  return std::make_unique<TracedMergedMeasure>(std::move(inner));
}

std::vector<deepbase::HypothesisPtr> WrapHypotheses(
    const std::vector<deepbase::HypothesisPtr>& hyps) {
  std::vector<deepbase::HypothesisPtr> out;
  out.reserve(hyps.size());
  for (const deepbase::HypothesisPtr& h : hyps) {
    out.push_back(std::make_shared<TracedHypothesis>(h));
  }
  return out;
}

}  // namespace perfbench
