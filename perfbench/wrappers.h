// Delegating wrappers registered in the catalog in place of the real
// extractor, hypothesis functions and measure factories, so a traced run
// can time the nn, hypothesis and measures layers from outside. Each
// wrapper keeps the wrapped object's name and forwards every virtual; a
// wrapped run must produce the same table as an unwrapped one, bit for
// bit (checked by perfbench_test).

#pragma once

#include <memory>
#include <vector>

#include "core/extractor.h"
#include "hypothesis/hypothesis.h"
#include "measures/measure.h"

namespace perfbench {

class TracedExtractor : public deepbase::Extractor {
 public:
  /// `inner` is not owned and must outlive the wrapper.
  explicit TracedExtractor(const deepbase::Extractor* inner)
      : Extractor(inner->model_id()), inner_(inner) {}

  size_t num_units() const override { return inner_->num_units(); }
  deepbase::Matrix ExtractRecord(const deepbase::Record& rec,
                                 const std::vector<int>& unit_ids) const override;
  deepbase::Matrix ExtractBlock(const deepbase::Dataset& dataset,
                                const std::vector<size_t>& record_idx,
                                const std::vector<int>& unit_ids) const override;

 private:
  const deepbase::Extractor* inner_;
};

class TracedHypothesis : public deepbase::HypothesisFn {
 public:
  explicit TracedHypothesis(deepbase::HypothesisPtr inner)
      : HypothesisFn(inner->name()), inner_(std::move(inner)) {}

  std::vector<float> Eval(const deepbase::Record& rec) const override;
  int num_classes() const override { return inner_->num_classes(); }

 private:
  deepbase::HypothesisPtr inner_;
};

class TracedMeasureFactory : public deepbase::MeasureFactory {
 public:
  explicit TracedMeasureFactory(deepbase::MeasureFactoryPtr inner)
      : MeasureFactory(inner->name()), inner_(std::move(inner)) {}

  bool is_joint() const override { return inner_->is_joint(); }
  bool mergeable() const override { return inner_->mergeable(); }
  std::unique_ptr<deepbase::Measure> Create(size_t num_units,
                                            int num_classes) const override;
  std::unique_ptr<deepbase::MergedMeasure> CreateMerged(
      size_t num_units, size_t num_hyps) const override;

 private:
  deepbase::MeasureFactoryPtr inner_;
};

/// Wrap every element of a hypothesis list.
std::vector<deepbase::HypothesisPtr> WrapHypotheses(
    const std::vector<deepbase::HypothesisPtr>& hyps);

}  // namespace perfbench
