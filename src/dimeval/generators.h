#ifndef DIMQR_DIMEVAL_GENERATORS_H_
#define DIMQR_DIMEVAL_GENERATORS_H_

#include <memory>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "dimeval/task.h"
#include "kb/kb.h"
#include "kg/triple_store.h"

/// \file generators.h
/// Heuristic rule-based dataset generators for the DimEval tasks
/// (Section IV-C: "the remaining five tasks can be constructed ... through
/// the heuristic rule-based methods with DimKS"). Dimension prediction
/// consumes bootstrapped triples (Algorithm 2); quantity extraction
/// consumes Algorithm 1 output — both are produced elsewhere and converted
/// here.
///
/// Every instance carries a rule/template-generated chain-of-thought
/// `reasoning` (Section IV-D) kept deliberately short so the micro
/// transformer can learn it.

namespace dimqr::dimeval {

/// \brief Generator knobs.
struct GeneratorOptions {
  int num_choices = 4;  ///< m in the paper's task definitions.
  std::uint64_t seed = 20240131;
  /// Units rarer than this frequency are never sampled (keeps prompts
  /// within the learnable vocabulary).
  double min_unit_frequency = 0.25;
  /// Hard cap on the sampling pool: only the `max_pool_size` most frequent
  /// units are used (0 = unlimited). Keeps the unit inventory small enough
  /// for a micro model to memorize.
  std::size_t max_pool_size = 320;
  /// When false, compound units (km/h, g/cm3) are excluded from the
  /// sampling pool — their dimensions require composition rather than
  /// recall, which the micro model cannot reliably learn. Seed and
  /// prefix-expanded units keep systematic label structure
  /// ("kilometre"/"millimetre" share a dimension).
  bool include_compound_units = false;
};

/// \brief Generates multiple-choice DimEval instances from DimUnitKB.
class TaskGenerator {
 public:
  TaskGenerator(std::shared_ptr<const kb::DimUnitKB> kb,
                GeneratorOptions options = {});

  /// Definition 3: pick the unit that measures a given quantity kind.
  dimqr::Result<std::vector<TaskInstance>> QuantityKindMatch(int n) const;

  /// Definition 4: pick the unit comparable with (same dimension as) a
  /// given unit.
  dimqr::Result<std::vector<TaskInstance>> ComparableAnalysis(int n) const;

  /// Definition 6: pick the unit whose dimension equals dim(u1 op u2).
  dimqr::Result<std::vector<TaskInstance>> DimensionArithmetic(int n) const;

  /// Definition 7: pick the unit with the largest magnitude among four
  /// same-dimension units.
  dimqr::Result<std::vector<TaskInstance>> MagnitudeComparison(int n) const;

  /// Definition 8: pick the factor beta with u1 * beta = u2.
  dimqr::Result<std::vector<TaskInstance>> UnitConversion(int n) const;

  /// Definition 5: [MASK]ed quantity in a realized sentence; pick the unit
  /// whose dimension fits the context. `triples` come from Algorithm 2.
  dimqr::Result<std::vector<TaskInstance>> DimensionPrediction(
      const std::vector<kg::Triple>& triples, int n) const;

  const kb::DimUnitKB& knowledge_base() const { return *kb_; }

 private:
  /// A frequency-weighted random unit among those above the frequency
  /// floor, optionally constrained/excluded by dimension.
  const kb::UnitRecord* SampleUnit(dimqr::Rng& rng) const;
  const kb::UnitRecord* SampleUnitOfDimension(const dimqr::Dimension& dim,
                                              dimqr::Rng& rng,
                                              const kb::UnitRecord* exclude =
                                                  nullptr) const;
  const kb::UnitRecord* SampleUnitNotOfDimension(const dimqr::Dimension& dim,
                                                 dimqr::Rng& rng) const;

  std::shared_ptr<const kb::DimUnitKB> kb_;
  GeneratorOptions options_;
  std::vector<const kb::UnitRecord*> pool_;      ///< Units above the floor.
  /// Running sums of the pool's frequencies (Rng::WeightedIndex's table).
  std::vector<double> pool_sums_;
};

}  // namespace dimqr::dimeval

#endif  // DIMQR_DIMEVAL_GENERATORS_H_
