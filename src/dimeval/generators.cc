#include "dimeval/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>

#include "core/parallel.h"
#include "kg/realizer.h"
#include "lm/mock_llm.h"
#include "text/string_util.h"

namespace dimqr::dimeval {
namespace {

using dimqr::Result;
using dimqr::Rng;
using dimqr::Status;

constexpr char kLetters[] = {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'};

std::string FormatFactor(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

/// Lowercased formula string for reasoning text ("l3t-1").
std::string DimWord(const dimqr::Dimension& dim) {
  return text::ToLowerAscii(dim.ToFormula());
}

/// Renders the choice block "| a: x | b: y | ...".
std::string RenderChoices(const std::vector<std::string>& choices) {
  std::string out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    out += " | ";
    out += kLetters[i];
    out += ": ";
    out += choices[i];
  }
  return out;
}

/// Reasoning suffix enumerating each choice's dimension word:
/// " | a l | b m | c t | d d". Decomposes the relational task into
/// per-unit dimension recall plus token matching (Section IV-D's CoT).
std::string ChoiceDimReasoning(const std::vector<std::string>& choices,
                               const kb::DimUnitKB& kb) {
  std::string out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    std::span<const UnitId> units = kb.FindBySurface(choices[i]);
    out += " | ";
    out += kLetters[i];
    out += ' ';
    // Name-then-dimension: the model re-reads the choice (induction
    // copying from the prompt) and completes it with the recalled
    // dimension, the same local pattern as the knowledge pairs
    // ("<unit> is <dim>").
    out += text::ToLowerAscii(choices[i]);
    out += " is ";
    out += units.empty() ? "?" : DimWord(kb.Get(units.front()).dimension);
  }
  return out;
}

/// Rounded base-10 exponent token of a unit's conversion scale ("e3",
/// "e-2"); the scale-perception analogue of the dimension word.
std::string ScaleWord(const kb::UnitRecord& unit) {
  int k = static_cast<int>(std::lround(std::log10(unit.conversion_value)));
  return "e" + std::to_string(k);
}

/// \brief Fills `n` task instances in parallel, one RNG stream per slot.
///
/// Slot `i` draws from `Rng::ForStream(task_seed, i)` and retries rejected
/// samples within its own stream (up to `max_attempts`), so every instance
/// is a pure function of (task_seed, slot index) — independent of thread
/// count, chunking, and all other slots.
Result<std::vector<TaskInstance>> GenerateSlots(
    int n, std::uint64_t task_seed, int max_attempts,
    const std::function<bool(Rng&, std::size_t, TaskInstance&)>& attempt,
    const char* what) {
  std::vector<TaskInstance> out(static_cast<std::size_t>(n));
  // Exhausted slots are recorded, not failed mid-loop: every slot runs, so
  // the error (if any) reports exactly how many instances were lost rather
  // than aborting at the first casualty with no count.
  std::vector<std::uint8_t> exhausted(static_cast<std::size_t>(n), 0);
  Status st = ParallelFor(
      n, [&](std::int64_t begin, std::int64_t end, int) -> Status {
        for (std::int64_t i = begin; i < end; ++i) {
          const auto slot = static_cast<std::size_t>(i);
          Rng rng = Rng::ForStream(task_seed, slot);
          bool filled = false;
          for (int a = 0; a < max_attempts && !filled; ++a) {
            filled = attempt(rng, slot, out[slot]);
          }
          if (!filled) exhausted[slot] = 1;
        }
        return Status::OK();
      });
  DIMQR_RETURN_NOT_OK(st);
  int lost = 0;
  for (std::uint8_t e : exhausted) lost += e;
  if (lost > 0) {
    std::fprintf(stderr,
                 "dimqr: %s generator: %d of %d slots exhausted the "
                 "sampling retry budget (max_attempts=%d)\n",
                 what, lost, n, max_attempts);
    return Status::Internal(std::string("could not generate enough ") +
                            what + ": " + std::to_string(lost) + " of " +
                            std::to_string(n) +
                            " slots exhausted the sampling retry budget");
  }
  return out;
}

/// Shuffles choices, returning the new gold index.
int PlaceGold(std::vector<std::string>& choices, std::size_t gold_at,
              Rng& rng) {
  std::vector<std::size_t> order(choices.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<std::string> shuffled(choices.size());
  int gold_index = -1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    shuffled[i] = choices[order[i]];
    if (order[i] == gold_at) gold_index = static_cast<int>(i);
  }
  choices = std::move(shuffled);
  return gold_index;
}

}  // namespace

TaskGenerator::TaskGenerator(std::shared_ptr<const kb::DimUnitKB> kb,
                             GeneratorOptions options)
    : kb_(std::move(kb)), options_(options) {
  for (UnitId uid : kb_->UnitsByFrequency()) {
    const kb::UnitRecord& unit = kb_->Get(uid);
    if (unit.frequency < options_.min_unit_frequency) break;
    if (options_.max_pool_size != 0 &&
        pool_.size() >= options_.max_pool_size) {
      break;
    }
    if (!options_.include_compound_units &&
        unit.origin == kb::UnitOrigin::kCompound) {
      continue;
    }
    pool_.push_back(&unit);
    pool_sums_.push_back(
        (pool_sums_.empty() ? 0.0 : pool_sums_.back()) + unit.frequency);
  }
}

const kb::UnitRecord* TaskGenerator::SampleUnit(Rng& rng) const {
  return pool_[rng.WeightedIndex(pool_sums_)];
}

const kb::UnitRecord* TaskGenerator::SampleUnitOfDimension(
    const dimqr::Dimension& dim, Rng& rng,
    const kb::UnitRecord* exclude) const {
  std::vector<const kb::UnitRecord*> candidates;
  std::vector<double> sums;
  double total = 0.0;
  for (const kb::UnitRecord* unit : pool_) {
    if (unit->dimension == dim && unit != exclude) {
      candidates.push_back(unit);
      total += unit->frequency;
      sums.push_back(total);
    }
  }
  if (candidates.empty()) return nullptr;
  return candidates[rng.WeightedIndex(sums)];
}

const kb::UnitRecord* TaskGenerator::SampleUnitNotOfDimension(
    const dimqr::Dimension& dim, Rng& rng) const {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const kb::UnitRecord* u = SampleUnit(rng);
    if (u->dimension != dim) return u;
  }
  return nullptr;
}

Result<std::vector<TaskInstance>> TaskGenerator::QuantityKindMatch(
    int n) const {
  std::uint64_t task_seed =
      Rng::DeriveSeed(options_.seed, "quantitykind_match");
  return GenerateSlots(
      n, task_seed, /*max_attempts=*/50,
      [&](Rng& rng, std::size_t slot, TaskInstance& inst) {
        const kb::UnitRecord* gold = SampleUnit(rng);
        // Distractors must be of other dimensions so the kind uniquely
        // selects the gold choice.
        std::vector<std::string> choices = {std::string(gold->label_en)};
        std::set<std::uint64_t> dims = {gold->dimension.PackedKey()};
        while (choices.size() <
               static_cast<std::size_t>(options_.num_choices)) {
          const kb::UnitRecord* d =
              SampleUnitNotOfDimension(gold->dimension, rng);
          if (d == nullptr) return false;
          if (!dims.insert(d->dimension.PackedKey()).second) continue;
          choices.emplace_back(d->label_en);
        }
        inst.task = lm::tasks::kQuantityKindMatch;
        int gold_index = PlaceGold(choices, 0, rng);
        inst.choices = choices;
        inst.gold_index = gold_index;
        inst.prompt = "task: kindmatch | kind: " +
                      text::ToLowerAscii(gold->quantity_kind) +
                      RenderChoices(choices);
        inst.reasoning = text::ToLowerAscii(gold->quantity_kind) + " is " +
                         DimWord(gold->dimension) +
                         ChoiceDimReasoning(choices, *kb_);
        inst.instance_seed =
            Rng::DeriveSeed(options_.seed, "qk" + std::to_string(slot));
        return true;
      },
      "kind-match instances");
}

Result<std::vector<TaskInstance>> TaskGenerator::ComparableAnalysis(
    int n) const {
  std::uint64_t task_seed =
      Rng::DeriveSeed(options_.seed, "comparable_analysis");
  return GenerateSlots(
      n, task_seed, /*max_attempts=*/50,
      [&](Rng& rng, std::size_t slot, TaskInstance& inst) {
        const kb::UnitRecord* probe = SampleUnit(rng);
        const kb::UnitRecord* gold =
            SampleUnitOfDimension(probe->dimension, rng, probe);
        if (gold == nullptr) return false;
        std::vector<std::string> choices = {std::string(gold->label_en)};
        std::set<std::string> used = {std::string(gold->label_en),
                                      std::string(probe->label_en)};
        while (choices.size() <
               static_cast<std::size_t>(options_.num_choices)) {
          const kb::UnitRecord* d =
              SampleUnitNotOfDimension(probe->dimension, rng);
          if (d == nullptr) return false;
          if (!used.insert(std::string(d->label_en)).second) continue;
          choices.emplace_back(d->label_en);
        }
        inst.task = lm::tasks::kComparableAnalysis;
        int gold_index = PlaceGold(choices, 0, rng);
        inst.choices = choices;
        inst.gold_index = gold_index;
        inst.prompt = "task: comparable | unit: " +
                      text::ToLowerAscii(probe->label_en) +
                      RenderChoices(choices);
        inst.reasoning = text::ToLowerAscii(probe->label_en) + " is " +
                         DimWord(probe->dimension) +
                         ChoiceDimReasoning(choices, *kb_);
        inst.instance_seed =
            Rng::DeriveSeed(options_.seed, "ca" + std::to_string(slot));
        return true;
      },
      "comparable instances");
}

Result<std::vector<TaskInstance>> TaskGenerator::DimensionArithmetic(
    int n) const {
  std::uint64_t task_seed =
      Rng::DeriveSeed(options_.seed, "dimension_arithmetic");
  return GenerateSlots(
      n, task_seed, /*max_attempts=*/50,
      [&](Rng& rng, std::size_t slot, TaskInstance& inst) {
        const kb::UnitRecord* u1 = SampleUnit(rng);
        const kb::UnitRecord* u2 = SampleUnit(rng);
        bool multiply = rng.Bernoulli(0.5);
        Result<dimqr::Dimension> dim_result =
            multiply ? u1->dimension.Times(u2->dimension)
                     : u1->dimension.Over(u2->dimension);
        if (!dim_result.ok()) return false;
        dimqr::Dimension target = *dim_result;
        const kb::UnitRecord* gold = SampleUnitOfDimension(target, rng);
        if (gold == nullptr) return false;
        std::vector<std::string> choices = {std::string(gold->label_en)};
        std::set<std::uint64_t> dims = {target.PackedKey()};
        while (choices.size() <
               static_cast<std::size_t>(options_.num_choices)) {
          const kb::UnitRecord* d = SampleUnitNotOfDimension(target, rng);
          if (d == nullptr) return false;
          if (!dims.insert(d->dimension.PackedKey()).second) continue;
          choices.emplace_back(d->label_en);
        }
        inst.task = lm::tasks::kDimensionArithmetic;
        int gold_index = PlaceGold(choices, 0, rng);
        inst.choices = choices;
        inst.gold_index = gold_index;
        const char* op = multiply ? "*" : "/";
        inst.prompt = "task: dimarith | expr: " +
                      text::ToLowerAscii(u1->label_en) + " " + op + " " +
                      text::ToLowerAscii(u2->label_en) +
                      RenderChoices(choices);
        inst.reasoning = DimWord(u1->dimension) + " " + op + " " +
                         DimWord(u2->dimension) + " = " + DimWord(target) +
                         ChoiceDimReasoning(choices, *kb_);
        inst.instance_seed =
            Rng::DeriveSeed(options_.seed, "da" + std::to_string(slot));
        return true;
      },
      "arithmetic instances");
}

Result<std::vector<TaskInstance>> TaskGenerator::MagnitudeComparison(
    int n) const {
  std::uint64_t task_seed =
      Rng::DeriveSeed(options_.seed, "magnitude_comparison");
  return GenerateSlots(
      n, task_seed, /*max_attempts=*/50,
      [&](Rng& rng, std::size_t slot, TaskInstance& inst) {
        const kb::UnitRecord* anchor = SampleUnit(rng);
        if (anchor->conversion_offset != 0.0) return false;  // affine excluded
        // Collect num_choices distinct-magnitude units of one dimension.
        std::vector<const kb::UnitRecord*> units = {anchor};
        std::set<std::string> used = {std::string(anchor->label_en)};
        int attempts = 0;
        while (units.size() < static_cast<std::size_t>(options_.num_choices) &&
               attempts++ < 200) {
          const kb::UnitRecord* u =
              SampleUnitOfDimension(anchor->dimension, rng, nullptr);
          if (u == nullptr) break;
          if (u->conversion_offset != 0.0) continue;
          if (!used.insert(std::string(u->label_en)).second) continue;
          bool distinct = true;
          for (const kb::UnitRecord* v : units) {
            double ratio = u->conversion_value / v->conversion_value;
            if (ratio > 0.999 && ratio < 1.001) {
              distinct = false;
              break;
            }
          }
          if (distinct) units.push_back(u);
        }
        if (units.size() < static_cast<std::size_t>(options_.num_choices)) {
          return false;
        }
        std::size_t gold_at = 0;
        for (std::size_t i = 1; i < units.size(); ++i) {
          if (units[i]->conversion_value > units[gold_at]->conversion_value) {
            gold_at = i;
          }
        }
        std::vector<std::string> choices;
        choices.reserve(units.size());
        for (const kb::UnitRecord* u : units) {
          choices.emplace_back(u->label_en);
        }
        inst.task = lm::tasks::kMagnitudeComparison;
        int gold_index = PlaceGold(choices, gold_at, rng);
        inst.choices = choices;
        inst.gold_index = gold_index;
        inst.prompt = "task: magnitude | pick the largest unit" +
                      RenderChoices(choices);
        {
          // Enumerate per-choice scale exponents in shuffled choice order.
          std::string reasoning = "scales";
          for (std::size_t ci = 0; ci < inst.choices.size(); ++ci) {
            for (const kb::UnitRecord* u : units) {
              if (u->label_en == inst.choices[ci]) {
                reasoning += std::string(" | ") + kLetters[ci] + ' ' +
                             ScaleWord(*u);
                break;
              }
            }
          }
          inst.reasoning = reasoning;
        }
        inst.instance_seed =
            Rng::DeriveSeed(options_.seed, "mc" + std::to_string(slot));
        return true;
      },
      "magnitude instances");
}

Result<std::vector<TaskInstance>> TaskGenerator::UnitConversion(int n) const {
  std::uint64_t task_seed = Rng::DeriveSeed(options_.seed, "unit_conversion");
  return GenerateSlots(
      n, task_seed, /*max_attempts=*/50,
      [&](Rng& rng, std::size_t slot, TaskInstance& inst) {
        const kb::UnitRecord* from = SampleUnit(rng);
        if (from->conversion_offset != 0.0) return false;
        const kb::UnitRecord* to =
            SampleUnitOfDimension(from->dimension, rng, from);
        if (to == nullptr || to->conversion_offset != 0.0) return false;
        Result<double> factor_result =
            from->Semantics().ConversionFactorTo(to->Semantics());
        if (!factor_result.ok()) return false;
        double factor = *factor_result;
        if (!std::isfinite(factor) || factor == 0.0) return false;
        // Distractors: inverse, off-by-10^k, halved — classic confusions.
        std::string gold_text = FormatFactor(factor);
        std::vector<std::string> choices = {gold_text};
        std::vector<double> distractor_pool = {
            1.0 / factor, factor * 10.0, factor / 10.0, factor * 1000.0,
            factor / 1000.0, factor * 2.0, factor / 2.0};
        std::set<std::string> used = {gold_text};
        std::size_t next = 0;
        // Deterministic-but-varied distractor subset.
        rng.Shuffle(distractor_pool);
        while (choices.size() <
                   static_cast<std::size_t>(options_.num_choices) &&
               next < distractor_pool.size()) {
          std::string text_form = FormatFactor(distractor_pool[next++]);
          if (used.insert(text_form).second) choices.push_back(text_form);
        }
        if (choices.size() < static_cast<std::size_t>(options_.num_choices)) {
          return false;
        }
        inst.task = lm::tasks::kUnitConversion;
        int gold_index = PlaceGold(choices, 0, rng);
        inst.choices = choices;
        inst.gold_index = gold_index;
        inst.prompt = "task: convert | 1 " +
                      text::ToLowerAscii(from->label_en) + " = ? " +
                      text::ToLowerAscii(to->label_en) +
                      RenderChoices(choices);
        inst.reasoning = "1 " + text::ToLowerAscii(from->label_en) + " = " +
                         gold_text + " " + text::ToLowerAscii(to->label_en);
        inst.instance_seed =
            Rng::DeriveSeed(options_.seed, "uc" + std::to_string(slot));
        return true;
      },
      "conversion instances");
}

Result<std::vector<TaskInstance>> TaskGenerator::DimensionPrediction(
    const std::vector<kg::Triple>& triples, int n) const {
  if (triples.empty()) {
    return Status::InvalidArgument(
        "dimension prediction needs bootstrapped triples");
  }
  std::uint64_t task_seed =
      Rng::DeriveSeed(options_.seed, "dimension_prediction");
  return GenerateSlots(
      n, task_seed, /*max_attempts=*/80,
      [&](Rng& rng, std::size_t slot, TaskInstance& inst) {
        const kg::Triple& triple = triples[rng.Index(triples.size())];
        // The realization seed is drawn from the slot's own stream so the
        // sentence's surface form varies per instance (and per retry).
        std::uint64_t realize_seed = rng.engine()();
        // The object must be "value unit"; resolve the unit mention to get
        // the gold dimension.
        auto space = triple.object.find(' ');
        std::string unit_mention = space == std::string::npos
                                       ? std::string()
                                       : triple.object.substr(space + 1);
        if (triple.object.size() > 1 && triple.object.back() == '%') {
          unit_mention = "%";
        }
        if (unit_mention.empty()) return false;
        std::span<const UnitId> matches = kb_->FindBySurface(unit_mention);
        if (matches.empty()) return false;
        const kb::UnitRecord& source_unit = kb_->Get(matches.front());
        const kb::UnitRecord* gold =
            SampleUnitOfDimension(source_unit.dimension, rng);
        if (gold == nullptr) return false;
        std::vector<std::string> choices = {std::string(gold->label_en)};
        std::set<std::uint64_t> dims = {gold->dimension.PackedKey()};
        while (choices.size() <
               static_cast<std::size_t>(options_.num_choices)) {
          const kb::UnitRecord* d =
              SampleUnitNotOfDimension(gold->dimension, rng);
          if (d == nullptr) return false;
          if (!dims.insert(d->dimension.PackedKey()).second) continue;
          choices.emplace_back(d->label_en);
        }
        kg::RealizedSentence sentence = kg::RealizeTriple(triple, realize_seed);
        // Mask the unit part of the object (keep the value visible).
        std::string masked = sentence.text;
        std::size_t unit_off = sentence.object_begin +
                               (space == std::string::npos ? 0 : space + 1);
        masked.replace(unit_off, sentence.object_end - unit_off, "[MASK]");
        inst.task = lm::tasks::kDimensionPrediction;
        int gold_index = PlaceGold(choices, 0, rng);
        inst.choices = choices;
        inst.gold_index = gold_index;
        inst.prompt =
            "task: dimpred | text: " + masked + RenderChoices(choices);
        inst.reasoning = text::ToLowerAscii(triple.predicate) + " implies " +
                         DimWord(gold->dimension) +
                         ChoiceDimReasoning(choices, *kb_);
        inst.instance_seed =
            Rng::DeriveSeed(options_.seed, "dp" + std::to_string(slot));
        return true;
      },
      "dimension-prediction instances");
}

}  // namespace dimqr::dimeval
