#ifndef DIMQR_LINKING_LINKER_H_
#define DIMQR_LINKING_LINKER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kb/kb.h"
#include "text/embedding.h"

/// \file linker.h
/// The unit-linking module of Section III-B.
///
/// Definition 1 (Unit Linking): given contextual information c and a unit
/// mention m, map it to the corresponding unit u in DimUnitKB. The score is
///   u~ = argmax_u Pr(u) * Pr(u|m) * Pr(u|c)
/// with
///   Pr(u)   = Freq(u)                      (the Eq. 1-2 frequency prior)
///   Pr(u|m) = LevenshteinSimilarity(u, m)  (candidate generation)
///   Pr(u|c) = (1/n) sum_i max_j cos(c_i, k_j)   (context model over the
///             unit's keywords k_j and the context tokens c_i)

namespace dimqr::linking {

/// \brief One ranked candidate for a unit mention. Carries the interned
/// unit handle; resolve it with `DimUnitKB::Get`.
struct LinkCandidate {
  UnitId unit;              ///< Handle into the linker's knowledge base.
  double pr_mention = 0.0;  ///< Pr(u|m): surface similarity.
  double pr_prior = 0.0;    ///< Pr(u): frequency prior.
  double pr_context = 0.0;  ///< Pr(u|c): context-keyword similarity.
  double score = 0.0;       ///< Product of the enabled factors.
};

/// \brief Linker knobs. The three probability factors can be toggled
/// independently (used by the linking ablation bench).
struct LinkerConfig {
  /// Candidates whose best surface similarity is below this are dropped
  /// ("if the similarity exceeds a preset threshold ... added to the
  /// candidate list").
  double mention_threshold = 0.62;
  std::size_t max_candidates = 10;
  bool use_prior = true;
  bool use_mention = true;
  bool use_context = true;
  /// Sharpness of the mention factor: the score uses Pr(u|m)^gamma so that
  /// an exact dictionary hit dominates fuzzy hits with large priors
  /// ("poundal" must not lose to "pound" on frequency alone).
  double mention_sharpness = 3.0;
  /// Embedding training settings for the KB-derived context corpus.
  text::EmbeddingConfig embedding;
  int corpus_sentences_per_cluster = 120;
};

/// \brief Trains the context-model embedding on the KB-derived synthetic
/// corpus (topic clusters built from quantity-kind keywords and unit
/// labels; see DESIGN.md substitution table).
dimqr::Result<text::Embedding> BuildLinkerEmbedding(
    const kb::DimUnitKB& kb, const LinkerConfig& config = {});

/// \brief The unit linker. Immutable and thread-safe after construction.
class UnitLinker {
 public:
  /// Builds a linker over `kb`, training the context embedding.
  static dimqr::Result<std::shared_ptr<const UnitLinker>> Build(
      std::shared_ptr<const kb::DimUnitKB> kb, const LinkerConfig& config = {});

  /// \brief Links a mention within a context; returns candidates sorted by
  /// descending confidence ("all candidate units ... sorted in a descending
  /// order according to the confidence"). Empty when nothing clears the
  /// mention threshold.
  std::vector<LinkCandidate> Link(std::string_view mention,
                                  std::string_view context) const;

  /// The best link, or NotFound when no candidate clears the threshold.
  dimqr::Result<UnitId> Best(std::string_view mention,
                             std::string_view context) const;

  const kb::DimUnitKB& knowledge_base() const { return *kb_; }
  const text::Embedding& embedding() const { return embedding_; }
  const LinkerConfig& config() const { return config_; }

 private:
  UnitLinker(std::shared_ptr<const kb::DimUnitKB> kb, text::Embedding emb,
             LinkerConfig config);

  /// A lowercased context word and its embedding row (none when out of
  /// vocabulary), looked up once per Link call.
  struct ContextToken {
    std::string text;
    std::optional<std::size_t> row;
  };

  double ContextScore(const kb::UnitRecord& unit,
                      const std::vector<ContextToken>& context) const;

  std::shared_ptr<const kb::DimUnitKB> kb_;
  text::Embedding embedding_;
  LinkerConfig config_;
  /// Code-point length of each lowercased surface (indexed by
  /// SurfaceId::index()), so candidate generation can reject surfaces on
  /// the length-difference lower bound of the edit distance without
  /// running the DP.
  std::vector<std::uint32_t> surface_cp_len_;
  /// Every lowercased surface's text::PackedCodePoints, concatenated;
  /// surface i's run is [surface_unit_begin_[i], surface_unit_begin_[i+1]).
  std::vector<std::uint32_t> surface_units_;
  std::vector<std::size_t> surface_unit_begin_;
};

}  // namespace dimqr::linking

#endif  // DIMQR_LINKING_LINKER_H_
