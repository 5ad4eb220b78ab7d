#include "linking/linker.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "text/corpus.h"
#include "text/levenshtein.h"
#include "text/string_util.h"
#include "text/tokenizer.h"

namespace dimqr::linking {
namespace {

using dimqr::Result;
using dimqr::Status;

/// Lowercased word terms of a unit usable as embedding/cluster tokens.
std::vector<std::string> UnitTerms(const kb::UnitRecord& unit) {
  std::vector<std::string> terms;
  auto add_words = [&terms](std::string_view s) {
    for (const std::string& tok : text::TokenizeLower(s)) {
      if (tok.size() >= 2 || (!tok.empty() && (tok[0] & 0x80))) {
        terms.push_back(tok);
      }
    }
  };
  add_words(unit.label_en);
  for (std::string_view alias : unit.aliases) add_words(alias);
  return terms;
}

}  // namespace

Result<text::Embedding> BuildLinkerEmbedding(const kb::DimUnitKB& kb,
                                             const LinkerConfig& config) {
  // One topic cluster per quantity kind: the kind's keywords plus the
  // labels of its most frequent units. In-cluster co-occurrence teaches the
  // embedding which context words go with which units.
  std::vector<text::TopicCluster> clusters;
  for (std::size_t ki = 0; ki < kb.kinds().size(); ++ki) {
    const kb::QuantityKindRecord& kind = kb.kinds()[ki];
    std::span<const UnitId> posting = kb.UnitsOfKind(KindId::FromIndex(ki));
    if (posting.empty()) continue;
    std::vector<const kb::UnitRecord*> members;
    members.reserve(posting.size());
    for (UnitId uid : posting) members.push_back(&kb.Get(uid));
    std::sort(members.begin(), members.end(),
              [](const kb::UnitRecord* a, const kb::UnitRecord* b) {
                return a->frequency > b->frequency;
              });
    text::TopicCluster cluster;
    cluster.name = kind.name;
    for (std::string_view k : kind.keywords) {
      cluster.terms.emplace_back(k);
    }
    std::size_t take = std::min<std::size_t>(members.size(), 8);
    for (std::size_t i = 0; i < take; ++i) {
      for (const std::string& term : UnitTerms(*members[i])) {
        cluster.terms.push_back(term);
      }
      for (std::string_view k : members[i]->keywords) {
        cluster.terms.emplace_back(k);
      }
    }
    clusters.push_back(std::move(cluster));
  }
  text::CorpusOptions corpus_options;
  corpus_options.sentences_per_cluster = config.corpus_sentences_per_cluster;
  corpus_options.seed = dimqr::Rng::DeriveSeed(20240131, "linker-corpus");
  std::vector<std::vector<std::string>> corpus =
      text::GenerateClusterCorpus(clusters, corpus_options);
  return text::Embedding::Train(corpus, config.embedding);
}

UnitLinker::UnitLinker(std::shared_ptr<const kb::DimUnitKB> kb,
                       text::Embedding emb, LinkerConfig config)
    : kb_(std::move(kb)), embedding_(std::move(emb)), config_(config) {
  const dimqr::SymbolTable& surfaces = kb_->lower_surfaces();
  surface_cp_len_.resize(surfaces.size());
  surface_unit_begin_.reserve(surfaces.size() + 1);
  surface_unit_begin_.push_back(0);
  for (std::uint32_t s = 1; s <= surfaces.size(); ++s) {
    surface_cp_len_[s - 1] =
        static_cast<std::uint32_t>(text::Utf8Length(surfaces.Str(s)));
    std::vector<std::uint32_t> units = text::PackedCodePoints(surfaces.Str(s));
    surface_units_.insert(surface_units_.end(), units.begin(), units.end());
    surface_unit_begin_.push_back(surface_units_.size());
  }
}

Result<std::shared_ptr<const UnitLinker>> UnitLinker::Build(
    std::shared_ptr<const kb::DimUnitKB> kb, const LinkerConfig& config) {
  if (kb == nullptr) {
    return Status::InvalidArgument("UnitLinker needs a knowledge base");
  }
  DIMQR_ASSIGN_OR_RETURN(text::Embedding emb,
                         BuildLinkerEmbedding(*kb, config));
  return std::shared_ptr<const UnitLinker>(
      new UnitLinker(std::move(kb), std::move(emb), config));
}

double UnitLinker::ContextScore(const kb::UnitRecord& unit,
                                const std::vector<ContextToken>& context) const {
  // Pr(u|c) = (1/n) sum_i max_j cos(c_i, k_j).
  if (context.empty() || unit.keywords.empty()) {
    return 0.5;  // uninformative context: neutral factor
  }
  std::vector<std::optional<std::size_t>> keyword_rows;
  keyword_rows.reserve(unit.keywords.size());
  for (std::string_view keyword : unit.keywords) {
    keyword_rows.push_back(embedding_.RowOf(keyword));
  }
  double sum = 0.0;
  for (const ContextToken& token : context) {
    double best = 0.0;
    for (std::size_t k = 0; k < keyword_rows.size(); ++k) {
      // Out-of-vocabulary pairs score by surface similarity, as
      // Embedding::CosineSimilarity does.
      const double sim =
          token.row && keyword_rows[k]
              ? embedding_.CosineOfRows(*token.row, *keyword_rows[k])
              : text::LevenshteinSimilarityIgnoreCase(token.text,
                                                      unit.keywords[k]);
      best = std::max(best, sim);
    }
    sum += best;
  }
  double mean = sum / static_cast<double>(context.size());
  // Cosines live in [-1, 1]; clamp into a probability-like range with a
  // small floor so an uninformative context never zeroes the product (which
  // would make the final ranking an arbitrary tie).
  return std::clamp(mean, 0.05, 1.0);
}

std::vector<LinkCandidate> UnitLinker::Link(std::string_view mention,
                                            std::string_view context) const {
  // --- Step 1: candidate generation over the KB's surface table ---
  // The similarity is ASCII-case-insensitive, so scoring each *distinct
  // lowercased* surface once and fanning the score out over its posting
  // list gives the same per-unit best similarity as scanning a flattened
  // (surface, unit) dictionary — at a fraction of the edit-distance calls.
  const dimqr::SymbolTable& surfaces = kb_->lower_surfaces();
  // Levenshtein distance is at least the code-point length difference, so
  // 1 - diff/max_len upper-bounds the similarity; surfaces whose bound
  // already misses the threshold skip the DP entirely. ASCII lowercasing
  // preserves code-point counts, so the mention's length is exact.
  const std::size_t mention_len = text::Utf8Length(mention);
  const std::vector<std::uint32_t> mention_units =
      text::PackedCodePoints(text::ToLowerAscii(mention));
  const std::span<const std::uint32_t> all_units(surface_units_);
  std::vector<std::size_t> dp_row;
  std::vector<double> best_similarity(kb_->num_units(), -1.0);
  std::vector<UnitId> hits;
  for (std::uint32_t s = 1; s <= surfaces.size(); ++s) {
    const std::size_t surface_len = surface_cp_len_[s - 1];
    const std::size_t longest = std::max(surface_len, mention_len);
    // LevenshteinSimilarity over the lowercased pair: 1 when both are
    // empty, else 1 - distance / longest.
    double sim = 1.0;
    if (longest > 0) {
      const std::size_t diff = surface_len > mention_len
                                   ? surface_len - mention_len
                                   : mention_len - surface_len;
      double bound = 1.0 - static_cast<double>(diff) /
                               static_cast<double>(longest);
      if (bound < config_.mention_threshold) continue;
      const std::size_t begin = surface_unit_begin_[s - 1];
      const std::size_t distance = text::LevenshteinDistance(
          all_units.subspan(begin, surface_unit_begin_[s] - begin),
          mention_units, dp_row);
      sim = 1.0 - static_cast<double>(distance) / static_cast<double>(longest);
    }
    if (sim < config_.mention_threshold) continue;
    for (UnitId uid : kb_->UnitsOfLowerSurface(SurfaceId(s))) {
      if (best_similarity[uid.index()] < 0.0) hits.push_back(uid);
      if (sim > best_similarity[uid.index()]) {
        best_similarity[uid.index()] = sim;
      }
    }
  }
  if (hits.empty()) return {};

  // --- Step 2: context-based scoring ---
  std::vector<ContextToken> context_tokens;
  for (const text::Token& tok : text::Tokenize(context)) {
    if (tok.kind == text::Token::Kind::kWord ||
        tok.kind == text::Token::Kind::kCjk) {
      std::string lower = text::ToLowerAscii(tok.text);
      std::optional<std::size_t> row = embedding_.RowOf(lower);
      context_tokens.push_back({std::move(lower), row});
    }
  }

  std::vector<LinkCandidate> candidates;
  candidates.reserve(hits.size());
  for (UnitId uid : hits) {
    const kb::UnitRecord& unit = kb_->Get(uid);
    LinkCandidate cand;
    cand.unit = uid;
    cand.pr_mention = best_similarity[uid.index()];
    cand.pr_prior = unit.frequency;
    cand.pr_context =
        config_.use_context ? ContextScore(unit, context_tokens) : 1.0;
    cand.score = 1.0;
    if (config_.use_mention) {
      cand.score *= std::pow(cand.pr_mention, config_.mention_sharpness);
    }
    if (config_.use_prior) cand.score *= cand.pr_prior;
    if (config_.use_context) cand.score *= cand.pr_context;
    candidates.push_back(cand);
  }
  std::sort(candidates.begin(), candidates.end(),
            [this](const LinkCandidate& a, const LinkCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return kb_->Get(a.unit).id < kb_->Get(b.unit).id;
            });
  if (candidates.size() > config_.max_candidates) {
    candidates.resize(config_.max_candidates);
  }
  return candidates;
}

Result<UnitId> UnitLinker::Best(std::string_view mention,
                                std::string_view context) const {
  std::vector<LinkCandidate> candidates = Link(mention, context);
  if (candidates.empty()) {
    return Status::NotFound("no unit candidate for mention '" +
                            std::string(mention) + "'");
  }
  return candidates.front().unit;
}

}  // namespace dimqr::linking
