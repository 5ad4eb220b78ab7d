#ifndef DIMQR_TEXT_EMBEDDING_H_
#define DIMQR_TEXT_EMBEDDING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "core/status.h"

/// \file embedding.h
/// Skip-gram-with-negative-sampling word embeddings (word2vec).
///
/// The unit-linking context model (Section III-B2) computes
///   Pr(u|c) = (1/n) * sum_i max_j cos(c_i, k_j)
/// over word vectors. The paper uses pretrained Word2Vec; we train the same
/// model family here, on the KB-derived synthetic corpus, so the code path
/// (real learned vectors + cosine similarity) is identical.

namespace dimqr::text {

/// \brief Training hyper-parameters for the skip-gram model.
struct EmbeddingConfig {
  int dimension = 48;          ///< Vector width.
  int window = 4;              ///< Max context offset (sampled per pair).
  int negatives = 5;           ///< Negative samples per positive pair.
  int epochs = 3;              ///< Passes over the corpus.
  double learning_rate = 0.05; ///< Initial SGD step (linearly decayed).
  int min_count = 2;           ///< Words rarer than this are dropped.
  std::uint64_t seed = 42;     ///< Reproducibility seed.
};

/// \brief A trained embedding table: word -> dense vector.
class Embedding {
 public:
  Embedding() = default;

  /// \brief Trains skip-gram with negative sampling on tokenized sentences.
  ///
  /// Deterministic for a fixed config/seed. Returns InvalidArgument when the
  /// corpus has no word above min_count or config values are nonsensical.
  static Result<Embedding> Train(
      const std::vector<std::vector<std::string>>& sentences,
      const EmbeddingConfig& config);

  /// Number of words in the vocabulary.
  std::size_t vocab_size() const { return words_.size(); }

  /// Vector width.
  int dimension() const { return dimension_; }

  /// True iff the word is in the vocabulary.
  bool Contains(std::string_view word) const;

  /// The vector for a word, or nullptr when out of vocabulary.
  const float* VectorOf(std::string_view word) const;

  /// The row of a word's vector, or none when out of vocabulary.
  std::optional<std::size_t> RowOf(std::string_view word) const;

  /// \brief Cosine similarity between two rows' vectors; 1 for one row.
  double CosineOfRows(std::size_t i, std::size_t j) const;

  /// \brief Cosine similarity between two words' vectors.
  /// Out-of-vocabulary words fall back to character-level string similarity
  /// (so rare unit surface forms still get a graded score).
  double CosineSimilarity(std::string_view a, std::string_view b) const;

  /// \brief The `k` in-vocabulary words most similar to `word` (excluding
  /// itself). Empty when the word is out of vocabulary.
  std::vector<std::pair<std::string, double>> MostSimilar(
      std::string_view word, std::size_t k = 10) const;

  /// All vocabulary words, most frequent first.
  const std::vector<std::string>& words() const { return words_; }

 private:
  int dimension_ = 0;
  std::vector<std::string> words_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<float> vectors_;  ///< Row-major [vocab_size x dimension].
  std::vector<float> norms_;    ///< Per-row L2 norms.
};

}  // namespace dimqr::text

#endif  // DIMQR_TEXT_EMBEDDING_H_
