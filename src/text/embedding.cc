#include "text/embedding.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/parallel.h"
#include "text/levenshtein.h"

namespace dimqr::text {
namespace {

float Sigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

Result<Embedding> Embedding::Train(
    const std::vector<std::vector<std::string>>& sentences,
    const EmbeddingConfig& config) {
  if (config.dimension <= 0 || config.window <= 0 || config.epochs <= 0 ||
      config.negatives < 0 || config.learning_rate <= 0.0) {
    return Status::InvalidArgument("bad embedding config");
  }
  // Count words.
  std::unordered_map<std::string, std::size_t> counts;
  for (const auto& sentence : sentences) {
    for (const std::string& w : sentence) ++counts[w];
  }
  std::vector<std::pair<std::string, std::size_t>> vocab(counts.begin(),
                                                         counts.end());
  std::erase_if(vocab, [&](const auto& p) {
    return p.second < static_cast<std::size_t>(config.min_count);
  });
  if (vocab.empty()) {
    return Status::InvalidArgument(
        "corpus has no word meeting min_count; cannot train embeddings");
  }
  std::sort(vocab.begin(), vocab.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  Embedding emb;
  emb.dimension_ = config.dimension;
  emb.words_.reserve(vocab.size());
  for (std::size_t i = 0; i < vocab.size(); ++i) {
    emb.words_.push_back(vocab[i].first);
    emb.index_[vocab[i].first] = i;
  }
  const std::size_t v = emb.words_.size();
  const auto d = static_cast<std::size_t>(config.dimension);

  // Unigram^0.75 table for negative sampling, as running sums.
  std::vector<double> neg_sums(v);
  for (std::size_t i = 0; i < v; ++i) {
    neg_sums[i] = std::pow(static_cast<double>(vocab[i].second), 0.75);
  }
  std::partial_sum(neg_sums.begin(), neg_sums.end(), neg_sums.begin());

  Rng rng(config.seed);
  emb.vectors_.assign(v * d, 0.0f);
  std::vector<float> context(v * d, 0.0f);
  for (float& x : emb.vectors_) {
    x = static_cast<float>(rng.UniformReal(-0.5, 0.5)) /
        static_cast<float>(d);
  }

  // Pre-index sentences into vocab ids, dropping OOV words.
  std::vector<std::vector<std::size_t>> encoded;
  encoded.reserve(sentences.size());
  for (const auto& sentence : sentences) {
    std::vector<std::size_t> ids;
    for (const std::string& w : sentence) {
      auto it = emb.index_.find(w);
      if (it != emb.index_.end()) ids.push_back(it->second);
    }
    if (ids.size() >= 2) encoded.push_back(std::move(ids));
  }
  if (encoded.empty()) {
    return Status::InvalidArgument("no trainable sentence pairs in corpus");
  }

  // Position prefix sums: sentence s starts at global position prefix[s]
  // within an epoch, which drives the linear learning-rate decay exactly as
  // the sequential single-counter schedule did.
  std::vector<std::size_t> prefix(encoded.size() + 1, 0);
  for (std::size_t s = 0; s < encoded.size(); ++s) {
    prefix[s + 1] = prefix[s] + encoded[s].size();
  }
  const std::size_t positions_per_epoch = prefix.back();
  const std::size_t total_positions =
      positions_per_epoch * static_cast<std::size_t>(config.epochs);

  // Deterministic parallel SGNS: sentences are processed in fixed
  // mini-batches of kBatch. Within a batch, per-sentence gradients are
  // computed in parallel against the parameters frozen at batch start (the
  // map phase writes only per-sentence buffers), then applied serially in
  // sentence order. Batch boundaries and each sentence's RNG stream are
  // functions of the corpus alone, so the trained vectors are bit-for-bit
  // identical at every thread count.
  constexpr std::size_t kBatch = 8;

  /// Recorded deltas of one sentence: `d` floats per entry in `rows`; the
  /// low bit of a row tags the table (0 = center/emb, 1 = context).
  /// `grad_center` is the sentence's scratch for one center word's delta.
  /// One SentenceGrad per batch slot lives across all batches; clearing
  /// keeps its capacity, so batches after the first rarely allocate.
  struct SentenceGrad {
    std::vector<std::size_t> rows;
    std::vector<float> deltas;
    std::vector<float> grad_center;
  };
  std::vector<SentenceGrad> grads(kBatch);
  for (SentenceGrad& sg : grads) sg.grad_center.resize(d);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const std::size_t epoch_seen =
        positions_per_epoch * static_cast<std::size_t>(epoch);
    for (std::size_t batch_start = 0; batch_start < encoded.size();
         batch_start += kBatch) {
      const std::size_t batch_end =
          std::min(encoded.size(), batch_start + kBatch);
      const auto bn = static_cast<std::int64_t>(batch_end - batch_start);
      Status st = ParallelFor(
          bn,
          [&](std::int64_t begin, std::int64_t end, int) {
            for (std::int64_t b = begin; b < end; ++b) {
              const std::size_t si = batch_start + static_cast<std::size_t>(b);
              const std::vector<std::size_t>& ids = encoded[si];
              SentenceGrad& sg = grads[static_cast<std::size_t>(b)];
              sg.rows.clear();
              sg.deltas.clear();
              // Stream index: epoch-major, so every (epoch, sentence) pair
              // draws from its own decorrelated stream.
              Rng rng = Rng::ForStream(
                  config.seed,
                  static_cast<std::uint64_t>(epoch) * encoded.size() + si);
              // NOTE: each record() may reallocate sg.deltas, so a returned
              // pointer is only valid until the next call.
              auto record = [&sg, d](std::size_t row,
                                     bool is_context) -> float* {
                sg.rows.push_back((row << 1) |
                                  static_cast<std::size_t>(is_context));
                sg.deltas.resize(sg.deltas.size() + d, 0.0f);
                return sg.deltas.data() + (sg.deltas.size() - d);
              };
              std::vector<float>& grad_center = sg.grad_center;
              for (std::size_t pos = 0; pos < ids.size(); ++pos) {
                const std::size_t seen = epoch_seen + prefix[si] + pos + 1;
                double progress =
                    static_cast<double>(seen) / total_positions;
                auto lr = static_cast<float>(config.learning_rate *
                                             std::max(0.05, 1.0 - progress));
                std::size_t center = ids[pos];
                auto win =
                    static_cast<std::size_t>(rng.UniformInt(1, config.window));
                std::size_t lo = pos >= win ? pos - win : 0;
                std::size_t hi = std::min(ids.size() - 1, pos + win);
                const float* vec_c = &emb.vectors_[center * d];
                for (std::size_t cpos = lo; cpos <= hi; ++cpos) {
                  if (cpos == pos) continue;
                  std::size_t ctx = ids[cpos];
                  std::fill(grad_center.begin(), grad_center.end(), 0.0f);
                  // One positive pair + `negatives` sampled negatives, all
                  // scored against the batch-start parameters.
                  for (int neg = -1; neg < config.negatives; ++neg) {
                    std::size_t target;
                    float label;
                    if (neg < 0) {
                      target = ctx;
                      label = 1.0f;
                    } else {
                      target = rng.WeightedIndex(neg_sums);
                      if (target == ctx) continue;
                      label = 0.0f;
                    }
                    const float* vec_t = &context[target * d];
                    float dot = 0.0f;
                    for (std::size_t k = 0; k < d; ++k) {
                      dot += vec_c[k] * vec_t[k];
                    }
                    float g = (label - Sigmoid(dot)) * lr;
                    float* grad_t = record(target, /*is_context=*/true);
                    for (std::size_t k = 0; k < d; ++k) {
                      grad_center[k] += g * vec_t[k];
                      grad_t[k] += g * vec_c[k];
                    }
                  }
                  float* rec_c = record(center, /*is_context=*/false);
                  std::copy(grad_center.begin(), grad_center.end(), rec_c);
                }
              }
            }
            return Status::OK();
          },
          /*grain=*/1);
      DIMQR_RETURN_NOT_OK(st);
      // Apply phase: serial, in sentence order, entries in recording order.
      for (std::size_t b = 0; b < static_cast<std::size_t>(bn); ++b) {
        const SentenceGrad& sg = grads[b];
        for (std::size_t e = 0; e < sg.rows.size(); ++e) {
          const std::size_t row = sg.rows[e] >> 1;
          float* dst = (sg.rows[e] & 1) ? &context[row * d]
                                        : &emb.vectors_[row * d];
          const float* delta = &sg.deltas[e * d];
          for (std::size_t k = 0; k < d; ++k) dst[k] += delta[k];
        }
      }
    }
  }

  emb.norms_.resize(v);
  for (std::size_t i = 0; i < v; ++i) {
    float s = 0.0f;
    for (std::size_t k = 0; k < d; ++k) {
      float x = emb.vectors_[i * d + k];
      s += x * x;
    }
    emb.norms_[i] = std::sqrt(s);
  }
  return emb;
}

bool Embedding::Contains(std::string_view word) const {
  return index_.contains(std::string(word));
}

const float* Embedding::VectorOf(std::string_view word) const {
  auto it = index_.find(std::string(word));
  if (it == index_.end()) return nullptr;
  return &vectors_[it->second * static_cast<std::size_t>(dimension_)];
}

std::optional<std::size_t> Embedding::RowOf(std::string_view word) const {
  auto it = index_.find(std::string(word));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

double Embedding::CosineOfRows(std::size_t i, std::size_t j) const {
  if (i == j) return 1.0;
  const auto d = static_cast<std::size_t>(dimension_);
  const float* a = &vectors_[i * d];
  const float* b = &vectors_[j * d];
  float dot = 0.0f;
  for (std::size_t k = 0; k < d; ++k) dot += a[k] * b[k];
  float denom = norms_[i] * norms_[j];
  if (denom <= 0.0f) return 0.0;
  return dot / denom;
}

double Embedding::CosineSimilarity(std::string_view a,
                                   std::string_view b) const {
  std::optional<std::size_t> ia = RowOf(a);
  std::optional<std::size_t> ib = RowOf(b);
  if (!ia || !ib) {
    // OOV fallback: graded surface similarity keeps rare unit forms usable.
    return LevenshteinSimilarityIgnoreCase(a, b);
  }
  return CosineOfRows(*ia, *ib);
}

std::vector<std::pair<std::string, double>> Embedding::MostSimilar(
    std::string_view word, std::size_t k) const {
  auto it = index_.find(std::string(word));
  if (it == index_.end()) return {};
  std::vector<std::pair<std::string, double>> scored;
  scored.reserve(words_.size());
  for (std::size_t j = 0; j < words_.size(); ++j) {
    if (j == it->second) continue;
    scored.emplace_back(words_[j], CosineOfRows(it->second, j));
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

}  // namespace dimqr::text
