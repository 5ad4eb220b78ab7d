#ifndef DIMQR_LM_TRANSFORMER_H_
#define DIMQR_LM_TRANSFORMER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/aligned.h"
#include "core/snapshot.h"
#include "core/status.h"

/// \file transformer.h
/// A micro decoder-only transformer with hand-written backprop and Adam.
///
/// Substitution (DESIGN.md): the paper continually fine-tunes LLaMA-7B on
/// A800 GPUs. Offline and CPU-only, the same *methodology* — Section IV-D's
/// "standard Transformer model architecture, which operates solely on
/// decoder-based attention mechanisms", trained to minimize the negative
/// log-likelihood of y = "<bos> R <sep> A <eos>" given x (Eq. 3) — runs at
/// micro scale. Fine-tuning this model on DimEval data reproduces the
/// paper's central effect (RQ2): dimensional knowledge is learnable from
/// the constructed datasets and transfers to held-out instances.
///
/// One forward pass (DESIGN.md §8): a single row-batched `Forward` runs
/// every layer for training (`Loss`, `TrainBatch`) and for decoding, where
/// prompts are prefilled as one multi-row pass (`Prefill`) into a reusable
/// `DecodeState` arena and then extended one token at a time (`Step`, a
/// one-token `Prefill`). A row's arithmetic does not depend on how many
/// rows share the pass, so the decode logits after a prefix are exactly the
/// ones training scores, and every downstream table is byte-identical
/// whichever way the KV cache was filled.
///
/// The implementation is deterministic (seeded init, no dropout).

namespace dimqr::lm {

class PrefixCache;
class Transformer;
class TransformerLayout;
struct ForwardActivations;

/// \brief Architecture and optimization sizes.
struct TransformerConfig {
  int vocab_size = 0;    ///< Required.
  int d_model = 64;      ///< Embedding width; divisible by n_heads.
  int n_heads = 2;
  int n_layers = 2;
  int d_ff = 256;
  int max_seq = 96;      ///< Maximum sequence length (positional table).
  std::uint64_t seed = 1234;
};

/// \brief One training example: token ids plus a per-position loss mask.
/// Position t contributes to the loss iff loss_mask[t] != 0 — the model is
/// then trained to predict tokens[t] from tokens[0..t-1]. Sequences longer
/// than max_seq are left-truncated (the answer lives at the end).
struct LmExample {
  std::vector<int> tokens;
  std::vector<std::uint8_t> loss_mask;
};

/// \brief Reusable incremental-decoding arena: the per-layer KV cache plus
/// the forward pass's scratch rows, all preallocated to the model's
/// `max_seq` capacity by `Bind`. Steady-state decoding through a
/// bound state performs zero heap allocations per token (pinned by
/// tests/lm/decode_alloc_test.cc).
///
/// Lifecycle: `Bind(config)` shapes the buffers (a no-op when already
/// shaped for an identical geometry), `Rewind()` restarts at position 0
/// without releasing capacity. One state serves any number of sequential
/// generations; it is not safe for concurrent use — use one per thread
/// (`ThreadLocalDecodeState()`).
class DecodeState {
 public:
  DecodeState() = default;

  /// Preallocates all buffers for `config` and rewinds to position 0.
  /// Keeps existing allocations when the geometry is unchanged (the
  /// position is rewound either way).
  void Bind(const TransformerConfig& config);

  /// Restarts decoding at position 0; capacity is retained.
  void Rewind() { position_ = 0; }

  /// Tokens consumed so far (== the next absolute position).
  int position() const { return position_; }

  /// Next-token logits produced by the most recent Step/Prefill. Size
  /// vocab_size; unspecified before the first call.
  const std::vector<float>& logits() const { return logits_; }

 private:
  friend class Transformer;
  friend class PrefixCache;

  bool BoundTo(const TransformerConfig& c) const;

  int position_ = 0;
  // Bound geometry (all zero while unbound).
  int max_seq_ = 0, d_model_ = 0, n_layers_ = 0, d_ff_ = 0, vocab_ = 0;
  /// Per layer: max_seq rows of d_model-wide K and V; rows [0, position_)
  /// are valid. Scratch is cache-line aligned (AlignedVec) so the SIMD
  /// kernels get aligned rows; logits_ stays a plain vector because it is
  /// the public logits() type.
  std::vector<AlignedVec<float>> keys_;
  std::vector<AlignedVec<float>> values_;
  // One attention row (max_seq) and the final LayerNorm row of the head.
  AlignedVec<float> att_, h_;
  std::vector<float> logits_;
  // Forward's row scratch, max_seq rows each; rows_x_ is the residual
  // stream and holds the final residual rows after a pass.
  AlignedVec<float> rows_x_, rows_ln_, rows_qkv_, rows_ctx_, rows_proj_,
      rows_ff_;
};

/// \brief A per-thread DecodeState arena (bound lazily by its user). The
/// convenience entry points (`Greedy` without an explicit state,
/// `NextLogits`) decode through this, so repeated generations on one
/// thread reuse one allocation.
DecodeState& ThreadLocalDecodeState();

/// \brief The model. Copyable (parameters are plain vectors; the cached
/// layout is immutable and shared).
///
/// Storage model: all reads (forward passes, decoding) go through spans
/// that alias either this object's own parameter vectors or a snapshot
/// mapping (`FromArena`) — weights load zero-copy, shared page-cache-wise
/// across processes. Training a snapshot-backed model first detaches the
/// parameters into owned storage.
class Transformer {
 public:
  /// Creates a randomly initialized model. InvalidArgument on bad config.
  static dimqr::Result<Transformer> Create(const TransformerConfig& config);

  Transformer(const Transformer& other) { *this = other; }
  Transformer& operator=(const Transformer& other);
  Transformer(Transformer&& other) noexcept { *this = std::move(other); }
  Transformer& operator=(Transformer&& other) noexcept;

  const TransformerConfig& config() const { return config_; }
  std::size_t num_parameters() const { return params_v_.size(); }

  /// True when the weights alias a snapshot mapping rather than this
  /// object's own vectors.
  bool borrowed() const { return params_v_.data() != params_.data(); }

  /// \brief Mean masked cross-entropy of one example (no gradient).
  dimqr::Result<double> Loss(const LmExample& example) const;

  /// \brief One Adam step over a mini-batch (gradients averaged across
  /// examples). Returns the mean loss before the step. A warm step on one
  /// thread allocates nothing: the chunk gradients live in the calling
  /// thread's training workspace and each thread's forward/backward rows in
  /// its own scratch (DESIGN.md §8). A failed step leaves the model and the
  /// workspace as they were.
  dimqr::Result<double> TrainBatch(const std::vector<LmExample>& batch,
                                   double learning_rate);

  /// \brief Next-token logits after the given prefix (length >= 1).
  /// Prefixes longer than max_seq are left-truncated. Runs one batched
  /// Prefill through the calling thread's arena.
  dimqr::Result<std::vector<float>> NextLogits(
      const std::vector<int>& prefix) const;

  /// \brief Batched prefill: consumes `n` tokens as one n-row forward
  /// pass, appending their K/V rows to `state`'s cache and leaving the
  /// next-token logits (after the last token) in `state.logits()`.
  /// Bit-identical to n successive `Step` calls, but only computes the
  /// output head once. Binds `state` to this model's config if needed;
  /// OutOfRange when position + n exceeds max_seq.
  dimqr::Status Prefill(const int* tokens, int n, DecodeState& state) const;
  dimqr::Status Prefill(const std::vector<int>& tokens,
                        DecodeState& state) const {
    return Prefill(tokens.data(), static_cast<int>(tokens.size()), state);
  }

  /// \brief One incremental decode step: a one-token `Prefill`, appending
  /// `token`'s K/V rows and leaving the next-token logits in
  /// `state.logits()`.
  dimqr::Status Step(DecodeState& state, int token) const {
    return Prefill(&token, 1, state);
  }

  /// \brief Greedy decoding: appends tokens until `eos` or `max_new`.
  /// Returns only the newly generated ids (without `eos`). The prompt is
  /// left-truncated to max_seq - max_new, batch-prefilled, then extended
  /// token by token through the thread-local arena.
  dimqr::Result<std::vector<int>> Greedy(const std::vector<int>& prefix,
                                         int max_new, int eos) const;

  /// \brief Greedy decoding through an explicit arena, optionally seeded
  /// from (and feeding) a PrefixCache: the longest cached common token
  /// prefix is forked into `state` instead of being recomputed, the
  /// remainder is batch-prefilled, and the full prompt snapshot is
  /// inserted back. Forked and cold decodes are bit-identical, so results
  /// do not depend on cache contents. `cache` may be null.
  dimqr::Result<std::vector<int>> Greedy(const std::vector<int>& prefix,
                                         int max_new, int eos,
                                         DecodeState& state,
                                         PrefixCache* cache) const;

  /// \brief The batch-join hook: binds and rewinds `state`, forks the
  /// longest cached common prefix of `tokens` out of `cache` (when non
  /// null), batch-prefills the unshared tail, and inserts the full prompt
  /// snapshot back. On return `state` holds the whole prompt's KV rows and
  /// fresh next-token logits, exactly as a cold `Prefill` would have left
  /// them. Returns the number of tokens served from the cache. This is the
  /// prompt-consumption step of `Greedy`, exposed so a scheduler admitting
  /// a request into a running decode batch (serve/) shares one code path
  /// with single-request decoding.
  dimqr::Result<int> PrefillWithCache(const std::vector<int>& tokens,
                                      DecodeState& state,
                                      PrefixCache* cache) const;

  /// Appends config, weights, and optimizer state to a snapshot arena.
  void WriteTo(snapshot::ArenaWriter& writer) const;

  /// \brief Re-materializes a model whose weights alias `reader`'s bytes.
  /// `keepalive` (optional) pins the backing snapshot; without it the
  /// caller must keep the mapping alive.
  static dimqr::Result<Transformer> FromArena(
      snapshot::ArenaReader& reader,
      std::shared_ptr<const snapshot::Snapshot> keepalive = nullptr);

 private:
  Transformer() = default;

  /// Minimum sensible vocabulary (the special tokens).
  static int SpecialTokensGuard();

  /// Validates `config` and builds an empty model with its layout (no
  /// parameter storage yet); shared by Create and FromArena.
  static dimqr::Result<Transformer> Shell(const TransformerConfig& config);

  /// Copies a borrowed backing into owned vectors (before mutation).
  void Detach();
  void Reseat() {
    params_v_ = params_;
    adam_m_v_ = adam_m_;
    adam_v_v_ = adam_v_;
  }

  /// \brief The forward pass: runs `n` rows at positions
  /// [state.position(), +n) through every layer, appends their K/V rows to
  /// `state` and leaves the final residual rows (before the last LayerNorm)
  /// in `state.rows_x_`. A non-null `acts` (state at position 0) only
  /// redirects where each layer writes, keeping what backward reads; the
  /// arithmetic is the same. Binds `state` if needed; OutOfRange past
  /// max_seq, InvalidArgument on out-of-vocabulary tokens.
  dimqr::Status Forward(const int* tokens, int n, DecodeState& state,
                        ForwardActivations* acts) const;

  /// Forward pass over the left-truncated example; when `grads` is non-null
  /// also runs backward, adding parameter gradients into it (one float per
  /// parameter). Runs in the calling thread's reusable scratch. Returns the
  /// mean masked CE loss, or an error for empty/oversized/invalid inputs.
  dimqr::Result<double> ForwardBackward(const LmExample& example,
                                        float* grads) const;

  TransformerConfig config_;
  /// Parameter offsets — a pure function of config_, computed once at
  /// Create/FromArena and shared by copies (the old code rebuilt it on every
  /// forward pass and decode step).
  std::shared_ptr<const TransformerLayout> layout_;

  // Owned storage (empty while borrowed from a snapshot mapping);
  // cache-line aligned for the SIMD kernels.
  AlignedVec<float> params_;
  // Adam state (moments + step counter); mutable across TrainBatch calls.
  AlignedVec<float> adam_m_;
  AlignedVec<float> adam_v_;
  std::int64_t adam_step_ = 0;

  // Read-side views; alias the vectors above or a snapshot mapping.
  std::span<const float> params_v_;
  std::span<const float> adam_m_v_;
  std::span<const float> adam_v_v_;
  std::shared_ptr<const snapshot::Snapshot> keepalive_;

  friend class TransformerLayout;
};

/// \brief The greedy tie-break rule used by `Greedy`: the lowest index
/// among the maxima (strict `>` scan from index 0). Exposed so tests can
/// pin the tie-break independently of any trained model.
inline int ArgmaxLowest(const std::vector<float>& logits) {
  int best = 0;
  for (int v = 1; v < static_cast<int>(logits.size()); ++v) {
    if (logits[v] > logits[best]) best = v;
  }
  return best;
}

}  // namespace dimqr::lm

#endif  // DIMQR_LM_TRANSFORMER_H_
