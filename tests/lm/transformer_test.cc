#include "lm/transformer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "core/rng.h"
#include "core/snapshot.h"
#include "lm/kernels.h"

namespace dimqr::lm {
namespace {

TransformerConfig TinyConfig() {
  TransformerConfig c;
  c.vocab_size = 24;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 32;
  c.max_seq = 16;
  c.seed = 7;
  return c;
}

LmExample MakeExample(std::vector<int> tokens, std::size_t answer_from) {
  LmExample e;
  e.tokens = std::move(tokens);
  e.loss_mask.assign(e.tokens.size(), 0);
  for (std::size_t i = answer_from; i < e.tokens.size(); ++i) {
    e.loss_mask[i] = 1;
  }
  return e;
}

TEST(TransformerTest, CreateValidatesConfig) {
  TransformerConfig c = TinyConfig();
  c.vocab_size = 2;
  EXPECT_FALSE(Transformer::Create(c).ok());
  c = TinyConfig();
  c.d_model = 15;  // not divisible by heads
  EXPECT_FALSE(Transformer::Create(c).ok());
  c = TinyConfig();
  c.n_layers = 0;
  EXPECT_FALSE(Transformer::Create(c).ok());
  EXPECT_TRUE(Transformer::Create(TinyConfig()).ok());
}

TEST(TransformerTest, DeterministicInit) {
  Transformer a = Transformer::Create(TinyConfig()).ValueOrDie();
  Transformer b = Transformer::Create(TinyConfig()).ValueOrDie();
  LmExample e = MakeExample({1, 7, 8, 9, 2}, 2);
  EXPECT_DOUBLE_EQ(a.Loss(e).ValueOrDie(), b.Loss(e).ValueOrDie());
}

TEST(TransformerTest, LossIsFiniteAndNearUniformAtInit) {
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  LmExample e = MakeExample({1, 7, 8, 9, 2}, 2);
  double loss = m.Loss(e).ValueOrDie();
  EXPECT_TRUE(std::isfinite(loss));
  // Roughly ln(vocab) at random init.
  EXPECT_NEAR(loss, std::log(24.0), 1.2);
}

TEST(TransformerTest, RejectsDegenerateExamples) {
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  LmExample too_short = MakeExample({1}, 0);
  EXPECT_FALSE(m.Loss(too_short).ok());
  LmExample no_loss = MakeExample({1, 2, 3}, 3);
  EXPECT_FALSE(m.Loss(no_loss).ok());
  LmExample bad_token = MakeExample({1, 99, 2}, 1);
  EXPECT_FALSE(m.Loss(bad_token).ok());
  LmExample mismatched;
  mismatched.tokens = {1, 2, 3};
  mismatched.loss_mask = {0, 1};
  EXPECT_FALSE(m.Loss(mismatched).ok());
}

TEST(TransformerTest, LongSequencesLeftTruncated) {
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  std::vector<int> tokens(40, 7);
  tokens.back() = 9;
  LmExample e = MakeExample(tokens, 39);
  EXPECT_TRUE(m.Loss(e).ok());
}

TEST(TransformerTest, OverfitsASingleExample) {
  // Behavioural gradient check: the loss on one repeated example must
  // collapse towards zero, which only happens if the hand-written backward
  // pass points downhill through every layer.
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  LmExample e = MakeExample({1, 7, 8, 9, 10, 2}, 2);
  double before = m.Loss(e).ValueOrDie();
  for (int step = 0; step < 120; ++step) {
    ASSERT_TRUE(m.TrainBatch({e}, 3e-3).ok());
  }
  double after = m.Loss(e).ValueOrDie();
  EXPECT_LT(after, before * 0.2)
      << "loss failed to drop under single-example overfit: " << before
      << " -> " << after;
  EXPECT_LT(after, 0.2);
}

TEST(TransformerTest, LearnsACopyTask) {
  // Sequence "<bos> a b <sep> a b <eos>": the model must learn to copy.
  TransformerConfig c = TinyConfig();
  Transformer m = Transformer::Create(c).ValueOrDie();
  Rng rng(5);
  auto make = [&rng](int x, int y) {
    LmExample e;
    e.tokens = {1, x, y, 3, x, y, 2};
    e.loss_mask = {0, 0, 0, 0, 1, 1, 1};
    return e;
  };
  std::vector<LmExample> train;
  for (int i = 0; i < 64; ++i) {
    train.push_back(make(static_cast<int>(rng.UniformInt(6, 23)),
                         static_cast<int>(rng.UniformInt(6, 23))));
  }
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (std::size_t i = 0; i + 8 <= train.size(); i += 8) {
      std::vector<LmExample> batch(train.begin() + i, train.begin() + i + 8);
      ASSERT_TRUE(m.TrainBatch(batch, 2e-3).ok());
    }
  }
  // Evaluate greedy copy on unseen pairs.
  int correct = 0, total = 0;
  for (int x = 6; x <= 10; ++x) {
    for (int y = 11; y <= 15; ++y) {
      std::vector<int> generated =
          m.Greedy({1, x, y, 3}, 3, /*eos=*/2).ValueOrDie();
      ++total;
      if (generated.size() >= 2 && generated[0] == x && generated[1] == y) {
        ++correct;
      }
    }
  }
  EXPECT_GE(correct, total * 3 / 5)
      << "copy accuracy " << correct << "/" << total;
}

TEST(TransformerTest, NextLogitsShapeAndDeterminism) {
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  std::vector<float> l1 = m.NextLogits({1, 7, 8}).ValueOrDie();
  std::vector<float> l2 = m.NextLogits({1, 7, 8}).ValueOrDie();
  ASSERT_EQ(l1.size(), 24u);
  EXPECT_EQ(l1, l2);
  EXPECT_FALSE(m.NextLogits({}).ok());
}

TEST(TransformerTest, GreedyStopsAtEos) {
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  std::vector<int> out = m.Greedy({1, 7}, 5, /*eos=*/2).ValueOrDie();
  EXPECT_LE(out.size(), 5u);
  for (int id : out) EXPECT_NE(id, 2);
}

TEST(TransformerTest, TrainBatchRejectsEmpty) {
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  EXPECT_FALSE(m.TrainBatch({}, 1e-3).ok());
}

TEST(TransformerTest, CachedDecoderMatchesFullForward) {
  // Greedy uses the KV-cache decoder; its next-token choice must match the
  // full-forward NextLogits path at every step.
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  LmExample e = MakeExample({1, 7, 8, 9, 10, 2}, 2);
  for (int step = 0; step < 40; ++step) {
    ASSERT_TRUE(m.TrainBatch({e}, 3e-3).ok());
  }
  std::vector<int> prefix = {1, 7, 8};
  std::vector<int> generated = m.Greedy(prefix, 6, /*eos=*/2).ValueOrDie();
  std::vector<int> slow_sequence = prefix;
  std::vector<int> slow_generated;
  for (int step = 0; step < 6; ++step) {
    std::vector<float> logits = m.NextLogits(slow_sequence).ValueOrDie();
    int best = 0;
    for (int v = 1; v < static_cast<int>(logits.size()); ++v) {
      if (logits[v] > logits[best]) best = v;
    }
    if (best == 2) break;
    slow_generated.push_back(best);
    slow_sequence.push_back(best);
  }
  EXPECT_EQ(generated, slow_generated);
}

TEST(TransformerTest, LastTokenLossIsCrossEntropyOfNextLogits) {
  // Training and decode share one forward pass: for an example whose only
  // loss position is its last token, Loss must equal, bit for bit, the
  // cross-entropy of NextLogits over the prefix under the head softmax that
  // kernels.h documents for Epilogue::softmax_rows.
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  LmExample warm = MakeExample({1, 7, 8, 9, 10, 2}, 2);
  for (int step = 0; step < 20; ++step) {
    ASSERT_TRUE(m.TrainBatch({warm}, 3e-3).ok());
  }
  const std::vector<std::vector<int>> sequences = {
      {1, 7, 8, 9, 10, 2},
      {1, 11, 12, 3, 11},
      {1, 6, 6, 6, 6, 6, 6, 6, 6, 9},
      {1, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 2},
      {4, 5},
  };
  for (const std::vector<int>& tokens : sequences) {
    LmExample e = MakeExample(tokens, tokens.size() - 1);
    std::vector<int> prefix(tokens.begin(), tokens.end() - 1);
    std::vector<float> logits = m.NextLogits(prefix).ValueOrDie();
    float maxv = -1e30f;
    for (float v : logits) {
      if (v > maxv) maxv = v;
    }
    float denom = 0.0f;
    for (float& v : logits) {
      v = std::exp(v - maxv);
      denom += v;
    }
    float p = logits[static_cast<std::size_t>(tokens.back())] * (1.0f / denom);
    double want = -static_cast<double>(std::log(std::max(p, 1e-12f)));
    EXPECT_EQ(m.Loss(e).ValueOrDie(), want) << "length " << tokens.size();
  }
}

// ---------------------------------------------------------------------------
// Blocked kernels vs reference kernels
// ---------------------------------------------------------------------------

std::vector<float> RandomMatrix(Rng& rng, int rows, int cols,
                                double zero_rate = 0.1) {
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (float& v : m) {
    v = rng.Bernoulli(zero_rate) ? 0.0f
                                 : static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return m;
}

TEST(KernelsTest, BlockedMatMulBitIdenticalToNaive) {
  Rng rng(11);
  // Deliberately awkward sizes: not multiples of the tile dimensions.
  for (auto [m, k, n] : {std::tuple{1, 1, 1}, std::tuple{7, 33, 129},
                         std::tuple{160, 192, 500}, std::tuple{31, 127, 65}}) {
    std::vector<float> a = RandomMatrix(rng, m, k);
    std::vector<float> b = RandomMatrix(rng, k, n);
    std::vector<float> c_blocked(static_cast<std::size_t>(m) * n, -1.0f);
    std::vector<float> c_naive(static_cast<std::size_t>(m) * n, -1.0f);
    kernels::MatMul(a.data(), b.data(), c_blocked.data(), m, k, n);
    kernels::MatMulNaive(a.data(), b.data(), c_naive.data(), m, k, n);
    ASSERT_EQ(c_blocked, c_naive) << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(KernelsTest, BlockedGradKernelsMatchNaiveNumerically) {
  // The tiled gradient kernels use partial sums, so only near-equality with
  // the reference association is expected (each is individually
  // deterministic).
  Rng rng(12);
  const int m = 37, k = 130, n = 131;
  std::vector<float> a = RandomMatrix(rng, m, k);
  std::vector<float> dc = RandomMatrix(rng, m, n);
  std::vector<float> b = RandomMatrix(rng, k, n);
  std::vector<float> da_blocked(static_cast<std::size_t>(m) * k, 0.5f);
  std::vector<float> da_naive = da_blocked;
  kernels::MatMulGradA(dc.data(), b.data(), da_blocked.data(), m, k, n);
  kernels::MatMulGradANaive(dc.data(), b.data(), da_naive.data(), m, k, n);
  for (std::size_t i = 0; i < da_blocked.size(); ++i) {
    ASSERT_NEAR(da_blocked[i], da_naive[i], 1e-4f) << "dA index " << i;
  }
  std::vector<float> db_blocked(static_cast<std::size_t>(k) * n, -0.5f);
  std::vector<float> db_naive = db_blocked;
  kernels::MatMulGradB(a.data(), dc.data(), db_blocked.data(), m, k, n);
  kernels::MatMulGradBNaive(a.data(), dc.data(), db_naive.data(), m, k, n);
  for (std::size_t i = 0; i < db_blocked.size(); ++i) {
    ASSERT_NEAR(db_blocked[i], db_naive[i], 1e-4f) << "dB index " << i;
  }
}

// ---------------------------------------------------------------------------
// Cross-thread-count training determinism
// ---------------------------------------------------------------------------

/// Trains a fresh model for a few batches at the given pool size and returns
/// (losses..., final parameter checksum bits).
std::vector<double> TrainRunAt(int threads) {
  ScopedParallelism scope(threads);
  Transformer m = Transformer::Create(TinyConfig()).ValueOrDie();
  Rng rng(31);
  std::vector<LmExample> pool;
  for (int i = 0; i < 24; ++i) {
    int x = static_cast<int>(rng.UniformInt(6, 23));
    int y = static_cast<int>(rng.UniformInt(6, 23));
    LmExample e;
    e.tokens = {1, x, y, 3, x, y, 2};
    e.loss_mask = {0, 0, 0, 0, 1, 1, 1};
    pool.push_back(e);
  }
  std::vector<double> out;
  for (int step = 0; step < 6; ++step) {
    std::vector<LmExample> batch(pool.begin() + step * 4,
                                 pool.begin() + step * 4 + 4);
    out.push_back(m.TrainBatch(batch, 2e-3).ValueOrDie());
  }
  LmExample probe = pool.front();
  out.push_back(m.Loss(probe).ValueOrDie());
  return out;
}

TEST(TransformerTest, FailedBatchLeavesNoResidue) {
  // A failing batch still runs its other chunks, which accumulate into the
  // training workspace; the next good step must start from zero anyway.
  // Eight examples make eight chunks, so the good step reads every chunk
  // buffer the failed one wrote.
  std::vector<LmExample> good;
  for (int i = 0; i < 8; ++i) {
    const int x = 6 + i, y = 20 - i;
    good.push_back(MakeExample({1, x, y, 3, x, y, 2}, 4));
  }
  std::vector<LmExample> bad = good;
  bad[5].loss_mask.assign(bad[5].tokens.size(), 0);  // no loss positions
  for (int threads : {1, 2}) {
    ScopedParallelism scope(threads);
    Transformer failed = Transformer::Create(TinyConfig()).ValueOrDie();
    Transformer fresh = Transformer::Create(TinyConfig()).ValueOrDie();
    EXPECT_EQ(failed.TrainBatch(bad, 2e-3).status().code(),
              StatusCode::kInvalidArgument);
    const double after_failure = failed.TrainBatch(good, 2e-3).ValueOrDie();
    const double first = fresh.TrainBatch(good, 2e-3).ValueOrDie();
    EXPECT_EQ(after_failure, first) << threads << " threads";
    snapshot::ArenaWriter failed_bytes, fresh_bytes;
    failed.WriteTo(failed_bytes);
    fresh.WriteTo(fresh_bytes);
    EXPECT_TRUE(std::move(failed_bytes).Take() == std::move(fresh_bytes).Take())
        << "weights, moments or step differ after a failed batch, "
        << threads << " threads";
  }
}

TEST(TransformerTest, TrainBatchBitForBitAcrossThreadCounts) {
  std::vector<double> at1 = TrainRunAt(1);
  std::vector<double> at2 = TrainRunAt(2);
  std::vector<double> at8 = TrainRunAt(8);
  // Exact equality of every per-step loss and the post-training probe loss:
  // chunked gradient accumulation must not depend on the pool size.
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
}

}  // namespace
}  // namespace dimqr::lm
