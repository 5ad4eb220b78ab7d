#include "lm/kernels.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"

// Property tests for the dispatching kernel layer: every vector tier must be
// bit-identical to the scalar tier (which is itself pinned against the naive
// reference elsewhere), and fused epilogues must equal the unfused two-pass
// form bitwise. Shapes deliberately include primes, odd sizes,
// sub-vector-width dims, and tile-straddling sizes. The training kernels
// (FoldAdam, GeluBackward) are pinned against test-local copies of the
// code they replaced.

namespace dimqr::lm {
namespace {

namespace k = dimqr::lm::kernels;

std::vector<float> RandomMatrix(Rng& rng, int rows, int cols,
                                double zero_rate = 0.1) {
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (float& v : m) {
    v = rng.Bernoulli(zero_rate) ? 0.0f
                                 : static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return m;
}

/// Shapes: unit, odd/prime, sub-block, >1 tile in both p (128) and j (512),
/// GEMV (m=1), and the m=8 register-tile boundary.
const std::vector<std::tuple<int, int, int>>& Shapes() {
  static const std::vector<std::tuple<int, int, int>> kShapes = {
      {1, 1, 1},      {3, 5, 7},       {7, 33, 129},   {8, 64, 96},
      {31, 127, 65},  {61, 127, 509},  {5, 130, 527},  {1, 64, 512},
      {9, 257, 1031}, {160, 192, 500},
  };
  return kShapes;
}

std::vector<k::Isa> VectorTiers() {
  std::vector<k::Isa> tiers;
  for (k::Isa isa : {k::Isa::kAvx2, k::Isa::kAvx512}) {
    if (k::IsaAvailable(isa)) tiers.push_back(isa);
  }
  return tiers;
}

TEST(KernelDispatchTest, ActiveIsaIsAvailableAndNamed) {
  k::Isa active = k::ActiveIsa();
  EXPECT_TRUE(k::IsaAvailable(active));
  EXPECT_TRUE(k::IsaAvailable(k::BestIsa()));
  EXPECT_TRUE(k::IsaAvailable(k::Isa::kScalar));
  for (k::Isa isa : {k::Isa::kScalar, k::Isa::kAvx2, k::Isa::kAvx512}) {
    EXPECT_STRNE(k::IsaName(isa), "unknown");
  }
}

TEST(KernelDispatchTest, ScopedIsaForTestForcesAndRestores) {
  k::Isa before = k::ActiveIsa();
  {
    k::ScopedIsaForTest forced(k::Isa::kScalar);
    EXPECT_EQ(k::ActiveIsa(), k::Isa::kScalar);
  }
  EXPECT_EQ(k::ActiveIsa(), before);
}

TEST(KernelTierTest, MatMulBitIdenticalAcrossTiers) {
  std::vector<k::Isa> tiers = VectorTiers();
  if (tiers.empty()) GTEST_SKIP() << "no vector tier on this host";
  Rng rng(101);
  for (auto [m, kk, n] : Shapes()) {
    std::vector<float> a = RandomMatrix(rng, m, kk);
    std::vector<float> b = RandomMatrix(rng, kk, n);
    std::vector<float> c_scalar(static_cast<std::size_t>(m) * n, -1.0f);
    {
      k::ScopedIsaForTest forced(k::Isa::kScalar);
      k::MatMul(a.data(), b.data(), c_scalar.data(), m, kk, n);
    }
    for (k::Isa isa : tiers) {
      std::vector<float> c(static_cast<std::size_t>(m) * n, 2.0f);
      k::ScopedIsaForTest forced(isa);
      k::MatMul(a.data(), b.data(), c.data(), m, kk, n);
      ASSERT_EQ(c, c_scalar) << k::IsaName(isa) << " m=" << m << " k=" << kk
                             << " n=" << n;
    }
  }
}

TEST(KernelTierTest, GradABitIdenticalAcrossTiers) {
  std::vector<k::Isa> tiers = VectorTiers();
  if (tiers.empty()) GTEST_SKIP() << "no vector tier on this host";
  Rng rng(102);
  for (auto [m, kk, n] : Shapes()) {
    std::vector<float> dc = RandomMatrix(rng, m, n);
    std::vector<float> b = RandomMatrix(rng, kk, n);
    // Nonzero start: GradA accumulates (+=), so the seed must survive.
    std::vector<float> da_scalar(static_cast<std::size_t>(m) * kk, 0.25f);
    {
      k::ScopedIsaForTest forced(k::Isa::kScalar);
      k::MatMulGradA(dc.data(), b.data(), da_scalar.data(), m, kk, n);
    }
    for (k::Isa isa : tiers) {
      std::vector<float> da(static_cast<std::size_t>(m) * kk, 0.25f);
      k::ScopedIsaForTest forced(isa);
      k::MatMulGradA(dc.data(), b.data(), da.data(), m, kk, n);
      ASSERT_EQ(da, da_scalar) << k::IsaName(isa) << " m=" << m << " k=" << kk
                               << " n=" << n;
    }
  }
}

TEST(KernelTierTest, GradBBitIdenticalAcrossTiers) {
  std::vector<k::Isa> tiers = VectorTiers();
  if (tiers.empty()) GTEST_SKIP() << "no vector tier on this host";
  Rng rng(103);
  for (auto [m, kk, n] : Shapes()) {
    std::vector<float> a = RandomMatrix(rng, m, kk);
    std::vector<float> dc = RandomMatrix(rng, m, n);
    std::vector<float> db_scalar(static_cast<std::size_t>(kk) * n, -0.5f);
    {
      k::ScopedIsaForTest forced(k::Isa::kScalar);
      k::MatMulGradB(a.data(), dc.data(), db_scalar.data(), m, kk, n);
    }
    for (k::Isa isa : tiers) {
      std::vector<float> db(static_cast<std::size_t>(kk) * n, -0.5f);
      k::ScopedIsaForTest forced(isa);
      k::MatMulGradB(a.data(), dc.data(), db.data(), m, kk, n);
      ASSERT_EQ(db, db_scalar) << k::IsaName(isa) << " m=" << m << " k=" << kk
                               << " n=" << n;
    }
  }
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

/// The tanh inside Gelu(x), rounded as the forward rounds it.
float ForwardGeluTanh(float x) {
  return std::tanh(kGeluC * (x + 0.044715f * x * x * x));
}

/// The unfused reference for the elementwise epilogue + row softmax,
/// mirroring the documented contract in kernels.h.
void ReferenceEpilogue(const std::vector<float>& c, const k::Epilogue& e,
                       int m, int n, std::vector<float>* out,
                       std::vector<float>* gelu_out,
                       std::vector<float>* tanh_out = nullptr) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::size_t idx = static_cast<std::size_t>(i) * n + j;
      float v = c[idx];
      if (e.bias != nullptr) v += e.bias[j];
      if (e.residual != nullptr) v = e.residual[idx] + v;
      (*out)[idx] = v;
      if (gelu_out != nullptr) (*gelu_out)[idx] = k::Gelu(v);
      if (tanh_out != nullptr) (*tanh_out)[idx] = ForwardGeluTanh(v);
    }
  }
  if (e.softmax_rows) {
    for (int i = 0; i < m; ++i) {
      float* row = out->data() + static_cast<std::size_t>(i) * n;
      float maxv = -1e30f;
      for (int j = 0; j < n; ++j) {
        if (row[j] > maxv) maxv = row[j];
      }
      float denom = 0.0f;
      for (int j = 0; j < n; ++j) {
        row[j] = std::exp(row[j] - maxv);
        denom += row[j];
      }
      float inv_denom = 1.0f / denom;
      for (int j = 0; j < n; ++j) row[j] *= inv_denom;
    }
  }
}

TEST(KernelFusionTest, FusedEpilogueMatchesUnfusedBitwiseOnEveryTier) {
  Rng rng(105);
  std::vector<k::Isa> tiers = {k::Isa::kScalar};
  for (k::Isa isa : VectorTiers()) tiers.push_back(isa);
  for (auto [m, kk, n] : Shapes()) {
    std::vector<float> a = RandomMatrix(rng, m, kk);
    std::vector<float> b = RandomMatrix(rng, kk, n);
    std::vector<float> bias = RandomMatrix(rng, 1, n, 0.0);
    std::vector<float> residual = RandomMatrix(rng, m, n, 0.0);
    const std::size_t mn = static_cast<std::size_t>(m) * n;
    for (k::Isa isa : tiers) {
      k::ScopedIsaForTest forced(isa);
      std::vector<float> plain(mn);
      k::MatMul(a.data(), b.data(), plain.data(), m, kk, n);

      // bias + residual + separate gelu and tanh buffers (training's FFN).
      k::Epilogue e;
      e.bias = bias.data();
      e.residual = residual.data();
      std::vector<float> gelu(mn), tanh_out(mn);
      e.gelu_out = gelu.data();
      e.tanh_out = tanh_out.data();
      std::vector<float> fused(mn);
      k::MatMulEx(a.data(), b.data(), fused.data(), m, kk, n, e);
      std::vector<float> want(mn), want_gelu(mn), want_tanh(mn);
      ReferenceEpilogue(plain, e, m, n, &want, &want_gelu, &want_tanh);
      ASSERT_EQ(fused, want) << k::IsaName(isa) << " m=" << m << " n=" << n;
      ASSERT_EQ(gelu, want_gelu) << k::IsaName(isa);
      ASSERT_EQ(tanh_out, want_tanh) << k::IsaName(isa) << " (tanh_out)";

      // gelu_out aliasing c: the in-place decode FFN form (bias only).
      k::Epilogue e2;
      e2.bias = bias.data();
      std::vector<float> inplace(mn);
      e2.gelu_out = inplace.data();
      k::MatMulEx(a.data(), b.data(), inplace.data(), m, kk, n, e2);
      std::vector<float> want2(mn), want_gelu2(mn);
      ReferenceEpilogue(plain, e2, m, n, &want2, &want_gelu2);
      ASSERT_EQ(inplace, want_gelu2) << k::IsaName(isa) << " (in-place gelu)";

      // out redirected away from c, with the residual aliasing out's
      // buffer (the decode x += proj + bias form).
      std::vector<float> x = residual;
      k::Epilogue e3;
      e3.bias = bias.data();
      e3.residual = x.data();
      e3.out = x.data();
      std::vector<float> scratch(mn, -7.0f);
      k::MatMulEx(a.data(), b.data(), scratch.data(), m, kk, n, e3);
      std::vector<float> want_x(mn);
      k::Epilogue eref;
      eref.bias = bias.data();
      eref.residual = residual.data();
      ReferenceEpilogue(plain, eref, m, n, &want_x, nullptr);
      ASSERT_EQ(x, want_x) << k::IsaName(isa) << " (residual==out alias)";

      // row softmax fused into the output loop.
      k::Epilogue e4;
      e4.softmax_rows = true;
      std::vector<float> soft(mn);
      k::MatMulEx(a.data(), b.data(), soft.data(), m, kk, n, e4);
      std::vector<float> want_soft = plain;
      ReferenceEpilogue(plain, e4, m, n, &want_soft, nullptr);
      ASSERT_EQ(soft, want_soft) << k::IsaName(isa) << " (softmax rows)";
    }
  }
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The training step's optimizer as it was before FoldAdam, verbatim: fold
/// the chunk gradients in chunk order into the first, then Adam over the
/// folded sum.
void TwoPassFoldThenAdam(const std::vector<std::vector<float>>& chunks,
                         std::int64_t adam_step, double learning_rate,
                         std::size_t batch_size, std::vector<float>* params,
                         std::vector<float>* adam_m,
                         std::vector<float>* adam_v) {
  std::vector<float> grads = chunks[0];
  for (std::size_t c = 1; c < chunks.size(); ++c) {
    for (std::size_t i = 0; i < grads.size(); ++i) grads[i] += chunks[c][i];
  }
  float inv_n = 1.0f / static_cast<float>(batch_size);
  const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  float bc1 = 1.0f - std::pow(beta1, static_cast<float>(adam_step));
  float bc2 = 1.0f - std::pow(beta2, static_cast<float>(adam_step));
  auto lr = static_cast<float>(learning_rate);
  for (std::size_t i = 0; i < grads.size(); ++i) {
    float g = grads[i] * inv_n;
    (*adam_m)[i] = beta1 * (*adam_m)[i] + (1.0f - beta1) * g;
    (*adam_v)[i] = beta2 * (*adam_v)[i] + (1.0f - beta2) * g * g;
    float mhat = (*adam_m)[i] / bc1;
    float vhat = (*adam_v)[i] / bc2;
    (*params)[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

TEST(KernelAdamTest, FoldAdamMatchesTwoPassFoldThenAdamOnEveryTier) {
  Rng rng(106);
  std::vector<k::Isa> tiers = {k::Isa::kScalar};
  for (k::Isa isa : VectorTiers()) tiers.push_back(isa);
  // Signed values with exact zeros of both signs, at several scales.
  auto values = [&rng](std::size_t len, double scale) {
    std::vector<float> out(len);
    for (float& x : out) {
      const double u = rng.UniformReal(0.0, 1.0);
      x = u < 0.1    ? 0.0f
          : u < 0.15 ? -0.0f
                     : static_cast<float>(rng.Normal(0.0, scale));
    }
    return out;
  };
  for (int num_chunks = 1; num_chunks <= 8; ++num_chunks) {
    for (std::size_t len : {1u, 7u, 15u, 17u, 40u, 127u, 1031u}) {
      for (std::int64_t adam_step : {1, 2, 37}) {
        std::vector<std::vector<float>> chunks;
        for (int c = 0; c < num_chunks; ++c) {
          chunks.push_back(values(len, c == 0 ? 1e-3 : 1.0));
        }
        std::vector<float> params = values(len, 0.1);
        std::vector<float> adam_m = values(len, 1e-2);
        std::vector<float> adam_v = values(len, 1e-3);
        for (float& x : adam_v) x = std::fabs(x);  // a second moment
        const std::size_t batch_size = 3 + static_cast<std::size_t>(num_chunks);
        const double learning_rate = 2e-3;
        std::vector<float> want_p = params, want_m = adam_m, want_v = adam_v;
        TwoPassFoldThenAdam(chunks, adam_step, learning_rate, batch_size,
                            &want_p, &want_m, &want_v);

        k::AdamStep step;
        step.beta1 = 0.9f;
        step.beta2 = 0.999f;
        step.eps = 1e-8f;
        step.bc1 = 1.0f - std::pow(0.9f, static_cast<float>(adam_step));
        step.bc2 = 1.0f - std::pow(0.999f, static_cast<float>(adam_step));
        step.lr = static_cast<float>(learning_rate);
        step.inv_n = 1.0f / static_cast<float>(batch_size);
        for (k::Isa isa : tiers) {
          k::ScopedIsaForTest forced(isa);
          std::vector<std::vector<float>> buffers = chunks;
          std::vector<float*> data;
          for (std::vector<float>& b : buffers) data.push_back(b.data());
          std::vector<float> p = params, m = adam_m, v = adam_v;
          // Two ranges, the second starting off any vector boundary, as the
          // element-wise ParallelFor splits the parameters.
          const std::size_t split = len / 3;
          k::FoldAdam(data.data(), num_chunks, 0, split, step, p.data(),
                      m.data(), v.data());
          k::FoldAdam(data.data(), num_chunks, split, len, step, p.data(),
                      m.data(), v.data());
          const std::string where = std::string(k::IsaName(isa)) +
                                    " chunks=" + std::to_string(num_chunks) +
                                    " len=" + std::to_string(len) +
                                    " step=" + std::to_string(adam_step);
          ASSERT_TRUE(SameBits(p, want_p)) << where << " (params)";
          ASSERT_TRUE(SameBits(m, want_m)) << where << " (m)";
          ASSERT_TRUE(SameBits(v, want_v)) << where << " (v)";
          for (const std::vector<float>& b : buffers) {
            ASSERT_TRUE(SameBits(b, std::vector<float>(len, 0.0f)))
                << where << " (chunk buffers are zero afterwards)";
          }
        }
      }
    }
  }
}

/// The transformer's GELU derivative before GeluBackward, verbatim.
float TodaysGeluGrad(float x) {
  float x3 = x * x * x;
  float inner = kGeluC * (x + 0.044715f * x3);
  float t = std::tanh(inner);
  float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
}

TEST(KernelGeluTest, GeluBackwardMatchesTodaysGeluGradBitwise) {
  Rng rng(107);
  std::vector<float> pre;
  for (int i = 0; i < (1 << 20); ++i) {
    pre.push_back(static_cast<float>(rng.Normal(0.0, 1.5)));
  }
  for (int i = 0; i < (1 << 16); ++i) {
    pre.push_back(static_cast<float>(rng.UniformReal(-60.0, 60.0)));
  }
  const float specials[] = {0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            1e-40f,
                            FLT_MIN,
                            1e-20f,
                            3.0f,
                            9.0f,
                            1e10f,
                            1e20f,
                            1e38f,
                            FLT_MAX};
  for (float x : specials) {
    pre.push_back(x);
    pre.push_back(-x);
  }
  std::vector<float> tanh_fwd(pre.size()), d_act(pre.size());
  std::size_t reused = 0;
  for (std::size_t i = 0; i < pre.size(); ++i) {
    tanh_fwd[i] = ForwardGeluTanh(pre[i]);
    d_act[i] = i % 2 == 0 ? 1.0f : static_cast<float>(rng.Normal(0.0, 1.0));
    const float x = pre[i];
    const float fwd = kGeluC * (x + 0.044715f * x * x * x);
    const float bwd = kGeluC * (x + 0.044715f * (x * x * x));
    if (std::memcmp(&fwd, &bwd, sizeof(float)) == 0) ++reused;
  }
  // Both branches run: most arguments agree, some do not.
  EXPECT_GT(reused, pre.size() / 2);
  EXPECT_LT(reused, pre.size());

  std::vector<float> want(pre.size());
  for (std::size_t i = 0; i < pre.size(); ++i) {
    want[i] = d_act[i] * TodaysGeluGrad(pre[i]);
  }
  std::vector<float> got(pre.size(), -7.0f);
  k::GeluBackward(pre.data(), tanh_fwd.data(), d_act.data(), got.data(),
                  pre.size());
  for (std::size_t i = 0; i < pre.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << "x=" << pre[i] << " got " << got[i] << " want " << want[i];
  }
}

}  // namespace
}  // namespace dimqr::lm
