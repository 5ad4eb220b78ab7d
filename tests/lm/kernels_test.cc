#include "lm/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/rng.h"

// Property tests for the dispatching kernel layer: every vector tier must be
// bit-identical to the scalar tier (which is itself pinned against the naive
// reference elsewhere), and fused epilogues must equal the unfused two-pass
// form bitwise. Shapes deliberately include primes, odd sizes,
// sub-vector-width dims, and tile-straddling sizes.

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

/// The unfused reference for the elementwise epilogue + row softmax,
/// mirroring the documented contract in kernels.h.
void ReferenceEpilogue(const std::vector<float>& c, const k::Epilogue& e,
                       int m, int n, std::vector<float>* out,
                       std::vector<float>* gelu_out) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::size_t idx = static_cast<std::size_t>(i) * n + j;
      float v = c[idx];
      if (e.bias != nullptr) v += e.bias[j];
      if (e.residual != nullptr) v = e.residual[idx] + v;
      (*out)[idx] = v;
      if (gelu_out != nullptr) (*gelu_out)[idx] = k::Gelu(v);
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

      // bias + residual + separate gelu buffer.
      k::Epilogue e;
      e.bias = bias.data();
      e.residual = residual.data();
      std::vector<float> gelu(mn);
      e.gelu_out = gelu.data();
      std::vector<float> fused(mn);
      k::MatMulEx(a.data(), b.data(), fused.data(), m, kk, n, e);
      std::vector<float> want(mn), want_gelu(mn);
      ReferenceEpilogue(plain, e, m, n, &want, &want_gelu);
      ASSERT_EQ(fused, want) << k::IsaName(isa) << " m=" << m << " n=" << n;
      ASSERT_EQ(gelu, want_gelu) << k::IsaName(isa);

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

}  // namespace
}  // namespace dimqr::lm
