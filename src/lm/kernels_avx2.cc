/// \file kernels_avx2.cc
/// AVX2 kernel tier — the fallback for x86-64 hosts without AVX-512.
/// Compiled with -mavx2 -ffp-contract=off; dispatched to only after a
/// runtime __builtin_cpu_supports("avx2") check. Same bit-identity
/// construction as kernels_avx512.cc: separate mul/add (no FMA), left
/// operand broadcast across lanes, GradA's 16-lane recipe carried as two
/// 8-lane vectors (acc0 = lanes 0..7, acc1 = lanes 8..15), and all
/// remainders/epilogues routed through the shared scalar helpers in
/// kernels.cc.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "lm/kernels_internal.h"

namespace dimqr::lm::kernels::internal {
namespace {

/// R rows x 16 columns register tile (two __m256 per row). Caller
/// guarantees j1 - j0 is a multiple of 16.
template <int R>
inline void MatMulTileRx16(const float* a, const float* b, float* c, int i0,
                           int k, int n, int p0, int p1, int j0, int j1) {
  for (int j = j0; j < j1; j += 16) {
    __m256 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
      float* crow = c + static_cast<std::ptrdiff_t>(i0 + r) * n + j;
      acc0[r] = _mm256_loadu_ps(crow);
      acc1[r] = _mm256_loadu_ps(crow + 8);
    }
    for (int p = p0; p < p1; ++p) {
      const float* brow = b + static_cast<std::ptrdiff_t>(p) * n + j;
      __m256 b0 = _mm256_loadu_ps(brow);
      __m256 b1 = _mm256_loadu_ps(brow + 8);
      for (int r = 0; r < R; ++r) {
        __m256 av = _mm256_set1_ps(
            a[static_cast<std::ptrdiff_t>(i0 + r) * k + p]);
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
      }
    }
    for (int r = 0; r < R; ++r) {
      float* crow = c + static_cast<std::ptrdiff_t>(i0 + r) * n + j;
      _mm256_storeu_ps(crow, acc0[r]);
      _mm256_storeu_ps(crow + 8, acc1[r]);
    }
  }
}

void MatMulAvx2(const float* a, const float* b, float* c, int m, int k,
                int n, const Epilogue* e) {
  std::memset(c, 0,
              sizeof(float) * static_cast<std::size_t>(m) *
                  static_cast<std::size_t>(n));
  const bool strip_epilogue = EpilogueHasStrip(e);
  for (int jt = 0; jt < n; jt += kTileJ) {
    const int jend = std::min(n, jt + kTileJ);
    const int jvec = jt + (jend - jt) / 16 * 16;
    for (int pt = 0; pt < k; pt += kTileP) {
      const int pend = std::min(k, pt + kTileP);
      int i = 0;
      for (; i + 4 <= m; i += 4) {
        MatMulTileRx16<4>(a, b, c, i, k, n, pt, pend, jt, jvec);
        for (int r = 0; jvec < jend && r < 4; ++r) {
          MatMulRowTail(a + static_cast<std::ptrdiff_t>(i + r) * k, b,
                        c + static_cast<std::ptrdiff_t>(i + r) * n, pt, pend,
                        jvec, jend, n);
        }
      }
      for (; i < m; ++i) {
        MatMulTileRx16<1>(a, b, c, i, k, n, pt, pend, jt, jvec);
        if (jvec < jend) {
          MatMulRowTail(a + static_cast<std::ptrdiff_t>(i) * k, b,
                        c + static_cast<std::ptrdiff_t>(i) * n, pt, pend,
                        jvec, jend, n);
        }
      }
    }
    if (strip_epilogue) ApplyEpilogueStrip(c, *e, m, n, jt, jend);
  }
  FinishEpilogue(c, e, m, n);
}

void GradAAvx2(const float* dc, const float* b, float* da, int m, int k,
               int n) {
  for (int pt = 0; pt < k; pt += kTileP) {
    const int pend = std::min(k, pt + kTileP);
    for (int jt = 0; jt < n; jt += kTileJ) {
      const int jend = std::min(n, jt + kTileJ);
      const int len = jend - jt;
      const int vend = len / 16 * 16;  // 16-granular: the lane recipe is mod-16
      for (int i = 0; i < m; ++i) {
        const float* x = dc + static_cast<std::ptrdiff_t>(i) * n + jt;
        float* darow = da + static_cast<std::ptrdiff_t>(i) * k;
        for (int p = pt; p < pend; ++p) {
          const float* y = b + static_cast<std::ptrdiff_t>(p) * n + jt;
          __m256 s0 = _mm256_setzero_ps();  // lanes 0..7
          __m256 s1 = _mm256_setzero_ps();  // lanes 8..15
          for (int j = 0; j < vend; j += 16) {
            s0 = _mm256_add_ps(
                s0, _mm256_mul_ps(_mm256_loadu_ps(x + j),
                                  _mm256_loadu_ps(y + j)));
            s1 = _mm256_add_ps(
                s1, _mm256_mul_ps(_mm256_loadu_ps(x + j + 8),
                                  _mm256_loadu_ps(y + j + 8)));
          }
          alignas(32) float lanes[16];
          _mm256_store_ps(lanes, s0);
          _mm256_store_ps(lanes + 8, s1);
          if (vend < len) {
            AccumulateLanes16(x + vend, y + vend, len - vend, lanes);
          }
          darow[p] += ReduceLanes16(lanes);
        }
      }
    }
  }
}

template <int R>
inline void GradBTileRx16(const float* a, const float* dc, float* db, int m,
                          int k, int n, int p0, int j0, int j1) {
  for (int j = j0; j < j1; j += 16) {
    __m256 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
      float* dbrow = db + static_cast<std::ptrdiff_t>(p0 + r) * n + j;
      acc0[r] = _mm256_loadu_ps(dbrow);
      acc1[r] = _mm256_loadu_ps(dbrow + 8);
    }
    for (int i = 0; i < m; ++i) {
      const float* dcrow = dc + static_cast<std::ptrdiff_t>(i) * n + j;
      __m256 d0 = _mm256_loadu_ps(dcrow);
      __m256 d1 = _mm256_loadu_ps(dcrow + 8);
      const float* arow = a + static_cast<std::ptrdiff_t>(i) * k + p0;
      for (int r = 0; r < R; ++r) {
        __m256 av = _mm256_set1_ps(arow[r]);
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, d0));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, d1));
      }
    }
    for (int r = 0; r < R; ++r) {
      float* dbrow = db + static_cast<std::ptrdiff_t>(p0 + r) * n + j;
      _mm256_storeu_ps(dbrow, acc0[r]);
      _mm256_storeu_ps(dbrow + 8, acc1[r]);
    }
  }
}

void GradBAvx2(const float* a, const float* dc, float* db, int m, int k,
               int n) {
  for (int pt = 0; pt < k; pt += kTileP) {
    const int pend = std::min(k, pt + kTileP);
    for (int jt = 0; jt < n; jt += kTileJ) {
      const int jend = std::min(n, jt + kTileJ);
      const int jvec = jt + (jend - jt) / 16 * 16;
      int p = pt;
      for (; p + 4 <= pend; p += 4) {
        GradBTileRx16<4>(a, dc, db, m, k, n, p, jt, jvec);
        if (jvec < jend) GradBTail(a, dc, db, m, k, n, p, p + 4, jvec, jend);
      }
      for (; p < pend; ++p) {
        GradBTileRx16<1>(a, dc, db, m, k, n, p, jt, jvec);
        if (jvec < jend) GradBTail(a, dc, db, m, k, n, p, p + 1, jvec, jend);
      }
    }
  }
}

}  // namespace

const KernelTable kAvx2Kernels = {MatMulAvx2, GradAAvx2, GradBAvx2};

}  // namespace dimqr::lm::kernels::internal
