/// \file kernels_avx512.cc
/// AVX-512 kernel tier. Compiled with -mavx512f -ffp-contract=off (see
/// src/CMakeLists.txt) and only ever dispatched to after a runtime
/// __builtin_cpu_supports("avx512f") check, so the rest of the binary stays
/// baseline x86-64.
///
/// Bit-identity with the scalar tier (kernels.cc) is by construction:
///  - separate _mm512_mul_ps/_mm512_add_ps (no FMA — the baseline build has
///    no FMA instruction, so its mul and add round separately; contraction
///    here would change bits), with -ffp-contract=off pinning the compiler;
///  - forward/GradB broadcast the left operand across lanes, keeping
///    each output element's single-accumulator ascending-p (resp. -i)
///    order;
///  - GradA keeps one 16-lane accumulator per (row, p, column tile) whose
///    lane assignment and reduction tree are exactly the shared scalar
///    recipe (internal::AccumulateLanes16 / ReduceLanes16) — sub-16 tails
///    are folded in by dumping the vector to a float[16] and calling the
///    shared helpers;
///  - all j-remainders, epilogues and FoldAdam's sub-vector tail run
///    through the shared scalar helpers compiled once in kernels.cc.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "lm/kernels_internal.h"

namespace dimqr::lm::kernels::internal {
namespace {

/// R rows x 32 columns register tile of C accumulated over p in [p0, p1).
/// Measured best at R=8 (16 zmm accumulators; the two B loads per p are
/// shared by all 8 rows, lifting the kernel off the L2-bandwidth bound the
/// single-row form sits on). Caller guarantees j1 - j0 is a multiple of 32.
template <int R>
inline void MatMulTileRx32(const float* a, const float* b, float* c, int i0,
                           int k, int n, int p0, int p1, int j0, int j1) {
  for (int j = j0; j < j1; j += 32) {
    __m512 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
      float* crow = c + static_cast<std::ptrdiff_t>(i0 + r) * n + j;
      acc0[r] = _mm512_loadu_ps(crow);
      acc1[r] = _mm512_loadu_ps(crow + 16);
    }
    for (int p = p0; p < p1; ++p) {
      const float* brow = b + static_cast<std::ptrdiff_t>(p) * n + j;
      __m512 b0 = _mm512_loadu_ps(brow);
      __m512 b1 = _mm512_loadu_ps(brow + 16);
      for (int r = 0; r < R; ++r) {
        __m512 av = _mm512_set1_ps(
            a[static_cast<std::ptrdiff_t>(i0 + r) * k + p]);
        acc0[r] = _mm512_add_ps(acc0[r], _mm512_mul_ps(av, b0));
        acc1[r] = _mm512_add_ps(acc1[r], _mm512_mul_ps(av, b1));
      }
    }
    for (int r = 0; r < R; ++r) {
      float* crow = c + static_cast<std::ptrdiff_t>(i0 + r) * n + j;
      _mm512_storeu_ps(crow, acc0[r]);
      _mm512_storeu_ps(crow + 16, acc1[r]);
    }
  }
}

void MatMulAvx512(const float* a, const float* b, float* c, int m, int k,
                  int n, const Epilogue* e) {
  std::memset(c, 0,
              sizeof(float) * static_cast<std::size_t>(m) *
                  static_cast<std::size_t>(n));
  const bool strip_epilogue = EpilogueHasStrip(e);
  for (int jt = 0; jt < n; jt += kTileJ) {
    const int jend = std::min(n, jt + kTileJ);
    const int jvec = jt + (jend - jt) / 32 * 32;
    for (int pt = 0; pt < k; pt += kTileP) {
      const int pend = std::min(k, pt + kTileP);
      int i = 0;
      for (; i + 8 <= m; i += 8) {
        MatMulTileRx32<8>(a, b, c, i, k, n, pt, pend, jt, jvec);
        for (int r = 0; jvec < jend && r < 8; ++r) {
          MatMulRowTail(a + static_cast<std::ptrdiff_t>(i + r) * k, b,
                        c + static_cast<std::ptrdiff_t>(i + r) * n, pt, pend,
                        jvec, jend, n);
        }
      }
      for (; i < m; ++i) {
        MatMulTileRx32<1>(a, b, c, i, k, n, pt, pend, jt, jvec);
        if (jvec < jend) {
          MatMulRowTail(a + static_cast<std::ptrdiff_t>(i) * k, b,
                        c + static_cast<std::ptrdiff_t>(i) * n, pt, pend,
                        jvec, jend, n);
        }
      }
    }
    // The strip [jt, jend) is complete across all p — fuse the epilogue
    // while it is still cache-hot.
    if (strip_epilogue) ApplyEpilogueStrip(c, *e, m, n, jt, jend);
  }
  FinishEpilogue(c, e, m, n);
}

void GradAAvx512(const float* dc, const float* b, float* da, int m, int k,
                 int n) {
  for (int pt = 0; pt < k; pt += kTileP) {
    const int pend = std::min(k, pt + kTileP);
    for (int jt = 0; jt < n; jt += kTileJ) {
      const int jend = std::min(n, jt + kTileJ);
      const int len = jend - jt;
      const int vend = len / 16 * 16;
      for (int i = 0; i < m; ++i) {
        const float* x = dc + static_cast<std::ptrdiff_t>(i) * n + jt;
        float* darow = da + static_cast<std::ptrdiff_t>(i) * k;
        int p = pt;
        // 4-way p unroll: independent accumulator chains hide the add
        // latency; each chain is still exactly one 16-lane accumulator.
        for (; p + 4 <= pend; p += 4) {
          const float* y0 = b + static_cast<std::ptrdiff_t>(p) * n + jt;
          const float* y1 = y0 + n;
          const float* y2 = y1 + n;
          const float* y3 = y2 + n;
          __m512 s0 = _mm512_setzero_ps(), s1 = _mm512_setzero_ps(),
                 s2 = _mm512_setzero_ps(), s3 = _mm512_setzero_ps();
          for (int j = 0; j < vend; j += 16) {
            __m512 xv = _mm512_loadu_ps(x + j);
            s0 = _mm512_add_ps(s0, _mm512_mul_ps(xv, _mm512_loadu_ps(y0 + j)));
            s1 = _mm512_add_ps(s1, _mm512_mul_ps(xv, _mm512_loadu_ps(y1 + j)));
            s2 = _mm512_add_ps(s2, _mm512_mul_ps(xv, _mm512_loadu_ps(y2 + j)));
            s3 = _mm512_add_ps(s3, _mm512_mul_ps(xv, _mm512_loadu_ps(y3 + j)));
          }
          alignas(64) float lanes[16];
          const float* ys[4] = {y0, y1, y2, y3};
          const __m512 ss[4] = {s0, s1, s2, s3};
          for (int u = 0; u < 4; ++u) {
            _mm512_store_ps(lanes, ss[u]);
            if (vend < len) {
              AccumulateLanes16(x + vend, ys[u] + vend, len - vend, lanes);
            }
            darow[p + u] += ReduceLanes16(lanes);
          }
        }
        for (; p < pend; ++p) {
          const float* y = b + static_cast<std::ptrdiff_t>(p) * n + jt;
          __m512 s = _mm512_setzero_ps();
          for (int j = 0; j < vend; j += 16) {
            s = _mm512_add_ps(
                s, _mm512_mul_ps(_mm512_loadu_ps(x + j),
                                 _mm512_loadu_ps(y + j)));
          }
          alignas(64) float lanes[16];
          _mm512_store_ps(lanes, s);
          if (vend < len) {
            AccumulateLanes16(x + vend, y + vend, len - vend, lanes);
          }
          darow[p] += ReduceLanes16(lanes);
        }
      }
    }
  }
}

/// R dB rows x 32 columns held in registers across the whole i sweep; per
/// element, i ascends — the scalar order.
template <int R>
inline void GradBTileRx32(const float* a, const float* dc, float* db, int m,
                          int k, int n, int p0, int j0, int j1) {
  for (int j = j0; j < j1; j += 32) {
    __m512 acc0[R], acc1[R];
    for (int r = 0; r < R; ++r) {
      float* dbrow = db + static_cast<std::ptrdiff_t>(p0 + r) * n + j;
      acc0[r] = _mm512_loadu_ps(dbrow);
      acc1[r] = _mm512_loadu_ps(dbrow + 16);
    }
    for (int i = 0; i < m; ++i) {
      const float* dcrow = dc + static_cast<std::ptrdiff_t>(i) * n + j;
      __m512 d0 = _mm512_loadu_ps(dcrow);
      __m512 d1 = _mm512_loadu_ps(dcrow + 16);
      const float* arow = a + static_cast<std::ptrdiff_t>(i) * k + p0;
      for (int r = 0; r < R; ++r) {
        __m512 av = _mm512_set1_ps(arow[r]);
        acc0[r] = _mm512_add_ps(acc0[r], _mm512_mul_ps(av, d0));
        acc1[r] = _mm512_add_ps(acc1[r], _mm512_mul_ps(av, d1));
      }
    }
    for (int r = 0; r < R; ++r) {
      float* dbrow = db + static_cast<std::ptrdiff_t>(p0 + r) * n + j;
      _mm512_storeu_ps(dbrow, acc0[r]);
      _mm512_storeu_ps(dbrow + 16, acc1[r]);
    }
  }
}

void GradBAvx512(const float* a, const float* dc, float* db, int m, int k,
                 int n) {
  for (int pt = 0; pt < k; pt += kTileP) {
    const int pend = std::min(k, pt + kTileP);
    for (int jt = 0; jt < n; jt += kTileJ) {
      const int jend = std::min(n, jt + kTileJ);
      const int jvec = jt + (jend - jt) / 32 * 32;
      int p = pt;
      for (; p + 8 <= pend; p += 8) {
        GradBTileRx32<8>(a, dc, db, m, k, n, p, jt, jvec);
        if (jvec < jend) GradBTail(a, dc, db, m, k, n, p, p + 8, jvec, jend);
      }
      for (; p < pend; ++p) {
        GradBTileRx32<1>(a, dc, db, m, k, n, p, jt, jvec);
        if (jvec < jend) GradBTail(a, dc, db, m, k, n, p, p + 1, jvec, jend);
      }
    }
  }
}

/// FoldAdam, 16 elements per step: the chunk sum is built in chunk order
/// and each step of the Adam recipe is one correctly rounded vector op.
void FoldAdamAvx512(float* const* chunks, int num_chunks, std::size_t begin,
                    std::size_t end, const AdamStep& step, float* params,
                    float* m, float* v) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 inv_n = _mm512_set1_ps(step.inv_n);
  const __m512 beta1 = _mm512_set1_ps(step.beta1);
  const __m512 beta2 = _mm512_set1_ps(step.beta2);
  const __m512 one_minus_beta1 = _mm512_set1_ps(1.0f - step.beta1);
  const __m512 one_minus_beta2 = _mm512_set1_ps(1.0f - step.beta2);
  const __m512 bc1 = _mm512_set1_ps(step.bc1);
  const __m512 bc2 = _mm512_set1_ps(step.bc2);
  const __m512 lr = _mm512_set1_ps(step.lr);
  const __m512 eps = _mm512_set1_ps(step.eps);
  std::size_t i = begin;
  for (; i + 16 <= end; i += 16) {
    __m512 g = _mm512_loadu_ps(chunks[0] + i);
    _mm512_storeu_ps(chunks[0] + i, zero);
    for (int c = 1; c < num_chunks; ++c) {
      g = _mm512_add_ps(g, _mm512_loadu_ps(chunks[c] + i));
      _mm512_storeu_ps(chunks[c] + i, zero);
    }
    g = _mm512_mul_ps(g, inv_n);
    const __m512 mi =
        _mm512_add_ps(_mm512_mul_ps(beta1, _mm512_loadu_ps(m + i)),
                      _mm512_mul_ps(one_minus_beta1, g));
    const __m512 vi = _mm512_add_ps(
        _mm512_mul_ps(beta2, _mm512_loadu_ps(v + i)),
        _mm512_mul_ps(_mm512_mul_ps(one_minus_beta2, g), g));
    _mm512_storeu_ps(m + i, mi);
    _mm512_storeu_ps(v + i, vi);
    const __m512 mhat = _mm512_div_ps(mi, bc1);
    const __m512 vhat = _mm512_div_ps(vi, bc2);
    // All 16 lanes: the plain sqrt's undefined pass-through source trips
    // GCC 12's -Wmaybe-uninitialized.
    const __m512 root = _mm512_maskz_sqrt_ps(static_cast<__mmask16>(0xFFFF),
                                             vhat);
    const __m512 update = _mm512_div_ps(_mm512_mul_ps(lr, mhat),
                                        _mm512_add_ps(root, eps));
    _mm512_storeu_ps(params + i,
                     _mm512_sub_ps(_mm512_loadu_ps(params + i), update));
  }
  if (i < end) FoldAdamTail(chunks, num_chunks, i, end, step, params, m, v);
}

}  // namespace

const KernelTable kAvx512Kernels = {MatMulAvx512, GradAAvx512, GradBAvx512,
                                    FoldAdamAvx512};

}  // namespace dimqr::lm::kernels::internal
