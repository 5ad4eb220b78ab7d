#include "lm/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "lm/kernels_internal.h"

namespace dimqr::lm::kernels {

// ---------------------------------------------------------------------------
// Shared helpers — compiled exactly once, with baseline flags, so every tier
// funnels its epilogue/edge arithmetic through identical codegen.
// ---------------------------------------------------------------------------

namespace {

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

/// The forward's tanh argument; Gelu and the epilogue both round it this way.
float GeluInner(float x) { return kGeluC * (x + 0.044715f * x * x * x); }

/// Gelu(x), given t = tanh(GeluInner(x)).
float GeluOfTanh(float x, float t) { return 0.5f * x * (1.0f + t); }

}  // namespace

float Gelu(float x) { return GeluOfTanh(x, std::tanh(GeluInner(x))); }

void GeluBackward(const float* pre, const float* tanh_fwd, const float* d_act,
                  float* d_pre, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float x = pre[i];
    const float x3 = x * x * x;
    const float inner = kGeluC * (x + 0.044715f * x3);
    const float t =
        std::bit_cast<std::uint32_t>(inner) ==
                std::bit_cast<std::uint32_t>(GeluInner(x))
            ? tanh_fwd[i]
            : std::tanh(inner);
    const float sech2 = 1.0f - t * t;
    d_pre[i] = d_act[i] * (0.5f * (1.0f + t) +
                           0.5f * x * sech2 * kGeluC *
                               (1.0f + 3.0f * 0.044715f * x * x));
  }
}

namespace internal {

bool EpilogueHasStrip(const Epilogue* e) {
  return e != nullptr && (e->bias != nullptr || e->residual != nullptr ||
                          e->out != nullptr || e->gelu_out != nullptr);
}

void ApplyEpilogueStrip(float* c, const Epilogue& e, int m, int n, int j0,
                        int j1) {
  for (int i = 0; i < m; ++i) {
    const std::ptrdiff_t row = static_cast<std::ptrdiff_t>(i) * n;
    const float* crow = c + row;
    float* orow = (e.out != nullptr ? e.out : c) + row;
    const float* rrow = e.residual != nullptr ? e.residual + row : nullptr;
    float* grow = e.gelu_out != nullptr ? e.gelu_out + row : nullptr;
    float* trow = e.tanh_out != nullptr ? e.tanh_out + row : nullptr;
    for (int j = j0; j < j1; ++j) {
      float v = crow[j];
      if (e.bias != nullptr) v += e.bias[j];
      if (rrow != nullptr) v = rrow[j] + v;
      if (grow != nullptr) {
        const float t = std::tanh(GeluInner(v));
        const float g = GeluOfTanh(v, t);
        orow[j] = v;   // pre-activation first ...
        grow[j] = g;   // ... so gelu_out == out yields the activation.
        if (trow != nullptr) trow[j] = t;
      } else {
        orow[j] = v;
      }
    }
  }
}

void FinishEpilogue(float* c, const Epilogue* e, int m, int n) {
  if (e == nullptr || !e->softmax_rows) return;
  float* base = e->out != nullptr ? e->out : c;
  for (int i = 0; i < m; ++i) {
    float* row = base + static_cast<std::ptrdiff_t>(i) * n;
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

void MatMulRowTail(const float* arow, const float* b, float* crow, int p0,
                   int p1, int j0, int j1, int n) {
  for (int p = p0; p < p1; ++p) {
    float av = arow[p];
    const float* brow = b + static_cast<std::ptrdiff_t>(p) * n;
    for (int j = j0; j < j1; ++j) crow[j] += av * brow[j];
  }
}

void GradBTail(const float* a, const float* dc, float* db, int m, int k,
               int n, int p0, int p1, int j0, int j1) {
  for (int p = p0; p < p1; ++p) {
    float* dbrow = db + static_cast<std::ptrdiff_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      float av = a[static_cast<std::ptrdiff_t>(i) * k + p];
      const float* dcrow = dc + static_cast<std::ptrdiff_t>(i) * n;
      for (int j = j0; j < j1; ++j) dbrow[j] += av * dcrow[j];
    }
  }
}

void AccumulateLanes16(const float* x, const float* y, int len,
                       float* lanes) {
  int j = 0;
  for (; j + 16 <= len; j += 16) {
    for (int w = 0; w < 16; ++w) lanes[w] += x[j + w] * y[j + w];
  }
  for (int w = 0; j + w < len; ++w) lanes[w] += x[j + w] * y[j + w];
}

float ReduceLanes16(const float* lanes) {
  float s8[8], s4[4], s2[2];
  for (int w = 0; w < 8; ++w) s8[w] = lanes[w] + lanes[w + 8];
  for (int w = 0; w < 4; ++w) s4[w] = s8[w] + s8[w + 4];
  for (int w = 0; w < 2; ++w) s2[w] = s4[w] + s4[w + 2];
  return s2[0] + s2[1];
}

void FoldAdamTail(float* const* chunks, int num_chunks, std::size_t begin,
                  std::size_t end, const AdamStep& step, float* params,
                  float* m, float* v) {
  for (std::size_t i = begin; i < end; ++i) {
    float g = chunks[0][i];
    chunks[0][i] = 0.0f;
    for (int c = 1; c < num_chunks; ++c) {
      g += chunks[c][i];
      chunks[c][i] = 0.0f;
    }
    g *= step.inv_n;
    m[i] = step.beta1 * m[i] + (1.0f - step.beta1) * g;
    v[i] = step.beta2 * v[i] + (1.0f - step.beta2) * g * g;
    const float mhat = m[i] / step.bc1;
    const float vhat = v[i] / step.bc2;
    params[i] -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
  }
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Naive reference kernels (unchanged from the pre-blocking implementation).
// ---------------------------------------------------------------------------

void MatMulNaive(const float* a, const float* b, float* c, int m, int k,
                 int n) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::ptrdiff_t>(i) * n;
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(n));
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<std::ptrdiff_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulGradANaive(const float* dc, const float* b, float* da, int m, int k,
                      int n) {
  for (int i = 0; i < m; ++i) {
    const float* dcrow = dc + static_cast<std::ptrdiff_t>(i) * n;
    float* darow = da + static_cast<std::ptrdiff_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const float* brow = b + static_cast<std::ptrdiff_t>(p) * n;
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += dcrow[j] * brow[j];
      darow[p] += acc;
    }
  }
}

void MatMulGradBNaive(const float* a, const float* dc, float* db, int m, int k,
                      int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * k;
    const float* dcrow = dc + static_cast<std::ptrdiff_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      if (av == 0.0f) continue;
      float* dbrow = db + static_cast<std::ptrdiff_t>(p) * n;
      for (int j = 0; j < n; ++j) dbrow[j] += av * dcrow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar tier — the DIMQR_SIMD=0 fallback. The forward/GradB bodies are the
// pre-SIMD cache-blocked kernels verbatim; GradA is re-expressed through the
// shared 16-lane recipe so it matches the vector tiers bit for bit (a fixed
// re-association — the old tiled partial sums were a different but equally
// arbitrary association).
// ---------------------------------------------------------------------------

namespace {

using internal::kTileJ;
using internal::kTileP;

/// Below this right-hand-matrix footprint the whole working set is
/// cache-resident and tiling only adds loop overhead, so the scalar forward
/// kernel falls back to the naive loop order (bit-identical anyway).
constexpr std::size_t kSmallBytes = 512 * 1024;

bool Small(int k, int n) {
  return static_cast<std::size_t>(k) * static_cast<std::size_t>(n) *
             sizeof(float) <=
         kSmallBytes;
}

void ScalarMatMulCore(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  if (Small(k, n)) {
    MatMulNaive(a, b, c, m, k, n);
    return;
  }
  std::memset(c, 0,
              sizeof(float) * static_cast<std::size_t>(m) *
                  static_cast<std::size_t>(n));
  // Loop order jt -> pt -> i -> p -> j: the B tile b[pt.., jt..] stays hot
  // across the whole i sweep. For a fixed (i, j), contributions arrive with
  // p strictly ascending — the naive kernel's accumulation order — so the
  // two kernels agree bit for bit. The av == 0 skip is bit-neutral (the
  // accumulator can never hold -0, so adding the skipped +/-0 product is an
  // identity) and keeps the sparsity win on one-hot rows.
  for (int jt = 0; jt < n; jt += kTileJ) {
    const int jend = std::min(n, jt + kTileJ);
    for (int pt = 0; pt < k; pt += kTileP) {
      const int pend = std::min(k, pt + kTileP);
      for (int i = 0; i < m; ++i) {
        const float* arow = a + static_cast<std::ptrdiff_t>(i) * k;
        float* crow = c + static_cast<std::ptrdiff_t>(i) * n;
        for (int p = pt; p < pend; ++p) {
          float av = arow[p];
          if (av == 0.0f) continue;
          const float* brow = b + static_cast<std::ptrdiff_t>(p) * n;
          for (int j = jt; j < jend; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void ScalarMatMul(const float* a, const float* b, float* c, int m, int k,
                  int n, const Epilogue* e) {
  ScalarMatMulCore(a, b, c, m, k, n);
  // The scalar tier applies the epilogue as one whole-matrix pass — the
  // epilogue is elementwise, so this is bit-identical to the vector tiers'
  // per-strip application; only the fusion (cache) benefit differs.
  if (internal::EpilogueHasStrip(e)) {
    internal::ApplyEpilogueStrip(c, *e, m, n, 0, n);
  }
  internal::FinishEpilogue(c, e, m, n);
}

void ScalarGradA(const float* dc, const float* b, float* da, int m, int k,
                 int n) {
  // da[i][p] += dot(dc[i][:], b[p][:]), evaluated per kTileJ column tile
  // through the shared 16-lane recipe (see kernels.h). Applies to every
  // shape — the lane structure is the cross-tier numeric contract, so there
  // is no small-shape special case here.
  for (int pt = 0; pt < k; pt += kTileP) {
    const int pend = std::min(k, pt + kTileP);
    for (int jt = 0; jt < n; jt += kTileJ) {
      const int jend = std::min(n, jt + kTileJ);
      const int len = jend - jt;
      for (int i = 0; i < m; ++i) {
        const float* dcrow = dc + static_cast<std::ptrdiff_t>(i) * n + jt;
        float* darow = da + static_cast<std::ptrdiff_t>(i) * k;
        for (int p = pt; p < pend; ++p) {
          const float* brow = b + static_cast<std::ptrdiff_t>(p) * n + jt;
          float lanes[16] = {0.0f};
          internal::AccumulateLanes16(dcrow, brow, len, lanes);
          darow[p] += internal::ReduceLanes16(lanes);
        }
      }
    }
  }
}

void ScalarGradB(const float* a, const float* dc, float* db, int m, int k,
                 int n) {
  if (Small(k, n)) {
    MatMulGradBNaive(a, dc, db, m, k, n);
    return;
  }
  // db[p][j] += sum_i a[i][p] * dc[i][j]. The pt x jt tile of db stays hot
  // across the whole i sweep. Per db element, i ascends — same order as the
  // naive kernel and the vector tiers.
  for (int pt = 0; pt < k; pt += kTileP) {
    const int pend = std::min(k, pt + kTileP);
    for (int jt = 0; jt < n; jt += kTileJ) {
      const int jend = std::min(n, jt + kTileJ);
      for (int i = 0; i < m; ++i) {
        const float* arow = a + static_cast<std::ptrdiff_t>(i) * k;
        const float* dcrow = dc + static_cast<std::ptrdiff_t>(i) * n;
        for (int p = pt; p < pend; ++p) {
          float av = arow[p];
          if (av == 0.0f) continue;
          float* dbrow = db + static_cast<std::ptrdiff_t>(p) * n;
          for (int j = jt; j < jend; ++j) dbrow[j] += av * dcrow[j];
        }
      }
    }
  }
}

}  // namespace

namespace internal {
const KernelTable kScalarKernels = {ScalarMatMul, ScalarGradA, ScalarGradB,
                                    FoldAdamTail};
}  // namespace internal

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Isa BestIsa() {
#ifdef DIMQR_X86_KERNELS
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

bool IsaAvailable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#ifdef DIMQR_X86_KERNELS
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

namespace {

/// -1 while unresolved; otherwise the cached int(Isa). ScopedIsaForTest
/// swaps this directly.
std::atomic<int> g_active_isa{-1};

[[noreturn]] void DieBadSimdSpec(const char* value, const char* why) {
  std::fprintf(stderr,
               "fatal: DIMQR_SIMD=\"%s\" %s (expected unset, 0, 1, scalar, "
               "avx2, or avx512)\n",
               value, why);
  std::abort();
}

Isa ResolveIsaFromEnv() {
  const char* env = std::getenv("DIMQR_SIMD");
  std::string_view v = env != nullptr ? std::string_view(env)
                                      : std::string_view();
  if (v.empty() || v == "1") return BestIsa();
  if (v == "0" || v == "scalar") return Isa::kScalar;
  if (v == "avx2") {
    if (!IsaAvailable(Isa::kAvx2)) DieBadSimdSpec(env, "is not supported here");
    return Isa::kAvx2;
  }
  if (v == "avx512") {
    if (!IsaAvailable(Isa::kAvx512)) {
      DieBadSimdSpec(env, "is not supported here");
    }
    return Isa::kAvx512;
  }
  DieBadSimdSpec(env, "is not a recognized tier");
}

const internal::KernelTable& TableFor(Isa isa) {
#ifdef DIMQR_X86_KERNELS
  if (isa == Isa::kAvx512) return internal::kAvx512Kernels;
  if (isa == Isa::kAvx2) return internal::kAvx2Kernels;
#endif
  (void)isa;
  return internal::kScalarKernels;
}

const internal::KernelTable& ActiveTable() { return TableFor(ActiveIsa()); }

}  // namespace

Isa ActiveIsa() {
  int v = g_active_isa.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Isa>(v);
  Isa resolved = ResolveIsaFromEnv();
  g_active_isa.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

ScopedIsaForTest::ScopedIsaForTest(Isa isa)
    : prev_(g_active_isa.exchange(static_cast<int>(isa),
                                  std::memory_order_relaxed)) {}

ScopedIsaForTest::~ScopedIsaForTest() {
  g_active_isa.store(prev_, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Public dispatching entry points.
// ---------------------------------------------------------------------------

void MatMul(const float* a, const float* b, float* c, int m, int k, int n) {
  ActiveTable().matmul(a, b, c, m, k, n, nullptr);
}

void MatMulEx(const float* a, const float* b, float* c, int m, int k, int n,
              const Epilogue& epilogue) {
  ActiveTable().matmul(a, b, c, m, k, n, &epilogue);
}

void MatMulGradA(const float* dc, const float* b, float* da, int m, int k,
                 int n) {
  ActiveTable().grad_a(dc, b, da, m, k, n);
}

void MatMulGradB(const float* a, const float* dc, float* db, int m, int k,
                 int n) {
  ActiveTable().grad_b(a, dc, db, m, k, n);
}

void FoldAdam(float* const* chunks, int num_chunks, std::size_t begin,
              std::size_t end, const AdamStep& step, float* params, float* m,
              float* v) {
  ActiveTable().fold_adam(chunks, num_chunks, begin, end, step, params, m, v);
}

}  // namespace dimqr::lm::kernels
