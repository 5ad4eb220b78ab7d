#ifndef DIMQR_LM_KERNELS_H_
#define DIMQR_LM_KERNELS_H_

#include <cstddef>

/// \file kernels.h
/// Dense kernels for the micro-transformer (lm/transformer.cc) — the hot
/// inner loops of its forward and backward passes and of its optimizer
/// step. Since the SIMD rebuild this is a *dispatching* layer: one public
/// entry point per kernel, routed at runtime to the widest instruction tier
/// the CPU supports (AVX-512 > AVX2 > scalar), with the cache-blocked scalar
/// implementation kept verbatim as the `DIMQR_SIMD=0` fallback.
///
/// Dispatch (resolved once per process, cached):
///   DIMQR_SIMD unset or "1"  -> best supported tier (default)
///   DIMQR_SIMD=0 / "scalar"  -> scalar fallback
///   DIMQR_SIMD=avx2 / avx512 -> that tier exactly (fatal if unsupported)
/// Any other value is fatal — a mistyped knob must not silently change
/// which kernels produced a table.
///
/// Determinism and cross-tier bit-identity: every tier evaluates the same
/// element-level accumulation recipe, so switching tiers (or machines, as
/// long as one tier is forced) cannot perturb a single output bit:
///  - MatMul / MatMulGradB: per output element, contributions
///    are added in ascending-p (resp. ascending-i) order with one
///    accumulator — the naive kernel's order. The SIMD tiers broadcast the
///    left operand across vector lanes, which keeps that per-element order
///    exactly; they use separate multiply and add instructions (never FMA,
///    and the vector translation units are compiled with -ffp-contract=off)
///    so each product is rounded exactly like the scalar code's.
///  - MatMulGradA reduces along j, which no vector unit can do in
///    single-accumulator order. All tiers therefore share one fixed
///    16-lane recipe: within each column tile, element j contributes to
///    lane (j - tile_start) mod 16, and lanes collapse through the same
///    pairwise tree (w,w+8),(w,w+4),(w,w+2),(0,1). The scalar tier emulates
///    the lanes with a float[16]; AVX2 uses two 8-lane vectors; AVX-512 one
///    16-lane vector. Same additions, same order, same bits.
///  - FoldAdam is elementwise: each lane runs the scalar recipe's chunk
///    fold, separate multiplies and adds, and IEEE division and square
///    root, which are correctly rounded in every tier.
///
/// Fused epilogues: `MatMulEx` folds the elementwise work that used to be a
/// separate pass over the output (bias add, residual add, GELU, row
/// softmax) into the GEMM's output loop, applied per column strip while it
/// is still cache-hot. Epilogue arithmetic runs in one shared scalar
/// helper compiled once in kernels.cc, so fused and unfused results are
/// bit-identical across all tiers by construction. Training also keeps the
/// GELU's tanh (`Epilogue::tanh_out`), which `GeluBackward` reuses.
///
/// The *Naive reference kernels are retained for tests and benchmarks.
/// MatMulNaive is still bit-identical to MatMul; the naive gradient loops
/// are numeric (not bitwise) references for the lane-structured GradA.
namespace dimqr::lm::kernels {

/// \brief Instruction tiers, widest last. kScalar is always available; the
/// vector tiers exist only in x86-64 builds and are used only when the CPU
/// reports support at runtime.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable tier name ("scalar", "avx2", "avx512").
const char* IsaName(Isa isa);

/// Widest tier this binary + CPU can run (ignores DIMQR_SIMD).
Isa BestIsa();

/// True when `isa` is both compiled in and supported by this CPU.
bool IsaAvailable(Isa isa);

/// The tier all dispatching kernels use: DIMQR_SIMD applied to BestIsa().
/// Resolved once and cached; fatal on malformed or unsupported requests.
Isa ActiveIsa();

/// \brief Test hook: forces ActiveIsa() to `isa` for this scope. Not for
/// concurrent use with running kernels (tests are single-threaded).
class ScopedIsaForTest {
 public:
  explicit ScopedIsaForTest(Isa isa);
  ~ScopedIsaForTest();
  ScopedIsaForTest(const ScopedIsaForTest&) = delete;
  ScopedIsaForTest& operator=(const ScopedIsaForTest&) = delete;

 private:
  int prev_;
};

/// \brief Elementwise work fused into the GEMM output loop. Applied per
/// output element as:   v = c[i][j]; v += bias[j]; v = residual[i][j] + v;
/// out[i][j] = v; gelu_out[i][j] = Gelu(v);   (each step only when its
/// pointer is set; `out` defaults to c). `gelu_out` may alias `out`/c — the
/// activation lands last, which is the in-place decode FFN case — or point
/// elsewhere, which preserves pre-activations for backward. `tanh_out`
/// (only with `gelu_out`) receives the tanh inside that Gelu(v), for
/// `GeluBackward`; decode leaves it null. `residual` may
/// alias `out` (read-before-write per element). When `softmax_rows` is set,
/// each completed output row is normalized exactly like the training head
/// used to: ascending max scan (strict >, seeded at -1e30f), exp(x - max)
/// with an ascending denominator sum, then one multiply by 1/denom.
struct Epilogue {
  const float* bias = nullptr;      ///< length n
  const float* residual = nullptr;  ///< m x n
  float* out = nullptr;             ///< m x n; defaults to c
  float* gelu_out = nullptr;        ///< m x n; may alias out/c
  float* tanh_out = nullptr;        ///< m x n; own buffer
  bool softmax_rows = false;
};

/// The tanh-approximation GELU. The fused epilogue evaluates it through
/// the same helpers in kernels.cc, so fused and manual activation agree
/// bitwise.
float Gelu(float x);

/// \brief GELU backward over n elements: d_pre[i] = d_act[i] * Gelu'(pre[i]),
/// where `tanh_fwd[i]` is what the epilogue wrote to `tanh_out` for the
/// pre-activation `pre[i]`. The derivative rounds its tanh argument
/// (x + 0.044715 (x x) x) differently from the forward (x + ((0.044715 x) x) x);
/// where the two arguments agree bit for bit it reuses the forward's tanh,
/// elsewhere it calls std::tanh on its own, so every result is exactly the
/// derivative's own recipe. Not dispatched: tanh has no vector form with
/// libm's bits.
void GeluBackward(const float* pre, const float* tanh_fwd, const float* d_act,
                  float* d_pre, std::size_t n);

/// C(MxN) = A(MxK) * B(KxN), all row-major. Dispatched; bit-identical to
/// MatMulNaive at every tier.
void MatMul(const float* a, const float* b, float* c, int m, int k, int n);

/// MatMul with a fused epilogue (see Epilogue).
void MatMulEx(const float* a, const float* b, float* c, int m, int k, int n,
              const Epilogue& epilogue);

/// dA(MxK) += dC(MxN) * B^T (B is KxN). Dispatched; fixed 16-lane
/// reduction recipe shared by every tier (see file comment).
void MatMulGradA(const float* dc, const float* b, float* da, int m, int k,
                 int n);

/// dB(KxN) += A^T (A is MxK) * dC(MxN). Dispatched; per element, i
/// ascends — the naive order — at every tier.
void MatMulGradB(const float* a, const float* dc, float* db, int m, int k,
                 int n);

/// \brief One Adam step, its bias corrections formed: bc1 = 1 - beta1^t and
/// bc2 = 1 - beta2^t. `inv_n` (1 / batch size) scales the folded gradient.
struct AdamStep {
  float beta1 = 0.0f, beta2 = 0.0f, eps = 0.0f;
  float bc1 = 1.0f, bc2 = 1.0f;
  float lr = 0.0f;
  float inv_n = 1.0f;
};

/// \brief The training step's optimizer pass over elements [begin, end) of
/// the parameters, fused with the fold of the per-chunk gradient buffers.
/// Per element:
///   g = ((chunks[0][i] + chunks[1][i]) + ... + chunks[k-1][i]) * inv_n,
///   m = beta1 m + (1 - beta1) g,    v = beta2 v + ((1 - beta2) g) g,
///   param -= (lr (m / bc1)) / (sqrt(v / bc2) + eps),
/// and every chunk value is set to 0 as it is read, so the buffers are ready
/// for the next step. Dispatched; bit-identical at every tier.
void FoldAdam(float* const* chunks, int num_chunks, std::size_t begin,
              std::size_t end, const AdamStep& step, float* params, float* m,
              float* v);

/// Reference triple-loop kernels (the pre-blocking implementations).
void MatMulNaive(const float* a, const float* b, float* c, int m, int k,
                 int n);
void MatMulGradANaive(const float* dc, const float* b, float* da, int m, int k,
                      int n);
void MatMulGradBNaive(const float* a, const float* dc, float* db, int m, int k,
                      int n);

}  // namespace dimqr::lm::kernels

#endif  // DIMQR_LM_KERNELS_H_
