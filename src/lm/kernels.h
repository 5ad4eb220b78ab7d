#ifndef DIMQR_LM_KERNELS_H_
#define DIMQR_LM_KERNELS_H_

/// \file kernels.h
/// Dense kernels for the micro-transformer (lm/transformer.cc) — the hot
/// inner loops of its forward and backward passes. Since the SIMD
/// rebuild this is a *dispatching* layer: one public entry point per kernel,
/// routed at runtime to the widest instruction tier the CPU supports
/// (AVX-512 > AVX2 > scalar), with the cache-blocked scalar implementation
/// kept verbatim as the `DIMQR_SIMD=0` fallback.
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
///
/// Fused epilogues: `MatMulEx` folds the elementwise work that used to be a
/// separate pass over the output (bias add, residual add, GELU, row
/// softmax) into the GEMM's output loop, applied per column strip while it
/// is still cache-hot. Epilogue arithmetic runs in one shared scalar
/// helper compiled once in kernels.cc, so fused and unfused results are
/// bit-identical across all tiers by construction.
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
/// elsewhere, which preserves pre-activations for backward. `residual` may
/// alias `out` (read-before-write per element). When `softmax_rows` is set,
/// each completed output row is normalized exactly like the training head
/// used to: ascending max scan (strict >, seeded at -1e30f), exp(x - max)
/// with an ascending denominator sum, then one multiply by 1/denom.
struct Epilogue {
  const float* bias = nullptr;      ///< length n
  const float* residual = nullptr;  ///< m x n
  float* out = nullptr;             ///< m x n; defaults to c
  float* gelu_out = nullptr;        ///< m x n; may alias out/c
  bool softmax_rows = false;
};

/// The tanh-approximation GELU used by the fused epilogue and the
/// transformer forward pass (single shared definition so fused and manual
/// activation agree bitwise).
float Gelu(float x);

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

/// Reference triple-loop kernels (the pre-blocking implementations).
void MatMulNaive(const float* a, const float* b, float* c, int m, int k,
                 int n);
void MatMulGradANaive(const float* dc, const float* b, float* da, int m, int k,
                      int n);
void MatMulGradBNaive(const float* a, const float* dc, float* db, int m, int k,
                      int n);

}  // namespace dimqr::lm::kernels

#endif  // DIMQR_LM_KERNELS_H_
