#ifndef DIMQR_LM_KERNELS_INTERNAL_H_
#define DIMQR_LM_KERNELS_INTERNAL_H_

#include "lm/kernels.h"

/// \file kernels_internal.h
/// Private contract between the dispatcher (kernels.cc) and the vector
/// tier translation units (kernels_avx2.cc / kernels_avx512.cc). Each tier
/// exports one KernelTable; the dispatcher picks a table once per process.
///
/// Bit-identity across tiers leans on two rules enforced here:
///  1. Every helper that does floating-point arithmetic shared between
///     tiers (epilogues, scalar edge loops, the GradA lane tail and
///     reduction tree) is compiled exactly once, in kernels.cc, with the
///     baseline flags — never inlined into a TU with different codegen
///     options.
///  2. Vector TUs are compiled with -ffp-contract=off and use separate
///     mul/add intrinsics, so their per-element rounding matches the
///     baseline build (which has no FMA instruction to contract into).

namespace dimqr::lm::kernels::internal {

/// Tile sizes shared by all tiers: a kTileP x kTileJ block of the
/// right-hand matrix is 256 KiB — L2-resident while A rows stream by.
/// GradA's lane recipe is defined per kTileJ column tile, so this is part
/// of the numeric contract, not just a tuning knob.
inline constexpr int kTileP = 128;
inline constexpr int kTileJ = 512;

struct KernelTable {
  void (*matmul)(const float* a, const float* b, float* c, int m, int k,
                 int n, const Epilogue* e);
  void (*grad_a)(const float* dc, const float* b, float* da, int m, int k,
                 int n);
  void (*grad_b)(const float* a, const float* dc, float* db, int m, int k,
                 int n);
};

extern const KernelTable kScalarKernels;
#ifdef DIMQR_X86_KERNELS
extern const KernelTable kAvx2Kernels;
extern const KernelTable kAvx512Kernels;
#endif

/// True when the epilogue has per-strip elementwise work (bias / residual /
/// out redirection / GELU). softmax_rows is handled by FinishEpilogue.
bool EpilogueHasStrip(const Epilogue* e);

/// Applies the elementwise epilogue to columns [j0, j1) of every row. The
/// single shared definition all tiers call after a column strip completes.
void ApplyEpilogueStrip(float* c, const Epilogue& e, int m, int n, int j0,
                        int j1);

/// Row-softmax pass (no-op unless e && e->softmax_rows), applied to the
/// epilogue's output rows after the whole matrix is done.
void FinishEpilogue(float* c, const Epilogue* e, int m, int n);

/// Scalar edge loops for the vector tiers' j-remainders. Forward/GradB
/// accumulate per element in the same order whether executed by vector
/// lanes or these scalars, so remainder handling cannot change bits.
/// Columns [j0, j1) of one C row: crow[j] += arow[p] * b[p][j], p ascending
/// over [p0, p1).
void MatMulRowTail(const float* arow, const float* b, float* crow, int p0,
                   int p1, int j0, int j1, int n);
/// Columns [j0, j1) of dB rows [p0, p1): db[p][j] += a[i][p] * dc[i][j],
/// i ascending over [0, m).
void GradBTail(const float* a, const float* dc, float* db, int m, int k,
               int n, int p0, int p1, int j0, int j1);

/// GradA lane recipe: adds x[j]*y[j] into lanes[j mod 16] for j in
/// [0, len). Vector tiers call this only for the sub-16 tail of a column
/// tile (after dumping their accumulator to a float[16]); the scalar tier
/// uses it for whole tiles.
void AccumulateLanes16(const float* x, const float* y, int len,
                       float* lanes);

/// The fixed pairwise reduction tree over 16 lanes:
/// (w,w+8) -> (w,w+4) -> (w,w+2) -> (0,1).
float ReduceLanes16(const float* lanes);

}  // namespace dimqr::lm::kernels::internal

#endif  // DIMQR_LM_KERNELS_INTERNAL_H_
