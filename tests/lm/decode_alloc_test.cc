// Pins the decode-arena contract: once a DecodeState is bound and warm,
// Step and Prefill perform ZERO heap allocations per token. The whole
// point of the arena is that steady-state generation never touches the
// allocator, so this test replaces global operator new/delete with
// counting shims and asserts the counter does not move. The training
// workspace makes the same promise for a warm TrainBatch.
//
// This test lives in its own binary (see tests/CMakeLists.txt): replacing
// the global allocator would poison every other suite's measurements, and
// sanitizers intercept malloc themselves, so under ASan/TSan/MSan the
// shims are compiled out and the test skips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/parallel.h"
#include "core/snapshot.h"
#include "lm/transformer.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DIMQR_COUNTING_ALLOCATOR 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DIMQR_COUNTING_ALLOCATOR 0
#else
#define DIMQR_COUNTING_ALLOCATOR 1
#endif
#else
#define DIMQR_COUNTING_ALLOCATOR 1
#endif

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

#if DIMQR_COUNTING_ALLOCATOR

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Aligned overloads: AlignedVec (core/aligned.h) allocates through these,
// so they must count too — otherwise the zero-alloc guarantees would stop
// observing the cache-line-aligned decode buffers.
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) ==
      0) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // DIMQR_COUNTING_ALLOCATOR

namespace dimqr::lm {
namespace {

TransformerConfig AllocTestConfig() {
  TransformerConfig c;
  c.vocab_size = 48;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 32;
  c.max_seq = 64;
  c.seed = 11;
  return c;
}

TEST(DecodeAllocTest, SteadyStateStepAllocatesNothing) {
#if !DIMQR_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  Transformer model = Transformer::Create(AllocTestConfig()).ValueOrDie();
  DecodeState state;
  state.Bind(model.config());
  // Warm-up: the first Step binds nothing new (Bind preallocated), but run
  // a few tokens anyway so any one-time lazy work is behind us.
  for (int tok : {1, 7, 8}) {
    ASSERT_TRUE(model.Step(state, tok).ok());
  }
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  bool all_ok = true;
  for (int i = 0; i < 32; ++i) {
    all_ok = all_ok && model.Step(state, 6 + (i % 40)).ok();
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations across 32 decode steps";
#endif
}

TEST(DecodeAllocTest, PrefillOnBoundStateAllocatesNothing) {
#if !DIMQR_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  Transformer model = Transformer::Create(AllocTestConfig()).ValueOrDie();
  std::vector<int> prompt;
  for (int i = 0; i < 24; ++i) prompt.push_back(6 + (i % 40));
  DecodeState state;
  state.Bind(model.config());
  // Warm-up pass, then rewind: capacity is retained.
  ASSERT_TRUE(model.Prefill(prompt, state).ok());
  state.Rewind();
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  bool ok = model.Prefill(prompt.data(), static_cast<int>(prompt.size()),
                          state)
                .ok();
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_TRUE(ok);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a warm batched prefill";
#endif
}

TEST(DecodeAllocTest, RebindSameGeometryKeepsBuffers) {
#if !DIMQR_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  Transformer model = Transformer::Create(AllocTestConfig()).ValueOrDie();
  DecodeState state;
  state.Bind(model.config());
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  state.Bind(model.config());  // identical geometry: must be a no-op
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
#endif
}

TEST(DecodeAllocTest, SnapshotWeightLoadAllocatesConstant) {
#if !DIMQR_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // Zero-copy claim, measured: loading a Transformer from an arena must
  // alias the weights, so the allocation count is a small constant (layout
  // bookkeeping) regardless of parameter count — never O(parameters).
  Transformer model = Transformer::Create(AllocTestConfig()).ValueOrDie();
  snapshot::ArenaWriter arena;
  model.WriteTo(arena);
  const std::vector<std::byte> blob = std::move(arena).Take();
  // Warm-up load so any lazy one-time work is behind us.
  {
    snapshot::ArenaReader reader{std::span<const std::byte>(blob)};
    ASSERT_TRUE(Transformer::FromArena(reader).ok());
  }
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  snapshot::ArenaReader reader{std::span<const std::byte>(blob)};
  auto loaded = Transformer::FromArena(reader);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.ValueOrDie().borrowed());
  EXPECT_GT(loaded.ValueOrDie().num_parameters(), 1000u);
  EXPECT_LT(after - before, 32u)
      << (after - before)
      << " allocations loading snapshot weights (expected a small constant)";
#endif
}

TEST(TrainAllocTest, WarmTrainBatchAllocatesNothing) {
#if !DIMQR_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  // One thread: the step's chunks all run on this thread, whose workspace
  // and scratch the warm-up step has sized.
  ScopedParallelism serial(1);
  Transformer model = Transformer::Create(AllocTestConfig()).ValueOrDie();
  std::vector<LmExample> batch;
  for (int i = 0; i < 6; ++i) {
    LmExample e;
    const int len = 9 + 5 * i;
    for (int t = 0; t < len; ++t) {
      e.tokens.push_back(6 + (7 * i + t) % 40);
      e.loss_mask.push_back(t >= len / 2 ? 1 : 0);
    }
    batch.push_back(std::move(e));
  }
  ASSERT_TRUE(model.TrainBatch(batch, 1e-3).ok());
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const bool ok = model.TrainBatch(batch, 1e-3).ok();
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_TRUE(ok);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a warm training step";
#endif
}

}  // namespace
}  // namespace dimqr::lm
