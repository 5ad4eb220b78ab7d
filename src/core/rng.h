#ifndef DIMQR_CORE_RNG_H_
#define DIMQR_CORE_RNG_H_

#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

/// \file rng.h
/// Deterministic randomness. Every stochastic component in dimqr (dataset
/// generation, augmentation sampling, model initialization, simulated
/// baselines) draws from an Rng seeded explicitly, so tables and figures
/// reproduce bit-for-bit across runs.

namespace dimqr {

/// \brief A seedable PRNG wrapper with the sampling helpers the generators
/// need. Thin layer over std::mt19937_64; copyable (copies reproduce the
/// stream).
class Rng {
 public:
  /// Seeded PRNG; the default seed is the library-wide reproducibility seed.
  explicit Rng(std::uint64_t seed = 20240131) : engine_(seed) {}

  /// \brief Derives a child seed from a parent seed and a label, so modules
  /// can fork independent deterministic streams ("dimeval/unit_conversion").
  static std::uint64_t DeriveSeed(std::uint64_t parent, std::string_view label);

  /// \brief Derives a child seed from a parent seed and a numeric stream
  /// index. This is the split primitive behind deterministic parallelism:
  /// chunk (or item) `i` of a parallel loop draws from
  /// `Rng(SplitSeed(seed, i))`, so its stream is a function of the loop index
  /// only — never of which thread ran it. Distinct indices yield
  /// decorrelated streams (splitmix64 finalizer).
  static std::uint64_t SplitSeed(std::uint64_t parent, std::uint64_t stream);

  /// \brief Convenience: an Rng positioned on stream `stream` of `parent`.
  static Rng ForStream(std::uint64_t parent, std::uint64_t stream) {
    return Rng(SplitSeed(parent, stream));
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double UniformReal(double lo, double hi);

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p);

  /// Standard normal draw.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// \brief Index drawn proportionally to non-negative weights, given as
  /// their running sums: `running_sums[i]` is `w[0] + ... + w[i]`, added
  /// left to right (std::partial_sum), so a caller drawing many times from
  /// one table builds it once. Returns the first index whose sum
  /// exceeds `UniformReal(0, total)`, the last index if none does, and 0
  /// without drawing when there are no sums or the total is not positive.
  std::size_t WeightedIndex(std::span<const double> running_sums);

  /// A uniformly random element index for a container of size n. Requires n>0.
  std::size_t Index(std::size_t n) {
    return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = Index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Draws k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> SampleIndices(std::size_t n, std::size_t k);

  /// The underlying engine, for use with <random> distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dimqr

#endif  // DIMQR_CORE_RNG_H_
