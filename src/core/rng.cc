#include "core/rng.h"

#include <algorithm>
#include <numeric>

namespace dimqr {

std::uint64_t Rng::DeriveSeed(std::uint64_t parent, std::string_view label) {
  // FNV-1a over the label, mixed with the parent seed via splitmix64.
  std::uint64_t h = 14695981039346656037ULL ^ parent;
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::uint64_t Rng::SplitSeed(std::uint64_t parent, std::uint64_t stream) {
  // Golden-ratio sequence keyed by the stream index, mixed with the parent
  // through the splitmix64 finalizer (same mixer as DeriveSeed).
  std::uint64_t h = parent ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::UniformReal(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

std::size_t Rng::WeightedIndex(std::span<const double> running_sums) {
  if (running_sums.empty() || running_sums.back() <= 0.0) return 0;
  const double draw = UniformReal(0.0, running_sums.back());
  const auto it =
      std::upper_bound(running_sums.begin(), running_sums.end(), draw);
  if (it == running_sums.end()) return running_sums.size() - 1;
  return static_cast<std::size_t>(it - running_sums.begin());
}

std::vector<std::size_t> Rng::SampleIndices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  Shuffle(all);
  all.resize(std::min(n, k));
  return all;
}

}  // namespace dimqr
