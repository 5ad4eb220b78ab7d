#ifndef DIMQR_CORE_FAULT_H_
#define DIMQR_CORE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

/// \file fault.h
/// Deterministic fault injection. A process-wide registry of named
/// injection sites lets the resilience layer (lm/resilient_model.h) and
/// the chaos tests simulate flaky backends — transient unavailability,
/// permanent errors, latency spikes and garbled responses — without any
/// real network in the loop.
///
/// Determinism contract: whether a site fires for a given call is a pure
/// function of (site name, instance_seed, attempt index), derived with
/// `Rng::DeriveSeed`. It never depends on wall-clock time, thread identity
/// or call order, so the same faults hit the same instances at any
/// `DIMQR_THREADS` setting — the property the chaos suite asserts.
///
/// Configuration comes from the `DIMQR_FAULTS` environment variable (or
/// `FaultRegistry::Configure` in tests): a comma-separated list of
/// `site:prob:kind[:after_n]` entries, e.g.:
///
///   DIMQR_FAULTS="lm.answer_choice:0.2:transient,lm.answer_text:1:permanent"
///
/// `prob` in [0,1] is the fraction of instances the fault affects (drawn
/// once per (site, instance)). `kind` is one of:
///   - transient: attempts 0..after_n-1 of an affected call fail with
///     kUnavailable, attempt after_n succeeds (default after_n = 2). With a
///     retry budget > after_n, every transient fault recovers, which is what
///     makes the faulted run byte-identical to the clean one.
///   - permanent: every attempt of an affected call fails with kInternal.
///   - latency: affected attempts cost 1..after_n extra simulated clock
///     ticks (default after_n = 8); no failure unless the caller enforces a
///     deadline.
///   - garbled: the backend "responds" but the payload is corrupted; the
///     caller substitutes a deterministically garbled answer.

namespace dimqr {

/// \brief What a configured fault does when it fires.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kTransient,  ///< Retryable kUnavailable failure, bounded per instance.
  kPermanent,  ///< Non-retryable kInternal failure on every attempt.
  kLatency,    ///< Extra simulated clock ticks; success otherwise.
  kGarbled,    ///< Success with a corrupted payload.
};

/// Human-readable kind name ("transient", ...).
std::string_view FaultKindToString(FaultKind kind);

/// \brief One site's configuration, parsed from `site:prob:kind[:after_n]`.
struct FaultSpec {
  double probability = 0.0;
  FaultKind kind = FaultKind::kNone;
  /// kTransient: number of leading attempts that fail per affected call.
  /// kLatency: maximum ticks added per affected attempt. Unused otherwise.
  int after_n = 0;
};

/// \brief The outcome of evaluating a site for one (instance, attempt).
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  int latency_ticks = 0;  ///< Set for kLatency.
  bool Fires() const { return kind != FaultKind::kNone; }
};

/// \brief The process-wide registry of fault configurations.
///
/// Configure/Clear are for startup and tests (not concurrent with parallel
/// evaluation); Evaluate is safe to call from any thread and is wait-free
/// against concurrent Configure via a swapped immutable snapshot.
class FaultRegistry {
 public:
  /// The singleton, configured from `DIMQR_FAULTS` on first access. A parse
  /// failure is fatal (see ApplyEnvSpecOrDie): a chaos run whose fault spec
  /// was silently dropped would pass as a clean run, which is exactly the
  /// false confidence fault injection exists to prevent.
  static FaultRegistry& Global();

  /// \brief Applies an environment-provided spec to this registry, aborting
  /// the process with the parse error on stderr when the spec is malformed.
  /// Factored out of Global() so the fatal path stays testable.
  void ApplyEnvSpecOrDie(const char* spec);

  /// \brief Replaces the configuration with the parsed `spec`
  /// ("site:prob:kind[:after_n][,...]"). An empty spec clears. Strict: any
  /// malformed entry rejects the whole spec and leaves the previous
  /// configuration in place.
  Status Configure(std::string_view spec);

  /// Removes all configured faults.
  void Clear();

  /// True iff any site is configured; the fast-path check callers use to
  /// skip fault bookkeeping entirely on clean runs.
  bool Active() const { return active_.load(std::memory_order_acquire); }

  /// \brief The deterministic fire/no-fire decision for one call attempt.
  /// Pure in (site, instance_seed, attempt); see the file comment.
  FaultDecision Evaluate(std::string_view site, std::uint64_t instance_seed,
                         int attempt) const;

  /// Sites currently configured, sorted.
  std::vector<std::string> ConfiguredSites() const;

  /// Every site name that has registered a FAULT_POINT so far (sorted,
  /// deduplicated). Diagnostic aid for spotting typos in DIMQR_FAULTS.
  static std::vector<std::string> KnownSites();

 private:
  using SpecMap = std::map<std::string, FaultSpec, std::less<>>;

  FaultRegistry() = default;
  std::shared_ptr<const SpecMap> Snapshot() const;

  mutable std::mutex mu_;
  std::shared_ptr<const SpecMap> specs_;
  std::atomic<bool> active_{false};
};

/// \brief A named injection site. Construct through FAULT_POINT so the name
/// is registered for diagnostics; Evaluate forwards to the global registry.
class FaultSite {
 public:
  explicit FaultSite(const char* name);

  const char* name() const { return name_; }

  /// The decision for this site on (instance_seed, attempt). Returns a
  /// no-fire decision immediately when no faults are configured.
  FaultDecision Evaluate(std::uint64_t instance_seed, int attempt = 0) const {
    FaultRegistry& registry = FaultRegistry::Global();
    if (!registry.Active()) return {};
    return registry.Evaluate(name_, instance_seed, attempt);
  }

 private:
  const char* name_;
};

/// \brief Names an injection site in code: evaluates to a reference to a
/// function-local static FaultSite, registered once per site on first use.
///
///   FaultDecision d = FAULT_POINT("lm.answer_choice").Evaluate(seed, n);
#define FAULT_POINT(site_literal)                        \
  ([]() -> const ::dimqr::FaultSite& {                   \
    static const ::dimqr::FaultSite kFaultSite{          \
        site_literal};                                   \
    return kFaultSite;                                   \
  }())

}  // namespace dimqr

#endif  // DIMQR_CORE_FAULT_H_
