#include "core/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/rng.h"

namespace dimqr {
namespace {

/// Default `after_n` per kind (see the file comment in fault.h).
int DefaultAfterN(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransient:
      return 2;
    case FaultKind::kLatency:
      return 8;
    default:
      return 0;
  }
}

Result<FaultKind> ParseKind(std::string_view word) {
  if (word == "transient") return FaultKind::kTransient;
  if (word == "permanent") return FaultKind::kPermanent;
  if (word == "latency") return FaultKind::kLatency;
  if (word == "garbled") return FaultKind::kGarbled;
  return Status::ParseError("unknown fault kind '" + std::string(word) +
                            "' (expected transient|permanent|latency|"
                            "garbled)");
}

/// Registered FAULT_POINT names. Guarded by its own mutex: registration
/// happens at first use of each site, possibly from worker threads.
std::mutex& SiteNamesMutex() {
  static std::mutex* const kMutex = new std::mutex();
  return *kMutex;
}
std::vector<std::string>& SiteNames() {
  static std::vector<std::string>* const kNames =
      new std::vector<std::string>();
  return *kNames;
}

}  // namespace

std::string_view FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kPermanent:
      return "permanent";
    case FaultKind::kLatency:
      return "latency";
    case FaultKind::kGarbled:
      return "garbled";
  }
  return "unknown";
}

FaultRegistry& FaultRegistry::Global() {
  // Leaked on purpose (same convention as GlobalPool): fault points may be
  // evaluated from static destructors.
  static FaultRegistry* const kRegistry = [] {
    auto* registry = new FaultRegistry();
    if (const char* env = std::getenv("DIMQR_FAULTS")) {
      registry->ApplyEnvSpecOrDie(env);
    }
    return registry;
  }();
  return *kRegistry;
}

void FaultRegistry::ApplyEnvSpecOrDie(const char* spec) {
  Status st = Configure(spec == nullptr ? "" : spec);
  if (!st.ok()) {
    // Fatal by design: silently dropping a chaos spec would let a faulted
    // run masquerade as a clean one.
    std::fprintf(stderr, "dimqr: fatal: invalid DIMQR_FAULTS spec: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
}

Status FaultRegistry::Configure(std::string_view spec) {
  auto parsed = std::make_shared<SpecMap>();
  std::size_t pos = 0;
  while (pos <= spec.size() && !spec.empty()) {
    std::size_t comma = spec.find(',', pos);
    std::string_view entry = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) continue;

    // site:prob:kind[:after_n]
    std::vector<std::string_view> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= entry.size(); ++i) {
      if (i == entry.size() || entry[i] == ':') {
        fields.push_back(entry.substr(start, i - start));
        start = i + 1;
      }
    }
    if (fields.size() < 3 || fields.size() > 4) {
      return Status::ParseError("fault entry '" + std::string(entry) +
                                "' is not site:prob:kind[:after_n]");
    }
    if (fields[0].empty()) {
      return Status::ParseError("fault entry '" + std::string(entry) +
                                "' has an empty site name");
    }

    std::string prob_text(fields[1]);
    char* end = nullptr;
    double probability = std::strtod(prob_text.c_str(), &end);
    if (end != prob_text.c_str() + prob_text.size() || probability < 0.0 ||
        probability > 1.0) {
      return Status::ParseError("fault probability '" + prob_text +
                                "' is not a number in [0, 1]");
    }

    DIMQR_ASSIGN_OR_RETURN(FaultKind kind, ParseKind(fields[2]));

    FaultSpec fault;
    fault.probability = probability;
    fault.kind = kind;
    fault.after_n = DefaultAfterN(kind);
    if (fields.size() == 4) {
      std::string after_text(fields[3]);
      char* after_end = nullptr;
      long after_n = std::strtol(after_text.c_str(), &after_end, 10);
      if (after_end != after_text.c_str() + after_text.size() ||
          after_n < 1 || after_n > 1'000'000) {
        return Status::ParseError("fault after_n '" + after_text +
                                  "' is not a positive integer");
      }
      fault.after_n = static_cast<int>(after_n);
    }
    (*parsed)[std::string(fields[0])] = fault;
  }

  std::lock_guard<std::mutex> lock(mu_);
  active_.store(!parsed->empty(), std::memory_order_release);
  specs_ = std::move(parsed);
  return Status::OK();
}

void FaultRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  active_.store(false, std::memory_order_release);
  specs_.reset();
}

std::shared_ptr<const FaultRegistry::SpecMap> FaultRegistry::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return specs_;
}

FaultDecision FaultRegistry::Evaluate(std::string_view site,
                                      std::uint64_t instance_seed,
                                      int attempt) const {
  std::shared_ptr<const SpecMap> specs = Snapshot();
  if (specs == nullptr) return {};
  auto it = specs->find(site);
  if (it == specs->end()) return {};
  const FaultSpec& fault = it->second;

  // Whether this *instance* is affected is drawn once from a seed that
  // mixes the site name into the instance seed; the attempt index then only
  // gates recovery. Pure in (site, instance_seed, attempt) by construction.
  Rng rng(Rng::DeriveSeed(Rng::DeriveSeed(instance_seed, site),
                          "fault-point"));
  if (!rng.Bernoulli(fault.probability)) return {};

  FaultDecision decision;
  switch (fault.kind) {
    case FaultKind::kTransient:
      if (attempt < fault.after_n) decision.kind = FaultKind::kTransient;
      break;
    case FaultKind::kPermanent:
      decision.kind = FaultKind::kPermanent;
      break;
    case FaultKind::kLatency:
      decision.kind = FaultKind::kLatency;
      decision.latency_ticks =
          static_cast<int>(rng.UniformInt(1, fault.after_n));
      break;
    case FaultKind::kGarbled:
      decision.kind = FaultKind::kGarbled;
      break;
    case FaultKind::kNone:
      break;
  }
  return decision;
}

std::vector<std::string> FaultRegistry::ConfiguredSites() const {
  std::vector<std::string> out;
  std::shared_ptr<const SpecMap> specs = Snapshot();
  if (specs == nullptr) return out;
  out.reserve(specs->size());
  for (const auto& [site, fault] : *specs) out.push_back(site);
  return out;
}

std::vector<std::string> FaultRegistry::KnownSites() {
  std::lock_guard<std::mutex> lock(SiteNamesMutex());
  std::vector<std::string> out = SiteNames();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

FaultSite::FaultSite(const char* name) : name_(name) {
  std::lock_guard<std::mutex> lock(SiteNamesMutex());
  SiteNames().emplace_back(name);
}

}  // namespace dimqr
