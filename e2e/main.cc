// dimqr_e2e: runs one end-to-end workload for a fixed interval and prints
// every metric with its name and unit, then one JSON result line.
//
//   dimqr_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <path>]
//
// A run sets up the workload at least three times (set-up time is the
// median), runs one untraced reference iteration whose output digest every
// later iteration must reproduce, then repeats iterations until `--seconds`
// have passed. Each set-up and iteration starts on the next window of CPUs
// (CpuRotation). Every timing is scaled to a fixed CPU clock (ClockGhz) and
// taken as a median over the set-ups or iterations. With `--trace 1` the
// measured iterations record spans, and the result carries the per-layer
// metrics instead of the end-to-end ones.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "lm/kernels.h"

namespace dimqr::e2e {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

bool ParseOptions(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The per-layer metrics of a traced run, in BENCHMARK.json order. Times
/// come from the spans; counts and ratios from the last iteration.
std::vector<Metric> LayerMetrics(const Tracer& tracer,
                                 const std::map<std::string, double>& layer,
                                 const std::vector<double>& traced_walls) {
  auto per_phase = [&](const char* span) {
    return tracer.PerPhaseSeconds(span);
  };
  auto pct = [&](const char* span, double p, double scale) {
    return Percentile(tracer.Durations(span), p) * scale;
  };
  auto count = [&](const char* name) {
    auto it = layer.find(name);
    return it == layer.end() ? 0.0 : it->second;
  };
  return {
      {"kb.build_s", per_phase("kb.build"), "s"},
      {"linking.build_s", per_phase("linking.build"), "s"},
      {"dimeval.build_s", per_phase("dimeval.build"), "s"},
      {"dimeval.instances", count("dimeval.instances"), "count"},
      {"dimeval.bootstrap_triples", count("dimeval.bootstrap_triples"),
       "count"},
      {"mwp.generate_s", per_phase("mwp.generate"), "s"},
      {"mwp.problems", count("mwp.problems"), "count"},
      {"solver.create_s", per_phase("solver.create"), "s"},
      {"solver.train_s", per_phase("solver.train"), "s"},
      {"solver.train_steps", count("solver.train_steps"), "count"},
      {"solver.train_step_ms_p50", pct("solver.train_step", 50, 1e3), "ms"},
      {"solver.train_step_ms_p90", pct("solver.train_step", 90, 1e3), "ms"},
      {"lm.prefix_cache_lookups", count("lm.prefix_cache_lookups"), "count"},
      {"lm.prefix_cache_hit_ratio", count("lm.prefix_cache_hit_ratio"),
       "ratio"},
      {"lm.prefix_cache_forked_tokens",
       count("lm.prefix_cache_forked_tokens"), "count"},
      {"eval.mwp_s", per_phase("eval.mwp"), "s"},
      {"eval.self_cpu_s", count("eval.self_cpu_s"), "s"},
      {"eval.worker_busy_ratio", count("eval.worker_busy_ratio"), "ratio"},
      {"eval.declined", count("eval.declined"), "count"},
      {"eval.dimeval_row_s", per_phase("eval.dimeval_row"), "s"},
      {"serve.run_s", per_phase("serve.run"), "s"},
      {"serve.rounds", count("serve.rounds"), "count"},
      {"serve.decode_tokens", count("serve.decode_tokens"), "count"},
      {"serve.prefill_tokens", count("serve.prefill_tokens"), "count"},
      {"serve.cached_token_ratio", count("serve.cached_token_ratio"), "ratio"},
      {"serve.tokens_per_round", count("serve.tokens_per_round"), "count"},
      {"serve.peak_queue_depth", count("serve.peak_queue_depth"), "count"},
      {"serve.shed", count("serve.shed"), "count"},
      {"serve.rejected", count("serve.rejected"), "count"},
      {"trace.wall_s", Median(traced_walls), "s"},
  };
}

void PrintMetric(const char* workload, const Metric& m) {
  std::printf("metric %s %s %.9g %s\n", workload, m.name.c_str(), m.value,
              m.unit);
}

int Run(const Options& o) {
  if (std::string_view(DIMQR_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "dimqr_e2e: built as '%s'; timings are only meaningful from "
                 "a Release build (-DCMAKE_BUILD_TYPE=Release)\n",
                 DIMQR_BUILD_TYPE);
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Workloads()) {
    if (o.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "dimqr_e2e: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  // The pool reads DIMQR_THREADS once, on first use; nothing has used it yet.
  setenv("DIMQR_THREADS", std::to_string(spec->threads).c_str(), 1);
  std::printf(
      "context workload=%s seed=%llu nproc=%u DIMQR_THREADS=%d isa=%s "
      "compiler=\"%s\" build_type=%s trace=%d tiny=%d\n",
      spec->name, static_cast<unsigned long long>(o.seed),
      std::thread::hardware_concurrency(), spec->threads,
      lm::kernels::IsaName(lm::kernels::ActiveIsa()), DIMQR_COMPILER,
      DIMQR_BUILD_TYPE, o.trace ? 1 : 0, o.tiny ? 1 : 0);

  Tracer tracer;
  tracer.set_enabled(o.trace);
  std::unique_ptr<Workload> workload = spec->make(o.seed, o.tiny);
  CpuRotation rotation(spec->threads);
  // At least three set-ups. Cheap ones repeat for up to three seconds, so
  // that their median spans several of the host's slow and fast spells.
  std::vector<double> setup_s, clock_ghz;
  // Each set-up and iteration is timed in cycles of the clock measured just
  // before and after it, and reported as seconds at kReferenceGhz. The shared
  // host moves every CPU's clock together, in 100 MHz steps (2.4-2.8 GHz
  // within minutes here), with its other tenants' load; measured in seconds,
  // runs of the same code drifted 30% over 20 minutes.
  auto clock_scale = [&clock_ghz](double ghz_before) {
    const double ghz = 0.5 * (ghz_before + ClockGhz());
    clock_ghz.push_back(ghz);
    return ghz / kReferenceGhz;
  };
  const double setup_t0 = NowS();
  do {
    tracer.BeginPhase();
    rotation.Next();
    const double ghz0 = ClockGhz();
    const double t0 = NowS();
    workload->Setup(tracer);
    const double wall = NowS() - t0;
    setup_s.push_back(wall * clock_scale(ghz0));
    // A user sets up once. Returning what a discarded set-up freed keeps the
    // free lists of repeated set-ups, spread over the pool threads' malloc
    // arenas, out of the peak RSS: on eval_decode it read 39-56 MiB over 20
    // runs without the trim, and 41-45 MiB over 5 runs with it.
    malloc_trim(0);
  } while (!o.tiny && (setup_s.size() < 3 ||
                       (NowS() - setup_t0 < 3.0 && setup_s.size() < 200)));

  // The first iteration is the untraced reference: it fixes the digest that
  // every later iteration, traced or not, must reproduce. A traced run does
  // not measure it; an untraced run does, which gives a workload whose
  // iterations take seconds one more sample in the same time.
  //
  // Every iteration repeats the same operations on the same inputs, so
  // each timing is taken as the median over the iterations. Other tenants
  // of the shared host slow this VM at every time scale, and the best
  // iteration follows their quiet moments: 8 minutes of back-to-back
  // finetune iterations, cut into 12-s windows, spread 21% by each window's
  // best iteration and 12% by its median one.
  tracer.set_enabled(false);
  std::vector<double> walls, clock_walls, cpus, concurrent_item_s;
  std::vector<std::vector<double>> op_samples;  // [op][iteration]
  std::uint64_t attempted = 0, failed = 0;
  std::size_t ops = 0;
  IterResult ref, last;
  std::string error;
  double ref_wall = 0.0;
  double deadline = NowS() + o.seconds;
  for (bool first = true; first || NowS() < deadline || walls.size() < 3;
       first = false) {
    tracer.BeginPhase();
    rotation.Next();
    const double ghz0 = ClockGhz();
    const double t0 = NowS(), cpu0 = ProcessCpuS();
    last = workload->Run(tracer);
    const double clock_wall = NowS() - t0, clock_cpu = ProcessCpuS() - cpu0;
    const double scale = clock_scale(ghz0);
    const double wall = clock_wall * scale, cpu = clock_cpu * scale;
    for (double& ms : last.op_ms) ms *= scale;
    last.concurrent_item_seconds *= scale;
    if (first) {
      ref = last;
      ref_wall = wall;
      error = ref.check_error;
      tracer.set_enabled(o.trace);
      if (o.trace) {
        deadline = NowS() + o.seconds;
        continue;
      }
    }
    walls.push_back(wall);
    clock_walls.push_back(clock_wall);
    cpus.push_back(cpu);
    if (last.digest_text != ref.digest_text) {
      error = "outputs differ between iterations";
    }
    if (error.empty()) error = last.check_error;
    concurrent_item_s.push_back(last.concurrent_item_seconds);
    attempted += last.attempted;
    failed += last.failed;
    ops += last.op_ms.size();
    if (op_samples.empty()) op_samples.resize(last.op_ms.size());
    if (op_samples.size() != last.op_ms.size()) {
      error = "op count differs between iterations";
      continue;
    }
    for (std::size_t i = 0; i < op_samples.size(); ++i) {
      op_samples[i].push_back(last.op_ms[i]);
    }
  }

  std::vector<double> op_ms;
  for (const std::vector<double>& samples : op_samples) {
    op_ms.push_back(Median(samples));
  }
  double item_s = Median(concurrent_item_s);
  if (item_s == 0.0) {
    for (double ms : op_ms) item_s += ms / 1e3;
  }
  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"wall_s", Median(walls), "s"},
      {"cpu_s", Median(cpus), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"items_per_s", item_s > 0.0 ? last.items / item_s : 0.0, "1/s"},
      {"op_ms_p50", Percentile(op_ms, 50), "ms"},
      {"op_ms_p90", Percentile(op_ms, 90), "ms"},
      {"quality", last.quality, "ratio"},
  };
  // The same numbers under the names the workload's users know them by,
  // plus the op p99, which only eval_decode has enough ops for (its 2000
  // answers leave 20 beyond it).
  const std::string op = spec->op_metric;
  const std::vector<Metric> named = {
      {spec->items_metric, end_to_end[4].value, "1/s"},
      {op + "_p50", end_to_end[5].value, "ms"},
      {op + "_p90", end_to_end[6].value, "ms"},
      {op + "_p99", Percentile(op_ms, 99), "ms"},
      {spec->quality_metric, end_to_end[7].value, "ratio"},
      {"failed_ratio", attempted == 0 ? 0.0 : double(failed) / attempted,
       "ratio"},
      // What the scaling started from: the iterations' wall time as the
      // system clock read it, and the CPU clock over set-ups and iterations.
      {"wall_clock_s", Median(clock_walls), "s"},
      {"clock_ghz", Median(clock_ghz), "GHz"},
  };
  for (const Metric& m : end_to_end) PrintMetric(spec->name, m);
  for (const Metric& m : named) PrintMetric(spec->name, m);
  std::printf("inputs %s %016llx setups=%zu\n", spec->name,
              static_cast<unsigned long long>(Fnv1a(workload->InputsText())),
              setup_s.size());
  std::printf(
      "digest %s %016llx iterations=%zu ops=%zu reference_wall_s=%.6f\n",
      spec->name,
              static_cast<unsigned long long>(Fnv1a(ref.digest_text)),
              walls.size(), ops, ref_wall);

  std::vector<Metric> reported = end_to_end;
  if (o.trace) {
    reported = LayerMetrics(tracer, last.layer, walls);
    for (const Metric& m : reported) PrintMetric(spec->name, m);
    if (!o.trace_out.empty() && !tracer.WriteChromeJson(o.trace_out)) {
      std::fprintf(stderr, "dimqr_e2e: cannot write %s\n", o.trace_out.c_str());
    }
  }
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) error = "metric " + m.name + " is not finite";
  }
  if (!error.empty()) std::printf("check FAILED: %s\n", error.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              error.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace dimqr::e2e

int main(int argc, char** argv) {
  dimqr::e2e::Options options;
  if (!dimqr::e2e::ParseOptions(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <finetune|eval_decode|serve_burst> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--tiny] [--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  return dimqr::e2e::Run(options);
}
