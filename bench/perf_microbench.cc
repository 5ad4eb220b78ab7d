// Google-benchmark micro-benchmarks over the core substrates, including
// the DESIGN.md ablation of exact-rational vs double-only conversion
// chains. These measure throughput; the table/figure binaries measure the
// paper's experimental results.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/fault.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "dimeval/generators.h"
#include "eval/harness.h"
#include "lm/kernels.h"
#include "lm/mock_llm.h"
#include "lm/resilient_model.h"
#include "lm/transformer.h"
#include "mwp/equation.h"
#include "serve/loadgen.h"
#include "serve/report.h"
#include "serve/server.h"
#include "solver/pipelines.h"
#include "solver/seq2seq.h"
#include "text/levenshtein.h"

namespace {

using namespace dimqr;

void BM_DimensionTimes(benchmark::State& state) {
  Dimension force = dims::Force();
  Dimension velocity = dims::Velocity();
  for (auto _ : state) {
    benchmark::DoNotOptimize(force.Times(velocity));
  }
}
BENCHMARK(BM_DimensionTimes);

void BM_RationalConversionChain(benchmark::State& state) {
  // mile -> yard -> foot -> inch -> centimetre, exactly.
  Rational mile_to_yd = Rational::Of(1760, 1).ValueOrDie();
  Rational yd_to_ft = Rational::Of(3, 1).ValueOrDie();
  Rational ft_to_in = Rational::Of(12, 1).ValueOrDie();
  Rational in_to_cm = Rational::Of(254, 100).ValueOrDie();
  for (auto _ : state) {
    Rational acc = Rational(1);
    acc = acc.Mul(mile_to_yd).ValueOrDie();
    acc = acc.Mul(yd_to_ft).ValueOrDie();
    acc = acc.Mul(ft_to_in).ValueOrDie();
    acc = acc.Mul(in_to_cm).ValueOrDie();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RationalConversionChain);

void BM_DoubleConversionChain(benchmark::State& state) {
  // The ablation counterpart: double-only chain (fast but drifts).
  for (auto _ : state) {
    double acc = 1.0;
    acc *= 1760.0;
    acc *= 3.0;
    acc *= 12.0;
    acc *= 2.54;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_DoubleConversionChain);

void BM_KbFindBySurface(benchmark::State& state) {
  // The interned path: SymbolTable lookup + CSR span, zero allocation.
  const kb::DimUnitKB& kb = *benchutil::GetKb();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.FindBySurface("km"));
    benchmark::DoNotOptimize(kb.FindBySurface("kilograms"));
    benchmark::DoNotOptimize(kb.FindBySurface("千克"));
  }
}
BENCHMARK(BM_KbFindBySurface);

void BM_KbConversionFactor(benchmark::State& state) {
  // Resolve-by-string then convert: what a caller starting from UnitID
  // strings pays per call (compare against BM_ConversionFactorCached).
  const kb::DimUnitKB& kb = *benchutil::GetKb();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kb.ConversionFactor(kb.IdOf("MI"), kb.IdOf("KiloM")));
  }
}
BENCHMARK(BM_KbConversionFactor);

void BM_ConversionFactorCached(benchmark::State& state) {
  // Handles resolved once, then every call is two array reads into the
  // per-dimension-class memo table.
  const kb::DimUnitKB& kb = *benchutil::GetKb();
  const UnitId mi = kb.IdOf("MI");
  const UnitId km = kb.IdOf("KiloM");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kb.ConversionFactor(mi, km));
  }
}
BENCHMARK(BM_ConversionFactorCached);

void BM_Levenshtein(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::LevenshteinSimilarity("kilometre per hour", "kilometer/hr"));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_UnitLinking(benchmark::State& state) {
  const linking::UnitLinker& linker = benchutil::GetAnnotator().linker();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        linker.Link("km/h", "the train travelled fast"));
  }
}
BENCHMARK(BM_UnitLinking);

void BM_LinkerLinkHotPath(benchmark::State& state) {
  // Full interned hot path: one edit-distance call per distinct lowercased
  // surface, postings fan-out into flat arrays, then context scoring.
  const linking::UnitLinker& linker = benchutil::GetAnnotator().linker();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        linker.Link("km", "the distance of the trip"));
  }
}
BENCHMARK(BM_LinkerLinkHotPath);

void BM_AnnotateSentence(benchmark::State& state) {
  const linking::DimKsAnnotator& annotator = benchutil::GetAnnotator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(annotator.Annotate(
        "LeBron James's height is 2.06 meters and Stephen Curry's height "
        "is 188 cm"));
  }
}
BENCHMARK(BM_AnnotateSentence);

void BM_EquationParseEvaluate(benchmark::State& state) {
  for (auto _ : state) {
    mwp::Equation eq =
        mwp::Equation::Parse("150*20%/5%-150").ValueOrDie();
    benchmark::DoNotOptimize(eq.Evaluate().ValueOrDie());
  }
}
BENCHMARK(BM_EquationParseEvaluate);

// ---------------------------------------------------------------------
// Parallel runtime: blocked-vs-naive kernels and thread sweeps. The sweep
// benches take the thread count as their range argument; on a single-core
// host the >1 entries measure pool overhead rather than speedup.

// Sized so the right-hand matrix (2048 x 2048 x 4 B = 16 MiB) blows out
// L2: this is the regime cache blocking exists for. At transformer-sized
// operands the kernels fall back to the naive loop order (see
// lm/kernels.cc), so a small-matrix comparison would measure nothing.
constexpr std::size_t kMatM = 128, kMatK = 2048, kMatN = 2048;

void BM_MatMulBlocked(benchmark::State& state) {
  std::vector<float> a(kMatM * kMatK), b(kMatK * kMatN), c(kMatM * kMatN);
  Rng rng(11);
  for (float& x : a) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (auto _ : state) {
    lm::kernels::MatMul(a.data(), b.data(), c.data(), kMatM, kMatK, kMatN);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatMulBlocked);

void BM_MatMulNaive(benchmark::State& state) {
  std::vector<float> a(kMatM * kMatK), b(kMatK * kMatN), c(kMatM * kMatN);
  Rng rng(11);
  for (float& x : a) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (auto _ : state) {
    lm::kernels::MatMulNaive(a.data(), b.data(), c.data(), kMatM, kMatK,
                             kMatN);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatMulNaive);

void BM_MatMulScalarTier(benchmark::State& state) {
  // The pre-SIMD blocked kernel, pinned to the scalar tier: the published
  // BM_MatMulBlocked / BM_MatMulScalarTier ratio is the SIMD speedup claim.
  lm::kernels::ScopedIsaForTest forced(lm::kernels::Isa::kScalar);
  std::vector<float> a(kMatM * kMatK), b(kMatK * kMatN), c(kMatM * kMatN);
  Rng rng(11);
  for (float& x : a) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (auto _ : state) {
    lm::kernels::MatMul(a.data(), b.data(), c.data(), kMatM, kMatK, kMatN);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatMulScalarTier);

void BM_MatMul(benchmark::State& state) {
  // Shape sweep over the regimes decode actually runs: m=1 is the GEMV
  // every Step pays against the D x V output head, m=8 a short batched
  // prefill, and the prime/odd point exercises every tail path (no
  // dimension is a multiple of any vector width or block size).
  const int m = static_cast<int>(state.range(0));
  const int kk = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  std::vector<float> a(static_cast<std::size_t>(m) * kk);
  std::vector<float> b(static_cast<std::size_t>(kk) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  Rng rng(11);
  for (float& x : a) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  for (auto _ : state) {
    lm::kernels::MatMul(a.data(), b.data(), c.data(), m, kk, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(m) * kk * n);
}
BENCHMARK(BM_MatMul)
    ->Args({1, 64, 32768})    // decode head GEMV (DecodeBenchConfig shape)
    ->Args({8, 64, 32768})    // short batched prefill against the head
    ->Args({1, 256, 64})      // decode FFN down-projection GEMV
    ->Args({61, 127, 509});   // all-prime: every remainder path at once

void BM_TrainBatch(benchmark::State& state) {
  // DimPerc fine-tuning on its real traffic: Adam steps at DimPerc's shapes
  // (BenchModelConfig: d_model 64, 3 layers, d_ff 192, max_seq 160, batch
  // 8) over 16 batches of TrainDimPerc's mix, encoded as TrainSteps encodes
  // it, on the DimEval build of e2e's finetune workload (the fast sizes,
  // whatever DIMQR_BENCH_FAST says; vocabulary 1,205). That mix is 5,708
  // knowledge pairs of 15-29 tokens (median 19) and 240 DimEval pairs of
  // 35-80 (median 57): 20.8 tokens per example, 48% of them under the loss
  // (all after the first <sep>), none past max_seq. The seeded sample
  // holds 6 DimEval pairs in its 128 examples, 20.9 tokens and 10.0 loss
  // positions per example (mix: 10.0). One iteration trains all 16
  // batches; items are examples.
  constexpr int kBatches = 16;
  struct Fixture {
    lm::TransformerConfig config;
    std::vector<std::vector<lm::LmExample>> batches;
  };
  static const Fixture* const kFixture = [] {
    std::vector<solver::SeqExample> mix = solver::MakeDimPercExamples(
        dimeval::BuildDimEval(benchutil::GetKb(), benchutil::GetAnnotator(),
                              benchutil::DimEvalOptions(/*fast=*/true))
            .ValueOrDie(),
        *benchutil::GetKb());
    const solver::Seq2SeqConfig dimperc = benchutil::BenchModelConfig();
    auto encoder =
        solver::Seq2SeqModel::Create("DimPerc", mix, dimperc).ValueOrDie();
    Rng rng(17);
    rng.Shuffle(mix);
    auto* f = new Fixture();
    f->config = dimperc.arch;
    f->config.vocab_size = static_cast<int>(encoder->vocab().size());
    f->config.seed = 13;
    f->batches.resize(kBatches);
    for (int i = 0; i < kBatches * dimperc.batch_size; ++i) {
      f->batches[i / dimperc.batch_size].push_back(
          encoder->EncodeExample(mix[i]));
    }
    return f;
  }();
  ScopedParallelism scope(static_cast<int>(state.range(0)));
  lm::Transformer model =
      lm::Transformer::Create(kFixture->config).ValueOrDie();
  for (auto _ : state) {
    for (const std::vector<lm::LmExample>& batch : kFixture->batches) {
      benchmark::DoNotOptimize(model.TrainBatch(batch, 1e-3).ValueOrDie());
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatches *
                          static_cast<std::int64_t>(
                              kFixture->batches[0].size()));
}
BENCHMARK(BM_TrainBatch)->DenseRange(1, 8)->UseRealTime();

void BM_EvalDimEval(benchmark::State& state) {
  ScopedParallelism scope(static_cast<int>(state.range(0)));
  // Self-contained choice-task set: generator instances + calibrated mock,
  // small enough to re-run per iteration without the full DimEval fixture.
  static const std::vector<dimeval::TaskInstance>* const kInstances = [] {
    dimeval::TaskGenerator gen(benchutil::GetKb());
    return new std::vector<dimeval::TaskInstance>(
        gen.UnitConversion(96).ValueOrDie());
  }();
  std::vector<const dimeval::TaskInstance*> tests;
  tests.reserve(kInstances->size());
  for (const dimeval::TaskInstance& inst : *kInstances) {
    tests.push_back(&inst);
  }
  lm::MockLlm mock("Bench", {{"unit_conversion", {0.6, 0.9}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::EvaluateChoiceTask(mock, tests));
  }
}
BENCHMARK(BM_EvalDimEval)->DenseRange(1, 8)->UseRealTime();

void BM_EvalDimEvalFaulty(benchmark::State& state) {
  // Overhead of the resilience layer on the same choice-task evaluation:
  // Arg(0) measures the clean fast path (no faults configured — the wrapper
  // must cost <3% over BM_EvalDimEval/4), Arg(20) measures 20% transient
  // faults with retries (every fault recovers; the row stays identical).
  ScopedParallelism scope(4);
  const int fault_pct = static_cast<int>(state.range(0));
  if (fault_pct > 0) {
    std::string spec = "lm.answer_choice:0." +
                       std::to_string(fault_pct / 10) + ":transient";
    if (!FaultRegistry::Global().Configure(spec).ok()) {
      state.SkipWithError("bad fault spec");
      return;
    }
  } else {
    FaultRegistry::Global().Clear();
  }
  static const std::vector<dimeval::TaskInstance>* const kInstances = [] {
    dimeval::TaskGenerator gen(benchutil::GetKb());
    return new std::vector<dimeval::TaskInstance>(
        gen.UnitConversion(96).ValueOrDie());
  }();
  std::vector<const dimeval::TaskInstance*> tests;
  tests.reserve(kInstances->size());
  for (const dimeval::TaskInstance& inst : *kInstances) {
    tests.push_back(&inst);
  }
  lm::MockLlm mock("Bench", {{"unit_conversion", {0.6, 0.9}}});
  lm::ResilientModel resilient(mock);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::EvaluateChoiceTask(resilient, tests));
  }
  FaultRegistry::Global().Clear();
}
BENCHMARK(BM_EvalDimEvalFaulty)->Arg(0)->Arg(20);

// ---------------------------------------------------------------------
// Inference fast path: batched prefill and greedy decode through a reused
// arena, and the prompt-prefix KV cache under the real eval harness.

// A realistic output head (D x V) dominates per-token cost: Prefill pays
// it once per prompt, each Step once per generated token. The vocabulary
// is sized like the LLaMA tokenizer of the paper's reference model (32k)
// so the head/body cost ratio matches that deployment regime.
lm::TransformerConfig DecodeBenchConfig() {
  lm::TransformerConfig c;
  c.vocab_size = 32768;
  c.d_model = 64;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 256;
  c.max_seq = 96;
  c.seed = 29;
  return c;
}

const lm::Transformer& DecodeBenchModel() {
  static const lm::Transformer* const kModel = new lm::Transformer(
      lm::Transformer::Create(DecodeBenchConfig()).ValueOrDie());
  return *kModel;
}

std::vector<int> DecodeBenchPrompt(int len) {
  Rng rng(101);
  std::vector<int> prompt;
  prompt.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    prompt.push_back(static_cast<int>(rng.UniformInt(6, 32767)));
  }
  return prompt;
}

constexpr int kDecodeNewTokens = 16;
constexpr int kDecodeNeverEos = -1;  // argmax is >= 0, so decode runs full

void BM_GreedyDecode(benchmark::State& state) {
  // The fast path as shipped: one batched Prefill of the prompt (range(0)
  // tokens), then 16 incremental Steps, all through a reused arena.
  const lm::Transformer& model = DecodeBenchModel();
  std::vector<int> prompt =
      DecodeBenchPrompt(static_cast<int>(state.range(0)));
  lm::DecodeState arena;
  arena.Bind(model.config());
  for (auto _ : state) {
    auto out = model.Greedy(prompt, kDecodeNewTokens, kDecodeNeverEos, arena,
                            nullptr);
    if (!out.ok()) {
      state.SkipWithError("greedy failed");
      return;
    }
    benchmark::DoNotOptimize(out.ValueOrDie().data());
  }
}
BENCHMARK(BM_GreedyDecode)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_PrefillBatched(benchmark::State& state) {
  // Prefill alone (no generation): one multi-row forward pass per
  // iteration into a warm arena — zero allocations in the timed region.
  const lm::Transformer& model = DecodeBenchModel();
  std::vector<int> prompt =
      DecodeBenchPrompt(static_cast<int>(state.range(0)));
  lm::DecodeState arena;
  arena.Bind(model.config());
  for (auto _ : state) {
    arena.Rewind();
    if (!model.Prefill(prompt, arena).ok()) {
      state.SkipWithError("prefill failed");
      return;
    }
    benchmark::DoNotOptimize(arena.logits().data());
  }
}
BENCHMARK(BM_PrefillBatched)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EvalDimEvalPrefixCache(benchmark::State& state) {
  // End-to-end choice evaluation through the trainable Seq2SeqModel (real
  // greedy decoding, 4 eval threads) with the prompt-prefix KV cache off
  // (Arg 0) vs on (Arg 1). DimEval prompts share instruction stems, so
  // with the cache on only each prompt's unshared tail is prefilled.
  ScopedParallelism scope(4);
  static const std::vector<dimeval::TaskInstance>* const kInstances = [] {
    dimeval::TaskGenerator gen(benchutil::GetKb());
    return new std::vector<dimeval::TaskInstance>(
        gen.UnitConversion(64).ValueOrDie());
  }();
  static solver::Seq2SeqModel* const kModel = [] {
    solver::Seq2SeqConfig config;
    config.max_generated_tokens = 24;
    return solver::Seq2SeqModel::Create(
               "BenchSeq2Seq", solver::MakeDimEvalExamples(*kInstances),
               config)
        .ValueOrDie()
        .release();
  }();
  std::vector<const dimeval::TaskInstance*> tests;
  tests.reserve(kInstances->size());
  for (const dimeval::TaskInstance& inst : *kInstances) {
    tests.push_back(&inst);
  }
  kModel->set_prefix_cache_enabled(state.range(0) == 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::EvaluateChoiceTask(*kModel, tests));
  }
}
BENCHMARK(BM_EvalDimEvalPrefixCache)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------
// Cold start: the startup cost the snapshot layer exists to delete.
// BM_ColdStartBuild pays the full build (parse the seed tables, assign
// frequencies, intern, index); BM_ColdStartSnapshot maps a packed file
// and aliases it zero-copy. The file is packed once, outside any timed
// region.

const std::string& ColdStartSnapshotPath() {
  static const std::string* const kPath = [] {
    const char* tmp = std::getenv("TMPDIR");
    auto* path = new std::string(std::string(tmp != nullptr ? tmp : "/tmp") +
                                 "/dimqr_coldstart_bench.dqs");
    snapshot::SnapshotWriter writer;
    std::shared_ptr<const kb::DimUnitKB> kb =
        kb::DimUnitKB::Build().ValueOrDie();
    if (!kb->WriteSnapshot(writer).ok() || !writer.WriteFile(*path).ok()) {
      std::fprintf(stderr, "cold-start pack failed: %s\n", path->c_str());
      std::exit(1);
    }
    return path;
  }();
  return *kPath;
}

void BM_ColdStartBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto kb = kb::DimUnitKB::Build();
    if (!kb.ok()) {
      state.SkipWithError("build failed");
      return;
    }
    benchmark::DoNotOptimize(kb.ValueOrDie()->units().size());
  }
}
BENCHMARK(BM_ColdStartBuild);

void BM_ColdStartMapOnly(benchmark::State& state) {
  // Container cost alone: mmap + header/section-table parse + whole-file
  // CRC-32C. The gap to BM_ColdStartSnapshot is the KB loader proper.
  const std::string& path = ColdStartSnapshotPath();
  for (auto _ : state) {
    auto snap = snapshot::Snapshot::Map(path);
    if (!snap.ok()) {
      state.SkipWithError("map failed");
      return;
    }
    benchmark::DoNotOptimize(snap.ValueOrDie()->view().size_bytes());
  }
}
BENCHMARK(BM_ColdStartMapOnly);

void BM_ColdStartSnapshot(benchmark::State& state) {
  const std::string& path = ColdStartSnapshotPath();
  for (auto _ : state) {
    auto snap = snapshot::Snapshot::Map(path);
    if (!snap.ok()) {
      state.SkipWithError("map failed");
      return;
    }
    auto kb = kb::DimUnitKB::FromSnapshot(snap.ValueOrDie());
    if (!kb.ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(kb.ValueOrDie()->units().size());
  }
}
BENCHMARK(BM_ColdStartSnapshot);

// ---------------------------------------------------------------------
// Serving layer: continuous batching over the decode bench model. The
// trace is generated once (seeded, outside the timed region); each
// iteration replays it through a fresh Server. Wall time measures the
// scheduler + batched decode; the counters surface the simulated-clock
// service metrics (latency percentiles, shed/deadline rates) that
// BENCH_perf.json publishes.

constexpr int kServeNeverEos = -1;  // argmax is >= 0, so decodes run full

void BM_ServeThroughput(benchmark::State& state) {
  // Steady offered load, roomy queue: measures batched decode throughput
  // as the batch width (slots) grows.
  const lm::Transformer& model = DecodeBenchModel();
  serve::LoadGenConfig load;
  load.num_requests = 48;
  load.seed = 7;
  load.vocab_size = model.config().vocab_size;
  load.stem_tokens = 24;
  load.max_tail_tokens = 8;
  load.max_new_tokens = 12;
  load.max_burst = 4;
  load.max_gap_ticks = 4;
  const std::vector<serve::ServeRequest> trace = serve::GenerateLoad(load);
  serve::ServerConfig config;
  config.slots = static_cast<int>(state.range(0));
  config.eos_token = kServeNeverEos;
  config.admission.queue_capacity = 128;
  serve::ServeReport report;
  for (auto _ : state) {
    serve::Server server(model, config);
    auto outcomes = server.Run(trace);
    if (!outcomes.ok()) {
      state.SkipWithError("serve run failed");
      return;
    }
    report = serve::BuildReport(outcomes.ValueOrDie());
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(report.generated_tokens));
  state.counters["sim_tokens_per_tick"] = report.TokensPerTick();
  state.counters["sim_p50_ticks"] =
      static_cast<double>(report.p50_latency_ticks);
  state.counters["sim_p99_ticks"] =
      static_cast<double>(report.p99_latency_ticks);
}
BENCHMARK(BM_ServeThroughput)->Arg(2)->Arg(4)->Arg(8);

void BM_ServeP99UnderBurst(benchmark::State& state) {
  // Oversubscribed bursts against a tight queue with deadlines: the
  // degradation ladder (rejection, hysteresis shedding, cancellation) is
  // live, and the tail of the completed-request latency distribution plus
  // the shed/miss rates are the published result.
  const lm::Transformer& model = DecodeBenchModel();
  serve::LoadGenConfig load;
  load.num_requests = 64;
  load.seed = 11;
  load.vocab_size = model.config().vocab_size;
  load.stem_tokens = 24;
  load.max_tail_tokens = 8;
  load.max_new_tokens = 12;
  load.max_burst = 12;
  load.max_gap_ticks = 3;
  load.deadline_min_ticks = 24;
  load.deadline_max_ticks = 96;
  const std::vector<serve::ServeRequest> trace = serve::GenerateLoad(load);
  serve::ServerConfig config;
  config.slots = 4;
  config.eos_token = kServeNeverEos;
  config.admission.queue_capacity = 12;
  serve::ServeReport report;
  for (auto _ : state) {
    serve::Server server(model, config);
    auto outcomes = server.Run(trace);
    if (!outcomes.ok()) {
      state.SkipWithError("serve run failed");
      return;
    }
    report = serve::BuildReport(outcomes.ValueOrDie());
    benchmark::DoNotOptimize(report);
  }
  state.counters["sim_p50_ticks"] =
      static_cast<double>(report.p50_latency_ticks);
  state.counters["sim_p95_ticks"] =
      static_cast<double>(report.p95_latency_ticks);
  state.counters["sim_p99_ticks"] =
      static_cast<double>(report.p99_latency_ticks);
  state.counters["shed_rate"] = report.ShedRate();
  state.counters["deadline_miss_rate"] = report.DeadlineMissRate();
}
BENCHMARK(BM_ServeP99UnderBurst);

}  // namespace

int main(int argc, char** argv) {
  // Timings from unoptimized trees are not comparable; refuse to produce
  // them unless explicitly overridden (DIMQR_ALLOW_NON_RELEASE_BENCH=1).
  if (std::strcmp(DIMQR_BUILD_TYPE, "Release") != 0 &&
      std::getenv("DIMQR_ALLOW_NON_RELEASE_BENCH") == nullptr) {
    std::fprintf(stderr,
                 "perf_microbench: refusing to run a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release (see run_benches.sh) or "
                 "set DIMQR_ALLOW_NON_RELEASE_BENCH=1 to override.\n",
                 DIMQR_BUILD_TYPE);
    return 1;
  }
  // Announce the kernel dispatch tier: timings from different tiers are
  // not comparable, so the tier travels with every result set (stderr
  // banner for humans, benchmark context for the JSON consumers).
  const char* isa = dimqr::lm::kernels::IsaName(dimqr::lm::kernels::ActiveIsa());
  std::fprintf(stderr, "perf_microbench: kernel dispatch tier: %s%s\n", isa,
               std::getenv("DIMQR_SIMD") != nullptr ? " (DIMQR_SIMD set)"
                                                    : "");
  benchmark::AddCustomContext("kernel_isa", isa);
  // run_benches.sh parses /proc/cpuinfo into this so the JSON records
  // what silicon produced the numbers.
  if (const char* flags = std::getenv("DIMQR_CPU_SIMD_FLAGS")) {
    benchmark::AddCustomContext("cpu_simd_flags", flags);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
