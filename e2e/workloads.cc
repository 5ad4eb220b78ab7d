// The end-to-end workloads. Each one feeds the library only inputs
// generated here from the run's seed, times calls into public functions of
// the src/ modules from the outside, and checks its own outputs.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "dimeval/benchmark.h"
#include "eval/harness.h"
#include "kb/kb.h"
#include "linking/annotator.h"
#include "linking/linker.h"
#include "lm/transformer.h"
#include "mwp/augment.h"
#include "mwp/equation.h"
#include "mwp/generator.h"
#include "mwp/slotting.h"
#include "serve/loadgen.h"
#include "serve/report.h"
#include "serve/server.h"
#include "solver/dimperc.h"
#include "solver/pipelines.h"

namespace dimqr::e2e {
namespace {

/// A library call that fails ends the run: exit code 1, no result line.
template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "dimqr_e2e: %s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

std::string Bits(double value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buf;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The linker the bench binaries build; tiny runs train a smaller
/// embedding so the benchmark's own tests stay fast.
linking::LinkerConfig WorldLinkerConfig(bool tiny) {
  linking::LinkerConfig config;
  if (tiny) {
    config.corpus_sentences_per_cluster = 8;
    config.embedding.epochs = 1;
  }
  return config;
}

/// DimEval at the bench binaries' fast sizes.
dimeval::BenchmarkOptions DimEvalOptions(bool tiny) {
  dimeval::BenchmarkOptions options;
  options.train_per_task = tiny ? 4 : 40;
  options.test_per_task = tiny ? 2 : 20;
  options.extraction_corpus_sentences = tiny ? 30 : 300;
  return options;
}

/// DimPerc's shapes: d_model 64, 3 layers, d_ff 192, max_seq 160, batch 8.
solver::Seq2SeqConfig DimPercConfig() {
  solver::Seq2SeqConfig config;
  config.arch.d_model = 64;
  config.arch.n_heads = 4;
  config.arch.n_layers = 3;
  config.arch.d_ff = 192;
  config.arch.max_seq = 160;
  config.batch_size = 8;
  config.learning_rate = 2e-3;
  config.max_generated_tokens = 64;
  return config;
}

std::shared_ptr<const kb::DimUnitKB> BuildKb(Tracer& tracer) {
  Tracer::Scope span(tracer, "kb.build");
  return OrDie(kb::DimUnitKB::Build(), "DimUnitKB::Build");
}

std::shared_ptr<const linking::UnitLinker> BuildLinker(
    Tracer& tracer, std::shared_ptr<const kb::DimUnitKB> kb, bool tiny) {
  Tracer::Scope span(tracer, "linking.build");
  return OrDie(
      linking::UnitLinker::Build(std::move(kb), WorldLinkerConfig(tiny)),
      "UnitLinker::Build");
}

dimeval::DimEvalBenchmark BuildDimEval(
    Tracer& tracer, std::shared_ptr<const kb::DimUnitKB> kb,
    const linking::DimKsAnnotator& annotator, bool tiny) {
  Tracer::Scope span(tracer, "dimeval.build");
  return OrDie(
      dimeval::BuildDimEval(std::move(kb), annotator, DimEvalOptions(tiny)),
      "BuildDimEval");
}

void AddPrefixCacheStats(const lm::PrefixCache::Stats& before,
                         const lm::PrefixCache::Stats& after,
                         IterResult& result) {
  const double lookups = static_cast<double>(after.lookups - before.lookups);
  result.layer["lm.prefix_cache_lookups"] += lookups;
  result.layer["lm.prefix_cache_hits"] +=
      static_cast<double>(after.hits - before.hits);
  result.layer["lm.prefix_cache_forked_tokens"] +=
      static_cast<double>(after.hit_tokens - before.hit_tokens);
  result.layer["lm.prefix_cache_hit_ratio"] =
      Ratio(result.layer["lm.prefix_cache_hits"],
            result.layer["lm.prefix_cache_lookups"]);
}

// --- finetune --------------------------------------------------------------

/// DimPerc fine-tuning: a fixed number of TrainSteps(1) calls on
/// TrainDimPerc's example mix, then the DimPerc DimEval row. The World and
/// DimEval build are set-up. The training stream does not depend on the
/// seed: this early in training the macro F1 moves by 4x with the example
/// order (0.04 to 0.18 at 120 steps), which would make the quality metric
/// useless as a check.
class Finetune : public Workload {
 public:
  Finetune(std::uint64_t /*seed*/, bool tiny) : tiny_(tiny) {}

  void Setup(Tracer& tracer) override {
    *this = Finetune(0, tiny_);  // a repeated set-up starts from nothing
    kb_ = BuildKb(tracer);
    annotator_ = std::make_unique<linking::DimKsAnnotator>(
        BuildLinker(tracer, kb_, tiny_));
    bench_ = std::make_unique<dimeval::DimEvalBenchmark>(
        BuildDimEval(tracer, kb_, *annotator_, tiny_));
    Tracer::Scope span(tracer, "e2e.inputs");
    // TrainDimPerc's exact mix and order.
    examples_ = solver::MakeDimEvalExamples(bench_->train);
    for (auto&& extra : {solver::MakeUnitKnowledgeExamples(*kb_),
                         solver::MakeKindKnowledgeExamples(*kb_),
                         solver::MakeConversionKnowledgeExamples(*kb_)}) {
      examples_.insert(examples_.end(), extra.begin(), extra.end());
    }
  }

  std::string InputsText() const override {
    std::string text;
    for (const solver::SeqExample& ex : examples_) {
      text += ex.input + '\t' + ex.middle + '\t' + ex.answer + '\n';
    }
    return text;
  }

  IterResult Run(Tracer& tracer) override {
    IterResult r;
    const solver::Seq2SeqConfig config = DimPercConfig();
    std::shared_ptr<solver::Seq2SeqModel> model;
    {
      Tracer::Scope span(tracer, "solver.create");
      model = OrDie(solver::Seq2SeqModel::Create("DimPerc", examples_, config),
                    "Seq2SeqModel::Create");
    }
    // 100 steps leave 10 beyond the step-time p90.
    const int steps = tiny_ ? 3 : 100;
    double loss = 0.0;
    for (int s = 0; s < steps; ++s) {
      const double t0 = NowS();
      {
        Tracer::Scope span(tracer, "solver.train_step");
        loss = OrDie(model->TrainSteps(1), "TrainSteps");
      }
      r.op_ms.push_back((NowS() - t0) * 1e3);
    }
    r.items = static_cast<std::uint64_t>(steps) *
              static_cast<std::uint64_t>(config.batch_size);
    r.layer["solver.train_steps"] = steps;
    r.layer["dimeval.instances"] =
        static_cast<double>(bench_->train.size() + bench_->test.size());
    r.layer["dimeval.bootstrap_triples"] =
        static_cast<double>(bench_->bootstrap_triples);

    solver::DimPercPipeline pipeline("DimPerc", model);
    const eval::Extractor extractor = eval::AnnotatorExtractor(*annotator_);
    const lm::PrefixCache::Stats before = model->prefix_cache_stats();
    eval::DimEvalRow row;
    {
      Tracer::Scope span(tracer, "eval.dimeval_row");
      row = eval::EvaluateOnDimEval(pipeline, *bench_, &extractor);
    }
    AddPrefixCacheStats(before, model->prefix_cache_stats(), r);

    // Attempts are the training examples and the row's choice questions; a
    // declined choice answer is a failure.
    double f1_sum = 0.0;
    std::size_t declined = 0;
    r.attempted = r.items;
    r.digest_text = "loss " + Bits(loss) + "\n";
    for (const char* task : eval::DimEvalChoiceTasks()) {
      const eval::ChoiceMetrics& m = row.choice[task];
      f1_sum += m.F1();
      declined += m.total - m.answered;
      r.attempted += m.total;
      if (m.incomplete) r.check_error = std::string("task incomplete: ") + task;
      r.digest_text += std::string(task) + " " + std::to_string(m.total) + " " +
                       std::to_string(m.answered) + " " +
                       std::to_string(m.correct) + "\n";
    }
    r.digest_text += "extraction " + Bits(row.qe_f1) + " " + Bits(row.ve_f1) +
                     " " + Bits(row.ue_f1) + "\n";
    r.quality = f1_sum / static_cast<double>(eval::DimEvalChoiceTasks().size());
    r.failed = declined;
    r.layer["eval.declined"] = static_cast<double>(declined);
    if (!std::isfinite(loss)) r.check_error = "training loss is not finite";
    if (!tiny_ && r.quality <= 0.0) r.check_error = "DimPerc macro F1 is 0";
    return r;
  }

 private:
  bool tiny_;
  std::shared_ptr<const kb::DimUnitKB> kb_;
  std::unique_ptr<linking::DimKsAnnotator> annotator_;
  std::unique_ptr<dimeval::DimEvalBenchmark> bench_;
  std::vector<solver::SeqExample> examples_;
};

// --- eval_decode -----------------------------------------------------------

/// Times every answer of the wrapped model and keeps its response, so the
/// benchmark can rescore each problem itself.
class TimedModel : public lm::Model {
 public:
  TimedModel(lm::Model& inner, Tracer& tracer, int parent_span)
      : inner_(inner), tracer_(tracer), parent_span_(parent_span) {}

  const std::string& name() const override { return inner_.name(); }
  lm::ChoiceAnswer AnswerChoice(const lm::ChoiceQuestion& question) override {
    return inner_.AnswerChoice(question);
  }
  bool SupportsParallelEval() const override {
    return inner_.SupportsParallelEval();
  }

  std::string AnswerText(const lm::TextQuestion& question) override {
    const double t0 = NowS();
    const double cpu0 = ThreadCpuS();
    std::string response;
    {
      Tracer::Scope span(tracer_, "lm.answer", parent_span_);
      response = inner_.AnswerText(question);
    }
    const double cpu = ThreadCpuS() - cpu0;
    const double ms = (NowS() - t0) * 1e3;
    std::lock_guard<std::mutex> lock(mu_);
    ++answers;
    declined += response.empty() ? 1 : 0;
    busy_ms += ms;
    model_cpu_s += cpu;
    responses[question.prompt] = {response, ms};
    return response;
  }

  struct Answer {
    std::string response;
    double ms = 0.0;
  };
  std::size_t answers = 0;
  std::size_t declined = 0;
  double busy_ms = 0.0;
  double model_cpu_s = 0.0;
  /// Response and latency per prompt; greedy decoding makes the response a
  /// function of the prompt alone.
  std::map<std::string, Answer> responses;

 private:
  lm::Model& inner_;
  Tracer& tracer_;
  int parent_span_;
  std::mutex mu_;
};

/// Q-MWP evaluation: greedy decode, equation scoring and the parallel
/// fan-out over large seeded N-/Q-MWP test sets, with no training in the
/// measured part.
class EvalDecode : public Workload {
 public:
  EvalDecode(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void Setup(Tracer& tracer) override {
    *this = EvalDecode(seed_, tiny_);  // a repeated set-up starts from nothing
    std::shared_ptr<const kb::DimUnitKB> kb = BuildKb(tracer);
    std::vector<mwp::TemplatedProblem> train;
    {
      Tracer::Scope span(tracer, "mwp.generate");
      train = GenerateSets(kb, /*seed=*/777, tiny_ ? 8 : 80);
      tests_ = GenerateSets(kb, Rng::DeriveSeed(seed_, "e2e.mwp"),
                            tiny_ ? 4 : 500);
    }
    problems_ = train.size() + tests_.size();
    {
      Tracer::Scope span(tracer, "solver.create");
      model_ = OrDie(solver::Seq2SeqModel::Create(
                         "DimPerc (N+Q)", solver::MakeMwpExamples(train),
                         DimPercConfig()),
                     "Seq2SeqModel::Create");
    }
    Tracer::Scope span(tracer, "solver.train");
    OrDie(model_->TrainEpochs(tiny_ ? 1 : 3), "TrainEpochs");
  }

  std::string InputsText() const override {
    std::string text;
    for (const mwp::TemplatedProblem& tp : tests_) {
      text += tp.problem.text + '\n';
    }
    return text;
  }

  IterResult Run(Tracer& tracer) override {
    IterResult r;
    r.layer["mwp.problems"] = static_cast<double>(problems_);
    const lm::PrefixCache::Stats before = model_->prefix_cache_stats();
    double accuracy = 0.0, wall = 0.0, cpu = 0.0;
    std::unique_ptr<TimedModel> timed;
    {
      Tracer::Scope span(tracer, "eval.mwp");
      timed = std::make_unique<TimedModel>(*model_, tracer, span.id());
      const double t0 = NowS();
      const double cpu0 = ProcessCpuS();
      accuracy = solver::EvaluateMwpAccuracy(*timed, tests_);
      cpu = ProcessCpuS() - cpu0;
      wall = NowS() - t0;
    }
    AddPrefixCacheStats(before, model_->prefix_cache_stats(), r);

    // Rescore every problem from its recorded response; the count must
    // reproduce the harness's accuracy exactly.
    std::size_t correct = 0;
    r.digest_text.reserve(tests_.size() + 1);
    for (const mwp::TemplatedProblem& tp : tests_) {
      bool ok = false;
      Result<mwp::SlottedProblem> slotted = mwp::SlotNumbers(tp.problem);
      if (slotted.ok()) {
        auto it = timed->responses.find(slotted->input_text);
        ok = it != timed->responses.end() && !it->second.response.empty() &&
             mwp::EquationAnswersMatch(
                 mwp::UnslotEquation(it->second.response,
                                     slotted->slot_literals),
                 tp.problem.answer);
      }
      correct += ok ? 1 : 0;
      r.digest_text += ok ? '1' : '0';
    }
    r.digest_text += '\n';
    r.quality = accuracy;
    if (static_cast<double>(correct) / static_cast<double>(tests_.size()) !=
        accuracy) {
      r.check_error = "rescored answers disagree with EvaluateMwpAccuracy";
    }
    if (!tiny_ && accuracy <= 0.0) r.check_error = "MWP accuracy is 0";

    // One latency per distinct prompt, in prompt order, so that the same
    // answer lines up across iterations whatever order the workers ran.
    for (const auto& [prompt, answer] : timed->responses) {
      r.op_ms.push_back(answer.ms);
    }
    r.items = r.attempted = timed->answers;
    r.failed = timed->declined;
    r.concurrent_item_seconds = wall;
    r.layer["eval.declined"] = static_cast<double>(timed->declined);
    r.layer["eval.self_cpu_s"] = cpu - timed->model_cpu_s;
    r.layer["eval.worker_busy_ratio"] =
        Ratio(timed->busy_ms / 1e3, wall * ParallelThreadCount());
    return r;
  }

 private:
  static Result<std::vector<mwp::TemplatedProblem>> TryGenerateSets(
      const std::shared_ptr<const kb::DimUnitKB>& kb, std::uint64_t seed,
      int per_set) {
    mwp::MwpGenerator generator(kb, seed);
    DIMQR_ASSIGN_OR_RETURN(std::vector<mwp::TemplatedProblem> n_math,
                           generator.Generate("n_math23k", per_set, 0.22));
    DIMQR_ASSIGN_OR_RETURN(std::vector<mwp::TemplatedProblem> n_ape,
                           generator.Generate("n_ape210k", per_set, 0.60));
    mwp::QMwpOptions q_options;
    q_options.augmentation_rate = 1.0;
    q_options.seed = Rng::DeriveSeed(seed, "e2e.qmwp");
    DIMQR_ASSIGN_OR_RETURN(std::vector<mwp::TemplatedProblem> out,
                           mwp::BuildQMwp(n_math, "q_math23k", *kb, q_options));
    DIMQR_ASSIGN_OR_RETURN(std::vector<mwp::TemplatedProblem> q_ape,
                           mwp::BuildQMwp(n_ape, "q_ape210k", *kb, q_options));
    for (auto* set : {&q_ape, &n_math, &n_ape}) {
      out.insert(out.end(), std::make_move_iterator(set->begin()),
                 std::make_move_iterator(set->end()));
    }
    return out;
  }

  /// N-Math23k- and N-Ape210k-style sets and their Q-MWP extensions, as
  /// the Table VI/IX binaries build them. BuildQMwp rejects a few generated
  /// problems ("slot rendering not found in text"); the sets are then drawn
  /// again from a derived seed, so that every seed yields full sets.
  static std::vector<mwp::TemplatedProblem> GenerateSets(
      const std::shared_ptr<const kb::DimUnitKB>& kb, std::uint64_t seed,
      int per_set) {
    Result<std::vector<mwp::TemplatedProblem>> sets =
        TryGenerateSets(kb, seed, per_set);
    for (std::uint64_t retry = 1; !sets.ok() && retry < 16; ++retry) {
      sets = TryGenerateSets(kb, Rng::SplitSeed(seed, retry), per_set);
    }
    return OrDie(std::move(sets), "MWP set generation");
  }

  std::uint64_t seed_;
  bool tiny_;
  std::vector<mwp::TemplatedProblem> tests_;
  std::size_t problems_ = 0;
  std::unique_ptr<solver::Seq2SeqModel> model_;
};

// --- serve_burst -----------------------------------------------------------

/// Continuous batching: serve::Server::Run over seeded bursty episodes, on
/// a fixed-seed Transformer at DimPerc's shapes. Each episode is a
/// serve::GenerateLoad trace with serve_loadgen's shape (bursty open-loop
/// arrivals on the tick clock, shared prompt stems plus unique tails) on the
/// model's vocabulary.
class ServeBurst : public Workload {
 public:
  ServeBurst(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void Setup(Tracer& tracer) override {
    *this = ServeBurst(seed_, tiny_);  // a repeated set-up starts from nothing
    lm::TransformerConfig arch = DimPercConfig().arch;
    arch.vocab_size = 1200;
    arch.seed = 20240131;
    {
      Tracer::Scope span(tracer, "lm.create");
      model_ = std::make_unique<lm::Transformer>(
          OrDie(lm::Transformer::Create(arch), "Transformer::Create"));
    }
    Tracer::Scope span(tracer, "e2e.inputs");
    serve::LoadGenConfig load;
    load.vocab_size = arch.vocab_size;
    if (tiny_) load.num_requests = 6;
    const std::uint64_t stream = Rng::DeriveSeed(seed_, "e2e.serve");
    for (int e = 0; e < (tiny_ ? 2 : 12); ++e) {
      load.seed = Rng::SplitSeed(stream, static_cast<std::uint64_t>(e));
      episodes_.push_back(serve::GenerateLoad(load));
    }
  }

  std::string InputsText() const override {
    std::string text;
    for (const auto& episode : episodes_) {
      for (const serve::ServeRequest& r : episode) {
        text += std::to_string(r.arrival_tick) + ':';
        for (int token : r.prompt) text += ' ' + std::to_string(token);
        text += '\n';
      }
    }
    return text;
  }

  IterResult Run(Tracer& tracer) override {
    IterResult r;
    serve::ServerConfig config;
    config.slots = 8;
    config.admission.queue_capacity = 256;
    serve::ServerStats total;
    lm::PrefixCache::Stats cache;
    std::size_t completed = 0, matching = 0;
    for (const std::vector<serve::ServeRequest>& episode : episodes_) {
      serve::Server server(*model_, config);
      const double t0 = NowS();
      std::vector<serve::ServeOutcome> outcomes;
      {
        Tracer::Scope span(tracer, "serve.run");
        outcomes = OrDie(server.Run(episode), "Server::Run");
      }
      r.op_ms.push_back((NowS() - t0) * 1e3);
      r.digest_text += serve::FormatJournal(outcomes);
      const serve::ServerStats& s = server.stats();
      total.rounds += s.rounds;
      total.completed += s.completed;
      total.decode_tokens += s.decode_tokens;
      total.prefill_tokens += s.prefill_tokens;
      total.cached_tokens += s.cached_tokens;
      total.shed += s.shed;
      total.rejected += s.rejected;
      total.peak_queue_depth =
          std::max(total.peak_queue_depth, s.peak_queue_depth);
      const lm::PrefixCache::Stats c = server.cache_stats();
      cache.lookups += c.lookups;
      cache.hits += c.hits;
      cache.hit_tokens += c.hit_tokens;
      if (!agreement_) {
        // Continuous batching must emit exactly what decoding each request
        // alone emits.
        for (const serve::ServeOutcome& o : outcomes) {
          if (o.kind != serve::OutcomeKind::kCompleted) continue;
          ++completed;
          const serve::ServeRequest& req = episode[o.id];
          matching += OrDie(model_->Greedy(req.prompt, req.max_new_tokens,
                                           config.eos_token),
                            "Transformer::Greedy") == o.tokens;
        }
      }
    }
    if (!agreement_) agreement_ = Ratio(static_cast<double>(matching),
                                        static_cast<double>(completed));
    for (const auto& episode : episodes_) r.attempted += episode.size();
    r.failed = r.attempted - total.completed;
    r.items = total.decode_tokens;
    r.quality = *agreement_;
    AddPrefixCacheStats({}, cache, r);
    r.layer["serve.rounds"] = static_cast<double>(total.rounds);
    r.layer["serve.decode_tokens"] = static_cast<double>(total.decode_tokens);
    r.layer["serve.prefill_tokens"] = static_cast<double>(total.prefill_tokens);
    r.layer["serve.cached_token_ratio"] =
        Ratio(static_cast<double>(total.cached_tokens),
              static_cast<double>(total.cached_tokens + total.prefill_tokens));
    r.layer["serve.tokens_per_round"] =
        Ratio(static_cast<double>(total.decode_tokens),
              static_cast<double>(total.rounds));
    r.layer["serve.peak_queue_depth"] =
        static_cast<double>(total.peak_queue_depth);
    r.layer["serve.shed"] = static_cast<double>(total.shed);
    r.layer["serve.rejected"] = static_cast<double>(total.rejected);
    if (*agreement_ != 1.0) {
      r.check_error = "batched tokens differ from solo decode";
    }
    return r;
  }

 private:
  std::uint64_t seed_;
  bool tiny_;
  std::unique_ptr<lm::Transformer> model_;
  std::vector<std::vector<serve::ServeRequest>> episodes_;
  std::optional<double> agreement_;
};

template <typename W>
std::unique_ptr<Workload> Make(std::uint64_t seed, bool tiny) {
  return std::make_unique<W>(seed, tiny);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"finetune", 1, "train_examples_per_s", "train_step_ms",
       "dimperc_macro_f1", &Make<Finetune>},
      {"eval_decode", 2, "answers_per_s", "answer_ms", "mwp_accuracy",
       &Make<EvalDecode>},
      {"serve_burst", 1, "serve_tokens_per_s", "episode_ms", "solo_agreement",
       &Make<ServeBurst>},
  };
  return kSpecs;
}

}  // namespace dimqr::e2e
