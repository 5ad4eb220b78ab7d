#ifndef DIMQR_BENCH_COMMON_H_
#define DIMQR_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/snapshot.h"
#include "dimeval/benchmark.h"
#include "linking/annotator.h"
#include "mwp/augment.h"
#include "solver/pipelines.h"

/// \file common.h
/// Shared fixtures for the table/figure reproduction binaries: the
/// knowledge system (the KB, and the linker + annotator built on first
/// use), standard benchmark sizes,
/// and the DimPerc model configuration. Every bench prints the measured
/// values next to the paper's published numbers; EXPERIMENTS.md records
/// both.

namespace dimqr::benchutil {

/// \brief Path of the artifact snapshot the benches load from, when set:
/// the `--snapshot=<path>` flag (see InitFromArgs) or the DIMQR_SNAPSHOT
/// environment variable. Empty = build everything in-process.
inline std::string& SnapshotPathRef() {
  static std::string* const kPath = [] {
    const char* env = std::getenv("DIMQR_SNAPSHOT");
    return new std::string(env == nullptr ? "" : env);
  }();
  return *kPath;
}

/// \brief Consumes `--snapshot=<path>` from argv (compacting the array and
/// decrementing argc) so each bench's own flag loop never sees it. Call
/// first in main, before anything touches GetKb().
inline void InitFromArgs(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--snapshot=", 11) == 0) {
      SnapshotPathRef() = argv[i] + 11;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
}

/// \brief The mapped snapshot, or null when no path was configured. A bad
/// path is fatal: a bench asked to measure the snapshot path must never
/// silently fall back to building.
inline std::shared_ptr<const snapshot::Snapshot> GetSnapshot() {
  static const std::shared_ptr<const snapshot::Snapshot>* const kSnap = [] {
    auto* snap = new std::shared_ptr<const snapshot::Snapshot>();
    const std::string& path = SnapshotPathRef();
    if (!path.empty()) {
      auto mapped = snapshot::Snapshot::Map(path);
      if (!mapped.ok()) {
        std::fprintf(stderr, "cannot map snapshot %s: %s\n", path.c_str(),
                     mapped.status().ToString().c_str());
        std::exit(1);
      }
      *snap = std::move(mapped).ValueOrDie();
    }
    return snap;
  }();
  return *kSnap;
}

/// \brief The knowledge base: mapped from the snapshot when one is
/// configured, built in-process otherwise.
inline const std::shared_ptr<const kb::DimUnitKB>& GetKb() {
  static const std::shared_ptr<const kb::DimUnitKB>* const kKb = [] {
    std::shared_ptr<const snapshot::Snapshot> snap = GetSnapshot();
    if (snap != nullptr && snap->Has("kb")) {
      return new std::shared_ptr<const kb::DimUnitKB>(
          kb::DimUnitKB::FromSnapshot(snap).ValueOrDie());
    }
    return new std::shared_ptr<const kb::DimUnitKB>(
        kb::DimUnitKB::Build().ValueOrDie());
  }();
  return *kKb;
}

/// \brief The DimKS annotator over GetKb(), built on first use: building
/// its unit linker trains the SGNS context embedding, which binaries that
/// read only the KB never pay for.
inline const linking::DimKsAnnotator& GetAnnotator() {
  static const linking::DimKsAnnotator* const kAnnotator = [] {
    return new linking::DimKsAnnotator(
        linking::UnitLinker::Build(GetKb()).ValueOrDie());
  }();
  return *kAnnotator;
}

/// True when DIMQR_BENCH_FAST=1 (smaller datasets and training budgets for
/// smoke runs).
inline bool FastMode() {
  const char* env = std::getenv("DIMQR_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

/// \brief DimEval sizes at the fast or the full scale.
inline dimeval::BenchmarkOptions DimEvalOptions(bool fast) {
  dimeval::BenchmarkOptions options;
  options.train_per_task = fast ? 40 : 150;
  options.test_per_task = fast ? 20 : 60;
  options.extraction_corpus_sentences = fast ? 300 : 900;
  return options;
}

/// \brief The DimEval build used by tables VII/VIII.
inline const dimeval::DimEvalBenchmark& GetDimEval() {
  static const dimeval::DimEvalBenchmark* const kBench = [] {
    return new dimeval::DimEvalBenchmark(
        dimeval::BuildDimEval(GetKb(), GetAnnotator(),
                              DimEvalOptions(FastMode()))
            .ValueOrDie());
  }();
  return *kBench;
}

/// \brief The model architecture for DimPerc / LLaMA_IFT at bench scale.
inline solver::Seq2SeqConfig BenchModelConfig() {
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

/// Epochs for DimEval fine-tuning.
inline int DimEvalEpochs() { return FastMode() ? 2 : 6; }
/// Epochs for MWP fine-tuning (override with DIMQR_MWP_EPOCHS).
inline int MwpEpochs() {
  if (const char* env = std::getenv("DIMQR_MWP_EPOCHS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return FastMode() ? 2 : 5;
}

/// \brief MWP dataset sizes: paper evaluates 225 test problems per
/// dataset (Table VI).
inline int MwpTestCount() { return FastMode() ? 40 : 225; }
inline int MwpTrainCount() { return FastMode() ? 80 : 320; }

/// \brief Builds the four evaluation datasets of Table VI/IX: N-Math23k,
/// N-Ape210k and their Q-MWP extensions.
struct MwpDatasets {
  std::vector<mwp::TemplatedProblem> n_math23k, n_ape210k;
  std::vector<mwp::TemplatedProblem> q_math23k, q_ape210k;
  // Matching training splits (distinct generator streams).
  std::vector<mwp::TemplatedProblem> train_n_math23k, train_n_ape210k;
  std::vector<mwp::TemplatedProblem> train_q_math23k, train_q_ape210k;
};

inline const MwpDatasets& GetMwpDatasets() {
  static const MwpDatasets* const kDatasets = [] {
    auto* d = new MwpDatasets();
    const kb::DimUnitKB& kb = *GetKb();
    mwp::MwpGenerator test_gen(GetKb(), /*seed=*/20240131);
    mwp::MwpGenerator train_gen(GetKb(), /*seed=*/777);
    int n_test = MwpTestCount();
    int n_train = MwpTrainCount();
    // Math23k style: mostly few-step; Ape210k style: multi-step heavy.
    d->n_math23k =
        test_gen.Generate("n_math23k", n_test, 0.22).ValueOrDie();
    d->n_ape210k =
        test_gen.Generate("n_ape210k", n_test, 0.60).ValueOrDie();
    d->train_n_math23k =
        train_gen.Generate("n_math23k", n_train, 0.22).ValueOrDie();
    d->train_n_ape210k =
        train_gen.Generate("n_ape210k", n_train, 0.60).ValueOrDie();
    mwp::QMwpOptions q_options;
    q_options.augmentation_rate = 1.0;
    d->q_math23k = mwp::BuildQMwp(d->n_math23k, "q_math23k", kb,
                                  q_options)
                       .ValueOrDie();
    d->q_ape210k = mwp::BuildQMwp(d->n_ape210k, "q_ape210k", kb,
                                  q_options)
                       .ValueOrDie();
    q_options.seed = 778;
    d->train_q_math23k =
        mwp::BuildQMwp(d->train_n_math23k, "q_math23k", kb, q_options)
            .ValueOrDie();
    d->train_q_ape210k =
        mwp::BuildQMwp(d->train_n_ape210k, "q_ape210k", kb, q_options)
            .ValueOrDie();
    return d;
  }();
  return *kDatasets;
}

}  // namespace dimqr::benchutil

#endif  // DIMQR_BENCH_COMMON_H_
