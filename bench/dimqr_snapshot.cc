// The snapshot packer/inspector: builds every startup artifact once, packs
// it into one mmap-able container (core/snapshot.h), and verifies the
// result by mapping it back and loading each section zero-copy.
//
//   dimqr_snapshot pack <out.dqs>     build KB + canonical serve model, pack
//   dimqr_snapshot verify <file.dqs>  map, validate CRC, load every section
//   dimqr_snapshot info <file.dqs>    list sections and sizes
//   dimqr_snapshot resident <file.dqs> [hold_ms]
//                                     map + load, optionally hold the mapping
//                                     for hold_ms, then print this process's
//                                     /proc/self/smaps entry for the file
//                                     (page-sharing smoke data; Linux only).
//                                     Launch several with overlapping holds
//                                     and the pages show up as Shared_*:
//                                     one physical copy across N processes.
//
// Benches and serve_loadgen consume the packed file via --snapshot=<path>
// (or DIMQR_SNAPSHOT); table outputs are byte-identical to the build-
// everything path because loaded artifacts share one arena representation
// with built ones.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "core/snapshot.h"
#include "kb/kb.h"
#include "lm/transformer.h"
#include "serve/loadgen.h"

namespace {

using namespace dimqr;

// Exit codes are part of the CLI contract so wrapper scripts can branch on
// the failure class (run_benches.sh does): 1 = other failure (bad magic,
// unsupported version, build error), 2 = usage, 3 = filesystem I/O error
// (missing/unreadable file), 4 = corruption (CRC mismatch, truncation,
// out-of-bounds sections — anything kDataLoss).
constexpr int kFailureExitCode = 1;
constexpr int kUsageExitCode = 2;
constexpr int kIOErrorExitCode = 3;
constexpr int kCorruptExitCode = 4;

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "dimqr_snapshot: %s: %s\n", what,
               status.ToString().c_str());
  switch (status.code()) {
    case StatusCode::kIOError:
      return kIOErrorExitCode;
    case StatusCode::kDataLoss:
      return kCorruptExitCode;
    default:
      return kFailureExitCode;
  }
}

int Pack(const std::string& out_path) {
  snapshot::SnapshotWriter writer;

  auto kb = kb::DimUnitKB::Build();
  if (!kb.ok()) return Fail(kb.status(), "KB build failed");
  Status added = kb.ValueOrDie()->WriteSnapshot(writer);
  if (!added.ok()) return Fail(added, "packing kb");

  auto serve_model = serve::BuildCanonicalServeModel();
  if (!serve_model.ok()) return Fail(serve_model.status(), "serve model");
  snapshot::ArenaWriter serve_arena;
  serve_model.ValueOrDie().WriteTo(serve_arena);
  added = writer.AddSection("serve", std::move(serve_arena));
  if (!added.ok()) return Fail(added, "packing serve");

  Status written = writer.WriteFile(out_path);
  if (!written.ok()) return Fail(written, "writing file");
  std::printf("packed %s\n", out_path.c_str());
  return 0;
}

Result<std::shared_ptr<const snapshot::Snapshot>> MapAndLoad(
    const std::string& path, bool print) {
  DIMQR_ASSIGN_OR_RETURN(std::shared_ptr<const snapshot::Snapshot> snap,
                         snapshot::Snapshot::Map(path));
  if (snap->Has("kb")) {
    DIMQR_ASSIGN_OR_RETURN(std::shared_ptr<const kb::DimUnitKB> kb,
                           kb::DimUnitKB::FromSnapshot(snap));
    kb::KbStats stats = kb->Stats();
    if (print) {
      std::printf("  kb: %zu units, %zu kinds, %zu dimension vectors\n",
                  stats.num_units, stats.num_quantity_kinds,
                  stats.num_dimension_vectors);
    }
  }
  if (snap->Has("serve")) {
    DIMQR_ASSIGN_OR_RETURN(std::span<const std::byte> section,
                           snap->Section("serve"));
    snapshot::ArenaReader reader(section);
    DIMQR_ASSIGN_OR_RETURN(lm::Transformer model,
                           lm::Transformer::FromArena(reader, snap));
    if (print) {
      std::printf("  serve: transformer, %zu parameters\n",
                  model.num_parameters());
    }
  }
  return snap;
}

int Verify(const std::string& path) {
  auto snap = MapAndLoad(path, /*print=*/true);
  if (!snap.ok()) return Fail(snap.status(), "verify failed");
  std::printf("OK %s (%zu bytes, CRC valid, all sections load)\n",
              path.c_str(), snap.ValueOrDie()->view().size_bytes());
  return 0;
}

int Info(const std::string& path) {
  auto snap = snapshot::Snapshot::Map(path);
  if (!snap.ok()) return Fail(snap.status(), "cannot map");
  const snapshot::SnapshotView& view = snap.ValueOrDie()->view();
  std::printf("%s: %zu bytes, format v%u\n", path.c_str(), view.size_bytes(),
              snapshot::kSnapshotVersion);
  for (std::string_view name : view.SectionNames()) {
    auto section = view.Section(name);
    std::printf("  %-24s %10zu bytes\n", std::string(name).c_str(),
                section.ok() ? section.ValueOrDie().size() : 0);
  }
  return 0;
}

int Resident(const std::string& path, int hold_ms) {
  auto snap = MapAndLoad(path, /*print=*/false);
  if (!snap.ok()) return Fail(snap.status(), "cannot map/load");
  if (hold_ms > 0) {
    // Let sibling processes map the same file before sampling smaps, so
    // shared pages are attributed as Shared_* rather than Private_*.
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
  }
  // Print the smaps entry covering the snapshot mapping: with N concurrent
  // processes over one file, the resident bytes show up as Shared_Clean,
  // i.e. one physical copy (run_benches.sh checks this).
  std::error_code ec;
  std::string abs_path = std::filesystem::weakly_canonical(path, ec).string();
  if (ec) abs_path = path;
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) {
    std::printf("no /proc/self/smaps on this platform; mapping is live\n");
    return 0;
  }
  std::string line;
  bool in_entry = false;
  while (std::getline(smaps, line)) {
    // Header lines start with a hex address range ("7f..-7f.. r--p ...");
    // stat lines start with a capitalized key ("Rss:", "Shared_Clean:", ...).
    std::size_t dash = line.find('-');
    bool is_header =
        dash != std::string::npos && dash > 0 &&
        line.find_first_not_of("0123456789abcdef") == dash;
    if (is_header) in_entry = line.find(abs_path) != std::string::npos;
    if (in_entry &&
        (is_header || line.rfind("Rss:", 0) == 0 ||
         line.rfind("Shared_Clean:", 0) == 0 ||
         line.rfind("Shared_Dirty:", 0) == 0 ||
         line.rfind("Private_Dirty:", 0) == 0)) {
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "pack") == 0) return Pack(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "verify") == 0) return Verify(argv[2]);
  if (argc == 3 && std::strcmp(argv[1], "info") == 0) return Info(argv[2]);
  if ((argc == 3 || argc == 4) && std::strcmp(argv[1], "resident") == 0) {
    return Resident(argv[2], argc == 4 ? std::atoi(argv[3]) : 0);
  }
  std::fprintf(stderr,
               "usage: %s pack|verify|info <snapshot.dqs>\n"
               "       %s resident <snapshot.dqs> [hold_ms]\n"
               "exit codes: 0 ok, 1 other failure, 2 usage, 3 I/O error, "
               "4 corrupt snapshot\n",
               argv[0], argv[0]);
  return kUsageExitCode;
}
