#ifndef DIMQR_CORE_SNAPSHOT_H_
#define DIMQR_CORE_SNAPSHOT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/status.h"

/// \file snapshot.h
/// The zero-copy artifact container — one memory-mappable file holding
/// every trained/built artifact the system needs at startup (DimUnitKB,
/// vocabularies, transformer weights, the n-gram LM), so cold start is one
/// `mmap` instead of a rebuild, and N concurrently running processes share
/// one physical copy of the bytes.
///
/// Format (all integers little-endian, fixed width):
///
///   offset 0    SnapshotHeader (64 bytes)
///                 magic "DQSNAP1\0", version, section count, file size,
///                 CRC-32 over every byte after the header.
///   offset 64   section table: section_count × SectionEntry
///                 { name_offset, name_length, payload_offset, payload_size }
///   ...         names blob (concatenated section-name bytes)
///   ...         payloads, each starting on a 64-byte boundary
///
/// Invariants the reader enforces before handing out a single byte:
///   - magic and version match, the stored file size equals the mapping,
///   - the CRC matches (bit rot / truncation / torn writes),
///   - every section's name and payload lie inside the file,
///   - every payload offset is 64-byte aligned.
///
/// Inside a section, payloads are flat arenas written by `ArenaWriter` and
/// read back by `ArenaReader`: a sequence of PODs and typed arrays, each
/// array prefixed by a u64 element count and aligned so the reader can
/// return a `std::span<const T>` that *aliases* the mapping — no per-record
/// parsing, no allocation, no copies. Offsets, never pointers, so the file
/// is position-independent.
///
/// Versioning/compat rules (DESIGN.md §11): the version stamp covers the
/// whole container layout AND every component's arena layout. Any change to
/// either bumps `kSnapshotVersion`; readers reject mismatches outright
/// (snapshots are cheap to regenerate — they are a cache, not an archive).

namespace dimqr::snapshot {

inline constexpr char kSnapshotMagic[8] = {'D', 'Q', 'S', 'N',
                                           'A', 'P', '1', '\0'};
inline constexpr std::uint32_t kSnapshotVersion = 2;
/// Every section payload starts on this boundary (cache-line / SIMD-load
/// friendly; also the alignment ArenaWriter gives each array's data).
inline constexpr std::size_t kSectionAlign = 64;

static_assert(std::endian::native == std::endian::little,
              "snapshot files are little-endian; big-endian hosts would "
              "need byte-swapping readers");

/// \brief CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `bytes`.
std::uint32_t Crc32(std::span<const std::byte> bytes);

/// \brief The 64-byte file header. Trivially copyable; written verbatim.
struct SnapshotHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint64_t file_size;   ///< Total bytes, header included.
  std::uint32_t crc32;       ///< Over bytes [sizeof(SnapshotHeader), file_size).
  std::uint32_t flags;       ///< Reserved; 0.
  std::uint8_t pad[32];      ///< Zero.
};
static_assert(sizeof(SnapshotHeader) == 64);
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);

/// \brief One section-table row. Offsets are absolute file offsets.
struct SectionEntry {
  std::uint64_t name_offset;
  std::uint32_t name_length;
  std::uint32_t reserved;     ///< Zero.
  std::uint64_t payload_offset;  ///< 64-byte aligned.
  std::uint64_t payload_size;
};
static_assert(sizeof(SectionEntry) == 32);
static_assert(std::is_trivially_copyable_v<SectionEntry>);

/// \brief A reference to a string inside a section's char arena — the flat
/// replacement for `std::string` fields in snapshot PODs.
struct StrRef {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};
static_assert(std::is_trivially_copyable_v<StrRef>);

/// \brief Builds one section's payload: a deterministic sequence of PODs
/// and arrays. The writer and `ArenaReader` share one padding convention,
/// so reading in write order recovers every element.
class ArenaWriter {
 public:
  /// Appends one trivially copyable value, padded to its natural alignment.
  template <typename T>
  void PutPod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    PadTo(alignof(T));
    Append(&value, sizeof(T));
  }

  /// Appends a typed array: u64 element count, padding to kSectionAlign,
  /// then the raw elements.
  template <typename T>
  void PutArray(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutPod<std::uint64_t>(values.size());
    PadTo(kSectionAlign);
    Append(values.data(), values.size() * sizeof(T));
  }
  template <typename T>
  void PutArray(const std::vector<T>& values) {
    PutArray(std::span<const T>(values));
  }

  /// Appends string bytes as a char array.
  void PutString(std::string_view s) {
    PutArray(std::span<const char>(s.data(), s.size()));
  }

  std::size_t size() const { return bytes_.size(); }
  std::vector<std::byte> Take() { return std::move(bytes_); }

 private:
  void PadTo(std::size_t alignment) {
    bytes_.resize((bytes_.size() + alignment - 1) / alignment * alignment,
                  std::byte{0});
  }
  void Append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<std::byte> bytes_;
};

/// \brief Cursor over one mapped section. Every accessor bounds- and
/// alignment-checks before aliasing, so corrupt or truncated files yield
/// clean Status errors instead of UB. Returned spans point INTO the
/// underlying bytes — they stay valid exactly as long as the mapping.
class ArenaReader {
 public:
  explicit ArenaReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  dimqr::Result<T> GetPod() {
    static_assert(std::is_trivially_copyable_v<T>);
    DIMQR_RETURN_NOT_OK(AlignTo(alignof(T)));
    if (bytes_.size() - pos_ < sizeof(T)) {
      return dimqr::Status::DataLoss("snapshot arena truncated reading pod");
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  dimqr::Result<std::span<const T>> GetArray() {
    static_assert(std::is_trivially_copyable_v<T>);
    DIMQR_ASSIGN_OR_RETURN(std::uint64_t count, GetPod<std::uint64_t>());
    DIMQR_RETURN_NOT_OK(AlignTo(kSectionAlign));
    if (count > (bytes_.size() - pos_) / sizeof(T)) {
      return dimqr::Status::DataLoss(
          "snapshot arena truncated reading array of " +
          std::to_string(count) + " elements");
    }
    if (reinterpret_cast<std::uintptr_t>(bytes_.data() + pos_) %
            alignof(T) != 0) {
      return dimqr::Status::DataLoss("snapshot array misaligned in mapping");
    }
    std::span<const T> out(
        reinterpret_cast<const T*>(bytes_.data() + pos_), count);
    pos_ += count * sizeof(T);
    return out;
  }

  dimqr::Result<std::string_view> GetString() {
    DIMQR_ASSIGN_OR_RETURN(std::span<const char> chars, GetArray<char>());
    return std::string_view(chars.data(), chars.size());
  }

  /// Resolves a StrRef against a previously read char arena.
  static dimqr::Result<std::string_view> View(std::span<const char> arena,
                                              StrRef ref) {
    if (ref.offset > arena.size() || arena.size() - ref.offset < ref.length) {
      return dimqr::Status::DataLoss("snapshot StrRef out of arena bounds");
    }
    return std::string_view(arena.data() + ref.offset, ref.length);
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  dimqr::Status AlignTo(std::size_t alignment) {
    std::size_t aligned = (pos_ + alignment - 1) / alignment * alignment;
    if (aligned > bytes_.size()) {
      return dimqr::Status::DataLoss("snapshot arena truncated at padding");
    }
    pos_ = aligned;
    return dimqr::Status::OK();
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// \brief Accumulates named sections and serializes the container.
/// Sections are emitted in insertion order, so identical content written in
/// identical order produces byte-identical files (cross-run determinism).
class SnapshotWriter {
 public:
  /// Adds a section; names must be unique and non-empty.
  dimqr::Status AddSection(std::string name, std::vector<std::byte> payload);

  /// Convenience: drains an ArenaWriter into a section.
  dimqr::Status AddSection(std::string name, ArenaWriter&& arena) {
    return AddSection(std::move(name), arena.Take());
  }

  /// The complete serialized container (header + table + payloads).
  std::vector<std::byte> Serialize() const;

  /// Serializes to a file (written atomically: temp file + rename).
  dimqr::Status WriteFile(const std::string& path) const;

 private:
  struct PendingSection {
    std::string name;
    std::vector<std::byte> payload;
  };
  std::vector<PendingSection> sections_;
};

/// \brief A validated, non-owning view of a serialized snapshot. Cheap to
/// copy; all accessors alias the underlying bytes.
class SnapshotView {
 public:
  SnapshotView() = default;

  /// Validates header, CRC, and section table. The returned view (and
  /// everything loaded through it) aliases `bytes`. Error classification:
  /// content-validation failures (bad CRC, truncation, out-of-bounds
  /// table entries) are kDataLoss — the file exists but its bytes are
  /// wrong; wrong magic/version are kParseError (not our file / not our
  /// version); real filesystem failures (in Map) are kIOError. Callers
  /// like `dimqr_snapshot verify` script on the difference.
  static dimqr::Result<SnapshotView> Parse(std::span<const std::byte> bytes);

  bool Has(std::string_view name) const;

  /// The payload bytes of a section; NotFound for unknown names.
  dimqr::Result<std::span<const std::byte>> Section(
      std::string_view name) const;

  /// All section names in file order.
  std::vector<std::string_view> SectionNames() const;

  std::size_t size_bytes() const { return bytes_.size(); }

  /// The whole underlying byte range the view (and every section span
  /// handed out) aliases — for bounds/aliasing assertions.
  std::span<const std::byte> bytes() const { return bytes_; }

 private:
  std::span<const std::byte> bytes_;
  std::span<const SectionEntry> entries_;
};

/// \brief A read-only memory-mapped file. Move-only; unmaps on destruction.
class MappedFile {
 public:
  static dimqr::Result<MappedFile> Map(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(data_), size_};
  }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// \brief A mapped-and-validated snapshot file: the object every
/// `FromSnapshot` loader holds a shared_ptr to, keeping the mapping alive
/// for as long as any structure aliases it.
class Snapshot {
 public:
  /// Maps `path` and validates the container (magic, version, CRC, table).
  static dimqr::Result<std::shared_ptr<const Snapshot>> Map(
      const std::string& path);

  /// Adopts an in-memory serialized container (tests, in-process handoff).
  static dimqr::Result<std::shared_ptr<const Snapshot>> FromBytes(
      std::vector<std::byte> bytes);

  const SnapshotView& view() const { return view_; }
  dimqr::Result<std::span<const std::byte>> Section(
      std::string_view name) const {
    return view_.Section(name);
  }
  bool Has(std::string_view name) const { return view_.Has(name); }
  const std::string& path() const { return path_; }

 private:
  Snapshot() = default;

  std::string path_;
  MappedFile mapping_;              ///< Active when mapped from a file.
  std::vector<std::byte> owned_;    ///< Active when adopted from memory.
  SnapshotView view_;
};

}  // namespace dimqr::snapshot

#endif  // DIMQR_CORE_SNAPSHOT_H_
