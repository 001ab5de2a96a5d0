// Storage backends for the exchange's write-once payload columns
// (DESIGN.md §9).
//
// A report's origin and randomized payload bytes are written once at
// injection and read once at finalize, so PayloadArena's three columns
// (origins, byte offsets, payload bytes) are the cold part of the
// exchange's state.  This seam makes WHERE they live pluggable:
//
//   kInRam  (default)  heap vectors; nothing below is constructed.
//   kMmap              each column is one file inside a per-backend
//                      tmpdir.  Appends STREAM to disk at injection
//                      (buffered write(2), never resident in full) and
//                      Freeze/Seal map the files read-only.
//
// The routing state (the holder column and the shuffle/store.h holdings
// sorted from it) is rewritten by every exchange call — it is the
// exchange's working set — so it stays on the heap under both backends,
// and an exchange never touches disk.  Holdings are
// bit-identical across backends at any thread count
// (tests/test_flat_store.cc and tests/test_kernel_differential.cc pin this
// with a backend axis).
//
// I/O failures are TYPED: directory and file creation, a failed stream
// write and read-only mapping surface as Status kIoError (core/status.h)
// instead of crashing.

#ifndef NETSHUFFLE_SHUFFLE_BACKEND_H_
#define NETSHUFFLE_SHUFFLE_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "shuffle/protocol.h"
#include "util/annotations.h"
#include "util/sync.h"

namespace netshuffle {

enum class StorageBackendKind {
  kInRam = 0,
  kMmap,
};

inline const char* StorageBackendKindName(StorageBackendKind kind) {
  return kind == StorageBackendKind::kMmap ? "mmap" : "ram";
}

/// Parses a backend name: nullptr / "" / "ram" -> kInRam, "mmap" -> kMmap.
/// Anything else warns on stderr and falls back to kInRam, in the spirit of
/// the NS_THREADS/NS_SCALE knob parsers.
StorageBackendKind ParseBackendKind(const char* value);

/// The NS_BACKEND environment knob (benches and the CI out-of-core leg).
inline StorageBackendKind EnvBackendKind() {
  return ParseBackendKind(std::getenv("NS_BACKEND"));
}

struct StorageBackendConfig {
  StorageBackendKind kind = StorageBackendKind::kInRam;
  /// Parent directory for the backend's private tmpdir ("" = $TMPDIR or
  /// /tmp).  The tmpdir and everything in it are removed when the last
  /// owner releases the backend (Session destruction, for sessions).
  std::string dir;
};

/// One read-only mmap'd file region (a sealed payload column).  Rejects
/// missing and short files with kIoError.  Does NOT unlink on destruction —
/// the owning stream owns the file's lifetime.
class MappedFile {
 public:
  /// Maps an existing file read-only.  kIoError if it is missing,
  /// unreadable, or shorter than `min_bytes` (a short column file would
  /// SIGBUS on first access past EOF — fail loudly up front instead).
  /// A zero-byte file is valid: data() is nullptr.
  static Expected<std::shared_ptr<MappedFile>> OpenReadOnly(std::string path,
                                                            size_t min_bytes);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const void* data() const { return map_; }

 private:
  MappedFile(int fd, void* map, size_t bytes)
      : fd_(fd), map_(map), bytes_(bytes) {}

  int fd_ = -1;
  void* map_ = nullptr;
  size_t bytes_ = 0;
};

/// The backend object: owns the tmpdir and names column files.  Shared
/// (shared_ptr) between the Session and every payload stream it hosts; the
/// LAST release removes the tmpdir and everything left in it, so
/// backend-hosted state never outlives its owner (tests/test_backend.cc
/// pins cleanup on Session destruction).
///
/// Thread-safety: NextPath takes an internal mutex.
class StorageBackend {
 public:
  /// Creates the private tmpdir (mkdtemp under config.dir, $TMPDIR, or
  /// /tmp).  kIoError if the directory cannot be created.  config.kind is
  /// not consulted here — callers choose whether to build a backend at all
  /// (kInRam configurations never construct one).
  static Expected<std::shared_ptr<StorageBackend>> Create(
      StorageBackendConfig config);

  ~StorageBackend();
  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  const std::string& dir() const { return dir_; }

  /// A fresh unique path "<dir>/<stem>.<counter>" for a new column file.
  std::string NextPath(const char* stem);

 private:
  explicit StorageBackend(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  ns::Mutex mu_;
  uint64_t next_file_ NS_GUARDED_BY(mu_) = 0;
};

/// The write-once payload columns (origins, byte offsets, payload bytes) as
/// three streamed backend files: Append() goes through small app-side
/// buffers into write(2) — the population's payload bytes are never
/// resident — and EnsureMapped() (the Freeze/Seal point) flushes and maps
/// all three read-only.  A failed map can keep appending: the next Append
/// drops the mappings and the streams continue where they left off.  A
/// failed write (disk full, file-size limit) cannot: it is sticky — the
/// stream stops writing and EnsureMapped returns that kIoError from then
/// on, so the owner's seal point reports it and the stream is discarded.
///
/// Owned by PayloadArena behind a shared_ptr (the arena must stay copyable
/// for SessionConfig); copies of a hosted arena share this stream, so treat
/// them as views — one writer, as with the arena's write-once contract.
class PayloadStream {
 public:
  static Expected<std::shared_ptr<PayloadStream>> Create(
      std::shared_ptr<StorageBackend> backend);

  ~PayloadStream();
  PayloadStream(const PayloadStream&) = delete;
  PayloadStream& operator=(const PayloadStream&) = delete;

  void Append(NodeId origin, const uint8_t* data, size_t size);

  size_t num_reports() const { return num_reports_; }
  size_t total_bytes() const { return total_bytes_; }
  const std::shared_ptr<StorageBackend>& backend() const { return backend_; }

  /// Flushes the write buffers and maps all three columns read-only.
  /// kIoError on any open/map failure, and on every call after a write
  /// failed.  Idempotent while mapped.
  Status EnsureMapped();
  bool mapped() const { return origins_.map != nullptr; }

  // Valid only while mapped() — the arena's accessors guarantee that.
  const NodeId* origins() const {
    return static_cast<const NodeId*>(origins_.map->data());
  }
  const uint32_t* offsets() const {
    return static_cast<const uint32_t*>(offsets_.map->data());
  }
  const uint8_t* bytes() const {
    return bytes_.map == nullptr || bytes_.map->data() == nullptr
               ? nullptr
               : static_cast<const uint8_t*>(bytes_.map->data());
  }

  /// Total file bytes across the three columns.
  size_t DiskBytes() const;
  /// Heap footprint (write buffers only).
  size_t HeapBytes() const;

 private:
  struct Column {
    std::string path;
    int fd = -1;
    std::vector<uint8_t> buf;
    uint64_t written = 0;  // flushed + buffered bytes
    std::shared_ptr<MappedFile> map;
  };

  explicit PayloadStream(std::shared_ptr<StorageBackend> backend)
      : backend_(std::move(backend)) {}

  void AppendRaw(Column* col, const void* data, size_t size);
  void FlushColumn(Column* col);
  void UnmapAll();

  std::shared_ptr<StorageBackend> backend_;
  Column origins_;
  Column offsets_;
  Column bytes_;
  size_t num_reports_ = 0;
  uint64_t total_bytes_ = 0;
  Status error_;  // the first write failure, sticky; ok until then
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_BACKEND_H_
