// Storage-backend unit and error-path tests (shuffle/backend.h, DESIGN.md
// §9).  The differential suites (tests/test_flat_store.cc,
// tests/test_kernel_differential.cc) pin that exchanges over the mmap tier
// are bit-identical to the heap tier; this file pins everything around that
// hot path:
//
//   - knob parsing (ParseBackendKind / NS_BACKEND),
//   - TYPED kIoError on every creation-time failure: uncreatable backend
//     dir, read-only mapping of a missing file, and of a file SHORTER than
//     the column needs (which would otherwise SIGBUS mid-exchange),
//   - zero-byte and growing writable mappings (contents survive Resize),
//   - FlatColumn Host/Unhost round-trips (contents preserved, file dropped),
//   - per-block touch accounting (logical vs block-rounded advised bytes,
//     read amplification, DONTNEED drop volume),
//   - the write-once contract on a file-backed PayloadArena (append after
//     Seal dies, same as the heap arena),
//   - a failed payload write (a file-size limit standing in for a full
//     disk) is a sticky, typed kIoError at BeginEpoch, not an abort: the
//     epoch does not roll, the current one keeps stepping and finalizing,
//     and DiscardPending recovers,
//   - tmpdir lifetime: a kMmap session's directory outlives the Session
//     while a Finalize result still references the hosted columns, and is
//     swept — files and all — when the LAST owner goes away.

#include <sys/resource.h>
#include <sys/stat.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/status.h"
#include "graph/generators.h"
#include "shuffle/backend.h"
#include "shuffle/payload.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;
using netshuffle_test::ExpectDeath;

namespace {

bool DirExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

StorageBackendKind BackendWith(const char* value) {
  if (value == nullptr) {
    unsetenv("NS_BACKEND");
  } else {
    setenv("NS_BACKEND", value, 1);
  }
  return EnvBackendKind();
}

}  // namespace

int main() {
  // ---- Knob parsing --------------------------------------------------------
  CHECK(ParseBackendKind(nullptr) == StorageBackendKind::kInRam);
  CHECK(ParseBackendKind("") == StorageBackendKind::kInRam);
  CHECK(ParseBackendKind("ram") == StorageBackendKind::kInRam);
  CHECK(ParseBackendKind("mmap") == StorageBackendKind::kMmap);
  CHECK(ParseBackendKind("disk") == StorageBackendKind::kInRam);  // warns
  CHECK(BackendWith(nullptr) == StorageBackendKind::kInRam);
  CHECK(BackendWith("mmap") == StorageBackendKind::kMmap);
  CHECK(BackendWith("junk") == StorageBackendKind::kInRam);
  unsetenv("NS_BACKEND");
  CHECK(std::string(StorageBackendKindName(StorageBackendKind::kMmap)) ==
        "mmap");
  CHECK(std::string(StorageBackendKindName(StorageBackendKind::kInRam)) ==
        "ram");

  // ---- Uncreatable backend dir is a typed error ----------------------------
  // (A nonexistent parent, not a chmod'd one: the suite also runs as root,
  // where permission bits don't bite.)
  {
    StorageBackendConfig config;
    config.dir = "/netshuffle_no_such_parent_dir/x";
    const auto backend = StorageBackend::Create(config);
    CHECK(!backend.ok());
    CHECK(backend.status().code() == StatusCode::kIoError);
  }

  // One backend, small blocks so the accounting numbers are hand-checkable.
  StorageBackendConfig config;
  config.block_bytes = 4096;
  auto created = StorageBackend::Create(config);
  CHECK(created.ok());
  std::shared_ptr<StorageBackend> backend = std::move(created).value();
  CHECK(DirExists(backend->dir()));
  CHECK(backend->block_bytes() == 4096);
  CHECK(backend->NextPath("col") != backend->NextPath("col"));

  // ---- MappedFile error paths ----------------------------------------------
  {
    // Missing file: typed, not a crash.
    auto missing = MappedFile::OpenReadOnly(backend->dir() + "/absent", 4);
    CHECK(!missing.ok());
    CHECK(missing.status().code() == StatusCode::kIoError);

    // A file shorter than the column needs would SIGBUS on first access
    // past EOF — OpenReadOnly must reject it up front.
    const std::string path = backend->NextPath("short");
    auto writable = MappedFile::CreateWritable(path, 8);
    CHECK(writable.ok());
    auto too_short = MappedFile::OpenReadOnly(path, 16);
    CHECK(!too_short.ok());
    CHECK(too_short.status().code() == StatusCode::kIoError);
    auto long_enough = MappedFile::OpenReadOnly(path, 8);
    CHECK(long_enough.ok());

    // Creating under a nonexistent directory is the writable-side error.
    auto bad_create =
        MappedFile::CreateWritable("/netshuffle_no_such_parent_dir/f", 8);
    CHECK(!bad_create.ok());
    CHECK(bad_create.status().code() == StatusCode::kIoError);

    // Zero-byte mapping is valid (mmap(0) is EINVAL, so there is no map):
    // the file exists, data() is null, and Resize brings a real mapping up.
    auto empty = MappedFile::CreateWritable(backend->NextPath("empty"), 0);
    CHECK(empty.ok());
    CHECK(empty.value()->data() == nullptr);
    CHECK(empty.value()->bytes() == 0);
    CHECK(empty.value()->Resize(64).ok());
    CHECK(empty.value()->data() != nullptr);
    CHECK(empty.value()->bytes() == 64);

    // Growth preserves contents.
    auto grow = MappedFile::CreateWritable(backend->NextPath("grow"), 16);
    CHECK(grow.ok());
    std::memcpy(grow.value()->data(), "netshuffle-grow!", 16);
    CHECK(grow.value()->Resize(4096).ok());
    CHECK(std::memcmp(grow.value()->data(), "netshuffle-grow!", 16) == 0);
  }

  // ---- FlatColumn Host / Unhost round-trip ---------------------------------
  {
    FlatColumn<uint32_t> col;
    col.resize(1000);
    for (uint32_t i = 0; i < 1000; ++i) col.data()[i] = i * 7u + 3u;
    CHECK(!col.hosted());
    col.Host(backend, backend->NextPath("col"));
    CHECK(col.hosted());
    CHECK(col.HeapBytes() == 0);
    CHECK(col.FileBytes() >= 1000 * sizeof(uint32_t));
    for (uint32_t i = 0; i < 1000; ++i) CHECK(col.data()[i] == i * 7u + 3u);

    // Hosted growth keeps contents (ftruncate + remap of the same file).
    col.resize(5000);
    for (uint32_t i = 0; i < 1000; ++i) CHECK(col.data()[i] == i * 7u + 3u);
    col.data()[4999] = 42;

    // Unhost copies back to the heap and drops the file.
    col.Unhost();
    CHECK(!col.hosted());
    CHECK(col.size() == 5000);
    for (uint32_t i = 0; i < 1000; ++i) CHECK(col.data()[i] == i * 7u + 3u);
    CHECK(col.data()[4999] == 42);
  }

  // ---- Per-block touch accounting ------------------------------------------
  {
    const StorageIoStats before = backend->stats();
    FlatColumn<uint32_t> col;
    col.resize(10000);  // 40000 bytes = 9.77 4KB blocks
    col.Host(backend, backend->NextPath("adv"));
    col.AdviseWillNeed(0, 1000);  // bytes [0, 4000): exactly block 0
    StorageIoStats after = backend->stats();
    CHECK(after.logical_bytes_advised - before.logical_bytes_advised == 4000);
    CHECK(after.block_bytes_advised - before.block_bytes_advised == 4096);
    CHECK(after.block_touches - before.block_touches == 1);
    CHECK(after.ReadAmplification() >= 1.0);

    // A second touch of an overlapping range re-counts the block (that IS
    // the read amplification the bench reports) and bumps the skew counter.
    col.AdviseWillNeed(500, 1000);  // bytes [2000, 6000): blocks 0 and 1
    after = backend->stats();
    CHECK(after.block_bytes_advised - before.block_bytes_advised ==
          4096 + 2 * 4096);
    CHECK(after.max_block_touches >= 2);

    col.AdviseDontNeedAll();
    after = backend->stats();
    CHECK(after.bytes_dropped - before.bytes_dropped == 40000);
  }

  // ---- File-backed PayloadArena: write-once, bytes round-trip --------------
  {
    auto hosted = PayloadArena::Hosted(backend);
    CHECK(hosted.ok());
    PayloadArena arena = std::move(hosted).value();
    CHECK(arena.hosted());
    CHECK(arena.backend() == backend);
    const StorageIoStats before = backend->stats();
    for (NodeId u = 0; u < 100; ++u) {
      Bytes payload;
      for (size_t i = 0; i < u % 7; ++i) {
        payload.push_back(static_cast<uint8_t>(u * 13 + i));
      }
      CHECK(arena.Append(u, payload) == u);
    }
    CHECK(arena.Seal(100).ok());
    CHECK(arena.frozen());
    CHECK(backend->stats().bytes_written > before.bytes_written);
    for (NodeId u = 0; u < 100; ++u) {
      CHECK(arena.origin(u) == u);
      const PayloadSpan s = arena.payload(u);
      CHECK(s.size() == u % 7);
      for (size_t i = 0; i < s.size(); ++i) {
        CHECK(s[i] == static_cast<uint8_t>(u * 13 + i));
      }
    }
    CHECK(arena.DiskBytes() > 0);

    // Write-once holds on the file tier exactly like the heap tier.
    ExpectDeath([&arena] {
      Bytes one{1};
      arena.Append(0, one);
    });

    // Sealing a hosted arena that violates one-report-per-user is typed and
    // leaves the stream appendable (same contract as heap arenas).
    auto partial = PayloadArena::Hosted(backend);
    CHECK(partial.ok());
    PayloadArena incomplete = std::move(partial).value();
    CHECK(incomplete.Append(0, nullptr, 0) == 0);
    const Status sealed = incomplete.Seal(2);
    CHECK(!sealed.ok());
    CHECK(!incomplete.frozen());
    CHECK(incomplete.Append(1, nullptr, 0) == 1);
    CHECK(incomplete.Seal(2).ok());
  }

  // ---- Payload write failure: typed and recoverable, never fatal ----------
  {
    const size_t n = 20000;
    Rng rng(11);
    SessionConfig cfg;
    cfg.SetGraph(MakeRandomRegular(n, 8, &rng))
        .SetProtocol(ReportingProtocol::kAll);
    StorageBackendConfig storage;
    storage.kind = StorageBackendKind::kMmap;
    cfg.SetStorage(storage);
    auto built = Session::Create(std::move(cfg));
    CHECK(built.ok());
    Session session = std::move(built).value();

    // A 256 KiB file-size limit stands in for a full disk: the pending
    // payload stream's first 1 MiB flush fails with EFBIG (SIGXFSZ ignored,
    // so write(2) returns the error instead of killing the process).  The
    // exchange's own column files stay below the limit.
    struct rlimit saved;
    CHECK(::getrlimit(RLIMIT_FSIZE, &saved) == 0);
    struct rlimit limited = saved;
    limited.rlim_cur = 256 * 1024;
    void (*const prev_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
    CHECK(::setrlimit(RLIMIT_FSIZE, &limited) == 0);

    const std::vector<uint8_t> payload(128, 0x5a);
    for (NodeId u = 0; u < n; ++u) {
      CHECK(session.Ingest(u, payload.data(), payload.size()).ok());
    }
    CHECK(session.BeginEpoch().code() == StatusCode::kIoError);
    // The epoch did not roll, and it keeps serving.
    CHECK(session.epoch() == 0);
    CHECK(session.Step(2).ok());
    CHECK(session.current_round() == 2);
    CHECK(session.FinalizeEpoch().server_inbox.size() == n);
    // Sticky: the stream lost bytes, so a retried seal fails the same way.
    CHECK(session.BeginEpoch().code() == StatusCode::kIoError);
    CHECK(session.epoch() == 0);

    CHECK(::setrlimit(RLIMIT_FSIZE, &saved) == 0);
    std::signal(SIGXFSZ, prev_handler);
    session.DiscardPending();
    for (NodeId u = 0; u < n; ++u) {
      CHECK(session.Ingest(u, payload.data(), payload.size()).ok());
    }
    CHECK(session.BeginEpoch().ok());
    CHECK(session.epoch() == 1);
    CHECK(session.current_round() == 0);
    CHECK(session.Step(1).ok());
    CHECK(session.payloads().total_payload_bytes() == n * payload.size());
  }

  // ---- Session storage: typed create failure, tmpdir lifetime --------------
  {
    SessionConfig bad;
    bad.SetGraph(MakeCirculant(64, 4));
    StorageBackendConfig storage;
    storage.kind = StorageBackendKind::kMmap;
    storage.dir = "/netshuffle_no_such_parent_dir";
    bad.SetStorage(storage);
    const auto session = Session::Create(std::move(bad));
    CHECK(!session.ok());
    CHECK(session.status().code() == StatusCode::kIoError);
  }
  {
    std::string dir;
    {
      ProtocolResult result;
      {
        SessionConfig cfg;
        cfg.SetGraph(MakeCirculant(64, 4));
        StorageBackendConfig storage;
        storage.kind = StorageBackendKind::kMmap;
        cfg.SetStorage(storage);
        auto built = Session::Create(std::move(cfg));
        CHECK(built.ok());
        Session session = std::move(built).value();
        CHECK(session.storage_backend() != nullptr);
        dir = session.storage_backend()->dir();
        CHECK(DirExists(dir));
        CHECK(session.payloads().hosted());
        CHECK(session.Step(3).ok());
        result = session.Finalize();
      }
      // The Session is gone, but the result still references the hosted
      // columns: the tmpdir must survive until the result does.
      CHECK(DirExists(dir));
      CHECK(result.payloads->num_reports() == 64);
    }
    // Last owner released: directory swept, column files and all.
    CHECK(!DirExists(dir));
  }

  // The unit-test backend itself sweeps its tmpdir (with the leftover
  // hosted-column files the FlatColumn tests never unlinked).
  const std::string unit_dir = backend->dir();
  CHECK(FileExists(unit_dir));
  backend.reset();
  CHECK(!DirExists(unit_dir));
  return 0;
}
