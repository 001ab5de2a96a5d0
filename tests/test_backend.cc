// Storage-backend unit and error-path tests (shuffle/backend.h, DESIGN.md
// §9).  The differential suites (tests/test_flat_store.cc,
// tests/test_kernel_differential.cc) pin that exchanges over file-backed
// payloads are bit-identical to the heap tier; this file pins everything
// around that hot path:
//
//   - knob parsing (ParseBackendKind / NS_BACKEND),
//   - TYPED kIoError on every creation-time failure: uncreatable backend
//     dir, read-only mapping of a missing file, and of a file SHORTER than
//     the column needs (which would otherwise SIGBUS mid-exchange),
//   - the write-once contract on a file-backed PayloadArena (append after
//     Seal dies, same as the heap arena),
//   - a failed payload write (a file-size limit standing in for a full
//     disk) is a sticky, typed kIoError at BeginEpoch, not an abort: the
//     epoch does not roll, the current one keeps stepping and finalizing,
//     and DiscardPending recovers; an estimator's epoch returns the same
//     kIoError,
//   - an exchange round never touches disk: under a file-size limit far
//     below the routing columns' size, a kMmap session still steps and
//     finalizes, and its tmpdir holds only the payload_* stream files,
//   - tmpdir lifetime: a kMmap session's directory outlives the Session
//     while a Finalize result still references the hosted columns, and is
//     swept — files and all — when the LAST owner goes away.

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/status.h"
#include "estimation/mean_estimation.h"
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

  // One backend for the unit checks below.
  auto created = StorageBackend::Create(StorageBackendConfig{});
  CHECK(created.ok());
  std::shared_ptr<StorageBackend> backend = std::move(created).value();
  CHECK(DirExists(backend->dir()));
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
    std::FILE* file = std::fopen(path.c_str(), "wb");
    CHECK(file != nullptr);
    CHECK(std::fwrite("netshuf!", 1, 8, file) == 8);
    CHECK(std::fclose(file) == 0);
    auto too_short = MappedFile::OpenReadOnly(path, 16);
    CHECK(!too_short.ok());
    CHECK(too_short.status().code() == StatusCode::kIoError);
    auto long_enough = MappedFile::OpenReadOnly(path, 8);
    CHECK(long_enough.ok());
  }

  // ---- File-backed PayloadArena: write-once, bytes round-trip --------------
  {
    auto hosted = PayloadArena::Hosted(backend);
    CHECK(hosted.ok());
    PayloadArena arena = std::move(hosted).value();
    CHECK(arena.hosted());
    CHECK(arena.backend() == backend);
    for (NodeId u = 0; u < 100; ++u) {
      Bytes payload;
      for (size_t i = 0; i < u % 7; ++i) {
        payload.push_back(static_cast<uint8_t>(u * 13 + i));
      }
      CHECK(arena.Append(u, payload) == u);
    }
    CHECK(arena.Seal(100).ok());
    CHECK(arena.frozen());
    CHECK(arena.DiskBytes() > 0);
    for (NodeId u = 0; u < 100; ++u) {
      CHECK(arena.origin(u) == u);
      const PayloadSpan s = arena.payload(u);
      CHECK(s.size() == u % 7);
      for (size_t i = 0; i < s.size(); ++i) {
        CHECK(s[i] == static_cast<uint8_t>(u * 13 + i));
      }
    }

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
    // exchange itself writes no files.
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

    // An estimator's epoch meets the same seal failure as a typed status
    // (128-byte PrivUnit payloads at dim 16), and leaves recovery to the
    // caller: the epoch does not roll.
    MeanEstimationConfig mean;
    mean.dim = 16;
    session.DiscardPending();
    CHECK(RunMeanEstimation(session, mean).status().code() ==
          StatusCode::kIoError);
    CHECK(session.epoch() == 0);

    CHECK(::setrlimit(RLIMIT_FSIZE, &saved) == 0);
    std::signal(SIGXFSZ, prev_handler);
    session.DiscardPending();
    CHECK(RunMeanEstimation(session, mean).ok());
    CHECK(session.epoch() == 1);
    for (NodeId u = 0; u < n; ++u) {
      CHECK(session.Ingest(u, payload.data(), payload.size()).ok());
    }
    CHECK(session.BeginEpoch().ok());
    CHECK(session.epoch() == 2);
    CHECK(session.current_round() == 0);
    CHECK(session.Step(1).ok());
    CHECK(session.payloads().total_payload_bytes() == n * payload.size());
  }

  // ---- An exchange round never touches disk ------------------------------
  {
    // The routing state (holder column and holdings) stays on the heap
    // under kMmap, so a 16 KiB file-size limit — below any routing column
    // (80 KB at this n) — cannot fail a round.  The limit drops after Create, whose payload
    // stream files are all the session writes.
    const size_t n = 20000;
    Rng rng(12);
    SessionConfig cfg;
    cfg.SetGraph(MakeRandomRegular(n, 8, &rng))
        .SetProtocol(ReportingProtocol::kAll);
    StorageBackendConfig storage;
    storage.kind = StorageBackendKind::kMmap;
    cfg.SetStorage(storage);
    auto built = Session::Create(std::move(cfg));
    CHECK(built.ok());
    Session session = std::move(built).value();

    struct rlimit saved;
    CHECK(::getrlimit(RLIMIT_FSIZE, &saved) == 0);
    struct rlimit limited = saved;
    limited.rlim_cur = 16 * 1024;
    void (*const prev_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
    CHECK(::setrlimit(RLIMIT_FSIZE, &limited) == 0);
    CHECK(session.Step(3).ok());
    CHECK(session.FinalizeEpoch().server_inbox.size() == n);
    CHECK(::setrlimit(RLIMIT_FSIZE, &saved) == 0);
    std::signal(SIGXFSZ, prev_handler);

    size_t files = 0;
    DIR* dir = ::opendir(session.storage_backend()->dir().c_str());
    CHECK(dir != nullptr);
    while (const struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      CHECK(name.rfind("payload_", 0) == 0);
      ++files;
    }
    ::closedir(dir);
    CHECK(files > 0);
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
  // short file the MappedFile checks never unlinked).
  const std::string unit_dir = backend->dir();
  CHECK(FileExists(unit_dir));
  backend.reset();
  CHECK(!DirExists(unit_dir));
  return 0;
}
