// Parsing of the harness environment knobs: NS_THREADS (thread pool width),
// NS_SCALE (dataset scale), and NS_BACKEND (storage tier).  Warnings go to
// stderr; the parsed value is what matters here.

#include <cstdlib>

#include "bench/experiment_common.h"
#include "shuffle/backend.h"
#include "tests/test_util.h"
#include "util/parallel.h"

using namespace netshuffle;

namespace {

size_t ThreadsWith(const char* value) {
  if (value == nullptr) {
    unsetenv("NS_THREADS");
  } else {
    setenv("NS_THREADS", value, 1);
  }
  return EnvThreadCount();
}

double ScaleWith(const char* value) {
  if (value == nullptr) {
    unsetenv("NS_SCALE");
  } else {
    setenv("NS_SCALE", value, 1);
  }
  return EnvScale();
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
  const size_t hw = HardwareThreads();
  CHECK(hw >= 1);

  // NS_THREADS: unset / empty / 0 mean hardware concurrency.
  CHECK(ThreadsWith(nullptr) == hw);
  CHECK(ThreadsWith("") == hw);
  CHECK(ThreadsWith("0") == hw);

  // Explicit positive values are honored (even above the core count: the
  // knob pins the pool width, it does not probe the machine).
  CHECK(ThreadsWith("1") == 1);
  CHECK(ThreadsWith("3") == 3);
  CHECK(ThreadsWith("16") == 16);

  // Garbage is rejected with a fallback to hardware concurrency: negatives,
  // non-numeric text, trailing junk, floats.
  CHECK(ThreadsWith("-1") == hw);
  CHECK(ThreadsWith("abc") == hw);
  CHECK(ThreadsWith("4x") == hw);
  CHECK(ThreadsWith("2.5") == hw);
  CHECK(ThreadsWith("1e3") == hw);

  // Values beyond the cap clamp to it (the pool refuses absurd widths).
  CHECK(ThreadsWith("100000") == 256);

  // The EnvThreads alias harnesses use reports the same parse.
  setenv("NS_THREADS", "5", 1);
  CHECK(EnvThreads() == 5);
  unsetenv("NS_THREADS");

  // NS_SCALE: same spirit — unset = 1.0, in-range honored, garbage and
  // out-of-range rejected to 1.0 (the pre-existing contract, pinned here
  // alongside the new knob).
  CHECK(ScaleWith(nullptr) == 1.0);
  CHECK(ScaleWith("0.25") == 0.25);
  CHECK(ScaleWith("1") == 1.0);
  CHECK(ScaleWith("2") == 2.0);  // >1 up-scales, with a note
  CHECK(ScaleWith("0") == 1.0);
  CHECK(ScaleWith("-0.5") == 1.0);
  CHECK(ScaleWith("junk") == 1.0);
  CHECK(ScaleWith("0.5x") == 1.0);
  CHECK(ScaleWith("2000") == 1.0);  // over the 1e3 cap
  unsetenv("NS_SCALE");

  // NS_BACKEND: unset / empty / "ram" mean the heap default, "mmap" selects
  // the file-backed tier, garbage warns and falls back to the default.
  CHECK(BackendWith(nullptr) == StorageBackendKind::kInRam);
  CHECK(BackendWith("") == StorageBackendKind::kInRam);
  CHECK(BackendWith("ram") == StorageBackendKind::kInRam);
  CHECK(BackendWith("mmap") == StorageBackendKind::kMmap);
  CHECK(BackendWith("MMAP") == StorageBackendKind::kInRam);  // exact match
  CHECK(BackendWith("disk") == StorageBackendKind::kInRam);
  unsetenv("NS_BACKEND");
  return 0;
}
