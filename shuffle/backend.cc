// POSIX implementation of the storage backends (shuffle/backend.h):
// mkdtemp-owned column directories, read-only file mappings with typed
// open errors, and the buffered write(2) streams behind PayloadStream.

#include "shuffle/backend.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace netshuffle {
namespace {

std::string ErrnoText() {
  const char* text = std::strerror(errno);
  return text != nullptr ? std::string(text) : std::string("unknown errno");
}

Status IoError(const std::string& what, const std::string& path) {
  return Status::Error(StatusCode::kIoError, what + " '" + path +
                                                 "': " + ErrnoText());
}

/// write(2) until done; short writes are legal and must be resumed.
bool WriteFully(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t wrote = ::write(fd, data, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += wrote;
    size -= static_cast<size_t>(wrote);
  }
  return true;
}

}  // namespace

StorageBackendKind ParseBackendKind(const char* value) {
  if (value == nullptr || value[0] == '\0') return StorageBackendKind::kInRam;
  if (std::strcmp(value, "ram") == 0) return StorageBackendKind::kInRam;
  if (std::strcmp(value, "mmap") == 0) return StorageBackendKind::kMmap;
  std::fprintf(stderr,
               "netshuffle: unrecognized backend '%s' (expected 'ram' or "
               "'mmap'), using ram\n",
               value);
  return StorageBackendKind::kInRam;
}

// ---- MappedFile -------------------------------------------------------------

Expected<std::shared_ptr<MappedFile>> MappedFile::OpenReadOnly(
    std::string path, size_t min_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("cannot open column file", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = IoError("cannot stat column file", path);
    ::close(fd);
    return status;
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  if (bytes < min_bytes) {
    ::close(fd);
    return Status::Error(
        StatusCode::kIoError,
        "column file '" + path + "' is " + std::to_string(bytes) +
            " bytes, shorter than the " + std::to_string(min_bytes) +
            " bytes its column requires (touching the tail would SIGBUS)");
  }
  void* map = nullptr;
  if (bytes > 0) {
    map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
    if (map == MAP_FAILED) {
      const Status status = IoError("cannot map column file", path);
      ::close(fd);
      return status;
    }
  }
  return Expected<std::shared_ptr<MappedFile>>(
      std::shared_ptr<MappedFile>(new MappedFile(fd, map, bytes)));
}

MappedFile::~MappedFile() {
  if (map_ != nullptr) ::munmap(map_, bytes_);
  if (fd_ >= 0) ::close(fd_);
}

// ---- StorageBackend ---------------------------------------------------------

Expected<std::shared_ptr<StorageBackend>> StorageBackend::Create(
    StorageBackendConfig config) {
  std::string parent = config.dir;
  if (parent.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    parent = (tmpdir != nullptr && tmpdir[0] != '\0') ? tmpdir : "/tmp";
  }
  std::string pattern = parent + "/netshuffle.XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    return IoError("cannot create backend directory under", parent);
  }
  return std::shared_ptr<StorageBackend>(
      new StorageBackend(std::string(buf.data())));
}

StorageBackend::~StorageBackend() {
  // Last owner: sweep the tmpdir.  Columns unlink their own files on normal
  // teardown; this catches files orphaned by aborted seals or crashes inside
  // an Expected<> error path, and finally the directory itself.
  DIR* dir = ::opendir(dir_.c_str());
  if (dir != nullptr) {
    while (struct dirent* entry = ::readdir(dir)) {
      const char* name = entry->d_name;
      if (std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) {
        continue;
      }
      const std::string path = dir_ + "/" + name;
      ::unlink(path.c_str());
    }
    ::closedir(dir);
  }
  ::rmdir(dir_.c_str());
}

std::string StorageBackend::NextPath(const char* stem) {
  ns::MutexLock lock(&mu_);
  return dir_ + "/" + stem + "." + std::to_string(next_file_++);
}

// ---- PayloadStream ----------------------------------------------------------

namespace {
/// Flush threshold for the app-side stream buffers.  Small enough that a
/// hosted arena's heap footprint is a rounding error, big enough that the
/// write(2) syscall rate stays negligible next to payload serialization.
constexpr size_t kStreamBufBytes = 1u << 20;
}  // namespace

Expected<std::shared_ptr<PayloadStream>> PayloadStream::Create(
    std::shared_ptr<StorageBackend> backend) {
  std::shared_ptr<PayloadStream> stream(
      new PayloadStream(std::move(backend)));
  struct Spec {
    Column PayloadStream::* column;
    const char* stem;
  };
  const Spec specs[] = {{&PayloadStream::origins_, "payload_origins"},
                        {&PayloadStream::offsets_, "payload_offsets"},
                        {&PayloadStream::bytes_, "payload_bytes"}};
  for (const Spec& spec : specs) {
    Column& col = stream.get()->*spec.column;
    col.path = stream->backend_->NextPath(spec.stem);
    col.fd = ::open(col.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (col.fd < 0) {
      return IoError("cannot create payload stream file", col.path);
    }
    col.buf.reserve(kStreamBufBytes);
  }
  // CSR leading zero: offsets[r] .. offsets[r+1] bounds report r's bytes.
  const uint32_t zero = 0;
  stream->AppendRaw(&stream->offsets_, &zero, sizeof(zero));
  return stream;
}

PayloadStream::~PayloadStream() {
  UnmapAll();
  for (Column* col : {&origins_, &offsets_, &bytes_}) {
    if (col->fd >= 0) ::close(col->fd);
    if (!col->path.empty()) ::unlink(col->path.c_str());
  }
}

void PayloadStream::AppendRaw(Column* col, const void* data, size_t size) {
  if (size == 0) return;
  const uint8_t* src = static_cast<const uint8_t*>(data);
  if (col->buf.size() + size > kStreamBufBytes) FlushColumn(col);
  // A failed stream has lost bytes for good: stop writing, and let
  // EnsureMapped report the failure at the seal point.
  if (!error_.ok()) return;
  if (size >= kStreamBufBytes) {
    // Oversized single append (giant payload): bypass the buffer.
    if (!WriteFully(col->fd, src, size)) {
      error_ = IoError("payload stream write failed", col->path);
      return;
    }
  } else {
    col->buf.insert(col->buf.end(), src, src + size);
  }
  col->written += size;
}

void PayloadStream::FlushColumn(Column* col) {
  if (col->buf.empty()) return;
  if (error_.ok() && !WriteFully(col->fd, col->buf.data(), col->buf.size())) {
    error_ = IoError("payload stream flush failed", col->path);
  }
  col->buf.clear();
}

void PayloadStream::UnmapAll() {
  origins_.map.reset();
  offsets_.map.reset();
  bytes_.map.reset();
}

void PayloadStream::Append(NodeId origin, const uint8_t* data, size_t size) {
  // A failed Seal leaves the arena writable; appending after a successful
  // map is excluded by the arena's frozen/sealed contract, so dropping any
  // stale mappings here is safe.
  if (mapped()) UnmapAll();
  AppendRaw(&origins_, &origin, sizeof(origin));
  total_bytes_ += size;
  const uint32_t end =
      CheckedNarrow32(total_bytes_, "hosted PayloadArena byte count");
  AppendRaw(&offsets_, &end, sizeof(end));
  AppendRaw(&bytes_, data, size);
  ++num_reports_;
}

Status PayloadStream::EnsureMapped() {
  if (mapped()) return Status::Ok();
  struct Spec {
    Column* col;
    size_t min_bytes;
  };
  const Spec specs[] = {
      {&origins_, num_reports_ * sizeof(NodeId)},
      {&offsets_, (num_reports_ + 1) * sizeof(uint32_t)},
      {&bytes_, total_bytes_}};
  for (const Spec& spec : specs) {
    FlushColumn(spec.col);
  }
  if (!error_.ok()) return error_;
  for (const Spec& spec : specs) {
    auto mapped = MappedFile::OpenReadOnly(spec.col->path, spec.min_bytes);
    if (!mapped.ok()) {
      UnmapAll();
      return mapped.status();
    }
    spec.col->map = std::move(mapped).value();
  }
  return Status::Ok();
}

size_t PayloadStream::DiskBytes() const {
  return origins_.written + offsets_.written + bytes_.written;
}

size_t PayloadStream::HeapBytes() const {
  return origins_.buf.capacity() + offsets_.buf.capacity() +
         bytes_.buf.capacity();
}

}  // namespace netshuffle
