#include "robust/record_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/crc32.hpp"

namespace owlcl {

namespace {

std::string errorText(const RecordLogFormat& f, const char* what) {
  return std::string(f.name) + " " + what;
}

/// Header check + frame walk over an in-memory log image. Returns the
/// number of bytes of valid data (header + whole valid frames); -1 on a
/// bad or mismatched header.
long long validPrefixLength(const RecordLogFormat& f,
                            const std::vector<unsigned char>& bytes,
                            std::initializer_list<std::uint64_t> identity,
                            const RecordLog::Visit* visit, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return -1LL;
  };
  const std::size_t headerBytes = 8 + 4 + 8 * identity.size() + 4;
  if (bytes.size() < headerBytes) return fail(errorText(f, "header truncated"));
  const unsigned char* h = bytes.data();
  if (std::memcmp(h, f.magic.data(), f.magic.size()) != 0)
    return fail(errorText(f, "magic mismatch"));
  if (getU32(h + headerBytes - 4) != crc32(h, headerBytes - 4))
    return fail(errorText(f, "header CRC mismatch"));
  if (getU32(h + 8) != f.version)
    return fail(errorText(f, "format version mismatch"));
  std::size_t field = 0;
  for (const std::uint64_t value : identity) {
    if (getU64(h + 12 + 8 * field) != value)
      return fail(errorText(f, "belongs to a different ") + f.identity[field]);
    ++field;
  }

  std::size_t pos = headerBytes;
  while (pos + f.headBytes + 4 <= bytes.size()) {
    const unsigned char* body = bytes.data() + pos;
    const std::size_t len = f.bodyLength(body);
    if (len == 0 || pos + len + 4 > bytes.size()) break;  // rejected / torn
    if (getU32(body + len) != crc32(body, len)) break;
    if (visit != nullptr) (*visit)(body, len);
    pos += len + 4;
  }
  return static_cast<long long>(pos);
}

}  // namespace

RecordLog::~RecordLog() { close(); }

bool RecordLog::isOpen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

void RecordLog::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool RecordLog::writeHeader(std::initializer_list<std::uint64_t> identity,
                            std::string* error) {
  std::vector<unsigned char> h(format_.magic.begin(), format_.magic.end());
  putU32(&h, format_.version);
  for (const std::uint64_t value : identity) putU64(&h, value);
  putU32(&h, crc32(h.data(), h.size()));
  // The header anchors everything; it is always durable.
  if (!writeAll(fd_, h.data(), h.size()) || ::fdatasync(fd_) != 0) {
    if (error != nullptr)
      *error = std::string("cannot write ") + format_.name + " header";
    return false;
  }
  end_ = h.size();
  return true;
}

bool RecordLog::open(const std::string& path,
                     std::initializer_list<std::uint64_t> identity,
                     FsyncPolicy fsync, bool truncate, std::string* error) {
  close();
  std::lock_guard<std::mutex> lock(mu_);
  fsync_ = fsync;
  appends_ = 0;
  failed_.store(0, std::memory_order_relaxed);
  const std::string name = format_.name;
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + ": " + path;
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    return false;
  };

  if (!truncate) {
    // Existing log: validate the header, then cut a torn/corrupt tail so
    // appends extend the valid prefix.
    std::vector<unsigned char> bytes;
    bool exists = false;
    if (!readWholeFile(path, &bytes, &exists))
      return fail("cannot read " + name);
    if (exists && !bytes.empty()) {
      const long long valid =
          validPrefixLength(format_, bytes, identity, nullptr, error);
      if (valid < 0) return false;
      fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd_ < 0) return fail("cannot open " + name + " for append");
      end_ = static_cast<std::uint64_t>(valid);
      if (!cutBack()) return fail("cannot truncate " + name + " tail");
      return true;
    }
  }

  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) return fail("cannot create " + name);
  if (!writeHeader(identity, error)) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool RecordLog::cutBack() {
  return ::ftruncate(fd_, static_cast<off_t>(end_)) == 0 &&
         ::lseek(fd_, static_cast<off_t>(end_), SEEK_SET) >= 0;
}

bool RecordLog::append(std::vector<unsigned char> record, std::string* error) {
  putU32(&record, crc32(record.data(), record.size()));  // now the frame

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    if (error != nullptr) *error = errorText(format_, "is not open");
    return false;
  }
  const std::uint64_t ordinal = appends_++;
  if (crash_ != nullptr && crash_->firesAtAppend(format_.tornWrite, ordinal)) {
    // Torn write: half the frame reaches the file, then the process dies.
    // Recovery must refuse to parse the fragment.
    writeAll(fd_, record.data(), record.size() / 2);
    ::fdatasync(fd_);
    CrashInjector::crash();
  }
  if (!writeAll(fd_, record.data(), record.size()) ||
      (fsync_ == FsyncPolicy::kEveryRecord && ::fdatasync(fd_) != 0)) {
    // Not durable == not appended: drop whatever part reached the file so
    // later appends still extend a valid prefix.
    cutBack();
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (error != nullptr) *error = errorText(format_, "append failed");
    return false;
  }
  end_ += record.size();
  if (crash_ != nullptr &&
      crash_->firesAtAppend(format_.crashAfterAppend, ordinal)) {
    ::fdatasync(fd_);
    CrashInjector::crash();
  }
  return true;
}

bool RecordLog::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0 || fsync_ == FsyncPolicy::kNever) return true;
  return ::fdatasync(fd_) == 0;
}

std::uint64_t RecordLog::appendCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

bool RecordLog::replay(const RecordLogFormat& format, const std::string& path,
                       std::initializer_list<std::uint64_t> identity,
                       const Visit& visit, std::string* error) {
  std::vector<unsigned char> bytes;
  bool exists = false;
  if (!readWholeFile(path, &bytes, &exists)) {
    if (error != nullptr)
      *error = std::string("cannot read ") + format.name + ": " + path;
    return false;
  }
  if (!exists || bytes.empty()) return true;  // nothing logged yet
  return validPrefixLength(format, bytes, identity, &visit, error) >= 0;
}

// --- shared file and byte helpers --------------------------------------------

bool writeAll(int fd, const unsigned char* p, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool readWholeFile(const std::string& path, std::vector<unsigned char>* bytes,
                   bool* exists) {
  *exists = false;
  bytes->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT;
  *exists = true;
  unsigned char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    bytes->insert(bytes->end(), buf, buf + n);
  }
  ::close(fd);
  return true;
}

void putU32(std::vector<unsigned char>* out, std::uint32_t v) {
  out->push_back(static_cast<unsigned char>(v));
  out->push_back(static_cast<unsigned char>(v >> 8));
  out->push_back(static_cast<unsigned char>(v >> 16));
  out->push_back(static_cast<unsigned char>(v >> 24));
}

void putU64(std::vector<unsigned char>* out, std::uint64_t v) {
  putU32(out, static_cast<std::uint32_t>(v));
  putU32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t getU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t getU64(const unsigned char* p) {
  return static_cast<std::uint64_t>(getU32(p)) |
         (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

bool ByteReader::u32(std::uint32_t* v) {
  if (pos_ + 4 > size_) return false;
  *v = getU32(data_ + pos_);
  pos_ += 4;
  return true;
}

bool ByteReader::u64(std::uint64_t* v) {
  if (pos_ + 8 > size_) return false;
  *v = getU64(data_ + pos_);
  pos_ += 8;
  return true;
}

bool ByteReader::bytes(unsigned char* out, std::size_t n) {
  if (pos_ + n > size_) return false;
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

}  // namespace owlcl
