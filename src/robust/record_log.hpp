// RecordLog — the durable append-only file behind both write-ahead logs of
// the crash-consistency layer (DESIGN.md §9, §14): journal.wal
// (ResultJournal) and deltas.wal (DeltaJournal). It owns every file
// mechanism those logs share; each journal only supplies its record
// format. The snapshot files (ckpt-*.snap) use the same byte and file
// helpers declared at the bottom of this header.
//
// File layout (little-endian):
//   header : magic (8 bytes) | u32 version | u64 identity fields… |
//            u32 crc(preceding header bytes)
//   frames : body | u32 crc(body)
// The identity fields pin a log to the run that wrote it (ontology hash,
// seed, …); open and replay refuse a header whose magic, CRC, version or
// identity differs.
//
// Torn-write handling: a frame is valid only if it is complete, its format
// accepts its head, and its CRC matches. Replay stops at the first invalid
// frame; reopening for append truncates the file back to the valid prefix,
// so new appends extend a clean prefix (a torn tail is never parsed as
// data). A failed append is cut back off the file the same way.
//
// Fsync policy: kNever trusts the OS page cache (fastest, loses the most
// on power failure — process crashes still lose nothing once the kernel
// has the write); kEveryRecord makes each append durable before the call
// returns; kEveryBarrier syncs only when the owner calls sync() (the
// result journal does so at every epoch barrier: bounded loss, negligible
// cost). The header is always synced.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

#include "robust/fault_injector.hpp"

namespace owlcl {

enum class FsyncPolicy : std::uint8_t { kNever = 0, kEveryRecord, kEveryBarrier };

/// What a journal supplies to describe its file: header identity and the
/// framing of its records.
struct RecordLogFormat {
  /// Prefix of every error text ("journal", "delta WAL").
  const char* name;
  std::array<char, 8> magic;
  std::uint32_t version;
  /// Names of the u64 identity fields after the version, in header order
  /// (a log with one field leaves the second null). A mismatch reports
  /// "<name> belongs to a different <field>".
  std::array<const char*, 2> identity;
  /// Bytes of a frame body needed to compute its length.
  std::size_t headBytes;
  /// Body length of the frame whose first `headBytes` bytes are `head`, or
  /// 0 if the format rejects that head (replay stops there).
  std::size_t (*bodyLength)(const unsigned char* head);
  /// Crash points fired on the append ordinal: half the frame reaches the
  /// file and the process dies / the whole frame is synced and the process
  /// dies. kNone disables either.
  CrashPoint tornWrite;
  CrashPoint crashAfterAppend;
};

class RecordLog {
 public:
  /// Called with each valid frame body, in file order.
  using Visit = std::function<void(const unsigned char* body, std::size_t len)>;

  /// `format` must outlive the log (formats are static constants).
  explicit RecordLog(const RecordLogFormat& format) : format_(format) {}
  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Opens `path` for appending. A missing/empty file gets a fresh header;
  /// an existing file must carry a matching header and is truncated back
  /// to its last valid frame. With `truncate` the file is recreated from
  /// scratch. Returns false (with *error set) on I/O failure or header
  /// mismatch.
  bool open(const std::string& path,
            std::initializer_list<std::uint64_t> identity, FsyncPolicy fsync,
            bool truncate, std::string* error);
  bool isOpen() const;
  void close();

  /// Appends the frame body `record` followed by its CRC (thread-safe),
  /// durable per the fsync policy. A failed write or sync fails the
  /// append: it is counted, cut back off the file, and reported as false
  /// (with *error set).
  bool append(std::vector<unsigned char> record, std::string* error);

  /// Forces appended frames to disk unless the policy is kNever. False if
  /// the sync failed.
  bool sync();

  /// Appends attempted through this handle (the crash-point ordinal).
  std::uint64_t appendCount() const;
  /// Appends that failed to write or sync.
  std::uint64_t failedAppends() const {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Process-death injection for the crash drills (may be null).
  void setCrashInjector(CrashInjector* crash) { crash_ = crash; }

  /// Visits every valid frame of `path`, stopping at the first torn,
  /// rejected or corrupt one. A missing or empty file visits nothing and
  /// returns true; a bad or mismatched header returns false.
  static bool replay(const RecordLogFormat& format, const std::string& path,
                     std::initializer_list<std::uint64_t> identity,
                     const Visit& visit, std::string* error);

 private:
  bool writeHeader(std::initializer_list<std::uint64_t> identity,
                   std::string* error);
  /// Truncates the file to the last good frame (a torn tail, a failed
  /// append's partial bytes) and positions appends there.
  bool cutBack();

  const RecordLogFormat& format_;
  mutable std::mutex mu_;
  int fd_ = -1;
  FsyncPolicy fsync_ = FsyncPolicy::kEveryBarrier;
  std::uint64_t end_ = 0;  // file offset just past the last good frame
  std::uint64_t appends_ = 0;
  std::atomic<std::uint64_t> failed_{0};
  CrashInjector* crash_ = nullptr;
};

// --- shared file and byte helpers --------------------------------------------

/// write(2) until `len` bytes are written; false on error.
bool writeAll(int fd, const unsigned char* p, std::size_t len);

/// Reads the whole file into `bytes`. A missing file returns true with
/// *exists false; false on any other open/read error.
bool readWholeFile(const std::string& path, std::vector<unsigned char>* bytes,
                   bool* exists);

/// Little-endian encoding, appended to `out`.
void putU32(std::vector<unsigned char>* out, std::uint32_t v);
void putU64(std::vector<unsigned char>* out, std::uint64_t v);

/// Little-endian decoding of the bytes at `p`.
std::uint32_t getU32(const unsigned char* p);
std::uint64_t getU64(const unsigned char* p);

/// Bounds-checked little-endian reader over a byte buffer.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u32(std::uint32_t* v);
  bool u64(std::uint64_t* v);
  bool bytes(unsigned char* out, std::size_t n);
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace owlcl
