// ResultJournal — the write-ahead result log of the crash-consistency
// layer (DESIGN.md §9). Every settled verdict (subsumption, non-
// subsumption, pruning, sat status, give-up) is appended as one fixed-size
// CRC32-protected record before the run moves on, so a crash loses at most
// the records that had not reached the file yet. Recovery replays the
// journal on top of the newest valid snapshot; records are idempotent
// PkStore transitions, so replaying an already-snapshotted prefix is
// harmless.
//
// File layout (little-endian):
//   header  : magic "OWLJRNL1" | u32 version | u64 ontologyHash |
//             u64 seed | u32 crc(first 28 bytes)   — 32 bytes
//   records : u8 kind | u8×3 zero | u32 x | u32 y | u32 epoch |
//             u32 crc(first 16 bytes)          — 20 bytes each
//
// The header, framing, torn-tail truncation, fsync policy and crash points
// are RecordLog's (robust/record_log.hpp); this class is the record format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "owl/ids.hpp"
#include "robust/record_log.hpp"

namespace owlcl {

struct JournalRecord {
  SettledKind kind;
  ConceptId x = 0;
  ConceptId y = 0;
  std::uint32_t epoch = 0;
};

class ResultJournal {
 public:
  static constexpr std::size_t kHeaderBytes = 32;
  static constexpr std::size_t kRecordBytes = 20;

  ResultJournal();

  /// Opens `path` for appending. A missing/empty file gets a fresh header;
  /// an existing file must carry a matching (version, ontologyHash, seed)
  /// header and is truncated back to its last valid record. With
  /// `truncate` the file is recreated from scratch (fresh runs).
  /// Returns false (with *error set) on I/O failure or header mismatch.
  bool open(const std::string& path, std::uint64_t ontologyHash,
            std::uint64_t seed, FsyncPolicy fsync, bool truncate,
            std::string* error) {
    return log_.open(path, {ontologyHash, seed}, fsync, truncate, error);
  }

  bool isOpen() const { return log_.isOpen(); }
  void close() { log_.close(); }

  /// Appends one record (thread-safe). Durability per the fsync policy;
  /// false (and counted in failedAppends()) if the write or sync failed.
  bool append(SettledKind kind, ConceptId x, ConceptId y, std::uint32_t epoch);

  /// Forces buffered records to disk (kEveryBarrier calls this at epoch
  /// barriers; harmless under the other policies). False if the sync
  /// failed.
  bool sync() { return log_.sync(); }

  /// Records appended through this handle (not counting replayed ones).
  std::uint64_t appendCount() const { return log_.appendCount(); }
  std::uint64_t failedAppends() const { return log_.failedAppends(); }

  /// Process-death injection for the crash drills (may be null).
  void setCrashInjector(CrashInjector* crash) { log_.setCrashInjector(crash); }

  /// Reads every valid record of `path`, stopping at the first torn or
  /// corrupt one. A missing file yields zero records and returns true; an
  /// existing file with a bad or mismatched header returns false.
  static bool replay(const std::string& path, std::uint64_t ontologyHash,
                     std::uint64_t seed, std::vector<JournalRecord>* out,
                     std::string* error);

 private:
  RecordLog log_;
};

}  // namespace owlcl
