#include "robust/journal.hpp"

namespace owlcl {

namespace {

// Record body: u8 kind | u8×3 zero | u32 x | u32 y | u32 epoch.
constexpr std::size_t kBodyBytes = ResultJournal::kRecordBytes - 4;

std::size_t bodyLength(const unsigned char* head) {
  const bool validKind =
      head[0] >= static_cast<unsigned char>(SettledKind::kSubsumption) &&
      head[0] <= static_cast<unsigned char>(SettledKind::kUnresolvedConcept);
  return validKind ? kBodyBytes : 0;
}

constexpr RecordLogFormat kFormat{
    "journal",
    {'O', 'W', 'L', 'J', 'R', 'N', 'L', '1'},
    /*version=*/1,
    {"ontology", "seed"},
    kBodyBytes,
    bodyLength,
    CrashPoint::kTornWrite,
    CrashPoint::kCrashAfterJournal,
};

}  // namespace

ResultJournal::ResultJournal() : log_(kFormat) {}

bool ResultJournal::append(SettledKind kind, ConceptId x, ConceptId y,
                           std::uint32_t epoch) {
  std::vector<unsigned char> body = {static_cast<unsigned char>(kind), 0, 0, 0};
  body.reserve(kRecordBytes);
  putU32(&body, x);
  putU32(&body, y);
  putU32(&body, epoch);
  return log_.append(std::move(body), nullptr);
}

bool ResultJournal::replay(const std::string& path, std::uint64_t ontologyHash,
                           std::uint64_t seed, std::vector<JournalRecord>* out,
                           std::string* error) {
  out->clear();
  return RecordLog::replay(
      kFormat, path, {ontologyHash, seed},
      [out](const unsigned char* body, std::size_t) {
        out->push_back(JournalRecord{static_cast<SettledKind>(body[0]),
                                     getU32(body + 4), getU32(body + 8),
                                     getU32(body + 12)});
      },
      error);
}

}  // namespace owlcl
