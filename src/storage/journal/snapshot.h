#ifndef CQP_STORAGE_JOURNAL_SNAPSHOT_H_
#define CQP_STORAGE_JOURNAL_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/journal/file.h"

namespace cqp::storage::journal {

/// Compaction snapshot: the full versioned key→value state of a durable
/// store at one instant, written atomically (AtomicWriteFile: tmp + fsync
/// + rename + dir fsync) so a crash during compaction can never be seen —
/// readers find either the old snapshot or the new one, both intact.
///
/// On-disk format (little-endian):
///
///   "CQPSNAP1"                              8-byte magic + format version
///   next_version : u64                      the store's version counter
///   count : u64
///   count × { key : lpstring, version : u64, value : lpstring }
///   masked crc32c(everything above) : u32
///
/// where lpstring = [len : u32][bytes]. The trailing whole-file checksum
/// makes any external corruption (or a non-atomic writer) detectable:
/// ReadSnapshot fails loudly instead of loading half a state.

struct SnapshotEntry {
  std::string key;
  uint64_t version = 0;
  std::string value;
  /// Byte offset of the value (past its length prefix) within the
  /// snapshot file. Filled by ReadSnapshot and by the offset-returning
  /// WriteSnapshot overload; ignored by the encoder. Demand paging uses
  /// it to pread a single profile back without loading the whole file.
  uint64_t value_offset = 0;
};

struct SnapshotData {
  /// The store's next mutation version at snapshot time. Journal records
  /// with version < next_version are already reflected in the entries —
  /// replay skips them. Persisting this also keeps version numbering
  /// monotonic across restarts, which is what the snapshot-version-keyed
  /// PlanCache assumes.
  uint64_t next_version = 1;
  std::vector<SnapshotEntry> entries;
};

/// Serializes `data` (for tests; WriteSnapshot uses this internally).
/// When `value_offsets` is non-null it receives, per entry, the byte
/// offset of the entry's value within the encoded file.
std::string EncodeSnapshot(const SnapshotData& data,
                           std::vector<uint64_t>* value_offsets = nullptr);

/// Atomically replaces the snapshot at `path`. The optional
/// `value_offsets` out-parameter mirrors EncodeSnapshot's: shard
/// compaction uses it to refresh its paged entries' disk refs without
/// re-reading the file it just wrote.
Status WriteSnapshot(FileSystem& fs, const std::string& path,
                     const SnapshotData& data,
                     std::vector<uint64_t>* value_offsets = nullptr);

/// Loads and verifies the snapshot. NotFound when `path` does not exist
/// (an empty store); kInternal with a precise message on bad magic,
/// truncation or checksum mismatch — a snapshot is only ever produced by
/// an atomic rename, so corruption here is NOT a normal crash artifact
/// and refusing to guess is the safe behavior.
StatusOr<SnapshotData> ReadSnapshot(FileSystem& fs, const std::string& path);

}  // namespace cqp::storage::journal

#endif  // CQP_STORAGE_JOURNAL_SNAPSHOT_H_
