#ifndef CQP_SERVER_DURABLE_PROFILE_STORE_H_
#define CQP_SERVER_DURABLE_PROFILE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/profile_store.h"
#include "storage/journal/journal.h"
#include "storage/journal/snapshot.h"

namespace cqp::server {

/// Durability configuration for DurableProfileStore::Open.
struct DurabilityOptions {
  /// Directory holding `journal` and `snapshot`; created if missing.
  std::string dir;
  /// Group-commit window. 0 (the default) fsyncs inline on every mutation
  /// — strongest semantics (an error means the mutation was NOT applied).
  /// > 0 batches concurrent commits into one fsync every interval: each
  /// Put/Remove still blocks until its record is durable, but N writers
  /// share a single fsync.
  double group_commit_interval_ms = 0.0;
  /// Snapshot-compact the journal once it grows past this many bytes.
  uint64_t compact_threshold_bytes = 4ull << 20;
  /// File I/O goes through this filesystem; null = PosixFileSystem().
  /// Tests and the crash fuzzer pass a FaultyFileSystem.
  storage::FileSystem* fs = nullptr;
};

/// Crash-safe ProfileStore: every Put/Remove (including hot-reload puts)
/// is appended to a checksummed write-ahead journal before it mutates the
/// in-memory map, and Put/Remove return OK only once the record is fsynced
/// — a crash can lose at most mutations that were never acknowledged.
///
/// Startup replays `snapshot` (atomic, whole-file-checksummed) plus the
/// journal, truncating at the first torn or checksum-corrupt tail record
/// rather than refusing to start: a torn tail is the expected artifact of
/// a crash mid-append, and by the acknowledgement rule above the records
/// it can contain were never acknowledged. The persisted version counter
/// (snapshot header + per-record versions) keeps snapshot versions
/// monotonic across restarts, so the version-keyed PlanCache can never
/// confuse a pre-crash graph with a post-crash one.
///
/// Failure policy: any journal append or fsync error wedges the store —
/// mutations fail fast from then on (reads keep serving) until the process
/// reopens the store, which truncates the torn tail and resumes. This is
/// deliberate: after a failed write the journal tail is unknowable, and
/// after a failed fsync the kernel may have dropped dirty pages
/// ("fsyncgate"), so continuing to append would risk acknowledged data.
class DurableProfileStore : public ProfileStore {
 public:
  /// Opens (or creates) the store in options.dir and recovers its state.
  /// Fails on a corrupt snapshot (crashes cannot produce one — see
  /// snapshot.h) or unreadable directory; a torn journal tail is recovered
  /// from, not an error.
  static StatusOr<std::unique_ptr<DurableProfileStore>> Open(
      const storage::Database* db, DurabilityOptions options);

  ~DurableProfileStore() override;  ///< flushes and closes the journal

  /// fsyncs any buffered journal records now.
  Status Flush() override;

  /// Snapshot compaction: atomically writes the full current state to
  /// `snapshot` and truncates the journal. Runs automatically when the
  /// journal passes compact_threshold_bytes; callable explicitly.
  Status Compact();

  std::optional<DurabilityStats> durability_stats() const override;

  /// What recovery found at Open() time.
  struct RecoveryInfo {
    size_t snapshot_profiles = 0;  ///< restored from the snapshot
    size_t replayed_records = 0;   ///< journal records applied
    size_t skipped_records = 0;    ///< pre-snapshot records still in the journal
    size_t unloadable_profiles = 0;  ///< intact records that no longer validate
    bool torn_tail = false;
    uint64_t dropped_bytes = 0;
    double recovery_ms = 0.0;
  };
  const RecoveryInfo& recovery() const { return recovery_; }

  /// The full durable contents as (id, version, profile text), sorted by
  /// id — the oracle view used by tools/cqp_crashfuzz and the tests.
  std::vector<storage::journal::SnapshotEntry> Contents() const;

  /// True once a journal failure has made the store read-only.
  bool wedged() const;

 protected:
  Status WriteAheadLocked(const Mutation& mutation,
                          uint64_t* commit_token) override;
  Status WaitDurable(uint64_t commit_token) override;

 private:
  DurableProfileStore(const storage::Database* db, DurabilityOptions options);

  std::string JournalPath() const { return options_.dir + "/journal"; }
  std::string SnapshotPath() const { return options_.dir + "/snapshot"; }

  Status Recover();
  /// The compaction body; caller holds mu_ exclusively.
  Status CompactLocked();
  void FlusherLoop();
  /// Latches the wedge; caller holds commit_mu_.
  void WedgeLocked(const Status& status);

  const DurabilityOptions options_;
  storage::FileSystem* fs_;  ///< options_.fs or the posix filesystem
  RecoveryInfo recovery_;

  /// Profile texts mirroring graphs_ (same key set), guarded by mu_:
  /// compaction snapshots re-serialize from here instead of regenerating
  /// text from graphs.
  std::map<std::string, std::string> texts_;

  /// Serializes journal Sync()/swap against each other (appends are
  /// already serialized by mu_; File allows Append racing Sync).
  /// Lock order: mu_ → journal_io_mu_ → commit_mu_.
  std::mutex journal_io_mu_;
  std::unique_ptr<storage::journal::Writer> journal_;  ///< swap under mu_+io

  /// Group-commit state, guarded by commit_mu_.
  mutable std::mutex commit_mu_;
  std::condition_variable commit_cv_;   ///< durable_end_/epoch_/wedged_ changed
  std::condition_variable flusher_cv_;  ///< work for the flusher
  uint64_t appended_end_ = 0;  ///< journal bytes appended (commit tokens)
  uint64_t durable_end_ = 0;   ///< journal bytes known fsynced
  uint64_t epoch_ = 0;         ///< bumped by compaction (which is an fsync point)
  uint64_t commits_pending_ = 0;  ///< appends since the last fsync
  bool flush_requested_ = false;
  bool wedged_ = false;
  Status wedge_status_;
  bool stop_flusher_ = false;
  std::thread flusher_;

  /// Counters (relaxed; stats are advisory).
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> append_bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> group_commits_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> snapshot_bytes_{0};
  std::atomic<uint64_t> journal_bytes_{0};  ///< current journal length
};

}  // namespace cqp::server

#endif  // CQP_SERVER_DURABLE_PROFILE_STORE_H_
