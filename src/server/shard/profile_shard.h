#ifndef CQP_SERVER_SHARD_PROFILE_SHARD_H_
#define CQP_SERVER_SHARD_PROFILE_SHARD_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "construct/plan_cache.h"
#include "prefs/graph.h"
#include "prefs/profile.h"
#include "server/profile_store.h"
#include "storage/database.h"
#include "storage/journal/journal.h"
#include "storage/journal/snapshot.h"

namespace cqp::server::shard {

/// Per-shard configuration (ShardedProfileStore divides its totals by the
/// shard count before constructing these).
struct ShardOptions {
  /// Directory holding this shard's `journal` and `snapshot`; created if
  /// missing. Same file formats as the single-directory
  /// DurableProfileStore, so one PR 6 directory IS a valid shard.
  std::string dir;
  /// Snapshot-compact the journal once it grows past this many bytes.
  uint64_t compact_threshold_bytes = 4ull << 20;
  /// Resident working-set budget: once the accounted bytes of in-memory
  /// graphs exceed this, the LRU tail is paged out (in-use graphs are
  /// skipped — see Find()).
  uint64_t resident_budget_bytes = 64ull << 20;
  /// File I/O goes through this filesystem; null = PosixFileSystem().
  storage::FileSystem* fs = nullptr;
};

/// One shard of the demand-paged profile tier: a crash-safe WAL + snapshot
/// store (PR 6 semantics: journal-before-apply, OK ⇒ fsynced, wedge on
/// journal failure) that does NOT keep every graph in memory.
///
/// The in-memory index maps every id to its version and a *disk ref* — the
/// byte range of the profile text inside the snapshot or the journal. The
/// graph itself is built lazily: Open() only scans the snapshot header and
/// journal frames (no parsing, no graph builds), so opening a shard with a
/// million profiles costs one sequential read. Find() pages a cold profile
/// in with a single pread + parse + graph build, performed outside the
/// shard lock; concurrent finds of the same cold id share one page-in
/// (single-flight — the thundering-herd guard).
///
/// Residency is bounded: every resident graph is charged its approximate
/// heap bytes (PersonalizationGraph::ApproxMemoryBytes) and an LRU list
/// pages out the coldest graphs once the budget is exceeded. A graph
/// handed out to a request is pinned by its shared_ptr refcount — eviction
/// skips any graph a request still holds, so paging can never yank a
/// profile mid-Personalize.
///
/// Each shard also owns its slice of the cache invalidation domain: a
/// PlanCache that only ever sees this shard's ids. Cross-shard cache
/// interference is structurally impossible, and the version keys the cache
/// embeds stay monotonic per shard because the version counter persists in
/// the shard's own snapshot/journal.
///
/// Durability: fsync is inline per mutation (strongest PR 6 semantics —
/// an error means NOT applied). A sharded tier gets its write concurrency
/// from having N independent journals rather than from group commit.
///
/// Thread safety: all methods are thread-safe (one mutex per shard).
class ProfileShard {
 public:
  /// Opens (or creates) the shard in options.dir and indexes its state.
  /// A torn journal tail is recovered from; a corrupt snapshot is an error.
  static StatusOr<std::unique_ptr<ProfileShard>> Open(
      const storage::Database* db, size_t index, ShardOptions options);

  ~ProfileShard();  ///< flushes and closes the journal

  ProfileShard(const ProfileShard&) = delete;
  ProfileShard& operator=(const ProfileShard&) = delete;

  /// Validates + journals + fsyncs + applies. The new graph enters the
  /// working set resident (a freshly put profile is presumed hot).
  Status Put(const std::string& id, const prefs::Profile& profile);

  /// Journals + fsyncs + applies the tombstone. NotFound when absent.
  Status Remove(const std::string& id);

  /// The graph + version for `id`; Snapshot::graph is null when the id is
  /// unknown (or its on-disk bytes no longer parse/validate — counted in
  /// stats().page_in_errors). Pages the graph in from disk when cold.
  ProfileStore::Snapshot Find(const std::string& id);

  /// fsyncs the journal (appends are already fsynced inline; this is the
  /// graceful-shutdown belt-and-braces call).
  Status Flush();

  /// Snapshot-compacts the journal now (also runs automatically past
  /// compact_threshold_bytes). Rewrites every live disk ref to point into
  /// the new snapshot; residency is unaffected.
  Status Compact();

  std::vector<std::string> Ids() const;  ///< sorted
  size_t num_profiles() const;

  bool wedged() const;

  /// Paging + journal counters (ShardStats::shard is this shard's index).
  ShardStats stats() const;

  /// The full durable contents as (id, version, profile text), sorted by
  /// id — the oracle view used by tools/cqp_crashfuzz. Reads paged-out
  /// values back from disk, hence fallible.
  StatusOr<std::vector<storage::journal::SnapshotEntry>> Contents() const;

  /// What recovery found at Open() time.
  struct RecoveryInfo {
    size_t snapshot_profiles = 0;  ///< ids indexed from the snapshot
    size_t replayed_records = 0;   ///< journal records applied to the index
    size_t skipped_records = 0;    ///< pre-snapshot records still journaled
    bool torn_tail = false;
    uint64_t dropped_bytes = 0;
    double recovery_ms = 0.0;
  };
  const RecoveryInfo& recovery() const { return recovery_; }

  /// This shard's slice of the cache invalidation domain.
  construct::PlanCache& plans() { return plans_; }

 private:
  ProfileShard(const storage::Database* db, size_t index, ShardOptions options);

  /// Where a profile's text lives on disk.
  struct DiskRef {
    enum class Where : uint8_t { kSnapshot, kJournal };
    Where where = Where::kJournal;
    uint64_t offset = 0;  ///< byte offset of the text within the file
    uint32_t length = 0;  ///< text length
  };

  struct Entry {
    uint64_t version = 0;
    DiskRef ref;
    /// Resident graph; null when paged out. A copy handed to a request
    /// keeps the graph alive (and pins it against eviction) even after
    /// this field is reset.
    std::shared_ptr<const prefs::PersonalizationGraph> graph;
    size_t charge = 0;  ///< accounted resident bytes while resident
    bool loading = false;  ///< a single-flight page-in is running
    std::list<std::string>::iterator lru_it;  ///< valid iff graph != null
  };

  std::string JournalPath() const { return options_.dir + "/journal"; }
  std::string SnapshotPath() const { return options_.dir + "/snapshot"; }

  Status Recover();
  /// pread + parse + build for a disk ref. Called WITHOUT mu_ held.
  StatusOr<std::shared_ptr<const prefs::PersonalizationGraph>> LoadRef(
      const DiskRef& ref) const;
  /// Reads a ref's raw text. Called with or without mu_ (pure I/O).
  StatusOr<std::string> ReadText(const DiskRef& ref) const;
  /// Pages out LRU graphs until resident_bytes_ fits the budget; skips
  /// graphs whose refcount shows a request still using them. Holds mu_.
  void EvictLocked();
  /// Inserts/updates `id`'s resident graph + accounting. Holds mu_.
  void InstallResidentLocked(
      const std::string& id, Entry& entry,
      std::shared_ptr<const prefs::PersonalizationGraph> graph);
  /// Drops `entry`'s residency accounting if resident. Holds mu_.
  void DropResidencyLocked(Entry& entry);
  /// The compaction body; caller holds mu_.
  Status CompactLocked();
  /// Latches the wedge; caller holds mu_.
  void WedgeLocked(const Status& status);

  const storage::Database* db_;
  const size_t index_;
  const ShardOptions options_;
  storage::FileSystem* fs_;  ///< options_.fs or the posix filesystem
  RecoveryInfo recovery_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< page-in completion / entry changes
  std::map<std::string, Entry> entries_;       ///< guarded by mu_
  std::list<std::string> lru_;                 ///< cold → hot; guarded by mu_
  uint64_t next_version_ = 1;                  ///< guarded by mu_
  std::unique_ptr<storage::journal::Writer> journal_;  ///< guarded by mu_
  bool wedged_ = false;
  Status wedge_status_;
  /// Page-in vs compaction interlock: loaders pread the files compaction
  /// renames/truncates, so Compact() quiesces in-flight loads and parks
  /// new ones until the refreshed disk refs are installed.
  size_t loads_in_flight_ = 0;  ///< guarded by mu_
  bool compacting_ = false;     ///< guarded by mu_

  /// Counters, guarded by mu_ (stats() takes the lock).
  uint64_t resident_bytes_ = 0;
  size_t resident_profiles_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t page_ins_ = 0;
  uint64_t page_in_waits_ = 0;
  uint64_t page_in_errors_ = 0;
  uint64_t evictions_ = 0;
  uint64_t pinned_skips_ = 0;
  uint64_t appends_ = 0;
  uint64_t append_bytes_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t compactions_ = 0;
  uint64_t journal_bytes_ = 0;
  uint64_t snapshot_bytes_ = 0;

  construct::PlanCache plans_;
};

}  // namespace cqp::server::shard

#endif  // CQP_SERVER_SHARD_PROFILE_SHARD_H_
