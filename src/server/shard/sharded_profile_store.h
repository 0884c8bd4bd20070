#ifndef CQP_SERVER_SHARD_SHARDED_PROFILE_STORE_H_
#define CQP_SERVER_SHARD_SHARDED_PROFILE_STORE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/profile_store.h"
#include "server/shard/profile_shard.h"

namespace cqp::server::shard {

/// Configuration for ShardedProfileStore::Open. The residency budget is
/// the TIER total; each shard gets an equal slice.
struct ShardedStoreOptions {
  /// Root directory; shard `i` lives in `<dir>/shard-NNN/` and a MANIFEST
  /// file records the shard count (routing is hash(id) % N, so opening
  /// with a different N would silently lose profiles — the manifest makes
  /// that a hard error instead).
  std::string dir;
  /// Shard count when creating a fresh directory; 0 adopts the manifest
  /// (or kDefaultShards when the directory is fresh). Opening an existing
  /// tier with a conflicting non-zero value is an error.
  size_t num_shards = 0;
  /// Total resident-graph budget across all shards.
  uint64_t resident_budget_bytes = 256ull << 20;
  /// Per-shard journal compaction threshold.
  uint64_t compact_threshold_bytes = 4ull << 20;
  /// File I/O goes through this filesystem; null = PosixFileSystem().
  storage::FileSystem* fs = nullptr;
};

/// The sharded, demand-paged profile tier: N independent ProfileShards,
/// each with its own lock, WAL journal + snapshot, LRU working set and
/// cache slice. Profiles route by a stable hash of the id, so a shard
/// directory written by one process is read identically by the next.
///
/// This class is a thin router — all durability, paging and invalidation
/// live in ProfileShard. It plugs into everything that takes a
/// ProfileStore (Server, shell, tools) via the virtual read/write surface;
/// request paths MUST use plans_for() so cache traffic stays on the owning
/// shard.
///
/// Migration from a single-directory PR 6 store: open with num_shards=1 —
/// shard-000 uses the same journal/snapshot formats, so
/// `mkdir shard-000 && mv journal snapshot shard-000/` (plus the MANIFEST
/// this class writes) upgrades in place. See docs/durability.md.
class ShardedProfileStore : public ProfileStore {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// Opens (or creates) the tier under options.dir: reads/writes the
  /// MANIFEST, then opens every shard (recovering each independently).
  static StatusOr<std::unique_ptr<ShardedProfileStore>> Open(
      const storage::Database* db, ShardedStoreOptions options);

  /// The routing function: FNV-1a over the id, mod num_shards. Exposed so
  /// tools (bench directory builders, crashfuzz oracles) can predict
  /// placement without opening a store.
  static size_t ShardIndexForId(std::string_view id, size_t num_shards);

  /// "shard-000", "shard-001", ...
  static std::string ShardDirName(size_t index);

  // ProfileStore surface — everything routes to the owning shard.
  Status Put(const std::string& id, prefs::Profile profile) override;
  Status Remove(const std::string& id) override;
  Status Flush() override;  ///< flushes every shard; first error wins
  Snapshot FindSnapshot(const std::string& id) const override;
  std::vector<std::string> Ids() const override;  ///< merged, sorted
  size_t size() const override;

  construct::PlanCache& plans_for(const std::string& id) override;
  construct::PlanCacheStats plan_stats() const override;  ///< summed

  /// Journal counters summed over all shards (wedged = any shard wedged;
  /// recovery_ms = total sequential open time).
  std::optional<DurabilityStats> durability_stats() const override;

  std::optional<ShardTierStats> shard_stats() const override;

  /// Compacts every shard now (tests / tooling).
  Status Compact();

  /// Aggregate oracle view for tools/cqp_crashfuzz: every shard's
  /// Contents() merged and sorted by id.
  StatusOr<std::vector<storage::journal::SnapshotEntry>> Contents() const;

  bool wedged() const;  ///< true when ANY shard is wedged

  size_t num_shards() const { return shards_.size(); }
  ProfileShard& shard(size_t index) { return *shards_[index]; }
  const ProfileShard& shard(size_t index) const { return *shards_[index]; }

 private:
  ShardedProfileStore(const storage::Database* db, ShardedStoreOptions options);

  ProfileShard& ShardFor(const std::string& id) const;

  const ShardedStoreOptions options_;
  double open_ms_ = 0.0;  ///< wall time of Open (all shards, sequential)
  std::vector<std::unique_ptr<ProfileShard>> shards_;
};

}  // namespace cqp::server::shard

#endif  // CQP_SERVER_SHARD_SHARDED_PROFILE_STORE_H_
