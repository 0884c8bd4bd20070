#ifndef CQP_SERVER_PROFILE_STORE_H_
#define CQP_SERVER_PROFILE_STORE_H_

#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "construct/plan_cache.h"
#include "prefs/graph.h"
#include "prefs/profile.h"
#include "storage/database.h"

namespace cqp::server {

/// Counters exposed by a durable store (DurableProfileStore); the base
/// in-memory store reports std::nullopt. Served by the stats wire op.
struct DurabilityStats {
  uint64_t appends = 0;        ///< journal records written
  uint64_t append_bytes = 0;   ///< framed bytes appended
  uint64_t fsyncs = 0;         ///< journal fsync calls
  uint64_t group_commits = 0;  ///< fsyncs that committed >1 mutation
  uint64_t compactions = 0;    ///< snapshot compactions completed
  uint64_t journal_bytes = 0;  ///< current journal length
  uint64_t snapshot_bytes = 0; ///< last written snapshot size
  bool wedged = false;         ///< journal failed; store is read-only
  /// Recovery at Open() time:
  uint64_t recovered_profiles = 0;  ///< profiles restored (snapshot+journal)
  uint64_t replayed_records = 0;    ///< journal records applied
  uint64_t dropped_bytes = 0;       ///< torn/corrupt tail truncated
  bool torn_tail_recovered = false;
  double recovery_ms = 0.0;
};

/// Per-shard counters of a sharded, demand-paged store
/// (shard::ShardedProfileStore); served by the stats wire op and the
/// shell's .stats display. All counters are cumulative since Open.
struct ShardStats {
  size_t shard = 0;                  ///< shard index
  size_t profiles = 0;               ///< ids the shard knows (resident or not)
  size_t resident_profiles = 0;      ///< graphs currently in memory
  uint64_t resident_bytes = 0;       ///< accounted bytes of resident graphs
  uint64_t resident_budget_bytes = 0;
  uint64_t hits = 0;           ///< lookups served from a resident graph
  uint64_t misses = 0;         ///< lookups for an unknown id
  uint64_t page_ins = 0;       ///< cold graphs loaded from disk
  uint64_t page_in_waits = 0;  ///< lookups that waited on another page-in
  uint64_t page_in_errors = 0; ///< disk refs that failed to load
  uint64_t evictions = 0;      ///< resident graphs dropped for budget
  uint64_t pinned_skips = 0;   ///< eviction passes over an in-use graph
  DurabilityStats journal;     ///< this shard's journal counters
};

/// The whole shard tier: per-shard counters plus precomputed sums (the
/// stats op reports both; the sums are what dashboards watch).
struct ShardTierStats {
  size_t shards = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_budget_bytes = 0;
  size_t profiles = 0;
  size_t resident_profiles = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t page_ins = 0;
  uint64_t page_in_waits = 0;
  uint64_t page_in_errors = 0;
  uint64_t evictions = 0;
  uint64_t pinned_skips = 0;
  std::vector<ShardStats> per_shard;
};

/// In-memory id → user-profile registry for the personalization server.
///
/// Each stored profile is kept as a fully built PersonalizationGraph
/// (validated against the database at Put time, so serving never pays the
/// validation and a bad profile is rejected before it can break requests).
/// Graphs are handed out as shared_ptr<const …>: a hot-reload replacing a
/// profile never invalidates the graph an in-flight request is using.
///
/// The store owns a PlanCache and invalidates a profile's entries on every
/// Put/Remove — the invalidation hook that keeps the server's cross-request
/// memoization coherent with profile updates. The cache additionally embeds
/// the snapshot version in its keys, so invalidation is a memory-reclaim,
/// never a correctness dependency.
///
/// Durability: this base class is process-lifetime only. The write-ahead
/// hooks (WriteAheadLocked / WaitDurable, no-ops here) let
/// DurableProfileStore journal every mutation BEFORE it touches the map
/// and block the caller until the record is fsynced — without the server
/// or shell knowing which mode they run against.
///
/// Thread safety: all methods are thread-safe (shared_mutex; Find takes
/// the shared lock).
class ProfileStore {
 public:
  /// `db` must be Analyze()d and outlive the store.
  explicit ProfileStore(const storage::Database* db);
  virtual ~ProfileStore() = default;

  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// Validates `profile` against the database, builds its graph and stores
  /// it under `id` (replacing any previous version). Invalidates the id's
  /// cached plans. In a durable store, OK additionally means the
  /// mutation is journaled and fsynced (it survives a crash).
  virtual Status Put(const std::string& id, prefs::Profile profile);

  /// Removes `id` (and its cached plans). NotFound when absent.
  virtual Status Remove(const std::string& id);

  /// Forces any buffered journal writes to disk. No-op for the in-memory
  /// store. Called by Server::Stop() as part of graceful shutdown.
  virtual Status Flush() { return Status::OK(); }

  /// Journal/fsync counters when durable; nullopt for the in-memory store.
  virtual std::optional<DurabilityStats> durability_stats() const {
    return std::nullopt;
  }

  /// One consistent view of a stored profile: the graph plus the version
  /// stamped at Put time. The version participates in plan-cache keys, so
  /// a request racing a hot-reload can only ever populate (and read) a
  /// cache entry matching the graph it actually holds — stale entries under
  /// a newer graph are impossible by construction, not just by invalidation
  /// timing.
  struct Snapshot {
    std::shared_ptr<const prefs::PersonalizationGraph> graph;  ///< null if unknown
    uint64_t version = 0;
  };

  /// The stored graph + version; Snapshot::graph is nullptr when `id` is
  /// unknown. A demand-paged store may do disk I/O here (cold profile).
  virtual Snapshot FindSnapshot(const std::string& id) const;

  /// The stored graph, or nullptr when `id` is unknown.
  std::shared_ptr<const prefs::PersonalizationGraph> Find(
      const std::string& id) const;

  /// Loads every `*.profile` file in `dir` (id = file name without the
  /// extension) and remembers the directory for Reload(). Files that fail
  /// to parse or validate are reported in the returned status message but
  /// do not abort the load (the other profiles still land); the returned
  /// value is the number of profiles loaded.
  StatusOr<size_t> LoadDirectory(const std::string& dir);

  /// Re-runs LoadDirectory on the remembered directory — the hot-reload
  /// command. Profiles whose file disappeared stay in the store (serving
  /// keeps working); updated files replace their profile and invalidate
  /// its caches. FailedPrecondition when no directory was ever loaded.
  StatusOr<size_t> Reload();

  /// Stored ids, sorted.
  virtual std::vector<std::string> Ids() const;

  virtual size_t size() const;

  /// The shared plan cache (PreparedSpace artifacts keyed by query
  /// fingerprint + profile snapshot version). Put/Remove invalidate per
  /// profile id automatically.
  construct::PlanCache& plans() { return plans_; }

  /// The plan cache responsible for `id`. The base store has one; a
  /// sharded store returns the owning shard's slice so cache traffic and
  /// invalidation never cross a shard lock. Request paths must use this,
  /// not plans(), to stay shard-correct.
  virtual construct::PlanCache& plans_for(const std::string& id) {
    (void)id;
    return plans_;
  }

  /// Plan-cache counters summed over every shard slice (== plans().stats()
  /// for the single-cache base store).
  virtual construct::PlanCacheStats plan_stats() const { return plans_.stats(); }

  /// Paging/residency counters when this store is a sharded tier; nullopt
  /// otherwise.
  virtual std::optional<ShardTierStats> shard_stats() const {
    return std::nullopt;
  }

 protected:
  /// One mutation, as seen by the write-ahead hook. `profile` is null for
  /// removes; `version` is the version the mutation will be stamped with.
  struct Mutation {
    enum class Kind { kPut, kRemove };
    Kind kind;
    const std::string& id;
    const prefs::Profile* profile;
    uint64_t version;
  };

  /// Called under the exclusive lock BEFORE the in-memory map mutates.
  /// A durable store appends the journal record here; an error aborts the
  /// mutation (write-ahead: nothing is applied that was not journaled).
  /// `commit_token` is passed back to WaitDurable.
  virtual Status WriteAheadLocked(const Mutation& mutation,
                                  uint64_t* commit_token) {
    (void)mutation;
    *commit_token = 0;
    return Status::OK();
  }

  /// Called after the map mutation, with the lock released. A durable
  /// store blocks here until the journal record is fsynced (group commit);
  /// an error means the mutation is applied in memory but its durability
  /// is unknown — the store wedges and refuses further writes.
  virtual Status WaitDurable(uint64_t commit_token) {
    (void)commit_token;
    return Status::OK();
  }

  /// Builds + validates a graph for `profile` (the Put-time half shared
  /// with recovery).
  StatusOr<std::shared_ptr<const prefs::PersonalizationGraph>> BuildGraph(
      prefs::Profile profile) const;

  /// Recovery-path mutations: apply without journaling, invalidation or
  /// version assignment (the journal record carries its version).
  void RestorePut(const std::string& id,
                  std::shared_ptr<const prefs::PersonalizationGraph> graph,
                  uint64_t version);
  void RestoreRemove(const std::string& id);
  /// Raises next_version_ to at least `version`.
  void SetNextVersion(uint64_t version);

  mutable std::shared_mutex mu_;
  std::map<std::string, Snapshot> graphs_;  ///< guarded by mu_
  uint64_t next_version_ = 1;               ///< guarded by mu_

 private:
  const storage::Database* db_;
  construct::PlanCache plans_;
  std::string directory_;  ///< guarded by mu_
};

}  // namespace cqp::server

#endif  // CQP_SERVER_PROFILE_STORE_H_
