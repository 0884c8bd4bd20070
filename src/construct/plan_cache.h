#ifndef CQP_CONSTRUCT_PLAN_CACHE_H_
#define CQP_CONSTRUCT_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "space/prepared_space.h"

namespace cqp::construct {

/// Point-in-time counters of a PlanCache.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;       ///< LRU evictions (capacity pressure only)
  uint64_t invalidations = 0;   ///< entries dropped by InvalidateProfile/Clear
  size_t entries = 0;

  double hit_rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// A bounded, thread-safe LRU cache of PreparedSpace artifacts: the
/// "prepare once, solve many" half of the personalization pipeline.
///
/// Keys identify everything extraction depends on:
///   * the canonical query fingerprint (sql::QueryFingerprint — spelling
///     differences collapse, semantic differences don't),
///   * the profile id AND its snapshot version — a reloaded profile bumps
///     the version, so stale prepared spaces are unreachable by
///     construction even before InvalidateProfile sweeps them out,
///   * a config string covering the estimator's cost-model parameters and
///     the extraction options (max_k, path bounds, conjunction model, ...).
/// The concrete ProblemSpec is deliberately NOT part of the key: one cached
/// PreparedSpace serves every problem class via ForProblem().
class PlanCache {
 public:
  struct Key {
    uint64_t query_fingerprint = 0;
    std::string profile_id;
    uint64_t profile_version = 0;
    std::string config;

    bool operator==(const Key& other) const = default;
  };

  /// One cached entry, as reported to diagnostics (.plans).
  struct EntryInfo {
    Key key;
    size_t k = 0;  ///< preferences in the prepared space
  };

  explicit PlanCache(size_t max_entries = 128);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached artifact (bumping it to most-recently-used) or
  /// nullptr; counts a hit or a miss.
  std::shared_ptr<const space::PreparedSpace> Find(const Key& key);

  /// Inserts (or replaces) the artifact for `key`, evicting the
  /// least-recently-used entry when the cache is full.
  void Insert(const Key& key,
              std::shared_ptr<const space::PreparedSpace> space);

  /// Drops every entry of `profile_id` regardless of version; returns the
  /// number removed. Call on profile reload — version keying already makes
  /// stale hits impossible, invalidation just frees the memory promptly.
  size_t InvalidateProfile(const std::string& profile_id);

  /// Drops everything (counts as invalidations, not evictions).
  void Clear();

  PlanCacheStats stats() const;
  size_t size() const;
  size_t max_entries() const { return max_entries_; }

  /// Snapshot of the current entries, most-recently-used first.
  std::vector<EntryInfo> Entries() const;

 private:
  using Entry = std::pair<Key, std::shared_ptr<const space::PreparedSpace>>;

  static std::string MapKey(const Key& key);

  const size_t max_entries_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace cqp::construct

#endif  // CQP_CONSTRUCT_PLAN_CACHE_H_
