#include "server/shard/sharded_profile_store.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"

namespace cqp::server::shard {

namespace {

constexpr char kManifestMagic[] = "cqp-shards v1";

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string EncodeManifest(size_t num_shards) {
  std::ostringstream out;
  out << kManifestMagic << "\n"
      << "shards " << num_shards << "\n";
  return out.str();
}

StatusOr<size_t> ParseManifest(const std::string& text) {
  std::istringstream in(text);
  std::string magic_line;
  if (!std::getline(in, magic_line) || magic_line != kManifestMagic) {
    return Internal("shard MANIFEST has bad magic line '" + magic_line + "'");
  }
  std::string word;
  size_t shards = 0;
  if (!(in >> word >> shards) || word != "shards" || shards == 0) {
    return Internal("shard MANIFEST has no valid 'shards N' line");
  }
  return shards;
}

}  // namespace

ShardedProfileStore::ShardedProfileStore(const storage::Database* db,
                                         ShardedStoreOptions options)
    : ProfileStore(db), options_(std::move(options)) {}

size_t ShardedProfileStore::ShardIndexForId(std::string_view id,
                                            size_t num_shards) {
  // FNV-1a 64: stable across platforms and process restarts — the shard
  // layout on disk depends on it.
  uint64_t hash = 14695981039346656037ull;
  for (char c : id) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<size_t>(hash % num_shards);
}

std::string ShardedProfileStore::ShardDirName(size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%03zu", index);
  return buf;
}

StatusOr<std::unique_ptr<ShardedProfileStore>> ShardedProfileStore::Open(
    const storage::Database* db, ShardedStoreOptions options) {
  if (options.dir.empty()) {
    return InvalidArgument("ShardedStoreOptions.dir must be set");
  }
  storage::FileSystem* fs =
      options.fs != nullptr ? options.fs : &storage::PosixFileSystem();
  CQP_RETURN_IF_ERROR(fs->CreateDirs(options.dir));

  // Resolve the shard count against the MANIFEST: the hash routing bakes
  // N into the directory layout, so a mismatch must be an error, never a
  // silent remap.
  const std::string manifest_path = ManifestPath(options.dir);
  if (fs->Exists(manifest_path)) {
    CQP_ASSIGN_OR_RETURN(std::string text, fs->ReadFile(manifest_path));
    CQP_ASSIGN_OR_RETURN(size_t on_disk, ParseManifest(text));
    if (options.num_shards != 0 && options.num_shards != on_disk) {
      return InvalidArgument(
          "shard directory '" + options.dir + "' was created with " +
          std::to_string(on_disk) + " shards; refusing to open with " +
          std::to_string(options.num_shards) +
          " (profiles would route to the wrong shard)");
    }
    options.num_shards = on_disk;
  } else {
    if (options.num_shards == 0) options.num_shards = kDefaultShards;
    CQP_RETURN_IF_ERROR(storage::AtomicWriteFile(
        *fs, manifest_path, EncodeManifest(options.num_shards)));
  }

  Stopwatch timer;
  std::unique_ptr<ShardedProfileStore> store(
      new ShardedProfileStore(db, std::move(options)));
  const ShardedStoreOptions& opts = store->options_;
  store->shards_.reserve(opts.num_shards);
  for (size_t i = 0; i < opts.num_shards; ++i) {
    ShardOptions shard_options;
    shard_options.dir = opts.dir + "/" + ShardDirName(i);
    shard_options.compact_threshold_bytes = opts.compact_threshold_bytes;
    shard_options.resident_budget_bytes =
        std::max<uint64_t>(1, opts.resident_budget_bytes / opts.num_shards);
    shard_options.fs = opts.fs;
    CQP_ASSIGN_OR_RETURN(std::unique_ptr<ProfileShard> shard,
                         ProfileShard::Open(db, i, std::move(shard_options)));
    store->shards_.push_back(std::move(shard));
  }
  store->open_ms_ = timer.ElapsedMillis();
  return store;
}

ProfileShard& ShardedProfileStore::ShardFor(const std::string& id) const {
  return *shards_[ShardIndexForId(id, shards_.size())];
}

Status ShardedProfileStore::Put(const std::string& id, prefs::Profile profile) {
  if (id.empty()) return InvalidArgument("profile id must be non-empty");
  return ShardFor(id).Put(id, profile);
}

Status ShardedProfileStore::Remove(const std::string& id) {
  return ShardFor(id).Remove(id);
}

Status ShardedProfileStore::Flush() {
  Status first = Status::OK();
  for (const auto& shard : shards_) {
    Status flushed = shard->Flush();
    if (first.ok() && !flushed.ok()) first = flushed;
  }
  return first;
}

ProfileStore::Snapshot ShardedProfileStore::FindSnapshot(
    const std::string& id) const {
  return ShardFor(id).Find(id);
}

std::vector<std::string> ShardedProfileStore::Ids() const {
  std::vector<std::string> all;
  for (const auto& shard : shards_) {
    std::vector<std::string> ids = shard->Ids();
    all.insert(all.end(), std::make_move_iterator(ids.begin()),
               std::make_move_iterator(ids.end()));
  }
  std::sort(all.begin(), all.end());
  return all;
}

size_t ShardedProfileStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_profiles();
  return total;
}

construct::PlanCache& ShardedProfileStore::plans_for(const std::string& id) {
  return ShardFor(id).plans();
}

construct::PlanCacheStats ShardedProfileStore::plan_stats() const {
  construct::PlanCacheStats total;
  for (const auto& shard : shards_) {
    construct::PlanCacheStats s = shard->plans().stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
    total.entries += s.entries;
  }
  return total;
}

std::optional<DurabilityStats> ShardedProfileStore::durability_stats() const {
  DurabilityStats total;
  for (const auto& shard : shards_) {
    ShardStats s = shard->stats();
    total.appends += s.journal.appends;
    total.append_bytes += s.journal.append_bytes;
    total.fsyncs += s.journal.fsyncs;
    total.group_commits += s.journal.group_commits;
    total.compactions += s.journal.compactions;
    total.journal_bytes += s.journal.journal_bytes;
    total.snapshot_bytes += s.journal.snapshot_bytes;
    total.wedged = total.wedged || s.journal.wedged;
    total.recovered_profiles += s.journal.recovered_profiles;
    total.replayed_records += s.journal.replayed_records;
    total.dropped_bytes += s.journal.dropped_bytes;
    total.torn_tail_recovered =
        total.torn_tail_recovered || s.journal.torn_tail_recovered;
  }
  total.recovery_ms = open_ms_;
  return total;
}

std::optional<ShardTierStats> ShardedProfileStore::shard_stats() const {
  ShardTierStats tier;
  tier.shards = shards_.size();
  tier.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s = shard->stats();
    tier.resident_bytes += s.resident_bytes;
    tier.resident_budget_bytes += s.resident_budget_bytes;
    tier.profiles += s.profiles;
    tier.resident_profiles += s.resident_profiles;
    tier.hits += s.hits;
    tier.misses += s.misses;
    tier.page_ins += s.page_ins;
    tier.page_in_waits += s.page_in_waits;
    tier.page_in_errors += s.page_in_errors;
    tier.evictions += s.evictions;
    tier.pinned_skips += s.pinned_skips;
    tier.per_shard.push_back(std::move(s));
  }
  return tier;
}

Status ShardedProfileStore::Compact() {
  Status first = Status::OK();
  for (const auto& shard : shards_) {
    Status compacted = shard->Compact();
    if (first.ok() && !compacted.ok()) first = compacted;
  }
  return first;
}

StatusOr<std::vector<storage::journal::SnapshotEntry>>
ShardedProfileStore::Contents() const {
  std::vector<storage::journal::SnapshotEntry> all;
  for (const auto& shard : shards_) {
    CQP_ASSIGN_OR_RETURN(std::vector<storage::journal::SnapshotEntry> part,
                         shard->Contents());
    all.insert(all.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const storage::journal::SnapshotEntry& a,
               const storage::journal::SnapshotEntry& b) {
              return a.key < b.key;
            });
  return all;
}

bool ShardedProfileStore::wedged() const {
  for (const auto& shard : shards_) {
    if (shard->wedged()) return true;
  }
  return false;
}

}  // namespace cqp::server::shard
