#include "server/shard/profile_shard.h"

#include <cstdio>
#include <utility>

#include "common/stopwatch.h"
#include "server/profile_journal_codec.h"

namespace cqp::server::shard {

namespace {

using storage::journal::SnapshotData;
using storage::journal::SnapshotEntry;

/// Residency charge beyond the graph itself: the shared_ptr control
/// block, the LRU node and its id copy (the map node exists whether the
/// profile is resident or not, so it is not charged).
constexpr size_t kResidentOverheadBytes = 128;

}  // namespace

ProfileShard::ProfileShard(const storage::Database* db, size_t index,
                           ShardOptions options)
    : db_(db),
      index_(index),
      options_(std::move(options)),
      fs_(options_.fs != nullptr ? options_.fs : &storage::PosixFileSystem()) {
  CQP_CHECK(db_ != nullptr);
}

StatusOr<std::unique_ptr<ProfileShard>> ProfileShard::Open(
    const storage::Database* db, size_t index, ShardOptions options) {
  if (options.dir.empty()) {
    return InvalidArgument("ShardOptions.dir must be set");
  }
  std::unique_ptr<ProfileShard> shard(
      new ProfileShard(db, index, std::move(options)));
  CQP_RETURN_IF_ERROR(shard->Recover());
  return shard;
}

ProfileShard::~ProfileShard() {
  if (journal_ != nullptr) {
    Flush();  // best effort; a wedged journal already reported its error
    journal_->Close();
  }
}

Status ProfileShard::Recover() {
  Stopwatch timer;
  CQP_RETURN_IF_ERROR(fs_->CreateDirs(options_.dir));

  // 1. Index the snapshot — record (version, disk ref) per id, but build
  // no graphs and keep no texts: this is what makes opening a shard with
  // a million profiles one sequential read instead of a million parses.
  uint64_t snap_next = 1;
  if (fs_->Exists(SnapshotPath())) {
    CQP_ASSIGN_OR_RETURN(
        SnapshotData snap, storage::journal::ReadSnapshot(*fs_, SnapshotPath()));
    snap_next = snap.next_version;
    CQP_ASSIGN_OR_RETURN(snapshot_bytes_, fs_->FileSize(SnapshotPath()));
    for (const SnapshotEntry& e : snap.entries) {
      Entry& entry = entries_[e.key];
      entry.version = e.version;
      entry.ref = DiskRef{DiskRef::Where::kSnapshot, e.value_offset,
                          static_cast<uint32_t>(e.value.size())};
      ++recovery_.snapshot_profiles;
    }
  }
  fs_->Remove(SnapshotPath() + ".tmp");

  // 2. Journal replay over the index. Replay hands out payloads in file
  // order, so a running cursor reconstructs each record's offset — that
  // plus the codec's fixed layout is the journal-resident disk ref.
  uint64_t max_next = snap_next;
  uint64_t cursor = 0;
  CQP_ASSIGN_OR_RETURN(
      storage::journal::ReplayResult replay,
      storage::journal::Replay(
          *fs_, JournalPath(), [&](std::string_view payload) -> Status {
            const uint64_t record_start = cursor;
            cursor += storage::journal::kRecordHeaderBytes + payload.size();
            DecodedProfileMutation record;
            if (!DecodeProfileMutation(payload, &record)) {
              return Internal(
                  "journal record passed its checksum but does not decode — "
                  "refusing to guess (journal format bug or external "
                  "corruption)");
            }
            if (record.version < snap_next) {
              ++recovery_.skipped_records;
              return Status::OK();
            }
            std::string id(record.id);
            if (record.op == kJournalOpPut) {
              Entry& entry = entries_[id];
              entry.version = record.version;
              entry.ref = DiskRef{
                  DiskRef::Where::kJournal,
                  record_start + storage::journal::kRecordHeaderBytes +
                      PutPayloadTextOffset(id.size()),
                  static_cast<uint32_t>(record.text.size())};
            } else {
              entries_.erase(id);
            }
            if (record.version + 1 > max_next) max_next = record.version + 1;
            ++recovery_.replayed_records;
            return Status::OK();
          }));
  recovery_.torn_tail = replay.torn_tail;
  recovery_.dropped_bytes = replay.dropped_bytes;
  CQP_RETURN_IF_ERROR(
      storage::journal::DropTornTail(*fs_, JournalPath(), replay));
  next_version_ = max_next;

  // 3. Reopen the append side at the clean tail.
  CQP_ASSIGN_OR_RETURN(journal_,
                       storage::journal::Writer::Open(*fs_, JournalPath()));
  journal_bytes_ = journal_->end_offset();
  recovery_.recovery_ms = timer.ElapsedMillis();
  return Status::OK();
}

void ProfileShard::WedgeLocked(const Status& status) {
  if (!wedged_) {
    wedged_ = true;
    wedge_status_ =
        Internal("profile shard " + std::to_string(index_) + " wedged: " +
                 status.ToString() + " (shard is read-only; reopen to recover)");
    std::fprintf(stderr, "%s\n", wedge_status_.message().c_str());
  }
}

StatusOr<std::string> ProfileShard::ReadText(const DiskRef& ref) const {
  const std::string& path =
      ref.where == DiskRef::Where::kSnapshot ? SnapshotPath() : JournalPath();
  return fs_->ReadAt(path, ref.offset, ref.length);
}

StatusOr<std::shared_ptr<const prefs::PersonalizationGraph>>
ProfileShard::LoadRef(const DiskRef& ref) const {
  CQP_ASSIGN_OR_RETURN(std::string text, ReadText(ref));
  CQP_ASSIGN_OR_RETURN(prefs::Profile profile, prefs::Profile::Parse(text));
  CQP_ASSIGN_OR_RETURN(
      prefs::PersonalizationGraph graph,
      prefs::PersonalizationGraph::Build(std::move(profile), *db_));
  return std::make_shared<const prefs::PersonalizationGraph>(std::move(graph));
}

void ProfileShard::DropResidencyLocked(Entry& entry) {
  if (entry.graph == nullptr) return;
  resident_bytes_ -= entry.charge;
  --resident_profiles_;
  entry.charge = 0;
  entry.graph.reset();
  lru_.erase(entry.lru_it);
}

void ProfileShard::InstallResidentLocked(
    const std::string& id, Entry& entry,
    std::shared_ptr<const prefs::PersonalizationGraph> graph) {
  DropResidencyLocked(entry);
  entry.graph = std::move(graph);
  entry.charge =
      entry.graph->ApproxMemoryBytes() + id.size() + kResidentOverheadBytes;
  resident_bytes_ += entry.charge;
  ++resident_profiles_;
  entry.lru_it = lru_.insert(lru_.end(), id);
}

void ProfileShard::EvictLocked() {
  auto it = lru_.begin();
  while (resident_bytes_ > options_.resident_budget_bytes &&
         it != lru_.end()) {
    auto eit = entries_.find(*it);
    CQP_CHECK(eit != entries_.end()) << "LRU id without entry: " << *it;
    Entry& entry = eit->second;
    // use_count > 1 means a request still holds a copy of this graph:
    // handing it out happened under mu_, so the count can only be stale
    // in the safe direction (we may skip a graph that was just released,
    // never evict one still in use).
    if (entry.graph.use_count() > 1) {
      ++pinned_skips_;
      ++it;
      continue;
    }
    ++evictions_;
    resident_bytes_ -= entry.charge;
    --resident_profiles_;
    entry.charge = 0;
    entry.graph.reset();
    it = lru_.erase(it);
  }
}

Status ProfileShard::Put(const std::string& id, const prefs::Profile& profile) {
  if (id.empty()) return InvalidArgument("profile id must be non-empty");
  // Validate + build outside the lock (the expensive, fallible half).
  prefs::Profile copy = profile;
  CQP_ASSIGN_OR_RETURN(
      prefs::PersonalizationGraph built,
      prefs::PersonalizationGraph::Build(std::move(copy), *db_));
  auto graph =
      std::make_shared<const prefs::PersonalizationGraph>(std::move(built));
  const std::string text = profile.ToText();

  bool compact_now = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (wedged_) return wedge_status_;
    const uint64_t version = next_version_;
    const std::string payload =
        EncodeProfileMutation(kJournalOpPut, version, id, text);
    const uint64_t record_start = journal_->end_offset();

    // Write-ahead: journal + fsync before the index mutates. An error
    // means the mutation was NOT applied (and the tail is unknowable —
    // wedge, per the PR 6 failure policy).
    Status appended = journal_->Append(payload);
    ++appends_;
    append_bytes_ += payload.size() + storage::journal::kRecordHeaderBytes;
    if (!appended.ok()) {
      WedgeLocked(appended);
      cv_.notify_all();
      return appended;
    }
    Status synced = journal_->Sync();
    ++fsyncs_;
    if (!synced.ok()) {
      WedgeLocked(synced);
      cv_.notify_all();
      return synced;
    }

    next_version_ = version + 1;
    Entry& entry = entries_[id];
    entry.version = version;
    entry.ref = DiskRef{DiskRef::Where::kJournal,
                        record_start + storage::journal::kRecordHeaderBytes +
                            PutPayloadTextOffset(id.size()),
                        static_cast<uint32_t>(text.size())};
    // Any page-in still in flight for the replaced version is now stale;
    // the loader detects that via the version check, not this flag.
    entry.loading = false;
    InstallResidentLocked(id, entry, std::move(graph));
    EvictLocked();
    journal_bytes_ = journal_->end_offset();
    compact_now = journal_bytes_ > options_.compact_threshold_bytes;
  }
  cv_.notify_all();
  plans_.InvalidateProfile(id);
  if (compact_now) {
    Status compacted = Compact();
    if (!compacted.ok()) {
      std::fprintf(stderr, "profile shard %zu: compaction failed: %s\n",
                   index_, compacted.ToString().c_str());
    }
  }
  return Status::OK();
}

Status ProfileShard::Remove(const std::string& id) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (wedged_) return wedge_status_;
    auto it = entries_.find(id);
    if (it == entries_.end()) return NotFound("no profile '" + id + "'");
    const uint64_t version = next_version_;
    const std::string payload =
        EncodeProfileMutation(kJournalOpRemove, version, id, std::string());
    Status appended = journal_->Append(payload);
    ++appends_;
    append_bytes_ += payload.size() + storage::journal::kRecordHeaderBytes;
    if (!appended.ok()) {
      WedgeLocked(appended);
      cv_.notify_all();
      return appended;
    }
    Status synced = journal_->Sync();
    ++fsyncs_;
    if (!synced.ok()) {
      WedgeLocked(synced);
      cv_.notify_all();
      return synced;
    }
    // Removes consume a version too, so journal order equals version
    // order and replay can key idempotence off the version alone.
    next_version_ = version + 1;
    DropResidencyLocked(it->second);
    entries_.erase(it);
    journal_bytes_ = journal_->end_offset();
  }
  // Waiters parked on a page-in of this id wake and re-find: miss.
  cv_.notify_all();
  plans_.InvalidateProfile(id);
  return Status::OK();
}

ProfileStore::Snapshot ProfileShard::Find(const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  // A Find that parked behind another thread's load is counted as ONE
  // page-in wait, not once per wakeup and not again as a hit when it
  // re-finds the graph resident — so hits + waits adds up to the number
  // of Finds served from residency.
  bool waited = false;
  for (;;) {
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      ++misses_;
      return ProfileStore::Snapshot{};
    }
    Entry& entry = it->second;
    if (entry.graph != nullptr) {
      if (!waited) ++hits_;
      lru_.splice(lru_.end(), lru_, entry.lru_it);  // touch: now hottest
      return ProfileStore::Snapshot{entry.graph, entry.version};
    }
    if (entry.loading) {
      // Single-flight: another thread is paging this id in; share its
      // result instead of issuing a duplicate load (thundering herd).
      if (!waited) {
        waited = true;
        ++page_in_waits_;
      }
      cv_.wait(lock);
      continue;
    }
    if (compacting_) {
      // Compaction is about to swap the files our disk ref points into;
      // wait for the refreshed refs rather than racing the rename.
      cv_.wait(lock);
      continue;
    }

    // Become the loader. The disk ref is copied out and the I/O + parse
    // + graph build run without the lock, so the shard keeps serving.
    entry.loading = true;
    ++loads_in_flight_;
    const uint64_t version = entry.version;
    const DiskRef ref = entry.ref;
    lock.unlock();
    StatusOr<std::shared_ptr<const prefs::PersonalizationGraph>> loaded =
        LoadRef(ref);
    lock.lock();
    --loads_in_flight_;
    it = entries_.find(id);
    if (it == entries_.end() || it->second.version != version ||
        !it->second.loading) {
      // Removed or replaced while we loaded: our bytes describe a dead
      // version. Start over against the current entry state.
      cv_.notify_all();
      continue;
    }
    Entry& current = it->second;
    current.loading = false;
    if (!loaded.ok()) {
      // The checksummed bytes were intact at write time, so this is
      // schema drift or an injected fault, not silent corruption: serve
      // "unknown" rather than wedging the shard.
      ++page_in_errors_;
      std::fprintf(stderr, "profile shard %zu: page-in of '%s' failed: %s\n",
                   index_, id.c_str(), loaded.status().ToString().c_str());
      cv_.notify_all();
      return ProfileStore::Snapshot{};
    }
    ++page_ins_;
    InstallResidentLocked(id, current, *std::move(loaded));
    // Taking our result copy BEFORE evicting pins the fresh graph
    // (use_count > 1), so a tiny budget cannot evict what we return.
    ProfileStore::Snapshot out{current.graph, current.version};
    EvictLocked();
    cv_.notify_all();
    return out;
  }
}

Status ProfileShard::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wedged_) return wedge_status_;
  Status synced = journal_->Sync();
  ++fsyncs_;
  if (!synced.ok()) {
    WedgeLocked(synced);
    cv_.notify_all();
  }
  return synced;
}

Status ProfileShard::Compact() {
  std::unique_lock<std::mutex> lock(mu_);
  if (wedged_) return wedge_status_;
  if (journal_bytes_ == 0) return Status::OK();  // raced another compaction
  // Quiesce page-ins: loaders pread from the files this is about to
  // replace, and their disk refs are refreshed below. New page-ins park
  // on compacting_ until the swap is done.
  compacting_ = true;
  cv_.wait(lock, [&] { return loads_in_flight_ == 0; });
  Status status = CompactLocked();
  compacting_ = false;
  cv_.notify_all();
  return status;
}

Status ProfileShard::CompactLocked() {
  // Rebuild every live profile text with two sequential reads (old
  // snapshot + journal) instead of one pread per entry.
  std::map<std::string, std::string> values;
  if (fs_->Exists(SnapshotPath())) {
    CQP_ASSIGN_OR_RETURN(
        SnapshotData snap, storage::journal::ReadSnapshot(*fs_, SnapshotPath()));
    for (SnapshotEntry& e : snap.entries) {
      auto it = entries_.find(e.key);
      if (it != entries_.end() && it->second.version == e.version) {
        values[e.key] = std::move(e.value);
      }
    }
  }
  CQP_RETURN_IF_ERROR(
      storage::journal::Replay(
          *fs_, JournalPath(),
          [&](std::string_view payload) -> Status {
            DecodedProfileMutation record;
            if (!DecodeProfileMutation(payload, &record)) {
              return Internal("undecodable journal record during compaction");
            }
            if (record.op != kJournalOpPut) return Status::OK();
            std::string id(record.id);
            auto it = entries_.find(id);
            if (it != entries_.end() && it->second.version == record.version) {
              values[id] = std::string(record.text);
            }
            return Status::OK();
          })
          .status());

  SnapshotData data;
  data.next_version = next_version_;
  data.entries.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    auto vit = values.find(id);
    if (vit == values.end()) {
      // Old snapshot + clean journal must cover every live version; a gap
      // means the index and the files diverged. Leave both files intact.
      return Internal("compaction found no text for '" + id + "' v" +
                      std::to_string(entry.version));
    }
    data.entries.push_back(
        SnapshotEntry{id, entry.version, std::move(vit->second)});
  }

  // The commit point: after this rename the snapshot holds every applied
  // mutation. On error the old snapshot and journal are both intact —
  // compaction simply did not happen.
  std::vector<uint64_t> offsets;
  CQP_RETURN_IF_ERROR(
      storage::journal::WriteSnapshot(*fs_, SnapshotPath(), data, &offsets));
  CQP_CHECK(offsets.size() == data.entries.size());
  CQP_ASSIGN_OR_RETURN(snapshot_bytes_, fs_->FileSize(SnapshotPath()));

  // Refresh the disk refs — entries_ iterates in the same sorted order
  // the snapshot was built in.
  size_t i = 0;
  for (auto& [id, entry] : entries_) {
    entry.ref =
        DiskRef{DiskRef::Where::kSnapshot, offsets[i],
                static_cast<uint32_t>(data.entries[i].value.size())};
    ++i;
  }

  // Truncate the journal. If this fails, the stale records are harmless
  // for recovery (replay skips versions below the snapshot's next_version)
  // but the append offset would be unknowable — wedge.
  journal_->Close();
  Status truncated = fs_->Truncate(JournalPath(), 0);
  StatusOr<std::unique_ptr<storage::journal::Writer>> reopened =
      truncated.ok()
          ? storage::journal::Writer::Open(*fs_, JournalPath())
          : StatusOr<std::unique_ptr<storage::journal::Writer>>(truncated);
  if (!reopened.ok()) {
    WedgeLocked(reopened.status());
    return wedge_status_;
  }
  journal_ = *std::move(reopened);
  journal_bytes_ = 0;
  ++compactions_;
  return Status::OK();
}

std::vector<std::string> ProfileShard::Ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

size_t ProfileShard::num_profiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

bool ProfileShard::wedged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wedged_;
}

ShardStats ProfileShard::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShardStats s;
  s.shard = index_;
  s.profiles = entries_.size();
  s.resident_profiles = resident_profiles_;
  s.resident_bytes = resident_bytes_;
  s.resident_budget_bytes = options_.resident_budget_bytes;
  s.hits = hits_;
  s.misses = misses_;
  s.page_ins = page_ins_;
  s.page_in_waits = page_in_waits_;
  s.page_in_errors = page_in_errors_;
  s.evictions = evictions_;
  s.pinned_skips = pinned_skips_;
  s.journal.appends = appends_;
  s.journal.append_bytes = append_bytes_;
  s.journal.fsyncs = fsyncs_;
  s.journal.group_commits = 0;  // sharded tier fsyncs inline by design
  s.journal.compactions = compactions_;
  s.journal.journal_bytes = journal_bytes_;
  s.journal.snapshot_bytes = snapshot_bytes_;
  s.journal.wedged = wedged_;
  s.journal.recovered_profiles =
      recovery_.snapshot_profiles + recovery_.replayed_records;
  s.journal.replayed_records = recovery_.replayed_records;
  s.journal.dropped_bytes = recovery_.dropped_bytes;
  s.journal.torn_tail_recovered = recovery_.torn_tail;
  s.journal.recovery_ms = recovery_.recovery_ms;
  return s;
}

StatusOr<std::vector<SnapshotEntry>> ProfileShard::Contents() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SnapshotEntry> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    CQP_ASSIGN_OR_RETURN(std::string text, ReadText(entry.ref));
    out.push_back(SnapshotEntry{id, entry.version, std::move(text)});
  }
  return out;
}

}  // namespace cqp::server::shard
