#include "server/profile_store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

namespace cqp::server {

ProfileStore::ProfileStore(const storage::Database* db) : db_(db) {
  CQP_CHECK(db_ != nullptr);
}

StatusOr<std::shared_ptr<const prefs::PersonalizationGraph>>
ProfileStore::BuildGraph(prefs::Profile profile) const {
  CQP_ASSIGN_OR_RETURN(
      prefs::PersonalizationGraph graph,
      prefs::PersonalizationGraph::Build(std::move(profile), *db_));
  return std::make_shared<const prefs::PersonalizationGraph>(std::move(graph));
}

Status ProfileStore::Put(const std::string& id, prefs::Profile profile) {
  if (id.empty()) return InvalidArgument("profile id must be non-empty");
  // Build from a copy: the original profile outlives the graph build so
  // the write-ahead hook can serialize it.
  CQP_ASSIGN_OR_RETURN(
      std::shared_ptr<const prefs::PersonalizationGraph> shared,
      BuildGraph(profile));
  uint64_t commit_token = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Mutation mutation{Mutation::Kind::kPut, id, &profile, next_version_};
    // Write-ahead: journal first; an error aborts before the map changes.
    CQP_RETURN_IF_ERROR(WriteAheadLocked(mutation, &commit_token));
    Snapshot& slot = graphs_[id];
    slot.graph = std::move(shared);
    slot.version = next_version_++;
  }
  // Drop the replaced version's caches and plans. Correctness does not
  // depend on this ordering: cache keys embed the snapshot version, so a
  // request still holding the old graph can only touch old-version
  // entries. The invalidation reclaims their memory.
  plans_.InvalidateProfile(id);
  return WaitDurable(commit_token);
}

Status ProfileStore::Remove(const std::string& id) {
  uint64_t commit_token = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      return NotFound("no profile '" + id + "'");
    }
    Mutation mutation{Mutation::Kind::kRemove, id, nullptr, next_version_};
    CQP_RETURN_IF_ERROR(WriteAheadLocked(mutation, &commit_token));
    // Removes consume a version too, so journal order equals version
    // order and replay can key idempotence off the version alone.
    ++next_version_;
    graphs_.erase(it);
  }
  plans_.InvalidateProfile(id);
  return WaitDurable(commit_token);
}

void ProfileStore::RestorePut(
    const std::string& id,
    std::shared_ptr<const prefs::PersonalizationGraph> graph,
    uint64_t version) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Snapshot& slot = graphs_[id];
  slot.graph = std::move(graph);
  slot.version = version;
  if (version >= next_version_) next_version_ = version + 1;
}

void ProfileStore::RestoreRemove(const std::string& id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  graphs_.erase(id);
}

void ProfileStore::SetNextVersion(uint64_t version) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (version > next_version_) next_version_ = version;
}

ProfileStore::Snapshot ProfileStore::FindSnapshot(const std::string& id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = graphs_.find(id);
  return it == graphs_.end() ? Snapshot{} : it->second;
}

std::shared_ptr<const prefs::PersonalizationGraph> ProfileStore::Find(
    const std::string& id) const {
  return FindSnapshot(id).graph;
}

StatusOr<size_t> ProfileStore::LoadDirectory(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return NotFound("cannot read profile directory '" + dir +
                    "': " + ec.message());
  }
  size_t loaded = 0;
  std::string problems;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".profile") continue;
    std::ifstream in(path);
    if (!in) {
      problems += " " + path.filename().string() + ": unreadable;";
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    StatusOr<prefs::Profile> profile = prefs::Profile::Parse(buffer.str());
    if (!profile.ok()) {
      problems +=
          " " + path.filename().string() + ": " + profile.status().ToString() + ";";
      continue;
    }
    Status put = Put(path.stem().string(), *std::move(profile));
    if (!put.ok()) {
      problems += " " + path.filename().string() + ": " + put.ToString() + ";";
      continue;
    }
    ++loaded;
  }
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    directory_ = dir;
  }
  if (loaded == 0 && !problems.empty()) {
    return InvalidArgument("no profile loaded from '" + dir + "':" + problems);
  }
  if (!problems.empty()) {
    std::fprintf(stderr, "profile store: skipped files in %s:%s\n",
                 dir.c_str(), problems.c_str());
  }
  return loaded;
}

StatusOr<size_t> ProfileStore::Reload() {
  std::string dir;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    dir = directory_;
  }
  if (dir.empty()) {
    return FailedPrecondition(
        "profile store was not loaded from a directory; nothing to reload");
  }
  return LoadDirectory(dir);
}

std::vector<std::string> ProfileStore::Ids() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(graphs_.size());
  for (const auto& [id, graph] : graphs_) ids.push_back(id);
  return ids;
}

size_t ProfileStore::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return graphs_.size();
}

}  // namespace cqp::server
