// The two wire workloads: an in-process server::Server on loopback, fed by
// an open-loop generator on one thread over a few non-blocking
// connections. profile_churn additionally interleaves durable
// ProfileStore::Put calls into the same schedule, on the same thread.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "logic.h"
#include "prefs/graph.h"
#include "prefs/profile.h"
#include "server/server.h"
#include "server/shard/sharded_profile_store.h"
#include "workload/movie_gen.h"
#include "workload/profile_gen.h"
#include "workloads.h"

namespace perfbench {

using namespace cqp;  // NOLINT

namespace {

/// How long the generator waits for stragglers after the last due time
/// before counting them as transport failures.
constexpr double kDrainSeconds = 5.0;
constexpr double kWarmupSeconds = 1.0;

JsonValue Num(double v) { return JsonValue::Number(v); }

/// Query shapes x literals: the pool every read draws from.
std::vector<std::string> QueryPool() {
  std::vector<std::string> pool;
  for (int year : {1950, 1970, 1985, 1995}) {
    pool.push_back("SELECT title FROM MOVIE WHERE MOVIE.year >= " +
                   std::to_string(year));
    pool.push_back(
        "SELECT MOVIE.title, DIRECTOR.name FROM MOVIE, DIRECTOR WHERE "
        "MOVIE.did = DIRECTOR.did AND MOVIE.year >= " +
        std::to_string(year));
    pool.push_back("SELECT title, year FROM MOVIE WHERE MOVIE.duration <= " +
                   std::to_string(60 + (year - 1900)));
  }
  return pool;
}

struct WireConfig {
  size_t profiles;   ///< profile ids
  size_t texts;      ///< distinct profile texts (id i starts on text i % texts)
  double read_rps;   ///< nominal offered read rate
  double write_rps;  ///< Put rate (0: no writes)
  size_t shards;
  /// Resident budget as a fraction of the population's resident footprint
  /// (>= 1: the working set fits).
  double budget_fraction;
  double latency_limit_ms;            ///< the SLO on wire p99
  std::vector<double> ladder;         ///< offered-rate multiples (trace run)
};

/// Server settings: fixed thread counts (see env.h) and the engine
/// defaults every reference answer is computed with.
server::ServerOptions MakeServerOptions() {
  server::ServerOptions options;
  options.port = 0;
  options.io_threads = kServerIoThreads;
  options.num_threads = kServerWorkers;
  options.drain_deadline_ms = 2000.0;
  return options;
}

/// One loopback connection with its own send and receive buffers.
struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  bool broken = false;
};

/// What happened to one sent read.
struct ReadRecord {
  size_t pair = 0;
  double due_s = 0.0;
  double sent_s = 0.0;
  double order = 0.0;     ///< replay position (see Drive)
  size_t history_at_send = 0;
  bool done = false;
  std::string final_sql;  ///< the wire's answer, for the replay check
};

/// A Put the generator made, in order.
struct PutRecord {
  size_t profile = 0;
  size_t text = 0;
  double order = 0.0;
};

/// Counters of one phase (warm-up, nominal run, one ladder rung).
struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t transport_failed = 0;
  uint64_t mismatched = 0;
  uint64_t degraded = 0;
  uint64_t plan_hits = 0;
  std::map<std::string, uint64_t> typed_errors;
  DueTimeAccount account;
  std::vector<double> server_ms;
  std::vector<double> wire_ms;  ///< client latency from send - server_ms
  double search_ms_total = 0.0;
  double server_ms_total = 0.0;
  std::vector<double> put_ms;
  uint64_t puts = 0;
  uint64_t puts_failed = 0;
  size_t backlog_mid = 0;
  size_t backlog_end = 0;
  double send_window_s = 0.0;

  uint64_t failed() const {
    uint64_t typed = 0;
    for (const auto& [code, n] : typed_errors) typed += n;
    return typed + transport_failed + mismatched + puts_failed;
  }

  JsonValue ToJson() const {
    JsonValue out = JsonValue::Object();
    out.Set("attempted", Num(static_cast<double>(attempted)));
    out.Set("ok", Num(static_cast<double>(ok)));
    out.Set("shed", Num(static_cast<double>(shed)));
    out.Set("transport_failed", Num(static_cast<double>(transport_failed)));
    out.Set("mismatched", Num(static_cast<double>(mismatched)));
    out.Set("degraded", Num(static_cast<double>(degraded)));
    JsonValue typed = JsonValue::Object();
    for (const auto& [code, n] : typed_errors) {
      typed.Set(code, Num(static_cast<double>(n)));
    }
    out.Set("typed_errors", std::move(typed));
    out.Set("puts", Num(static_cast<double>(puts)));
    out.Set("puts_failed", Num(static_cast<double>(puts_failed)));
    out.Set("latency_samples",
            Num(static_cast<double>(account.latency_ms().size())));
    out.Set("put_samples", Num(static_cast<double>(put_ms.size())));
    return out;
  }
};

/// The wire world: database, durable tier, server, references.
struct WireWorld {
  std::unique_ptr<storage::Database> db;
  std::vector<std::string> queries;
  std::vector<std::string> texts;        ///< profile texts (ToText form)
  std::vector<Answer> reference;         ///< [text * queries + query]
  std::string dir;                       ///< the tier's directory
  std::string replay_seed_dir;           ///< copy of the initial tier
  server::shard::ShardedStoreOptions store_options;
  std::unique_ptr<server::shard::ShardedProfileStore> store;
  std::unique_ptr<server::Server> server;
  std::vector<Conn> conns;
  /// Per profile: every text it has held, oldest first, and the replay
  /// position of the Put that installed each.
  std::vector<std::vector<std::pair<size_t, double>>> history;
  std::vector<uint64_t> acked_version;  ///< last acknowledged Put version
  std::vector<ReadRecord> reads;        ///< every read sent, in send order
  std::vector<PutRecord> puts;
  double next_order = 0.0;
  uint64_t next_id = 1;

  size_t pairs() const { return history.size() * queries.size(); }

  ~WireWorld() {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (server) server->Stop();
    server.reset();
    store.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    if (!replay_seed_dir.empty()) {
      std::filesystem::remove_all(replay_seed_dir, ec);
    }
  }
};

std::string ProfileId(size_t i) { return StrFormat("u%04zu", i); }

StatusOr<int> Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Internal("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Internal("connect failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Builds one complete world. `scratch` is a fresh directory for the tier.
StatusOr<std::unique_ptr<WireWorld>> Setup(const WireConfig& config,
                                           const std::string& scratch,
                                           bool keep_replay_copy) {
  auto world = std::make_unique<WireWorld>();
  workload::MovieDbConfig db_config;
  db_config.n_movies = 2000;
  db_config.n_directors = 200;
  db_config.n_actors = 400;
  CQP_ASSIGN_OR_RETURN(storage::Database db,
                       workload::BuildMovieDatabase(db_config));
  world->db = std::make_unique<storage::Database>(std::move(db));
  world->queries = QueryPool();

  // Distinct generated profiles, each defined by its text (the form the
  // tier journals and pages back in). Profile::ToText prints dois with six
  // decimals, so a generated Profile and its re-parsed text are different
  // profiles; serving the parsed text keeps a paged-in graph identical to
  // the one that was Put.
  std::vector<prefs::Profile> profiles;
  for (size_t i = 0; i < config.texts; ++i) {
    workload::ProfileGenConfig profile_config;
    profile_config.seed = 300 + i;
    profile_config.n_genre_prefs = 3;
    profile_config.n_director_prefs = 2;
    profile_config.n_actor_prefs = 2;
    profile_config.n_year_prefs = 2;
    profile_config.n_duration_prefs = 1;
    CQP_ASSIGN_OR_RETURN(prefs::Profile generated,
                         workload::GenerateProfile(profile_config, db_config));
    CQP_ASSIGN_OR_RETURN(prefs::Profile profile,
                         prefs::Profile::Parse(generated.ToText()));
    world->texts.push_back(profile.ToText());
    profiles.push_back(std::move(profile));
  }

  // References: the facade with the server's defaults, no plan cache.
  const server::ServerOptions server_options = MakeServerOptions();
  for (size_t t = 0; t < config.texts; ++t) {
    CQP_ASSIGN_OR_RETURN(
        prefs::PersonalizationGraph graph,
        prefs::PersonalizationGraph::Build(profiles[t], *world->db));
    construct::Personalizer personalizer(world->db.get(), &graph);
    for (const std::string& sql : world->queries) {
      construct::PersonalizeRequest request;
      request.sql = sql;
      request.problem = server_options.default_problem;
      request.algorithm = server_options.default_algorithm;
      request.space_options.max_k = server_options.default_max_k;
      CQP_ASSIGN_OR_RETURN(construct::PersonalizeResult result,
                           personalizer.Personalize(request));
      world->reference.push_back(AnswerOf(result));
    }
  }

  // The durable tier, populated with one Put per id. The resident budget
  // is set from the measured footprint of the whole population.
  world->dir = scratch;
  world->store_options.dir = scratch;
  world->store_options.num_shards = config.shards;
  world->store_options.resident_budget_bytes = 1ull << 40;
  CQP_ASSIGN_OR_RETURN(world->store,
                       server::shard::ShardedProfileStore::Open(world->db.get(), world->store_options));
  world->history.resize(config.profiles);
  world->acked_version.assign(config.profiles, 0);
  for (size_t i = 0; i < config.profiles; ++i) {
    const size_t text = i % config.texts;
    CQP_RETURN_IF_ERROR(world->store->Put(ProfileId(i), profiles[text]));
    world->history[i].emplace_back(text, -1.0);
    world->acked_version[i] = world->store->FindSnapshot(ProfileId(i)).version;
  }
  uint64_t footprint = world->store->shard_stats()->resident_bytes;
  world->store.reset();
  world->store_options.resident_budget_bytes =
      static_cast<uint64_t>(static_cast<double>(footprint) *
                            config.budget_fraction);
  if (keep_replay_copy) {
    world->replay_seed_dir = scratch + "-replay";
    std::filesystem::copy(scratch, world->replay_seed_dir,
                          std::filesystem::copy_options::recursive);
  }
  CQP_ASSIGN_OR_RETURN(world->store,
                       server::shard::ShardedProfileStore::Open(world->db.get(), world->store_options));

  world->server = std::make_unique<server::Server>(
      world->db.get(), world->store.get(), server_options);
  CQP_RETURN_IF_ERROR(world->server->Start());
  const size_t conns =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  for (size_t c = 0; c < conns; ++c) {
    CQP_ASSIGN_OR_RETURN(int fd, Connect(world->server->port()));
    Conn conn;
    conn.fd = fd;
    world->conns.push_back(std::move(conn));
  }
  return world;
}

void FlushConn(Conn& conn) {
  while (!conn.broken && conn.out_off < conn.out.size()) {
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                       conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      conn.broken = true;
    }
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

/// Runs `schedule` open loop; appends every read to world.reads and
/// returns the phase counters. A typed error response fails the run unless
/// `may_shed` is set: the warm-up (cold caches) and ladder rungs above
/// capacity may be shed, which is counted in the phase, not failed. A
/// wrong answer always fails the run.
PhaseStats Drive(WireWorld& world, const std::vector<ScheduledOp>& schedule,
                 RunResult& result, bool may_shed = false) {
  // The default 50 us timer slack would let ppoll wake that much after a
  // due time; the generator should send on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseStats phase;
  std::unordered_map<uint64_t, size_t> pending;  // wire id -> reads index
  const size_t nq = world.queries.size();
  double last_due = schedule.empty() ? 0.0 : schedule.back().due_s;
  bool mid_sampled = false;
  size_t next_conn = 0;
  const Clock::time_point t0 = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  auto finish_read = [&](size_t index, bool ok, double done_s) {
    ReadRecord& read = world.reads[index];
    read.done = true;
    phase.account.OnDone(read.due_s, done_s, ok);
  };

  // `arrived_s` is when the generator received the response's bytes, so
  // that parsing and checking the answer is not counted as latency.
  auto handle_line = [&](const std::string& line, double arrived_s) {
    StatusOr<server::WireResponse> response = server::ParseResponse(line);
    if (!response.ok()) {
      ++phase.transport_failed;
      result.Fail("unparsable response: " + response.status().ToString());
      return;
    }
    auto it = pending.find(std::strtoull(response->id.c_str(), nullptr, 10));
    if (it == pending.end()) {
      ++phase.transport_failed;
      result.Fail("response with unknown id " + response->id);
      return;
    }
    const size_t index = it->second;
    pending.erase(it);
    ReadRecord& read = world.reads[index];
    if (!response->ok()) {
      if (response->status.code() == StatusCode::kResourceExhausted) {
        ++phase.shed;
      }
      ++phase.typed_errors[StatusCodeName(response->status.code())];
      if (!may_shed) {
        result.Fail("wire error: " + response->status.ToString());
      }
      finish_read(index, false, arrived_s);
      return;
    }
    const server::PersonalizeResultPayload& p = *response->personalize;
    // The answer must be the reference for a text the profile held at
    // some point between the send and now (a Put may land in between).
    const size_t profile = read.pair / nq;
    const auto& history = world.history[profile];
    std::string diff = "no history";
    for (size_t h = read.history_at_send; h < history.size(); ++h) {
      diff = DiffAnswer(AnswerOf(p),
                        world.reference[history[h].first * nq +
                                        read.pair % nq]);
      if (diff.empty()) {
        if (h > read.history_at_send) read.order = history[h].second + 0.5;
        break;
      }
    }
    if (!diff.empty()) {
      ++phase.mismatched;
      result.Fail(StrFormat("pair %zu: wire answer differs: %s", read.pair,
                            diff.c_str()));
      finish_read(index, false, arrived_s);
      return;
    }
    const double client_ms = (arrived_s - read.sent_s) * 1e3;
    ++phase.ok;
    if (p.degraded) ++phase.degraded;
    if (p.plan_cache_hit) ++phase.plan_hits;
    phase.server_ms.push_back(p.server_ms);
    phase.wire_ms.push_back(client_ms - p.server_ms);
    phase.server_ms_total += p.server_ms;
    phase.search_ms_total += p.search_wall_ms;
    read.final_sql = p.final_sql;
    finish_read(index, true, arrived_s);
  };

  size_t i = 0;
  std::vector<pollfd> fds(world.conns.size());
  while (i < schedule.size() || !pending.empty()) {
    double now = now_s();
    while (i < schedule.size() && schedule[i].due_s <= now) {
      const ScheduledOp& op = schedule[i];
      if (op.write) {
        const std::string id = ProfileId(op.item);
        const size_t text = (op.item + op.variant) % world.texts.size();
        auto profile = prefs::Profile::Parse(world.texts[text]);
        Stopwatch put_timer;
        Status status = profile.ok()
                            ? world.store->Put(id, *std::move(profile))
                            : profile.status();
        const double put_ms = put_timer.ElapsedMillis();
        ++phase.puts;
        if (!status.ok()) {
          ++phase.puts_failed;
          result.Fail("put " + id + ": " + status.ToString());
          phase.put_ms.push_back(std::numeric_limits<double>::infinity());
        } else {
          phase.put_ms.push_back(put_ms);
          world.acked_version[op.item] = world.store->FindSnapshot(id).version;
          const double order = world.next_order++;
          world.history[op.item].emplace_back(text, order);
          world.puts.push_back({op.item, text, order});
        }
      } else {
        server::WireRequest request;
        request.op = server::RequestOp::kPersonalize;
        const uint64_t wire_id = world.next_id++;
        request.id = std::to_string(wire_id);
        request.personalize.sql = world.queries[op.item % nq];
        request.personalize.profile_id = ProfileId(op.item / nq);
        Conn& conn = world.conns[next_conn++ % world.conns.size()];
        conn.out += server::SerializeRequest(request);
        conn.out += '\n';
        ReadRecord read;
        read.pair = op.item;
        read.due_s = op.due_s;
        read.sent_s = now_s();
        read.order = world.next_order++;
        read.history_at_send = world.history[op.item / nq].size() - 1;
        pending[wire_id] = world.reads.size();
        world.reads.push_back(read);
        ++phase.attempted;
        phase.account.OnSent(read.due_s, read.sent_s);
        FlushConn(conn);
      }
      ++i;
      now = now_s();
    }
    if (!mid_sampled && now >= last_due / 2) {
      phase.backlog_mid = pending.size();
      mid_sampled = true;
    }
    if (i == schedule.size() && phase.send_window_s == 0.0) {
      phase.backlog_end = pending.size();
      phase.send_window_s = std::max(now, 1e-9);
    }
    if (i == schedule.size() && now > last_due + kDrainSeconds) break;

    double wait_s = i < schedule.size() ? schedule[i].due_s - now : 0.05;
    for (size_t c = 0; c < world.conns.size(); ++c) {
      Conn& conn = world.conns[c];
      fds[c].fd = conn.broken ? -1 : conn.fd;
      fds[c].events = static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    timespec timeout{};
    if (wait_s > 0.0) {
      timeout.tv_sec = static_cast<time_t>(wait_s);
      timeout.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    }
    int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (size_t c = 0; c < world.conns.size(); ++c) {
      Conn& conn = world.conns[c];
      if (fds[c].revents & POLLOUT) FlushConn(conn);
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      for (;;) {
        ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
          conn.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.broken = true;
        }
        break;
      }
      const double arrived_s = now_s();
      size_t start = 0;
      for (size_t nl; (nl = conn.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        handle_line(conn.in.substr(start, nl - start), arrived_s);
      }
      conn.in.erase(0, start);
    }
  }
  if (phase.send_window_s == 0.0) {
    phase.backlog_end = pending.size();
    phase.send_window_s = std::max(now_s(), 1e-9);
  }
  for (const auto& [wire_id, index] : pending) {
    ++phase.transport_failed;
    finish_read(index, false, now_s());
  }
  if (!pending.empty()) {
    result.Fail(StrFormat("%zu requests never answered", pending.size()));
  }
  return phase;
}

double StatsNumber(const JsonValue& stats, const std::string& key) {
  const JsonValue* v = stats.Find(key);
  return v != nullptr && v->is_number() ? v->number_value() : 0.0;
}

/// Sum of one per-loop counter over every event loop.
double LoopCounter(const JsonValue& stats, const std::string& key) {
  const JsonValue* loops = stats.Find("loops");
  double sum = 0.0;
  if (loops == nullptr || !loops->is_array()) return 0.0;
  for (const JsonValue& loop : loops->array_items()) {
    sum += StatsNumber(loop, key);
  }
  return sum;
}

/// Replays the warm-up reads and the measured sequence (reads and Puts in
/// replay order) against `store`; `limit` caps the measured part.
size_t ReplayWire(WireWorld& world,
                  server::ProfileStore* store, size_t warm_reads,
                  size_t limit, Tracer* tracer, LayerTotals* cold,
                  LayerTotals* measured, RunResult& result) {
  struct Event {
    double order;
    bool put;
    size_t index;
  };
  std::vector<Event> events;
  for (size_t r = warm_reads; r < world.reads.size(); ++r) {
    if (world.reads[r].done && !world.reads[r].final_sql.empty()) {
      events.push_back({world.reads[r].order, false, r});
    }
  }
  for (size_t p = 0; p < world.puts.size(); ++p) {
    events.push_back({world.puts[p].order, true, p});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.order < b.order;
                   });

  const size_t nq = world.queries.size();
  const server::ServerOptions server_options = MakeServerOptions();
  auto make_read = [&](const ReadRecord& record) {
    ReplayRead read;
    read.profile_id = ProfileId(record.pair / nq);
    read.sql = world.queries[record.pair % nq];
    read.problem = server_options.default_problem;
    read.algorithm = "C-Boundaries";  // "auto" for a max-doi problem
    read.max_k = server_options.default_max_k;
    read.expected_final_sql = record.final_sql;
    return read;
  };

  Replayer replayer(world.db.get(), store, tracer);
  for (size_t r = 0; r < warm_reads; ++r) {
    if (world.reads[r].final_sql.empty()) continue;
    std::string diff = replayer.Read(make_read(world.reads[r]));
    if (!diff.empty()) result.Fail("replay: " + diff);
  }
  *cold = replayer.totals();
  replayer.ResetTotals();
  Stopwatch clock;
  size_t done = 0;
  for (; done < events.size() && done < limit; ++done) {
    if (tracer == nullptr && clock.ElapsedSeconds() > kReplaySeconds) break;
    const Event& e = events[done];
    std::string diff;
    if (e.put) {
      const PutRecord& put = world.puts[e.index];
      auto profile = prefs::Profile::Parse(world.texts[put.text]);
      diff = profile.ok() ? replayer.Put(ProfileId(put.profile),
                                         *std::move(profile))
                          : profile.status().ToString();
    } else {
      diff = replayer.Read(make_read(world.reads[e.index]));
    }
    if (!diff.empty()) result.Fail("replay: " + diff);
  }
  *measured = replayer.totals();
  return done;
}

/// After the run: stop serving, drop the tier, reopen it from its
/// directory and require every acknowledged Put at its acknowledged
/// version with its text.
void CheckDurability(WireWorld& world, RunResult& result) {
  world.server->Stop();
  world.store.reset();
  auto reopened = server::shard::ShardedProfileStore::Open(world.db.get(), world.store_options);
  if (!reopened.ok()) {
    result.Fail("reopen: " + reopened.status().ToString());
    return;
  }
  auto contents = (*reopened)->Contents();
  if (!contents.ok()) {
    result.Fail("contents: " + contents.status().ToString());
    return;
  }
  std::map<std::string, const storage::journal::SnapshotEntry*> by_id;
  for (const auto& entry : *contents) by_id[entry.key] = &entry;
  size_t checked = 0;
  for (size_t i = 0; i < world.history.size(); ++i) {
    auto it = by_id.find(ProfileId(i));
    const size_t text = world.history[i].back().first;
    if (it == by_id.end() || it->second->version != world.acked_version[i] ||
        it->second->value != world.texts[text]) {
      result.Fail("profile " + ProfileId(i) +
                  " not recovered at its acknowledged version");
    }
    ++checked;
  }
  result.record.Set("durability_checked_profiles",
                    Num(static_cast<double>(checked)));
  world.store = *std::move(reopened);
}

RunResult RunWire(const Options& options, const WireConfig& config) {
  RunResult result;
  const std::string scratch_base =
      std::filesystem::absolute(options.out_dir).string() + "/tier-" +
      options.workload + "-s" + std::to_string(options.seed) + "-p" +
      std::to_string(::getpid());
  std::vector<double> setup_s;
  std::unique_ptr<WireWorld> world;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    world.reset();  // tears down the previous server, tier and directory
    const std::string scratch = scratch_base + "-" + std::to_string(r);
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
    Stopwatch timer;
    auto built = Setup(config, scratch, options.trace);
    if (!built.ok()) {
      std::filesystem::remove_all(scratch, ec);
      std::filesystem::remove_all(scratch + "-replay", ec);
      result.Fail("setup: " + built.status().ToString());
      result.attempted = 1;
      result.failed = 1;
      return result;
    }
    world = *std::move(built);
    // Warm-up: one second of the same traffic shape (its own seed), so
    // the plan cache and the resident set reach their steady state.
    ScheduleSpec warm_spec{config.read_rps, 0.0, kWarmupSeconds,
                           world->pairs(), world->queries.size(), 1, 1.1};
    PhaseStats warm = Drive(*world, MakeSchedule(warm_spec, 7919), result,
                            /*may_shed=*/true);
    setup_s.push_back(timer.ElapsedSeconds());
    result.record.Set("warmup", warm.ToJson());
    if (r + 1 < kSetupRepeats) {
      world->reads.clear();
      world->next_order = 0.0;
    }
  }
  const size_t warm_reads = world->reads.size();

  ScheduleSpec spec{config.read_rps,  config.write_rps,
                    options.seconds,  world->pairs(),
                    world->queries.size(), world->texts.size(), 1.1};
  const std::vector<ScheduledOp> schedule = MakeSchedule(spec, options.seed);
  const JsonValue before = world->server->StatsJson();
  const auto tier_before = *world->store->shard_stats();
  const auto journal_before = *world->store->durability_stats();
  const auto plans_before = world->store->plan_stats();
  PhaseStats phase = Drive(*world, schedule, result);
  const JsonValue after = world->server->StatsJson();
  const auto tier_after = *world->store->shard_stats();
  const auto journal_after = *world->store->durability_stats();
  const auto plans_after = world->store->plan_stats();

  result.attempted = phase.attempted + phase.puts;
  result.failed = phase.failed();

  JsonValue params = JsonValue::Object();
  params.Set("loop", JsonValue::Str("open, Poisson arrivals, 1 generator thread"));
  params.Set("connections", Num(static_cast<double>(world->conns.size())));
  params.Set("movies", Num(2000));
  params.Set("profiles", Num(static_cast<double>(config.profiles)));
  params.Set("profile_texts", Num(static_cast<double>(config.texts)));
  params.Set("queries", Num(static_cast<double>(world->queries.size())));
  params.Set("zipf_s", Num(1.1));
  params.Set("read_rps", Num(config.read_rps));
  params.Set("write_rps", Num(config.write_rps));
  params.Set("shards", Num(static_cast<double>(config.shards)));
  params.Set("resident_budget_bytes",
             Num(static_cast<double>(world->store_options.resident_budget_bytes)));
  params.Set("budget_fraction_of_footprint", Num(config.budget_fraction));
  params.Set("latency_limit_ms", Num(config.latency_limit_ms));
  params.Set("warmup_seconds", Num(kWarmupSeconds));
  params.Set("setup_repeats", Num(kSetupRepeats));
  result.record.Set("workload_parameters", std::move(params));
  result.record.Set("accounting", phase.ToJson());

  const double lag_p99 = Percentile(phase.account.lag_ms(), 0.99).value_or(0.0);
  const bool lag_material = lag_p99 > 0.1 * config.latency_limit_ms;
  result.record.Set("generator_lag_p99_ms", Num(lag_p99));
  result.record.Set("generator_lag_p50_ms",
                    Num(Percentile(phase.account.lag_ms(), 0.50).value_or(0.0)));
  result.record.Set("generator_lag_p90_ms",
                    Num(Percentile(phase.account.lag_ms(), 0.90).value_or(0.0)));
  result.record.Set("generator_lag_material", JsonValue::Bool(lag_material));
  if (lag_material) {
    std::fprintf(stderr,
                 "WARNING: generator lag p99 %.3f ms is a material share of "
                 "the %.1f ms latency limit; read latencies include it\n",
                 lag_p99, config.latency_limit_ms);
  }

  if (config.write_rps > 0.0) CheckDurability(*world, result);

  if (!options.trace) {
    AddEndToEndMetrics(Median(setup_s),
                       phase.account.Windows(
                           1.0, static_cast<size_t>(options.seconds)),
                       static_cast<double>(phase.ok) / phase.send_window_s,
                       result);
    return result;
  }

  TimedRunStats w;
  w.latency_p90_ms =
      MedianOverWindows(
          phase.account.Windows(1.0, static_cast<size_t>(options.seconds)),
          0.90)
          .value_or(0.0);
  w.server_ms_p50 = Percentile(phase.server_ms, 0.50).value_or(0.0);
  w.server_ms_p99 = Percentile(phase.server_ms, 0.99).value_or(0.0);
  w.wire_ms_p50 = Percentile(phase.wire_ms, 0.50).value_or(0.0);
  w.search_share = Ratio(phase.search_ms_total, phase.server_ms_total);
  w.shed_ratio = Ratio(static_cast<double>(phase.shed),
                       static_cast<double>(phase.attempted));
  w.degraded_ratio = Ratio(static_cast<double>(phase.degraded),
                           static_cast<double>(phase.ok));
  const double requests =
      StatsNumber(after, "requests") - StatsNumber(before, "requests");
  w.wakeups_per_request = Ratio(
      LoopCounter(after, "wakeups") - LoopCounter(before, "wakeups"), requests);
  w.frames_per_writev =
      Ratio(LoopCounter(after, "frames") - LoopCounter(before, "frames"),
            LoopCounter(after, "writevs") - LoopCounter(before, "writevs"));
  w.plan_hit_ratio = Ratio(static_cast<double>(phase.plan_hits),
                           static_cast<double>(phase.ok));
  w.plan_invalidations =
      static_cast<double>(plans_after.invalidations - plans_before.invalidations);
  w.page_ins_per_request =
      Ratio(static_cast<double>(tier_after.page_ins - tier_before.page_ins),
            static_cast<double>(phase.attempted));
  w.evictions = static_cast<double>(tier_after.evictions - tier_before.evictions);
  w.resident_mb = static_cast<double>(tier_after.resident_bytes) / (1 << 20);
  const double puts = static_cast<double>(phase.puts);
  w.fsyncs_per_put =
      Ratio(static_cast<double>(journal_after.fsyncs - journal_before.fsyncs),
            puts);
  w.bytes_per_put = Ratio(
      static_cast<double>(journal_after.append_bytes - journal_before.append_bytes),
      puts);
  w.compactions =
      static_cast<double>(journal_after.compactions - journal_before.compactions);
  w.generator_lag_p99_ms = lag_p99;
  w.wire_p99_ms = Percentile(phase.account.latency_ms(), 0.99).value_or(0.0);
  w.put_p50_ms = Percentile(phase.put_ms, 0.50).value_or(0.0);
  w.put_p90_ms = Percentile(phase.put_ms, 0.90).value_or(0.0);
  w.error_ratio = Ratio(static_cast<double>(phase.failed()),
                        static_cast<double>(result.attempted));

  // The offered-rate ladder (reads only) for wire_slo_rps.
  if (!config.ladder.empty() && world->server->running()) {
    std::vector<RungOutcome> rungs;
    JsonValue ladder = JsonValue::Array();
    for (size_t r = 0; r < config.ladder.size(); ++r) {
      ScheduleSpec rung_spec{config.read_rps * config.ladder[r], 0.0, 2.0,
                             world->pairs(), world->queries.size(), 1, 1.1};
      size_t first = world->reads.size();
      PhaseStats rung_phase =
          Drive(*world, MakeSchedule(rung_spec, options.seed * 31 + r), result,
                /*may_shed=*/true);
      world->reads.resize(first);  // ladder reads are not replayed
      RungOutcome outcome;
      outcome.offered_rps = rung_spec.read_rps;
      outcome.achieved_rps =
          static_cast<double>(rung_phase.ok) / rung_phase.send_window_s;
      outcome.latency_ms = rung_phase.account.latency_ms();
      outcome.backlog_mid = rung_phase.backlog_mid;
      outcome.backlog_end = rung_phase.backlog_end;
      JsonValue one = rung_phase.ToJson();
      one.Set("offered_rps", Num(outcome.offered_rps));
      one.Set("achieved_rps", Num(outcome.achieved_rps));
      one.Set("p99_ms",
              Num(Percentile(outcome.latency_ms, 0.99).value_or(-1.0)));
      one.Set("passes", JsonValue::Bool(RungPasses(outcome,
                                                   config.latency_limit_ms)));
      ladder.Append(std::move(one));
      rungs.push_back(std::move(outcome));
    }
    w.slo_rps = SloRps(rungs, config.latency_limit_ms);
    result.record.Set("ladder", std::move(ladder));
  }

  // Replays: untraced, then traced, over the same sequence. A read-only
  // workload replays against the serving tier; a writing one against two
  // fresh copies of the initial tier, so both see the same history.
  LayerTotals cold_untraced, untraced, cold, traced;
  auto replay_store = [&](size_t copy)
      -> std::unique_ptr<server::shard::ShardedProfileStore> {
    if (config.write_rps == 0.0) return nullptr;
    std::string dir = world->replay_seed_dir + "-" + std::to_string(copy);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::copy(world->replay_seed_dir, dir,
                          std::filesystem::copy_options::recursive, ec);
    server::shard::ShardedStoreOptions store_options = world->store_options;
    store_options.dir = dir;
    auto opened = server::shard::ShardedProfileStore::Open(world->db.get(), store_options);
    if (!opened.ok()) {
      result.Fail("replay store: " + opened.status().ToString());
      return nullptr;
    }
    return *std::move(opened);
  };
  std::unique_ptr<server::shard::ShardedProfileStore> untraced_store =
      replay_store(0);
  server::ProfileStore* store0 =
      untraced_store ? untraced_store.get() : world->store.get();
  size_t replayed =
      ReplayWire(*world, store0, warm_reads, SIZE_MAX, nullptr,
                 &cold_untraced, &untraced, result);
  Tracer tracer;
  std::unique_ptr<server::shard::ShardedProfileStore> traced_store =
      replay_store(1);
  server::ProfileStore* store1 =
      traced_store ? traced_store.get() : world->store.get();
  ReplayWire(*world, store1, warm_reads, replayed, &tracer, &cold,
             &traced, result);
  untraced_store.reset();
  traced_store.reset();
  for (size_t copy = 0; copy < 2 && config.write_rps > 0.0; ++copy) {
    std::error_code ec;
    std::filesystem::remove_all(
        world->replay_seed_dir + "-" + std::to_string(copy), ec);
  }
  AddLayerMetrics(cold, traced, untraced, w, result);
  result.record.Set("replayed_events", Num(static_cast<double>(replayed)));
  std::string spans = options.out_dir + "/" + options.workload + "-s" +
                      std::to_string(options.seed) + ".spans.jsonl";
  if (!tracer.WriteJsonl(spans)) result.Fail("cannot write " + spans);
  result.record.Set("spans_file", JsonValue::Str(spans));
  return result;
}

}  // namespace

RunResult RunWireZipf(const Options& options) {
  WireConfig config{/*profiles=*/32, /*texts=*/32,
                    /*read_rps=*/800.0, /*write_rps=*/0.0, /*shards=*/4,
                    /*budget_fraction=*/2.0, /*latency_limit_ms=*/10.0,
                    /*ladder=*/{1.0, 3.0, 6.0, 10.0}};
  return RunWire(options, config);
}

RunResult RunProfileChurn(const Options& options) {
  WireConfig config{/*profiles=*/256, /*texts=*/16,
                    /*read_rps=*/400.0, /*write_rps=*/15.0, /*shards=*/4,
                    /*budget_fraction=*/0.25, /*latency_limit_ms=*/10.0,
                    /*ladder=*/{}};
  return RunWire(options, config);
}

}  // namespace perfbench
