#ifndef CQP_SERVER_SERVER_H_
#define CQP_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "construct/personalizer.h"
#include "cqp/problem.h"
#include "server/admission.h"
#include "server/connection.h"
#include "server/event_loop.h"
#include "server/profile_store.h"
#include "server/protocol.h"
#include "server/server_stats.h"
#include "storage/database.h"

namespace cqp::server {

/// Server configuration.
struct ServerOptions {
  /// Bind address. The default only answers local clients; widen on
  /// purpose, not by default.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Worker threads running searches; 0 = hardware_concurrency.
  size_t num_threads = 0;
  /// Epoll event-loop (I/O) threads; 0 = hardware_concurrency clamped to
  /// [1, 8]. Each loop owns a SO_REUSEPORT listener, an epoll instance
  /// and a slice of the admission budget.
  size_t io_threads = 0;
  AdmissionOptions admission;
  /// Backpressure high watermark per connection: above this many unsent
  /// response bytes the owning loop stops reading from the connection.
  size_t write_queue_watermark_bytes = 256 * 1024;
  /// Per-connection write-queue hard cap: exceeded means the peer stopped
  /// draining entirely — the connection is dropped (slow-loris defense).
  size_t write_queue_limit_bytes = 4 * 1024 * 1024;
  /// When > 0, shrink accepted sockets' SO_SNDBUF (tests use this to trip
  /// the write-queue watermarks deterministically).
  int so_sndbuf = 0;
  /// Seconds between periodic stats log lines on stderr; 0 disables.
  double stats_interval_s = 0.0;
  /// Graceful-shutdown budget: Stop() stops accepting immediately, then
  /// gives in-flight (admitted) requests up to this long to finish before
  /// cancelling them. 0 cancels immediately (the pre-drain behavior).
  double drain_deadline_ms = 1000.0;
  /// Problem applied when a request carries no constraint bounds.
  cqp::ProblemSpec default_problem = cqp::ProblemSpec::Problem2(400.0);
  /// Algorithm used when a request names none ("auto" = match objective).
  std::string default_algorithm = "auto";
  /// Preference-space cap applied when a request sends no max_k.
  size_t default_max_k = 20;
};

/// The personalization server: accepts line-delimited JSON requests over
/// TCP and answers them with the same engine (and bit-identical results)
/// as a direct construct::Personalizer::Personalize() call.
///
/// Threading model (thread-per-core I/O, PR 9):
///  * a fixed set of epoll event loops, each with its own SO_REUSEPORT
///    listener (the kernel spreads connections across loops), its own
///    admission slice, non-blocking reads through an incremental frame
///    decoder, and writev-batched responses from a bounded per-connection
///    write queue with read-side backpressure;
///  * administrative ops (ping/stats/profiles) are O(µs) and answered
///    inline on the loop; reload and personalize work run on the shared
///    ThreadPool. The request's SearchBudget deadline is anchored at
///    ADMISSION time, so queueing delay counts against the deadline and a
///    request that waited too long degrades (or answers with its original
///    query) instead of blowing its latency target;
///  * workers never touch sockets: a finished request posts its response
///    frame back to the owning loop via an eventfd wakeup;
///  * each request's budget carries the connection's CancelToken: when
///    the peer drops, teardown cancels it and in-flight searches for that
///    connection unwind at the next ShouldStop() poll.
///
/// Stop() is graceful and idempotent: close the listeners, let admitted
/// requests finish within drain_deadline_ms, stop the loops (which
/// cancels and tears down every connection), drain the worker pool, and
/// flush the profile store's journal (a no-op for the in-memory store) so
/// a durable deployment loses nothing on a clean shutdown.
class Server {
 public:
  /// `db` must be Analyze()d and outlive the server; `profiles` supplies
  /// per-request graphs and plan caches and must outlive the server.
  Server(const storage::Database* db, ProfileStore* profiles,
         ServerOptions options = ServerOptions());
  ~Server();  ///< calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds one SO_REUSEPORT listener per loop, then spawns the loops.
  /// kInternal when the port is taken, kInvalidArgument for a bad host.
  Status Start();

  /// Graceful shutdown; safe to call twice, and from any thread.
  void Stop();

  /// The bound port (resolves port 0), valid after Start().
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats& stats() { return stats_; }
  const ServerOptions& options() const { return options_; }
  /// Aggregate admission view across every loop's slice (pending,
  /// admitted/shed/degraded totals); options() is the configured,
  /// unsliced budget.
  AdmissionTotals admission() const;
  /// Number of event loops actually running (resolved from io_threads).
  size_t num_io_threads() const { return loops_.size(); }

  /// The full stats document: server counters + per-loop gauges +
  /// admission + plan cache + journal + shard tier (when the profile
  /// store is sharded). One assembly shared by the stats wire op, the
  /// periodic stats log and the shell's .stats display.
  JsonValue StatsJson();

 private:
  /// Parses and dispatches one frame on a loop thread; returns false when
  /// the connection must close once pending responses flush.
  bool HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line);
  void HandlePersonalize(const std::shared_ptr<Connection>& conn,
                         WireRequest request);
  /// Runs on a worker thread: the admitted search itself.
  void RunPersonalize(const std::shared_ptr<Connection>& conn,
                      const WireRequest& request,
                      std::chrono::steady_clock::time_point admitted_at,
                      bool degrade);
  void StatsLoop();

  const storage::Database* db_;
  ProfileStore* profiles_;
  const ServerOptions options_;
  ServerStats stats_;

  std::atomic<bool> running_{false};
  int port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::thread stats_thread_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cqp::server

#endif  // CQP_SERVER_SERVER_H_
