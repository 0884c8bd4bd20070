// Slow-client hardening battery for the epoll event-loop server: raw
// sockets driving the incremental frame decoder one byte at a time,
// frames split at arbitrary boundaries, coalesced requests, the 1 MiB
// frame-cap boundary, slow-loris idle connections, write-queue
// backpressure disconnects, a malformed-frame corpus replayed over the
// wire, and mid-solve connection drops on the event-loop teardown path.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "server/client.h"
#include "server/io_util.h"
#include "server/profile_store.h"
#include "server/server.h"
#include "server/server_stats.h"
#include "test_util.h"
#include "testing/generator.h"

namespace cqp::server {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kProfileText =
    "doi(GENRE.genre = 'musical') = 0.5\n"
    "doi(MOVIE.mid = GENRE.mid) = 0.9\n"
    "doi(DIRECTOR.name = 'W. Allen') = 0.8\n"
    "doi(MOVIE.did = DIRECTOR.did) = 1.0\n"
    "doi(MOVIE.year > 1990) = 0.6\n";

constexpr const char* kQuery = "SELECT title FROM MOVIE";

prefs::Profile TestProfile() { return *prefs::Profile::Parse(kProfileText); }

/// A raw client socket with line-oriented reads: the test's view of the
/// wire, with none of Client's conveniences in the way.
class RawConn {
 public:
  RawConn() = default;
  ~RawConn() { Close(); }

  bool Connect(int port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1) return false;
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(const std::string& data) {
    return SendAll(fd_, data.data(), data.size());
  }

  /// Writes `data` one byte per send() call — the pathological slow
  /// client the decoder must tolerate.
  bool SendByByte(const std::string& data) {
    for (char c : data) {
      if (!SendAll(fd_, &c, 1)) return false;
    }
    return true;
  }

  /// Reads one '\n'-terminated line (stripped). Empty string on timeout,
  /// EOF or error; eof() distinguishes.
  std::string ReadLine(int timeout_ms = 10000) {
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      int remaining = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                Clock::now())
              .count());
      if (remaining <= 0) return "";
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, remaining);
      if (ready <= 0) return "";
      char chunk[4096];
      ssize_t n = ReadSome(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        eof_ = true;
        return "";
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True once the server closed its end (observed by ReadLine).
  bool eof() const { return eof_; }

  int fd() const { return fd_; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  bool eof_ = false;
};

class EpollServerTest : public ::testing::Test {
 protected:
  EpollServerTest() : db_(::cqp::testing::MakeTinyMovieDb()) {}

  void StartServer(ServerOptions options = ServerOptions()) {
    profiles_ = std::make_unique<ProfileStore>(&db_);
    ASSERT_TRUE(profiles_->Put("default", TestProfile()).ok());
    options.port = 0;  // ephemeral
    server_ = std::make_unique<Server>(&db_, profiles_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  WireRequest PersonalizeRequestFor(const std::string& sql,
                                    const std::string& id = "") {
    WireRequest request;
    request.op = RequestOp::kPersonalize;
    request.id = id;
    request.personalize.sql = sql;
    return request;
  }

  static WireRequest Ping(const std::string& id) {
    WireRequest ping;
    ping.op = RequestOp::kPing;
    ping.id = id;
    return ping;
  }

  storage::Database db_;
  std::unique_ptr<ProfileStore> profiles_;
  std::unique_ptr<Server> server_;
};

// ------------------------------------------- slow clients / partial frames

TEST_F(EpollServerTest, OneByteAtATimePingIsByteIdenticalToSingleSend) {
  StartServer();
  const std::string frame = SerializeRequest(Ping("drip")) + "\n";

  // Reference: the blocking path — the whole frame in one send.
  RawConn whole;
  ASSERT_TRUE(whole.Connect(server_->port()));
  ASSERT_TRUE(whole.Send(frame));
  std::string expected = whole.ReadLine();
  ASSERT_FALSE(expected.empty());

  // The same frame dribbled one byte per send must produce the exact
  // same response bytes.
  RawConn drip;
  ASSERT_TRUE(drip.Connect(server_->port()));
  ASSERT_TRUE(drip.SendByByte(frame));
  EXPECT_EQ(drip.ReadLine(), expected);
}

TEST_F(EpollServerTest, DribbledPersonalizeMatchesSingleSendAnswer) {
  StartServer();
  const std::string frame =
      SerializeRequest(PersonalizeRequestFor(kQuery, "drip")) + "\n";

  RawConn whole;
  ASSERT_TRUE(whole.Connect(server_->port()));
  ASSERT_TRUE(whole.Send(frame));
  auto expected = ParseResponse(whole.ReadLine());
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(expected->personalize.has_value());

  RawConn drip;
  ASSERT_TRUE(drip.Connect(server_->port()));
  ASSERT_TRUE(drip.SendByByte(frame));
  auto got = ParseResponse(drip.ReadLine());
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->ok()) << got->status.ToString();
  ASSERT_TRUE(got->personalize.has_value());
  // Identical answer (server_ms is wall time and legitimately differs).
  EXPECT_EQ(got->personalize->final_sql, expected->personalize->final_sql);
  EXPECT_EQ(got->personalize->chosen, expected->personalize->chosen);
  EXPECT_EQ(got->personalize->doi, expected->personalize->doi);
  EXPECT_EQ(got->personalize->cost_ms, expected->personalize->cost_ms);
  EXPECT_EQ(got->personalize->size, expected->personalize->size);
  EXPECT_EQ(got->personalize->feasible, expected->personalize->feasible);
  EXPECT_EQ(got->personalize->rung, expected->personalize->rung);
}

TEST_F(EpollServerTest, FramesSplitAtArbitraryBoundariesAllAnswer) {
  ServerOptions options;
  options.num_threads = 1;  // single worker: responses come back in order
  StartServer(options);
  const std::string two =
      SerializeRequest(PersonalizeRequestFor(kQuery, "a")) + "\n" +
      SerializeRequest(PersonalizeRequestFor(kQuery, "b")) + "\n";

  // Slice the two-request payload at a spread of boundaries, including
  // mid-frame and exactly on the newline.
  for (size_t split : {size_t{1}, two.size() / 3, two.size() / 2,
                       two.find('\n'), two.find('\n') + 1, two.size() - 1}) {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server_->port()));
    ASSERT_TRUE(conn.Send(two.substr(0, split)));
    // A pause between the halves so the server actually sees two reads.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(conn.Send(two.substr(split)));
    auto first = ParseResponse(conn.ReadLine());
    auto second = ParseResponse(conn.ReadLine());
    ASSERT_TRUE(first.ok()) << "split at " << split;
    ASSERT_TRUE(second.ok()) << "split at " << split;
    EXPECT_EQ(first->id, "a");
    EXPECT_EQ(second->id, "b");
    EXPECT_TRUE(first->ok());
    EXPECT_TRUE(second->ok());
  }
}

TEST_F(EpollServerTest, CoalescedRequestsInOneSendBothAnswerInOrder) {
  StartServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  // Administrative ops answer inline on the loop, so ordering is exact.
  ASSERT_TRUE(conn.Send(SerializeRequest(Ping("one")) + "\n" +
                        SerializeRequest(Ping("two")) + "\n"));
  auto first = ParseResponse(conn.ReadLine());
  auto second = ParseResponse(conn.ReadLine());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->id, "one");
  EXPECT_EQ(second->id, "two");
}

// --------------------------------------------------- frame-cap boundary

/// A personalize request padded so the serialized frame is exactly
/// `bytes` long (the sql payload absorbs the padding).
std::string FrameOfExactly(size_t bytes, const std::string& id) {
  WireRequest request;
  request.op = RequestOp::kPersonalize;
  request.id = id;
  request.personalize.sql = "S";
  std::string frame = SerializeRequest(request);
  CQP_CHECK(frame.size() < bytes);
  request.personalize.sql += std::string(bytes - frame.size(), 'x');
  frame = SerializeRequest(request);
  CQP_CHECK(frame.size() == bytes);
  return frame;
}

TEST_F(EpollServerTest, FrameAtExactlyTheCapIsServed) {
  StartServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  // The cap is inclusive: exactly kMaxFrameBytes must reach the engine
  // (the padded sql is nonsense, so the answer is a typed error — the
  // point is a response arrives and the connection survives).
  ASSERT_TRUE(conn.Send(FrameOfExactly(kMaxFrameBytes, "fat") + "\n"));
  auto response = ParseResponse(conn.ReadLine(30000));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->id, "fat");

  ASSERT_TRUE(conn.Send(SerializeRequest(Ping("alive")) + "\n"));
  auto pong = ParseResponse(conn.ReadLine());
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->id, "alive");
}

TEST_F(EpollServerTest, FrameOnePastTheCapGetsTypedErrorThenClose) {
  StartServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  // One byte past the cap, no newline yet: the decoder must refuse to
  // buffer further, answer with a typed error and close.
  ASSERT_TRUE(conn.Send(std::string(kMaxFrameBytes + 1, 'x')));
  auto response = ParseResponse(conn.ReadLine(30000));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response->status.message().find("frame exceeds"),
            std::string::npos);
  EXPECT_TRUE(conn.ReadLine(5000).empty());
  EXPECT_TRUE(conn.eof());
}

// ------------------------------------------- slow-loris and backpressure

TEST_F(EpollServerTest, IdleHalfOpenConnectionsDoNotConsumeWorkers) {
  ServerOptions options;
  options.num_threads = 1;  // one worker: any stuck thread would show
  options.io_threads = 2;
  StartServer(options);

  // A slow-loris swarm: connections that never complete a frame. Under
  // the old thread-per-connection design each held a reader thread; here
  // they must cost one epoll registration and nothing else.
  constexpr int kIdle = 64;
  std::vector<std::unique_ptr<RawConn>> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    auto conn = std::make_unique<RawConn>();
    ASSERT_TRUE(conn->Connect(server_->port()));
    if (i % 2 == 0) {
      // Half of them dribble a partial frame and stall mid-line.
      ASSERT_TRUE(conn->Send(R"({"v":1,"op":)"));
    }
    idle.push_back(std::move(conn));
  }

  // With the swarm parked, real clients must still be served promptly.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 3; ++i) {
    auto response = client.Call(PersonalizeRequestFor(kQuery));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->ok()) << response->status.ToString();
  }
  EXPECT_EQ(server_->stats().errors_total(), 0u);
  // Accepts are spread over both SO_REUSEPORT loops: the loop that took the
  // client may answer it before the other has accepted its share of the
  // swarm, so wait (bounded) for the counter instead of reading it once.
  Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  while (server_->stats().connections_opened() <
             static_cast<uint64_t>(kIdle + 1) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server_->stats().connections_opened(),
            static_cast<uint64_t>(kIdle + 1));
}

TEST_F(EpollServerTest, NeverDrainingReaderIsDisconnectedOthersStayLive) {
  ServerOptions options;
  options.io_threads = 2;
  // Tight budgets so the hoarder trips quickly: tiny server-side socket
  // buffer, low watermark, low hard cap.
  options.so_sndbuf = 4096;
  options.write_queue_watermark_bytes = 16 * 1024;
  options.write_queue_limit_bytes = 64 * 1024;
  StartServer(options);

  // Phase 1 — pause and resume: a client pipelines a ping burst whose
  // responses overflow the watermark (but not the hard cap), stalls, then
  // drains. The loop must pause reading, resume when the queue empties,
  // and deliver every single pong.
  {
    RawConn burst;
    ASSERT_TRUE(burst.Connect(server_->port(), /*rcvbuf=*/4096));
    constexpr int kPings = 2000;
    std::string pings;
    for (int i = 0; i < kPings; ++i) {
      pings += SerializeRequest(Ping("b")) + "\n";
    }
    ASSERT_TRUE(burst.Send(pings));
    // Stall long enough for the queue to cross the watermark and pause.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int pongs = 0;
    while (pongs < kPings) {
      std::string line = burst.ReadLine(10000);
      ASSERT_FALSE(line.empty()) << "lost responses: got " << pongs << "/"
                                 << kPings;
      auto response = ParseResponse(line);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->id, "b");
      ++pongs;
    }
    EXPECT_EQ(pongs, kPings);  // zero lost, zero duplicated
    EXPECT_TRUE(burst.ReadLine(100).empty());
  }

  // Phase 2 — the hoarder: pipelines a flood of stats requests (fat
  // responses) in one send and never reads a byte. A small receive
  // buffer keeps the kernel from absorbing the backlog on its behalf.
  RawConn hoarder;
  ASSERT_TRUE(hoarder.Connect(server_->port(), /*rcvbuf=*/4096));
  std::string flood;
  const std::string stats_frame = SerializeRequest([] {
    WireRequest stats;
    stats.op = RequestOp::kStats;
    return stats;
  }()) + "\n";
  for (int i = 0; i < 2000; ++i) flood += stats_frame;
  // The server stops reading at the watermark, so only part of the flood
  // is ever consumed; the send itself may block or fail once buffers
  // fill. Either is fine — the flood only needs to reach the loop.
  ASSERT_TRUE(SetNonBlocking(hoarder.fd(), true));
  ssize_t sent = ::send(hoarder.fd(), flood.data(), flood.size(), MSG_NOSIGNAL);
  ASSERT_GT(sent, 0);

  // Meanwhile a well-behaved client's latency must stay flat: the loop is
  // not allowed to block on the hoarder's full pipe.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 10; ++i) {
    Clock::time_point start = Clock::now();
    auto pong = client.Call(Ping("live"));
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                    .count();
    EXPECT_LT(ms, 2000.0) << "round trip " << i << " stalled behind hoarder";
  }

  // The hoarder must be forcibly disconnected once its queue passes the
  // hard cap. Detect the close without ever draining: poll for the reset
  // the server's teardown (shutdown + pending data) produces.
  bool disconnected = false;
  Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    pollfd pfd{hoarder.fd(), POLLIN, 0};
    ::poll(&pfd, 1, 100);
    if (pfd.revents & (POLLERR | POLLHUP)) {
      disconnected = true;
      break;
    }
    // Keep nudging: a send into a reset connection reports EPIPE.
    ssize_t n = ::send(hoarder.fd(), "\n", 1, MSG_NOSIGNAL);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      disconnected = true;
      break;
    }
  }
  EXPECT_TRUE(disconnected);

  // And the per-loop gauges must record it as a backpressure close.
  auto snapshot = client.Call([] {
    WireRequest stats;
    stats.op = RequestOp::kStats;
    return stats;
  }());
  ASSERT_TRUE(snapshot.ok());
  const JsonValue* loops = snapshot->extra.Find("loops");
  ASSERT_NE(loops, nullptr);
  double backpressure_closes = 0.0;
  double read_pauses = 0.0;
  for (const JsonValue& loop : loops->array_items()) {
    backpressure_closes += loop.Find("backpressure_closes")->number_value();
    read_pauses += loop.Find("read_pauses")->number_value();
  }
  EXPECT_GE(backpressure_closes, 1.0);
  EXPECT_GE(read_pauses, 1.0);
}

// ------------------------------------- malformed-frame corpus over the wire

TEST_F(EpollServerTest, MalformedFrameCorpusReplayConnectionSurvives) {
  StartServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));

  const std::string base =
      SerializeRequest(PersonalizeRequestFor(kQuery, "corpus"));
  int round = 0;
  auto replay = [&](const std::string& frame) {
    // Each corrupted frame is chased by a ping: whatever the server made
    // of the garbage (typed error, or a valid parse's answer), the pong
    // must come back on the SAME connection — malformed input never
    // kills the link, only oversized frames do.
    const std::string id = "probe-" + std::to_string(round++);
    ASSERT_TRUE(conn.Send(frame + "\n" + SerializeRequest(Ping(id)) + "\n"));
    for (;;) {
      auto response = ParseResponse(conn.ReadLine(20000));
      ASSERT_TRUE(response.ok())
          << "connection died after frame: " << frame.substr(0, 128);
      if (response->id == id) break;  // earlier lines answer the corruption
    }
  };

  // The PR 4 generated corpus, replayed through a socket instead of the
  // parser: seeded corruptions, printable junk, truncated prefixes of a
  // valid frame, and a raw NUL inside a string literal.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    replay(::cqp::testing::CorruptFrame(rng, base));
    replay(::cqp::testing::RandomJunk(
        rng, static_cast<size_t>(rng.Uniform(1, 2048))));
  }
  for (size_t len : {size_t{1}, base.size() / 2, base.size() - 1}) {
    replay(base.substr(0, len));
  }
  replay(std::string(R"({"v":1,"op":"personalize","sql":"SEL)") +
         std::string(1, '\0') + R"(ECT"})");

  EXPECT_FALSE(conn.eof());
  EXPECT_GT(server_->stats().ToJson().Find("protocol_errors")->number_value(),
            0.0);
}

// ---------------------------------------- teardown / cancellation (e2e)

TEST_F(EpollServerTest, ClientDropMidSolveCancelsInFlightAndQueuedWork) {
  ServerOptions options;
  options.num_threads = 1;  // force queueing behind one worker
  StartServer(options);

  // Pipeline several personalize frames and vanish without reading: the
  // event-loop teardown must cancel the connection token so the queued
  // requests short-circuit instead of burning the worker.
  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server_->port()));
    std::string frames;
    for (int i = 0; i < 4; ++i) {
      frames += SerializeRequest(PersonalizeRequestFor(kQuery)) + "\n";
    }
    ASSERT_TRUE(conn.Send(frames));
  }  // ~RawConn closes: FIN arrives after the buffered frames

  Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while ((server_->admission().admitted_total() < 4 ||
          server_->admission().pending() != 0) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->admission().admitted_total(), 4u);
  EXPECT_EQ(server_->admission().pending(), 0u);
  server_->Stop();  // must not hang with the connection gone
  EXPECT_FALSE(server_->running());
}

TEST_F(EpollServerTest, AdmissionSlicesAggregateAcrossLoops) {
  ServerOptions options;
  options.io_threads = 3;
  options.admission.max_pending = 7;  // ceil(7/3) = 3 per loop
  StartServer(options);
  EXPECT_EQ(server_->num_io_threads(), 3u);
  // The aggregate view reports the CONFIGURED budget, not the slices.
  EXPECT_EQ(server_->admission().options().max_pending, 7u);
  EXPECT_EQ(server_->admission().pending(), 0u);

  // Work spread over several connections lands on multiple slices; the
  // totals must still aggregate exactly.
  constexpr int kConns = 6;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kConns; ++c) {
    auto client = std::make_unique<Client>();
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok());
    auto response = client->Call(PersonalizeRequestFor(kQuery));
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok());
    clients.push_back(std::move(client));
  }
  EXPECT_EQ(server_->admission().admitted_total(), 6u);
  // The worker releases its slot just AFTER posting the response, so a
  // client that has its answer can briefly observe pending == 1: poll.
  Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  while (server_->admission().pending() != 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->admission().pending(), 0u);
}

}  // namespace
}  // namespace cqp::server
