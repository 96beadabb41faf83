// Shard-coordinator suite (coord/tsan-labelled; see CMakeLists.txt):
//
//  * ShardMap unit coverage: --workers/--shard-map parsing, fixed pins,
//    sticky round-robin assignment, fall-over without rebinding, and the
//    clean kIoError when nothing is alive.
//  * AggregateFieldLines unit coverage: identity on one line, counters
//    summed, gauges (peaks, _us quantiles, degraded flags) max-merged.
//  * The routing acceptance walk: two in-process workers behind an
//    in-process CoordServer, two clients on different pinned shards, every
//    proven result equal to a serial single-session replay, and each
//    worker demonstrably owning exactly its pinned session.
//  * Health transitions against a fake worker: stop answering probes ->
//    down after the failure threshold; resume -> up on one success.
//  * `open` against an unreachable worker answers a clean `err` line
//    (never a hang) after the dial-probe-reroute loop runs dry.
//  * Scatter-gather arithmetic over real workers: session counters sum,
//    coord_* fields and the per-worker up/down breakdown appear.
//  * The docs/PROTOCOL.md conformance walk (tests/support) replayed
//    through the coordinator — byte-identical behavior to a direct
//    worker, modulo worker-side transport gauges.
//  * Backpressure: a client that pipelines locally-answered requests and
//    never reads is abort-closed; a sibling connection is still served.
//
// SIGKILL-based coordinator failover lives in tests/chaos (chaos label);
// this suite keeps everything in-process so it can run under tsan.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "coord/coordinator.h"
#include "coord/health.h"
#include "coord/shard_map.h"
#include "core/solve_session.h"
#include "net/dial.h"
#include "net/reactor.h"
#include "server/registry_router.h"
#include "server/wire.h"
#include "tests/support/protocol_conformance.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/string_util.h"

namespace rankhow {
namespace {

EpsilonConfig TestEps() {
  EpsilonConfig eps;
  eps.tie_eps = 5e-7;
  eps.eps1 = 1e-6;
  eps.eps2 = 0.0;
  return eps;
}

Ranking MustCreate(std::vector<int> positions) {
  auto r = Ranking::Create(std::move(positions));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *std::move(r);
}

Dataset RandomDataset(Rng& rng, int n, int m) {
  std::vector<std::string> names;
  for (int a = 0; a < m; ++a) names.push_back("A" + std::to_string(a));
  Dataset d(names, n);
  for (int t = 0; t < n; ++t) {
    for (int a = 0; a < m; ++a) d.set_value(t, a, rng.NextUniform(0, 1));
  }
  return d;
}

Ranking RandomRanking(Rng& rng, int n, int k) {
  std::vector<int> tuples(n);
  for (int t = 0; t < n; ++t) tuples[t] = t;
  rng.Shuffle(&tuples);
  std::vector<int> positions(n, kUnranked);
  for (int p = 0; p < k; ++p) positions[tuples[p]] = p + 1;
  return MustCreate(std::move(positions));
}

std::vector<std::string> TupleLabels(int n) {
  std::vector<std::string> labels;
  for (int t = 0; t < n; ++t) labels.push_back("t" + std::to_string(t));
  return labels;
}

RankHowOptions SpatialOptions() {
  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kSpatial;
  options.num_threads = 1;
  return options;
}

/// One in-process worker: the same router-backed reactor stack
/// `rankhow_cli --listen` runs, serving datasets d0/d1.
struct WorkerFixture {
  std::vector<Dataset> datasets;
  std::vector<Ranking> rankings;
  ServerMetrics metrics;
  std::unique_ptr<RegistryRouter> router;
  std::unique_ptr<ReactorServer> server;
  int port = 0;

  explicit WorkerFixture(uint64_t seed = 401, int n = 8, int k = 3) {
    Rng rng(seed);
    for (int i = 0; i < 2; ++i) {
      datasets.push_back(RandomDataset(rng, n, 3));
      rankings.push_back(RandomRanking(rng, n, k));
    }
    RouterOptions options;
    options.server.solver = SpatialOptions();
    options.server.num_workers = 2;
    router = std::make_unique<RegistryRouter>(options);
    for (int i = 0; i < 2; ++i) {
      const Dataset& data = datasets[i];
      const Ranking& given = rankings[i];
      EXPECT_TRUE(router
                      ->RegisterDataset(
                          "d" + std::to_string(i),
                          [data, given]()
                              -> Result<RegistryRouter::DatasetBundle> {
                            RegistryRouter::DatasetBundle bundle;
                            bundle.data = SharedDataset(Dataset(data));
                            bundle.given = Ranking(given);
                            bundle.labels = TupleLabels(data.num_tuples());
                            return bundle;
                          })
                      .ok());
    }
    ServeStreamOptions serve_options;
    serve_options.connection_scoped_clients = true;
    serve_options.metrics = &metrics;
    ReactorOptions reactor_options;
    reactor_options.metrics = &metrics;
    reactor_options.num_loops = 2;
    server = std::make_unique<ReactorServer>(
        MakeWireReactorCallbacks(router.get(), serve_options),
        reactor_options);
  }

  ~WorkerFixture() {
    if (server != nullptr) server->Stop();
  }

  Status StartTcp() {
    ListenAddress address;
    address.kind = ListenAddress::Kind::kTcp;
    address.host = "127.0.0.1";
    address.port = 0;
    Status started = server->Start(address);
    if (started.ok()) port = server->bound().port;
    return started;
  }

  std::string Spec() const { return "127.0.0.1:" + std::to_string(port); }
};

/// Coordinator over already-started workers, with test-speed health
/// settings. Stops on destruction.
struct CoordFixture {
  std::unique_ptr<CoordServer> coord;
  ListenAddress endpoint;

  Status Start(const std::string& workers_spec,
               const std::string& shard_map_spec,
               int dial_timeout_ms = 2000) {
    auto map = ShardMap::Parse(workers_spec, shard_map_spec);
    if (!map.ok()) return map.status();
    CoordOptions options;
    options.health.interval_ms = 100;
    options.health.timeout_ms = 1000;
    options.health.failure_threshold = 2;
    options.health.dial_timeout_ms = dial_timeout_ms;
    coord = std::make_unique<CoordServer>(*std::move(map), options);
    ListenAddress listen;
    listen.kind = ListenAddress::Kind::kTcp;
    listen.host = "127.0.0.1";
    listen.port = 0;
    Status started = coord->Start(listen);
    if (started.ok()) endpoint = coord->bound();
    return started;
  }

  ~CoordFixture() {
    if (coord != nullptr) coord->Stop();
  }
};

/// "... name=V ..." -> V, or -1 when absent/garbled.
long long ParseField(const std::string& text, const std::string& name) {
  const std::string needle = " " + name + "=";
  size_t at = text.find(needle);
  if (at == std::string::npos) {
    if (text.rfind(name + "=", 0) != 0) return -1;
    at = 0;
  } else {
    at += 1;
  }
  const size_t begin = text.find('=', at) + 1;
  const size_t end = text.find(' ', begin);
  auto value = ParseInt(
      text.substr(begin, end == std::string::npos ? end : end - begin));
  return value.ok() ? static_cast<long long>(*value) : -1;
}

/// A minimal stand-in worker: answers each text line with `reply(line)`
/// (an empty reply answers nothing), until stopped. The default reply is
/// a plausible `ok stats` line for every line, which is all the health
/// tests need. Restartable on the same port (SO_REUSEADDR), which is how
/// the up-transition is staged. With `reads` false it accepts
/// connections and never reads them: a wedged worker.
class FakeWorker {
 public:
  using Reply = std::function<std::string(const std::string& line)>;

  FakeWorker() = default;
  explicit FakeWorker(Reply reply, bool reads = true)
      : reply_(std::move(reply)), reads_(reads) {}
  ~FakeWorker() { Stop(); }

  bool Start(int port = 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    if (!reads_) {
      // Accepted sockets inherit it: a wedged worker's buffer fills fast.
      int rcvbuf = 4096;
      (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf));
    }
    sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sin.sin_port = htons(static_cast<uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
               sizeof(sin)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    socklen_t len = sizeof(sin);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
                      &len) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    port_ = ntohs(sin.sin_port);
    stopping_.store(false);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  void Stop() {
    stopping_.store(true);
    // Close the listener only after the accept thread, which reads
    // listen_fd_, has been joined.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : conns_) ::shutdown(fd, SHUT_RDWR);
      stop_cv_.notify_all();
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
    for (int fd : conns_) ::close(fd);
    conns_.clear();
  }

  int port() const { return port_; }

 private:
  void AcceptLoop() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      conns_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  void Serve(int fd) {
    if (!reads_) {
      std::unique_lock<std::mutex> lock(mu_);
      stop_cv_.wait(lock, [this] { return stopping_.load(); });
      return;
    }
    std::string buffer;
    char chunk[256];
    for (;;) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        std::string reply = reply_ ? reply_(line) : "ok stats fake=1";
        if (reply.empty()) continue;
        reply += '\n';
        if (::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) < 0) {
          return;
        }
      }
    }
  }

  Reply reply_;
  bool reads_ = true;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::condition_variable stop_cv_;
  std::vector<int> conns_;
  std::vector<std::thread> conn_threads_;
};

/// Polls `pred` until it holds or ~`deadline_ms` lapses.
bool WaitFor(const std::function<bool()>& pred, int deadline_ms = 15000) {
  for (int waited = 0; waited < deadline_ms; waited += 20) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

TEST(ShardMapTest, ParsesWorkersAndPins) {
  auto map = ShardMap::Parse("127.0.0.1:9001,127.0.0.1:9002",
                             "nba=127.0.0.1:9001,csr=127.0.0.1:9003");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  // Workers named only in the shard map join the worker list.
  ASSERT_EQ(map->workers().size(), 3u);
  EXPECT_EQ(map->workers()[2].spec, "127.0.0.1:9003");
  EXPECT_EQ(map->num_fixed_shards(), 2);
  EXPECT_EQ(map->PrimaryFor("nba"), 0);
  EXPECT_EQ(map->PrimaryFor("csr"), 2);
  EXPECT_EQ(map->PrimaryFor(""), 0) << "default dataset lives on worker 0";
  EXPECT_EQ(map->PrimaryFor("unassigned"), -1);

  EXPECT_FALSE(ShardMap::Parse("", "").ok()) << "no workers at all";
  EXPECT_FALSE(ShardMap::Parse("127.0.0.1:1,", "").ok());
  EXPECT_FALSE(ShardMap::Parse("", "nba=127.0.0.1:1,nba=127.0.0.1:2").ok())
      << "duplicate dataset pin";
  EXPECT_FALSE(ShardMap::Parse("", "nba").ok()) << "missing '='";
  EXPECT_FALSE(ShardMap::Parse("notaport", "").ok());
}

TEST(ShardMapTest, RoutingIsStickyAndFallsOverWithoutRebinding) {
  auto map = ShardMap::Parse("h:1,h:2,h:3", "pinned=h:2");
  ASSERT_TRUE(map.ok());
  std::vector<bool> alive = {true, true, true};
  auto is_alive = [&alive](int i) { return alive[static_cast<size_t>(i)]; };

  // Fresh datasets round-robin and stick.
  auto a = map->Route("a", is_alive);
  auto b = map->Route("b", is_alive);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b) << "round-robin assigned two datasets to one worker";
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto again = map->Route("a", is_alive);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *a) << "sticky assignment wandered";
  }
  // Pins always win.
  auto pinned = map->Route("pinned", is_alive);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(*pinned, 1);

  // A down primary falls over in list order WITHOUT rebinding: the
  // sticky/fixed assignment survives for when it comes back.
  alive[static_cast<size_t>(*a)] = false;
  auto failed_over = map->Route("a", is_alive);
  ASSERT_TRUE(failed_over.ok());
  EXPECT_NE(*failed_over, *a);
  EXPECT_EQ(map->PrimaryFor("a"), *a) << "fall-over rebound the primary";
  alive[static_cast<size_t>(*a)] = true;
  auto back = map->Route("a", is_alive);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *a) << "primary did not resume after recovery";

  // Nothing alive: a clean error, with the dataset named.
  alive = {false, false, false};
  auto none = map->Route("a", is_alive);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kIoError);
  EXPECT_NE(none.status().message().find("'a'"), std::string::npos)
      << none.status().ToString();
  // A fresh dataset with nothing alive must not get a sticky binding.
  EXPECT_FALSE(map->Route("fresh", is_alive).ok());
  EXPECT_EQ(map->PrimaryFor("fresh"), -1);
}

TEST(AggregateTest, SingleLineIsIdentity) {
  const std::string line =
      "registries=2 clients=3 writes_queued_peak=640 solve.p99_us=1200 "
      "journal_degraded=0 label=text";
  EXPECT_EQ(AggregateFieldLines({line}), line);
}

TEST(AggregateTest, SumsCountersAndMaxMergesGauges) {
  const std::vector<std::string> lines = {
      "clients=2 commands=10 writes_queued_peak=100 solve.p99_us=50 "
      "journal_degraded=0 cache_degraded=1 name=first",
      "clients=3 commands=4 writes_queued_peak=700 solve.p99_us=20 "
      "journal_degraded=1 cache_degraded=0 name=second extra=5"};
  EXPECT_EQ(AggregateFieldLines(lines),
            "clients=5 commands=14 writes_queued_peak=700 solve.p99_us=50 "
            "journal_degraded=1 cache_degraded=1 name=first extra=5");
}

TEST(CoordTest, RoutesByShardMapAndMatchesSerialReplay) {
  WorkerFixture w0(/*seed=*/401);
  WorkerFixture w1(/*seed=*/402);
  Status s0 = w0.StartTcp();
  Status s1 = w1.StartTcp();
  if (!s0.ok() || !s1.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable";
  }
  CoordFixture coord;
  // d0 pinned to worker 0, d1 to worker 1 — distinct datasets on the two
  // workers, so a misrouted open would produce a *different* optimum.
  Status started =
      coord.Start(w0.Spec() + "," + w1.Spec(),
                  "d0=" + w0.Spec() + ",d1=" + w1.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  const std::vector<std::string> script = {
      "solve", "min-weight A0 0.05", "max-weight A1 0.6", "drop min_A0"};
  WorkerFixture* workers[2] = {&w0, &w1};
  LineClient clients[2];
  for (int c = 0; c < 2; ++c) {
    Status connected = clients[c].Connect(coord.endpoint);
    ASSERT_TRUE(connected.ok()) << connected.ToString();
    std::string payload =
        "open c" + std::to_string(c) + " d" + std::to_string(c) + "\n";
    for (const std::string& line : script) {
      payload += "c" + std::to_string(c) + " " + line + "\n";
    }
    ASSERT_TRUE(clients[c].Send(payload));
  }

  for (int c = 0; c < 2; ++c) {
    const std::string name = "c" + std::to_string(c);
    auto ack = clients[c].ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok open " + name + " d" + std::to_string(c));

    // Serial ground truth over the dataset the pinned worker serves.
    WorkerFixture& worker = *workers[c];
    SolveSession replay(Dataset(worker.datasets[c]),
                        Ranking(worker.rankings[c]), SpatialOptions());
    auto parsed = ParseSessionScript(
        script[0] + "\n" + script[1] + "\n" + script[2] + "\n" + script[3]);
    ASSERT_TRUE(parsed.ok());
    std::vector<std::string> labels =
        TupleLabels(worker.datasets[c].num_tuples());
    for (size_t s = 0; s < parsed->size(); ++s) {
      auto want = ExecuteSessionCommand(&replay, (*parsed)[s], labels);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(want->result.proven_optimal);
      auto line = clients[c].ReadLine();
      ASSERT_TRUE(line.has_value()) << name << " step " << s;
      const std::string expect_prefix =
          "ok " + name + " line=" + std::to_string(s + 2) +
          " error=" + std::to_string(want->result.error) + " bound=";
      EXPECT_EQ(line->rfind(expect_prefix, 0), 0u)
          << name << " step " << s << ": got '" << *line
          << "', want prefix '" << expect_prefix
          << "' (coordinator result differs from serial replay)";
      EXPECT_NE(line->find("proven=yes"), std::string::npos) << *line;
    }
  }

  // Each worker owns exactly its pinned session: ask them directly.
  for (int w = 0; w < 2; ++w) {
    LineClient direct;
    ASSERT_TRUE(direct.ConnectTcp("127.0.0.1", workers[w]->port));
    ASSERT_TRUE(direct.SendLine("stats"));
    auto stats = direct.ReadLine();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(ParseField(*stats, "clients"), 1)
        << "worker " << w << ": " << *stats
        << " (shard map routed a session to the wrong worker)";
  }

  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(clients[c].SendLine("quit"));
    auto quit = clients[c].ReadLine();
    ASSERT_TRUE(quit.has_value());
    EXPECT_EQ(*quit, "ok quit");
  }
  EXPECT_EQ(coord.coord->counters().sessions_opened, 2);
  EXPECT_EQ(coord.coord->counters().commands_proxied, 8);
}

TEST(CoordTest, HealthMarksWorkersDownThenUpAgain) {
  FakeWorker fake;
  ASSERT_TRUE(fake.Start());
  const int port = fake.port();

  std::vector<WorkerSpec> specs(1);
  specs[0].spec = "127.0.0.1:" + std::to_string(port);
  auto address = ParseListenSpec(specs[0].spec);
  ASSERT_TRUE(address.ok());
  specs[0].address = *address;

  HealthOptions options;
  options.interval_ms = 50;
  options.timeout_ms = 1000;
  options.dial_timeout_ms = 500;
  options.failure_threshold = 2;
  WorkerSupervisor supervisor(std::move(specs), options);
  supervisor.Start();

  // Probes succeed: up, and stays up.
  ASSERT_TRUE(WaitFor([&] { return supervisor.counters().probes >= 2; }));
  EXPECT_TRUE(supervisor.IsAlive(0));
  EXPECT_EQ(supervisor.num_up(), 1);
  EXPECT_EQ(supervisor.counters().down_transitions, 0);

  // Kill the fake: consecutive failures cross the threshold -> down.
  fake.Stop();
  ASSERT_TRUE(WaitFor([&] { return !supervisor.IsAlive(0); }))
      << "worker never marked down after its port closed";
  EXPECT_EQ(supervisor.num_up(), 0);
  EXPECT_GE(supervisor.counters().down_transitions, 1);

  // Resurrect on the same port: one successful probe -> up.
  ASSERT_TRUE(fake.Start(port)) << "could not rebind fake worker port";
  ASSERT_TRUE(WaitFor([&] { return supervisor.IsAlive(0); }))
      << "worker never marked up after resurrection";
  EXPECT_GE(supervisor.counters().up_transitions, 1);

  supervisor.Stop();
  fake.Stop();
}

TEST(CoordTest, OpenAgainstUnreachableWorkerFailsCleanlyNotHangs) {
  // A port with provably nobody behind it: bind, learn, close.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in sin;
  std::memset(&sin, 0, sizeof(sin));
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)),
            0);
  socklen_t len = sizeof(sin);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&sin), &len),
            0);
  const int dead_port = ntohs(sin.sin_port);
  ::close(probe);

  CoordFixture coord;
  Status started = coord.Start("127.0.0.1:" + std::to_string(dead_port), "",
                               /*dial_timeout_ms=*/500);
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  DialOptions dial;
  dial.recv_timeout_s = 30;  // the assertion: an answer well before this
  Status connected = client.Connect(coord.endpoint, dial);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  ASSERT_TRUE(client.SendLine("open c1 d0"));
  auto response = client.ReadLine();
  ASSERT_TRUE(response.has_value())
      << "coordinator hung or dropped the connection instead of answering";
  EXPECT_EQ(response->rfind("err c1 ", 0), 0u) << *response;
  // The session must not half-exist: the name is free to retry.
  ASSERT_TRUE(client.SendLine("open c1 d0"));
  auto retry = client.ReadLine();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->rfind("err c1 ", 0), 0u) << *retry;
  ASSERT_TRUE(client.SendLine("quit"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
}

TEST(CoordTest, ScatterGatherSumsWorkerStatsWithBreakdown) {
  WorkerFixture w0(/*seed=*/403);
  WorkerFixture w1(/*seed=*/404);
  Status s0 = w0.StartTcp();
  Status s1 = w1.StartTcp();
  if (!s0.ok() || !s1.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable";
  }
  CoordFixture coord;
  Status started =
      coord.Start(w0.Spec() + "," + w1.Spec(),
                  "d0=" + w0.Spec() + ",d1=" + w1.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  Status connected = client.Connect(coord.endpoint);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  // One session on each worker, through one downstream connection.
  ASSERT_TRUE(client.SendLine("open a d0"));
  auto ack_a = client.ReadLine();
  ASSERT_TRUE(ack_a.has_value());
  EXPECT_EQ(*ack_a, "ok open a d0");
  ASSERT_TRUE(client.SendLine("open b d1"));
  auto ack_b = client.ReadLine();
  ASSERT_TRUE(ack_b.has_value());
  EXPECT_EQ(*ack_b, "ok open b d1");

  // Ground truth, straight from the workers.
  long long want_clients = 0;
  long long want_registries = 0;
  for (WorkerFixture* worker : {&w0, &w1}) {
    LineClient direct;
    ASSERT_TRUE(direct.ConnectTcp("127.0.0.1", worker->port));
    ASSERT_TRUE(direct.SendLine("stats"));
    auto stats = direct.ReadLine();
    ASSERT_TRUE(stats.has_value());
    want_clients += ParseField(*stats, "clients");
    want_registries += ParseField(*stats, "registries");
  }
  EXPECT_EQ(want_clients, 2);

  // The aggregated line: counters sum across the fleet, the coord_*
  // suffix and per-worker breakdown name every worker with its state.
  ASSERT_TRUE(client.SendLine("stats"));
  auto merged = client.ReadLine();
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->rfind("ok stats registries=", 0), 0u) << *merged;
  EXPECT_EQ(ParseField(*merged, "clients"), want_clients) << *merged;
  EXPECT_EQ(ParseField(*merged, "registries"), want_registries) << *merged;
  EXPECT_EQ(ParseField(*merged, "coord_workers"), 2) << *merged;
  EXPECT_EQ(ParseField(*merged, "coord_up"), 2) << *merged;
  EXPECT_EQ(ParseField(*merged, "coord_sessions"), 2) << *merged;
  EXPECT_NE(merged->find(" w0=" + w0.Spec() + ":up"), std::string::npos)
      << *merged;
  EXPECT_NE(merged->find(" w1=" + w1.Spec() + ":up"), std::string::npos)
      << *merged;

  // metrics scatter-gathers through the same path: the aggregate leads
  // with summed connection gauges and keeps the per-verb histograms.
  ASSERT_TRUE(client.SendLine("metrics"));
  auto metrics = client.ReadLine();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->rfind("ok metrics connections=", 0), 0u) << *metrics;
  EXPECT_NE(metrics->find(" stats.count="), std::string::npos) << *metrics;
  EXPECT_NE(metrics->find(" coord_workers=2"), std::string::npos)
      << *metrics;

  ASSERT_TRUE(client.SendLine("quit"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
}

TEST(CoordTest, ProtocolConformanceWalkPassesThroughTheCoordinator) {
  // The acceptance criterion for transparency: the byte-for-byte verb
  // walk that tests/net runs against a worker directly (the same fixture
  // code) passes against the worker behind the coordinator. Only
  // worker-side transport gauges are relaxed — the coordinator's health
  // probes show up in the worker's connection counts.
  WorkerFixture worker(/*seed=*/302);  // the net suite's walk seed
  Status started_worker = worker.StartTcp();
  if (!started_worker.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable";
  }
  CoordFixture coord;
  Status started = coord.Start(worker.Spec(), "");
  ASSERT_TRUE(started.ok()) << started.ToString();

  conformance::ConformanceOptions options;
  options.exact_transport_gauges = false;
  conformance::RunProtocolVerbWalk(coord.endpoint, options);
}

TEST(CoordTest, StalledReaderIsAbortClosedAndSiblingsKeepBeingServed) {
  // `deadline` is answered by the coordinator itself, so no worker is
  // ever dialed. One client pipelines ~400k of them and reads nothing:
  // the answers (14 bytes each) outgrow the 4 MiB connection buffer, and
  // the connection must be abort-closed rather than park the coordinator
  // in send() for good.
  auto map = ShardMap::Parse("127.0.0.1:1", "");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  CoordServer coord(*std::move(map), CoordOptions());
  ListenAddress listen;
  listen.kind = ListenAddress::Kind::kUnix;
  listen.path = testing::TempDir() + "rankhow_coord_stall.sock";
  Status started = coord.Start(listen);
  if (!started.ok()) {
    GTEST_SKIP() << "unix sockets unavailable: " << started.ToString();
  }

  constexpr int kLines = 400000;
  LineClient staller;
  DialOptions dial;
  dial.recv_timeout_s = 20;  // a read that waits this long saw no close
  ASSERT_TRUE(staller.Connect(coord.bound(), dial).ok());
  // A coordinator that stops reading must fail this test, not hang it.
  timeval send_timeout{10, 0};
  ASSERT_EQ(::setsockopt(staller.fd(), SOL_SOCKET, SO_SNDTIMEO,
                         &send_timeout, sizeof(send_timeout)),
            0);
  std::string flood;
  for (int i = 0; i < kLines; ++i) flood += "deadline 1\n";
  // The send fails partway once the coordinator abort-closes — the
  // expected outcome, so its result is deliberately ignored.
  (void)staller.Send(flood);

  // Drain what reached the socket: the close shows up as EOF or a reset,
  // never as the receive timeout.
  long long answers = 0;
  bool closed = false;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(staller.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      for (ssize_t i = 0; i < n; ++i) answers += chunk[i] == '\n';
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    closed = n == 0 || errno == ECONNRESET || errno == EPIPE;
    break;
  }
  EXPECT_TRUE(closed) << "stalled reader was never closed (" << answers
                      << " answers read)";
  EXPECT_LT(answers, kLines) << "every answer arrived: nothing was shed";

  LineClient sibling;
  ASSERT_TRUE(sibling.Connect(coord.bound()).ok());
  ASSERT_TRUE(sibling.SendLine("deadline 5"));
  auto ack = sibling.ReadLine();
  ASSERT_TRUE(ack.has_value()) << "sibling not served after the abort";
  EXPECT_EQ(*ack, "ok deadline 5");
  coord.Stop();
}

TEST(CoordTest, StalledWorkerCostsNoEventLoop) {
  // A worker that accepts and never reads. One client pipelines 8 MiB of
  // commands at it, far past what the upstream socket holds: forwarding
  // must queue (and finally break the connection) rather than block the
  // event loop in send(), so every sibling connection is still answered.
  // Eight siblings cover every loop, the flooder's included. The worker
  // is declared last so it stops first: a loop stuck in send() then
  // fails the assertions instead of hanging the teardown.
  CoordFixture coord;
  FakeWorker stalled(FakeWorker::Reply(), /*reads=*/false);
  ASSERT_TRUE(stalled.Start());
  Status started =
      coord.Start("127.0.0.1:" + std::to_string(stalled.port()), "");
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient flooder;
  ASSERT_TRUE(flooder.Connect(coord.endpoint).ok());
  // A coordinator that stops reading must fail this test, not hang it.
  timeval send_timeout{10, 0};
  ASSERT_EQ(::setsockopt(flooder.fd(), SOL_SOCKET, SO_SNDTIMEO,
                         &send_timeout, sizeof(send_timeout)),
            0);
  ASSERT_TRUE(flooder.SendLine("open c1 d0"));
  // The comment pads each line to 4 KiB; the coordinator forwards lines
  // verbatim, so the worker would receive all of it.
  const std::string line = "c1 solve #" + std::string(4096, 'x') + "\n";
  std::string flood;
  for (int i = 0; i < 2048; ++i) flood += line;
  (void)flooder.Send(flood);

  for (int i = 0; i < 8; ++i) {
    LineClient sibling;
    DialOptions dial;
    dial.recv_timeout_s = 5;
    ASSERT_TRUE(sibling.Connect(coord.endpoint, dial).ok());
    ASSERT_TRUE(sibling.SendLine("deadline 5"));
    auto ack = sibling.ReadLine();
    ASSERT_TRUE(ack.has_value()) << "sibling " << i << " not served";
    EXPECT_EQ(*ack, "ok deadline 5");
  }
}

TEST(CoordTest, QuitDuringSlowSolveDoesNotDelayAnotherConnection) {
  // A worker that acks opens and never finishes a solve (nor the close
  // that waits for it). Client A's quit must then wait for its drain
  // without holding anything client B needs: B's open is answered
  // promptly, and A's `ok quit` follows once the worker goes away.
  CoordFixture coord;
  std::atomic<bool> close_seen{false};
  FakeWorker slow([&close_seen](const std::string& line) -> std::string {
    if (line == "stats") return "ok stats fake=1";
    if (StartsWith(line, "open ")) {
      return "ok open " + Split(line, ' ')[1] + " d0";
    }
    if (StartsWith(line, "close ")) close_seen.store(true);
    return "";  // a solve, and the close queued behind it
  });
  ASSERT_TRUE(slow.Start());
  Status started =
      coord.Start("127.0.0.1:" + std::to_string(slow.port()), "");
  ASSERT_TRUE(started.ok()) << started.ToString();
  DialOptions dial;
  dial.recv_timeout_s = 5;

  LineClient a;
  ASSERT_TRUE(a.Connect(coord.endpoint, dial).ok());
  ASSERT_TRUE(a.SendLine("open a d0"));
  auto opened = a.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open a d0");
  ASSERT_TRUE(a.SendLine("a solve"));
  ASSERT_TRUE(a.SendLine("quit"));
  // A's drain has begun once its close reached the worker.
  ASSERT_TRUE(WaitFor([&close_seen] { return close_seen.load(); }));

  LineClient b;
  ASSERT_TRUE(b.Connect(coord.endpoint, dial).ok());
  ASSERT_TRUE(b.SendLine("open b d0"));
  auto b_opened = b.ReadLine();
  ASSERT_TRUE(b_opened.has_value()) << "B's open waited behind A's quit";
  EXPECT_EQ(*b_opened, "ok open b d0");

  // The worker's death answers what it owed, which ends A's drain.
  slow.Stop();
  std::optional<std::string> last;
  while (auto response = a.ReadLine()) last = response;
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, "ok quit");
}

}  // namespace
}  // namespace rankhow
