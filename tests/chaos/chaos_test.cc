// Chaos suite (the fault-injection half of the durability PR; see
// docs/OPERATIONS.md "Durability & recovery"):
//
//  * in-process crash recovery: a router torn down without closing its
//    sessions is rebuilt by RecoverFromJournals(), the recovered session
//    is adopted by the next `open`, and its solves prove the exact optima
//    a serial uninterrupted replay proves;
//  * journal corruption between runs (garbage lines, torn tails) degrades
//    recovery gracefully — counted, never fatal;
//  * a journaled open whose dataset changed under the journal (fingerprint
//    mismatch) drops the session instead of replaying against wrong data;
//  * injected fsync/rotate failures run the bounded-backoff and
//    journal-off degradation paths for real;
//  * overload shedding answers kResourceExhausted with the documented
//    RETRY-AFTER hint once the pending-command watermark is hit;
//  * the `deadline` verb round-trips over the wire; EOF-without-quit is
//    counted as an aborted close, `quit` as a graceful one;
//  * and the headline acceptance test: a real `rankhow_cli --listen`
//    server SIGKILLed mid-session (externally, and via the
//    crash-after-journal-append injection point inside the journal append
//    itself) recovers on restart and reports proven optima identical to a
//    serial replay of the journaled edits.
//
// Subprocess tests (names matching *Kill*/*Crash*) locate the CLI binary
// through the RANKHOW_CLI environment variable (CMake points it at the
// built rankhow_cli) and skip when it is absent. The `chaos_tests_nokill`
// ctest entry filters them out for the tsan run — SIGKILLing children
// under tsan is noise, not signal.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "core/solve_session.h"
#include "server/journal.h"
#include "server/registry_router.h"
#include "server/session_registry.h"
#include "server/wire.h"
#include "util/csv.h"
#include "util/fault.h"
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

SessionCommand Cmd(SessionCommand::Kind kind, std::string arg = "",
                   double value = 0, int line = 0) {
  SessionCommand cmd;
  cmd.kind = kind;
  cmd.arg = std::move(arg);
  cmd.value = value;
  cmd.line = line;
  return cmd;
}

/// A self-deleting scratch directory (one level of subdirectories, which
/// is all the journal-dir layout needs).
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/rankhow_chaos_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~TempDir() { RemoveDir(path, /*depth=*/0); }
  std::string File(const std::string& name) const {
    return path + "/" + name;
  }
  std::string Subdir(const std::string& name) const {
    const std::string dir = path + "/" + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
  }

 private:
  static void RemoveDir(const std::string& dir, int depth) {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return;
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string full = dir + "/" + name;
      struct stat st;
      if (::lstat(full.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        if (depth < 4) RemoveDir(full, depth + 1);
      } else {
        ::unlink(full.c_str());
      }
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
  }
};

/// Disarms every injection point on entry and exit, so a failed assertion
/// mid-test can never leak an armed fault into the next case.
struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Reset(); }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

struct Slot {
  Result<SessionStepOutcome> outcome = Status::Internal("unset");
};

void SubmitAndWait(RegistryRouter* router, const std::string& client,
                   SessionCommand cmd, Slot* slot) {
  ASSERT_TRUE(router
                  ->Submit(client, std::move(cmd),
                           [slot](const std::string&,
                                  const Result<SessionStepOutcome>& out) {
                             slot->outcome = out;
                           })
                  .ok());
  router->Drain();
}

/// The recovery scenario every in-process test shares: one dataset, one
/// journaled client, a scripted edit prefix.
struct RecoveryRig {
  Dataset data;
  Ranking given;
  RouterOptions options;

  explicit RecoveryRig(const std::string& journal_dir, uint64_t seed = 901) {
    Rng rng(seed);
    data = RandomDataset(rng, 10, 3);
    given = RandomRanking(rng, 10, 4);
    options.server.solver = SpatialOptions();
    options.server.num_workers = 2;
    options.journal_dir = journal_dir;
    options.journal.fsync_every = 1;
  }

  void Register(RegistryRouter* router) const {
    const Dataset& d = data;
    const Ranking& g = given;
    ASSERT_TRUE(router
                    ->RegisterDataset(
                        "d0",
                        [d, g]() -> Result<RegistryRouter::DatasetBundle> {
                          RegistryRouter::DatasetBundle bundle;
                          bundle.data = SharedDataset(Dataset(d));
                          bundle.given = Ranking(g);
                          bundle.labels = TupleLabels(d.num_tuples());
                          return bundle;
                        })
                    .ok());
  }

  std::vector<SessionCommand> Edits() const {
    return {Cmd(SessionCommand::Kind::kMinWeight, "A0", 0.05),
            Cmd(SessionCommand::Kind::kMaxWeight, "A1", 0.6),
            Cmd(SessionCommand::Kind::kOrder, "t0>t1")};
  }

  /// Serial ground truth: the same edits through ExecuteSessionCommand on
  /// a private uninterrupted session, then a solve.
  long SerialReplayError() const {
    SolveSession replay(Dataset(data), Ranking(given), SpatialOptions());
    const std::vector<std::string> labels = TupleLabels(data.num_tuples());
    for (const SessionCommand& cmd : Edits()) {
      auto out = ExecuteSessionCommand(&replay, cmd, labels);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
    }
    auto solved =
        ExecuteSessionCommand(&replay, Cmd(SessionCommand::Kind::kSolve),
                              labels);
    EXPECT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_TRUE(solved->result.proven_optimal);
    return solved->result.error;
  }
};

TEST(ChaosRecoveryTest, InProcessRecoveryMatchesSerialReplay) {
  TempDir dir;
  FaultGuard guard;
  RecoveryRig rig(dir.path);

  long live_error = 0;
  {
    // Run 1: open, edit, solve — then tear the router down WITHOUT closing
    // the session (a crash does not say goodbye). The journal keeps the
    // session live.
    RegistryRouter router(rig.options);
    rig.Register(&router);
    ASSERT_TRUE(router.Open("alice", "d0").ok());
    for (const SessionCommand& cmd : rig.Edits()) {
      Slot slot;
      SubmitAndWait(&router, "alice", cmd, &slot);
      ASSERT_TRUE(slot.outcome.ok()) << slot.outcome.status().ToString();
    }
    Slot solve;
    SubmitAndWait(&router, "alice", Cmd(SessionCommand::Kind::kSolve),
                  &solve);
    ASSERT_TRUE(solve.outcome.ok()) << solve.outcome.status().ToString();
    ASSERT_TRUE(solve.outcome->result.proven_optimal);
    live_error = solve.outcome->result.error;
  }

  // Run 2: a fresh router over the same catalog and journal directory.
  RegistryRouter router(rig.options);
  rig.Register(&router);
  auto report = router.RecoverFromJournals();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->datasets, 1);
  EXPECT_EQ(report->sessions, 1);
  // open + 3 edit cmds; solves are not edits and are never journaled.
  EXPECT_EQ(report->replayed, 4);
  EXPECT_EQ(report->truncated, 0);
  EXPECT_EQ(report->skipped, 0);
  EXPECT_EQ(report->fingerprint_mismatches, 0);
  EXPECT_EQ(report->replay_failures, 0);

  // The next open ADOPTS the recovered session rather than kAlreadyExists.
  bool adopted = false;
  ASSERT_TRUE(router.Open("alice", "d0", &adopted).ok());
  EXPECT_TRUE(adopted);

  // The recovered constraint state proves exactly what the uninterrupted
  // run proved — and what a serial replay proves.
  Slot solve;
  SubmitAndWait(&router, "alice", Cmd(SessionCommand::Kind::kSolve), &solve);
  ASSERT_TRUE(solve.outcome.ok()) << solve.outcome.status().ToString();
  EXPECT_TRUE(solve.outcome->result.proven_optimal);
  EXPECT_EQ(solve.outcome->result.error, live_error);
  EXPECT_EQ(solve.outcome->result.error, rig.SerialReplayError());

  // The report is also surfaced through Stats() for the wire layer.
  RegistryRouterStats stats = router.Stats();
  EXPECT_EQ(stats.recovered.sessions, 1);
  EXPECT_EQ(stats.recovered.replayed, 4);

  // Recording was re-enabled once recovery finished: a fresh edit after
  // adoption journals again (journal_records counts THIS process's
  // appends — replayed history belongs to the dead one).
  EXPECT_EQ(stats.journal_records, 0);
  Slot edit;
  SubmitAndWait(&router, "alice",
                Cmd(SessionCommand::Kind::kMinWeight, "A2", 0.01), &edit);
  ASSERT_TRUE(edit.outcome.ok()) << edit.outcome.status().ToString();
  EXPECT_EQ(router.Stats().journal_records, 1);
}

TEST(ChaosRecoveryTest, CorruptAndTornJournalLinesAreCountedNotFatal) {
  TempDir dir;
  FaultGuard guard;
  RecoveryRig rig(dir.path, /*seed=*/902);

  {
    RegistryRouter router(rig.options);
    rig.Register(&router);
    ASSERT_TRUE(router.Open("alice", "d0").ok());
    for (const SessionCommand& cmd : rig.Edits()) {
      Slot slot;
      SubmitAndWait(&router, "alice", cmd, &slot);
      ASSERT_TRUE(slot.outcome.ok()) << slot.outcome.status().ToString();
    }
  }

  // Vandalize the journal the way real crashes and disk corruption do: a
  // garbage line in the middle of history, then a torn final append.
  {
    std::ofstream out(dir.File("d0.journal"),
                      std::ios::binary | std::ios::app);
    out << "not a journal record\n";
    out << "RHJ1 00000000 5 torn";  // no newline: a crash mid-write
  }

  RegistryRouter router(rig.options);
  rig.Register(&router);
  auto report = router.RecoverFromJournals();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sessions, 1);
  EXPECT_EQ(report->replayed, 4);
  EXPECT_EQ(report->skipped, 1);
  EXPECT_EQ(report->truncated, 1);

  bool adopted = false;
  ASSERT_TRUE(router.Open("alice", "d0", &adopted).ok());
  EXPECT_TRUE(adopted);
  Slot solve;
  SubmitAndWait(&router, "alice", Cmd(SessionCommand::Kind::kSolve), &solve);
  ASSERT_TRUE(solve.outcome.ok()) << solve.outcome.status().ToString();
  EXPECT_TRUE(solve.outcome->result.proven_optimal);
  EXPECT_EQ(solve.outcome->result.error, rig.SerialReplayError());
}

TEST(ChaosRecoveryTest, FingerprintMismatchDropsTheSessionAndFreesTheName) {
  TempDir dir;
  FaultGuard guard;
  RecoveryRig rig(dir.path, /*seed=*/903);

  {
    RegistryRouter router(rig.options);
    rig.Register(&router);
    ASSERT_TRUE(router.Open("alice", "d0").ok());
    Slot slot;
    SubmitAndWait(&router, "alice",
                  Cmd(SessionCommand::Kind::kMinWeight, "A0", 0.05), &slot);
    ASSERT_TRUE(slot.outcome.ok()) << slot.outcome.status().ToString();
  }

  // The CSV changed under the journal: same id, different values. The
  // journaled session must NOT replay against the wrong data.
  rig.data.set_value(0, 0, rig.data.value(0, 0) + 0.25);
  RegistryRouter router(rig.options);
  rig.Register(&router);
  auto report = router.RecoverFromJournals();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sessions, 0);
  EXPECT_EQ(report->fingerprint_mismatches, 1);

  // The name is free: a fresh open succeeds and is NOT an adoption.
  bool adopted = true;
  ASSERT_TRUE(router.Open("alice", "d0", &adopted).ok());
  EXPECT_FALSE(adopted);
}

TEST(ChaosJournalTest, FsyncFailureBacksOffThenDegradesToJournalOffMode) {
  TempDir dir;
  FaultGuard guard;
  JournalOptions options;
  options.fsync_every = 1;
  options.max_retries = 2;  // 1ms + 2ms of backoff, then give up
  auto journal =
      SessionJournal::Open(dir.File("d.journal"), "d", 1, options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  FaultInjector::Global().Arm(faults::kJournalFsyncFail, 1, /*count=*/-1);
  (*journal)->LogOpen("alice");

  JournalStats stats = (*journal)->Stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.fsync_failures, options.max_retries + 1);
  EXPECT_EQ(stats.records_appended, 1);

  // Journal-off mode: the server keeps serving, appends are dropped.
  (*journal)->LogCommand("alice",
                         Cmd(SessionCommand::Kind::kMinWeight, "A0", 0.1));
  EXPECT_EQ((*journal)->Stats().records_appended, 1);

  // The record written before degradation is still on disk (written, just
  // never fsynced) and reads back.
  FaultInjector::Global().Reset();
  auto readback = SessionJournal::Read(dir.File("d.journal"));
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->replayed, 1);
}

TEST(ChaosJournalTest, RotateFailureKeepsAppendingOnTheActiveSegment) {
  TempDir dir;
  FaultGuard guard;
  JournalOptions options;
  options.fsync_every = 1;
  options.rotate_bytes = 64;  // every record crosses the threshold
  auto journal =
      SessionJournal::Open(dir.File("d.journal"), "d", 1, options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  // The first rotation attempt fails (rename error); rotation is an
  // optimization, so the journal must keep appending, not degrade.
  FaultInjector::Global().Arm(faults::kJournalRotateFail, 1, /*count=*/1);
  for (int i = 0; i < 4; ++i) {
    (*journal)->LogCommand(
        "alice", Cmd(SessionCommand::Kind::kMinWeight,
                     "A" + std::to_string(i), 0.1 * (i + 1)));
  }
  JournalStats stats = (*journal)->Stats();
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.records_appended, 4);
  EXPECT_GE(stats.rotations, 1);  // later crossings rotated fine

  // Every record survives, across the sealed segment(s) and active file.
  journal->reset();
  auto readback = SessionJournal::Read(dir.File("d.journal"));
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->replayed, 4);
  EXPECT_EQ(readback->truncated, 0);
  EXPECT_EQ(readback->skipped, 0);
}

TEST(ChaosShedTest, OverloadShedsNewWorkWithARetryAfterHint) {
  TempDir dir;
  FaultGuard guard;
  RecoveryRig rig(dir.path, /*seed=*/904);
  rig.options.journal_dir.clear();  // shedding is orthogonal to durability
  rig.options.server.max_pending_commands = 1;

  RegistryRouter router(rig.options);
  rig.Register(&router);
  ASSERT_TRUE(router.Open("alice", "d0").ok());

  // A 1ms strand delay widens the dequeue->execute window so the second
  // submit deterministically lands while the first is still pending.
  FaultInjector::Global().Arm(faults::kStrandDelayMs, 1, /*count=*/-1);

  Status shed;
  for (int attempt = 0; attempt < 50 && shed.ok(); ++attempt) {
    auto sink = [](const std::string&, const Result<SessionStepOutcome>&) {};
    Status first =
        router.Submit("alice", Cmd(SessionCommand::Kind::kSolve), sink);
    if (!first.ok()) {
      shed = first;
      break;
    }
    Status second =
        router.Submit("alice", Cmd(SessionCommand::Kind::kSolve), sink);
    if (!second.ok()) {
      shed = second;
      break;
    }
    router.Drain();
  }
  ASSERT_FALSE(shed.ok()) << "watermark 1 never shed a back-to-back submit";
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted) << shed.ToString();
  EXPECT_NE(shed.message().find("RETRY-AFTER="), std::string::npos)
      << shed.ToString();
  router.Drain();
  EXPECT_GE(router.Stats().commands_shed, 1);

  // Accepted work always ran to completion — shedding refused work at the
  // door, it never cancelled anything in flight.
  EXPECT_EQ(router.Stats().pending_commands, 0);
}

TEST(ChaosWireTest, DeadlineVerbRoundTripsAndRejectsBadValues) {
  TempDir dir;
  FaultGuard guard;
  RecoveryRig rig(dir.path, /*seed=*/905);
  rig.options.journal_dir.clear();

  RegistryRouter router(rig.options);
  rig.Register(&router);

  std::istringstream in(
      "open a d0\n"
      "deadline 10000\n"
      "a solve\n"
      "deadline 0\n"
      "deadline\n"
      "deadline -5\n"
      "deadline soon\n"
      "quit\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStream(&router, in, out).ok());

  // Verb acks are synchronous but command completions arrive from strand
  // threads, so the solve ack may interleave anywhere after its submit —
  // assert on the response SET, not on positions.
  std::vector<std::string> lines = Split(out.str(), '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  ASSERT_EQ(lines.size(), 8u) << out.str();
  EXPECT_EQ(lines[0], "ok open a d0");
  int solves = 0, wire_errors = 0, deadline_acks = 0, quits = 0;
  for (const std::string& line : lines) {
    if (line.rfind("ok a line=3 error=", 0) == 0) {
      ++solves;
      // A 10s budget is no budget at all for this instance: still proven.
      EXPECT_NE(line.find("proven=yes"), std::string::npos) << line;
    } else if (line.rfind("err - wire line", 0) == 0) {
      ++wire_errors;
    } else if (line == "ok deadline 10000" || line == "ok deadline 0") {
      ++deadline_acks;
    } else if (line == "ok quit") {
      ++quits;
    }
  }
  EXPECT_EQ(solves, 1) << out.str();
  EXPECT_EQ(deadline_acks, 2) << out.str();
  EXPECT_EQ(wire_errors, 3) << out.str();
  EXPECT_EQ(quits, 1) << out.str();
}

TEST(ChaosWireTest, EofWithoutQuitCountsAnAbortedClose) {
  TempDir dir;
  FaultGuard guard;
  RecoveryRig rig(dir.path, /*seed=*/906);
  rig.options.journal_dir.clear();

  RegistryRouter router(rig.options);
  rig.Register(&router);
  ServeStreamOptions serve_options;
  serve_options.connection_scoped_clients = true;

  {
    // A connection that vanishes mid-session: EOF with no quit.
    std::istringstream in("open a d0\na min-weight A0 0.05\n");
    std::ostringstream out;
    ASSERT_TRUE(ServeStream(&router, in, out, serve_options).ok());
  }
  RegistryRouterStats stats = router.Stats();
  EXPECT_EQ(stats.closes_aborted, 1);
  EXPECT_EQ(stats.closes_graceful, 0);

  {
    // A well-mannered connection: quit closes its clients gracefully.
    std::istringstream in("open b d0\nquit\n");
    std::ostringstream out;
    ASSERT_TRUE(ServeStream(&router, in, out, serve_options).ok());
  }
  stats = router.Stats();
  EXPECT_EQ(stats.closes_aborted, 1);
  EXPECT_EQ(stats.closes_graceful, 1);
}

// ---------------------------------------------------------------------------
// Subprocess kill tests: a real `rankhow_cli --listen` server over loopback
// TCP, killed for real. Filtered out of the tsan run by chaos_tests_nokill.
// ---------------------------------------------------------------------------

/// A blocking line-oriented test client over one TCP socket, with a
/// receive timeout so a dead server can never hang the suite.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool ConnectTcp(const std::string& host, int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) return false;
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
      return false;
    }
    timeval tv;
    tv.tv_sec = 60;  // generous: solves on a loaded 1-core box are slow
    tv.tv_usec = 0;
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
  }

  bool Send(const std::string& text) {
    const char* p = text.data();
    size_t left = text.size();
    while (left > 0) {
      ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n <= 0) return false;
      p += n;
      left -= static_cast<size_t>(n);
    }
    return true;
  }

  /// One response line (without the newline); nullopt on EOF/timeout.
  std::optional<std::string> ReadLine() {
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[1024];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The CLI binary under test. CMake exports RANKHOW_CLI pointing at the
/// built tool; absent (manual gtest run outside the build tree), skip.
std::string CliBinaryOrEmpty() {
  const char* env = ::getenv("RANKHOW_CLI");
  std::string path = env != nullptr ? env : "./rankhow_cli";
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || (st.st_mode & S_IXUSR) == 0) {
    return "";
  }
  return path;
}

/// A spawned `rankhow_cli --listen=127.0.0.1:0` server process. stderr
/// (where the CLI reports its bound port and recovery stats) goes to a
/// file the test polls and asserts on.
struct ServerProcess {
  pid_t pid = -1;
  std::string stderr_path;

  /// Fork/execs the server; `faults_env` arms RANKHOW_FAULTS in the child
  /// (empty = explicitly unset, so injection never leaks across spawns).
  static ServerProcess Spawn(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& stderr_path,
                             const std::string& faults_env) {
    ServerProcess proc;
    proc.stderr_path = stderr_path;
    pid_t pid = ::fork();
    if (pid == 0) {
      const int err = ::open(stderr_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err >= 0) {
        ::dup2(err, 2);
        ::dup2(err, 1);
        ::close(err);
      }
      if (faults_env.empty()) {
        ::unsetenv("RANKHOW_FAULTS");
      } else {
        ::setenv("RANKHOW_FAULTS", faults_env.c_str(), 1);
      }
      std::vector<char*> argv;
      std::vector<std::string> storage = args;
      storage.insert(storage.begin(), binary);
      for (std::string& a : storage) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    proc.pid = pid;
    return proc;
  }

  /// Polls stderr for the "listening on HOST:PORT" banner; -1 on timeout
  /// or child death.
  int WaitForPort(int timeout_ms = 20000) {
    for (int waited = 0; waited < timeout_ms; waited += 50) {
      const std::string text = ReadWholeFile(stderr_path);
      const size_t at = text.find("listening on ");
      if (at != std::string::npos) {
        const size_t spec_begin = at + std::strlen("listening on ");
        const size_t spec_end = text.find(' ', spec_begin);
        if (spec_end == std::string::npos) continue;  // banner mid-write
        const std::string spec =
            text.substr(spec_begin, spec_end - spec_begin);
        const size_t colon = spec.rfind(':');
        if (colon == std::string::npos) return -1;
        auto port = ParseInt(spec.substr(colon + 1));
        return port.ok() ? static_cast<int>(*port) : -1;
      }
      int status = 0;
      if (pid > 0 && ::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;  // child died before listening (exec failed, bad flags)
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return -1;
  }

  /// SIGKILL + reap: the no-goodbyes death the journal must survive.
  void Kill() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    Reap();
  }

  /// Blocks until the child is gone; returns its wait status (0 if
  /// already reaped).
  int Reap() {
    if (pid <= 0) return 0;
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return status;
  }

  ~ServerProcess() { Kill(); }
};

/// The kill tests' fixture: a ranked CSV on disk, the matching serial
/// ground truth computed in-process, and the server argument list.
struct KillRig {
  TempDir dir;
  std::string csv_path;
  std::string journal_dir;
  std::string warm_dir;
  CliDataSpec spec;
  CliProblem problem;
  bool ok = false;

  KillRig() {
    csv_path = dir.File("players.csv");
    journal_dir = dir.Subdir("journal");
    warm_dir = dir.Subdir("warmcache");
    std::ofstream csv(csv_path);
    // A fixed instance, not a random one: the suite's edits must stay
    // provable in milliseconds (random 10x3 tables occasionally produce
    // pathological spatial searches that blow the solve budget).
    csv << "id,A0,A1,A2\n"
           "t0,0.701572,0.053770,0.153893\n"
           "t1,0.284070,0.472286,0.695374\n"
           "t2,0.170754,0.476345,0.164456\n"
           "t3,0.708557,0.220187,0.037273\n"
           "t4,0.415417,0.960246,0.512896\n"
           "t5,0.076767,0.612669,0.529445\n"
           "t6,0.231850,0.510558,0.282811\n"
           "t7,0.676359,0.861859,0.629128\n"
           "t8,0.822337,0.790560,0.102615\n"
           "t9,0.205545,0.977423,0.952639\n";
    csv.close();

    spec.id_column = "id";
    spec.k = 4;  // file order ranks the first four rows
    auto table = ReadCsvFile(csv_path);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    if (!table.ok()) return;
    auto assembled = AssembleCliProblem(*table, spec);
    EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
    if (!assembled.ok()) return;
    problem = *std::move(assembled);
    ok = true;
  }

  /// Server flags matching ServerSolverOptions() below (the tight test
  /// epsilons keep these 10-tuple solves proven in milliseconds).
  /// `warm_cache` adds --warm-cache-dir for the restart-warm tests.
  std::vector<std::string> ServerArgs(bool warm_cache = false) const {
    std::vector<std::string> args = {
        "--listen=127.0.0.1:0", "--data=" + csv_path,
        "--journal-dir=" + journal_dir, "--journal-fsync=1",
        "--strategy=spatial",   "--threads=1",
        "--id=id",              "--k=4",
        "--eps=5e-7",           "--eps1=1e-6",
        "--eps2=0"};
    if (warm_cache) args.push_back("--warm-cache-dir=" + warm_dir);
    return args;
  }

  std::string CacheFile() const { return warm_dir + "/warm.cache"; }

  /// The solver configuration the flags above give the server.
  RankHowOptions ServerSolverOptions() const {
    RankHowOptions options;
    options.eps = TestEps();
    options.strategy = SolveStrategy::kSpatial;
    options.num_threads = 1;
    options.time_limit_seconds = 60;
    return options;
  }

  /// Serial uninterrupted replay of `edit_lines` + solve over the same
  /// CSV with the same solver configuration: the proven error the
  /// recovered server must reproduce exactly.
  long SerialReplayError(const std::vector<std::string>& edit_lines) const {
    SolveSession replay(Dataset(problem.data), Ranking(problem.given),
                        ServerSolverOptions());
    std::string script;
    for (const std::string& line : edit_lines) script += line + "\n";
    script += "solve\n";
    auto parsed = ParseSessionScript(script);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    long error = -1;
    for (const SessionCommand& cmd : *parsed) {
      auto out = ExecuteSessionCommand(&replay, cmd, problem.labels);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_TRUE(out->result.proven_optimal);
      error = out->result.error;
    }
    return error;
  }
};

/// "... name=V ..." -> V, or -1 when the field is absent/garbled. Works on
/// solve acks ("error=", "nodes=") and `stats` lines ("cache_hits=") alike.
long ParseLongField(const std::string& text, const std::string& name) {
  const std::string needle = " " + name + "=";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  const size_t begin = at + needle.size();
  const size_t end = text.find(' ', begin);
  auto value = ParseInt(
      text.substr(begin, end == std::string::npos ? end : end - begin));
  return value.ok() ? static_cast<long>(*value) : -1;
}

/// "ok alice line=N error=E bound=... proven=yes ..." -> E, or -1.
long ParseErrorField(const std::string& ack) {
  return ParseLongField(ack, "error");
}

TEST(ChaosKillTest, SigkilledServerRecoversIdenticalProvenOptima) {
  const std::string binary = CliBinaryOrEmpty();
  if (binary.empty()) {
    GTEST_SKIP() << "rankhow_cli not found (set RANKHOW_CLI)";
  }
  KillRig rig;
  ASSERT_TRUE(rig.ok);

  const std::vector<std::string> edits = {"min-weight A0 0.05",
                                          "max-weight A1 0.6",
                                          "order t0>t1"};

  // Act 1: a live server takes three acked edits, then dies by SIGKILL.
  {
    ServerProcess server = ServerProcess::Spawn(
        binary, rig.ServerArgs(), rig.dir.File("server1.err"), "");
    const int port = server.WaitForPort();
    if (port < 0 && server.pid < 0) {
      GTEST_SKIP() << "server failed to start: "
                   << ReadWholeFile(server.stderr_path);
    }
    ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);

    WireClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
    ASSERT_TRUE(client.Send("open alice players\n"));
    auto ack = client.ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok open alice players");
    for (const std::string& edit : edits) {
      ASSERT_TRUE(client.Send("alice " + edit + "\n"));
      auto line = client.ReadLine();
      ASSERT_TRUE(line.has_value()) << edit << ": no ack";
      EXPECT_EQ(line->rfind("ok alice ", 0), 0u) << *line;
    }
    // Every edit above was acked, and --journal-fsync=1 synced each one
    // before its ack. SIGKILL: no destructors, no flushes, no goodbyes.
    server.Kill();
  }

  // Act 2: a fresh process over the same journal directory recovers the
  // session; the reconnecting client adopts it and proves the exact
  // optimum an uninterrupted serial replay proves.
  ServerProcess server = ServerProcess::Spawn(
      binary, rig.ServerArgs(), rig.dir.File("server2.err"), "");
  const int port = server.WaitForPort();
  ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);
  const std::string banner = ReadWholeFile(server.stderr_path);
  EXPECT_NE(banner.find("recover "), std::string::npos) << banner;
  EXPECT_NE(banner.find("sessions=1"), std::string::npos) << banner;

  WireClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
  ASSERT_TRUE(client.Send("open alice players\n"));
  auto ack = client.ReadLine();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, "ok open alice players recovered");

  ASSERT_TRUE(client.Send("alice solve\n"));
  auto solved = client.ReadLine();
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(solved->rfind("ok alice ", 0), 0u) << *solved;
  EXPECT_NE(solved->find("proven=yes"), std::string::npos) << *solved;
  EXPECT_EQ(ParseErrorField(*solved), rig.SerialReplayError(edits))
      << "recovered optimum diverged from the serial replay: " << *solved;

  ASSERT_TRUE(client.Send("quit\n"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
  server.Kill();
}

TEST(ChaosCrashTest, InjectedCrashInsideJournalAppendReplaysThePrefix) {
  const std::string binary = CliBinaryOrEmpty();
  if (binary.empty()) {
    GTEST_SKIP() << "rankhow_cli not found (set RANKHOW_CLI)";
  }
  KillRig rig;
  ASSERT_TRUE(rig.ok);

  // Act 1: the server SIGKILLs ITSELF inside the second LogCommand, right
  // after the record hits the file — the journaled-but-possibly-unacked
  // side of the crash contract.
  {
    ServerProcess server = ServerProcess::Spawn(
        binary, rig.ServerArgs(), rig.dir.File("server1.err"),
        "crash-after-journal-append=2");
    const int port = server.WaitForPort();
    if (port < 0 && server.pid < 0) {
      GTEST_SKIP() << "server failed to start: "
                   << ReadWholeFile(server.stderr_path);
    }
    ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);

    WireClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
    ASSERT_TRUE(client.Send("open alice players\n"));
    auto ack = client.ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok open alice players");

    ASSERT_TRUE(client.Send("alice min-weight A0 0.05\n"));
    auto first = client.ReadLine();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->rfind("ok alice ", 0), 0u) << *first;

    // The second edit's append lands, then the process dies mid-call: the
    // client never sees an ack.
    ASSERT_TRUE(client.Send("alice max-weight A1 0.6\n"));
    auto second = client.ReadLine();
    EXPECT_FALSE(second.has_value())
        << "server survived an armed crash point: " << *second;

    const int status = server.Reap();
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "expected a SIGKILL death, got wait status " << status;
  }

  // Act 2: recovery replays BOTH edits — acked ⊆ journaled, and the
  // journaled-unacked edit replays harmlessly (the client re-submitting
  // it after reconnect would be idempotent).
  ServerProcess server = ServerProcess::Spawn(
      binary, rig.ServerArgs(), rig.dir.File("server2.err"), "");
  const int port = server.WaitForPort();
  ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);
  EXPECT_NE(ReadWholeFile(server.stderr_path).find("sessions=1"),
            std::string::npos)
      << ReadWholeFile(server.stderr_path);

  WireClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
  ASSERT_TRUE(client.Send("open alice players\n"));
  auto ack = client.ReadLine();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, "ok open alice players recovered");

  ASSERT_TRUE(client.Send("alice solve\nquit\n"));
  auto solved = client.ReadLine();
  ASSERT_TRUE(solved.has_value());
  EXPECT_NE(solved->find("proven=yes"), std::string::npos) << *solved;
  EXPECT_EQ(ParseErrorField(*solved),
            rig.SerialReplayError(
                {"min-weight A0 0.05", "max-weight A1 0.6"}))
      << "recovered optimum diverged from the serial replay: " << *solved;
  server.Kill();
}

// ---------------------------------------------------------------------------
// Warm-cache restart tests: the persistent fingerprint-keyed cache (see
// docs/OPERATIONS.md "Warm-start cache") must survive a SIGKILL and make
// the restarted server's first solve at least as cheap as the cold one —
// with the SAME proven error — and a vandalized cache file must degrade
// loudly to cache-off without changing any result.
// ---------------------------------------------------------------------------

/// Opens a session, applies `edits`, solves, and returns the solve ack.
/// The caller owns interpretation (error, nodes) and the connection stays
/// open — killing the server afterwards is a genuine mid-session death.
std::optional<std::string> OpenEditSolve(WireClient* client,
                                         const std::vector<std::string>& edits,
                                         bool expect_recovered) {
  if (!client->Send("open alice players\n")) return std::nullopt;
  auto ack = client->ReadLine();
  if (!ack.has_value()) return std::nullopt;
  EXPECT_EQ(*ack, expect_recovered ? "ok open alice players recovered"
                                   : "ok open alice players");
  for (const std::string& edit : edits) {
    if (!client->Send("alice " + edit + "\n")) return std::nullopt;
    auto line = client->ReadLine();
    if (!line.has_value()) return std::nullopt;
    EXPECT_EQ(line->rfind("ok alice ", 0), 0u) << *line;
  }
  if (!client->Send("alice solve\n")) return std::nullopt;
  return client->ReadLine();
}

/// Polls the server's `stats` line until every resident warm-cache entry
/// is on disk (cache_appended >= cache_entries >= 1). Proven winners are
/// persisted by a background writer thread, and every session edit
/// re-solves and publishes its own record, so a SIGKILL test must wait for
/// all of them to land — or it would (correctly!) observe that an
/// unwritten record does not survive death. The barrier holds because the
/// cache directory starts empty (nothing is loaded) and these scripts
/// never improve a re-proven entry: each resident entry is one completed
/// write(), and a completed write survives SIGKILL.
bool WaitForCacheFlush(WireClient* client, int timeout_ms = 30000) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    if (!client->Send("stats\n")) return false;
    auto stats = client->ReadLine();
    if (!stats.has_value()) return false;
    const long entries = ParseLongField(*stats, "cache_entries");
    if (entries >= 1 && ParseLongField(*stats, "cache_appended") >= entries) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(ChaosKillTest, RestartAfterKillWarmStartsFromCacheWithIdenticalError) {
  const std::string binary = CliBinaryOrEmpty();
  if (binary.empty()) {
    GTEST_SKIP() << "rankhow_cli not found (set RANKHOW_CLI)";
  }
  KillRig rig;
  ASSERT_TRUE(rig.ok);
  const std::vector<std::string> edits = {"min-weight A0 0.05",
                                          "max-weight A1 0.6",
                                          "order t0>t1"};

  // Act 1: the cold run. Edits, one proven solve (published to the cache),
  // then SIGKILL mid-session — no quit, no destructors, no flushes.
  long cold_error = -1;
  long cold_nodes = -1;
  {
    ServerProcess server = ServerProcess::Spawn(
        binary, rig.ServerArgs(/*warm_cache=*/true),
        rig.dir.File("server1.err"), "");
    const int port = server.WaitForPort();
    if (port < 0 && server.pid < 0) {
      GTEST_SKIP() << "server failed to start: "
                   << ReadWholeFile(server.stderr_path);
    }
    ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);

    WireClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
    auto solved = OpenEditSolve(&client, edits, /*expect_recovered=*/false);
    ASSERT_TRUE(solved.has_value());
    EXPECT_NE(solved->find("proven=yes"), std::string::npos) << *solved;
    cold_error = ParseErrorField(*solved);
    cold_nodes = ParseLongField(*solved, "nodes");
    ASSERT_GE(cold_error, 0) << *solved;
    ASSERT_GE(cold_nodes, 0) << *solved;

    ASSERT_TRUE(WaitForCacheFlush(&client))
        << "proven winners never all reached " << rig.CacheFile();
    server.Kill();
  }

  // Act 2: a fresh process on the same journal + cache directories. The
  // journal rebuilds the session; the cache hands the first solve the
  // proven winner AND its error as an external bound, so the re-solve
  // closes at (in fact below) the cold node count with the identical
  // proven error.
  ServerProcess server = ServerProcess::Spawn(
      binary, rig.ServerArgs(/*warm_cache=*/true),
      rig.dir.File("server2.err"), "");
  const int port = server.WaitForPort();
  ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);
  EXPECT_NE(ReadWholeFile(server.stderr_path).find("sessions=1"),
            std::string::npos)
      << ReadWholeFile(server.stderr_path);

  WireClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
  // The replayed journal already holds the edits; re-sending them would
  // change the constraint set (a second `order t0>t1`) and so the problem
  // fingerprint. Adopt and solve as-is — the exact cache key of act 1.
  auto solved = OpenEditSolve(&client, {}, /*expect_recovered=*/true);
  ASSERT_TRUE(solved.has_value());
  EXPECT_NE(solved->find("proven=yes"), std::string::npos) << *solved;
  EXPECT_EQ(ParseErrorField(*solved), cold_error)
      << "warm-started optimum diverged from the cold solve: " << *solved;
  EXPECT_EQ(ParseErrorField(*solved), rig.SerialReplayError(edits));
  const long warm_nodes = ParseLongField(*solved, "nodes");
  ASSERT_GE(warm_nodes, 0) << *solved;
  EXPECT_LE(warm_nodes, cold_nodes)
      << "the cache-seeded re-solve explored MORE nodes than cold: "
      << *solved;

  // The draw is visible in stats: the restarted process loaded the dead
  // one's record and served it as a hit.
  ASSERT_TRUE(client.Send("stats\n"));
  auto stats = client.ReadLine();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rfind("ok stats ", 0), 0u) << *stats;
  EXPECT_GE(ParseLongField(*stats, "cache_loaded"), 1) << *stats;
  EXPECT_GE(ParseLongField(*stats, "cache_hits"), 1) << *stats;
  EXPECT_EQ(ParseLongField(*stats, "cache_degraded"), 0) << *stats;

  ASSERT_TRUE(client.Send("quit\n"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
  server.Kill();
}

TEST(ChaosKillTest, CorruptedWarmCacheDegradesLoudlyWithoutChangingResults) {
  const std::string binary = CliBinaryOrEmpty();
  if (binary.empty()) {
    GTEST_SKIP() << "rankhow_cli not found (set RANKHOW_CLI)";
  }
  KillRig rig;
  ASSERT_TRUE(rig.ok);
  const std::vector<std::string> edits = {"min-weight A0 0.05",
                                          "max-weight A1 0.6"};
  const long want_error = rig.SerialReplayError(edits);

  // Act 1: seed the cache with one proven winner, then die by SIGKILL.
  {
    ServerProcess server = ServerProcess::Spawn(
        binary, rig.ServerArgs(/*warm_cache=*/true),
        rig.dir.File("server1.err"), "");
    const int port = server.WaitForPort();
    if (port < 0 && server.pid < 0) {
      GTEST_SKIP() << "server failed to start: "
                   << ReadWholeFile(server.stderr_path);
    }
    ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);
    WireClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
    auto solved = OpenEditSolve(&client, edits, /*expect_recovered=*/false);
    ASSERT_TRUE(solved.has_value());
    EXPECT_EQ(ParseErrorField(*solved), want_error) << *solved;
    ASSERT_TRUE(WaitForCacheFlush(&client));
    server.Kill();
  }

  // Act 2: vandalize the cache CONTENTS (every record garbled). The
  // restarted server must say so on stderr, serve with zero loaded
  // entries, and still prove the exact same optimum.
  {
    std::ofstream out(rig.CacheFile(), std::ios::binary | std::ios::trunc);
    out << "total garbage, not a cache record\n";
    out << "RHW1 00000000 4 win \n";  // framed but CRC-wrong
  }
  {
    ServerProcess server = ServerProcess::Spawn(
        binary, rig.ServerArgs(/*warm_cache=*/true),
        rig.dir.File("server2.err"), "");
    const int port = server.WaitForPort();
    ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);
    EXPECT_NE(ReadWholeFile(server.stderr_path).find("corrupt"),
              std::string::npos)
        << "corruption was swallowed silently: "
        << ReadWholeFile(server.stderr_path);

    WireClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
    auto solved = OpenEditSolve(&client, {}, /*expect_recovered=*/true);
    ASSERT_TRUE(solved.has_value());
    EXPECT_NE(solved->find("proven=yes"), std::string::npos) << *solved;
    EXPECT_EQ(ParseErrorField(*solved), want_error)
        << "a corrupt cache changed a RESULT: " << *solved;

    ASSERT_TRUE(client.Send("stats\n"));
    auto stats = client.ReadLine();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(ParseLongField(*stats, "cache_loaded"), 0) << *stats;
    EXPECT_GE(ParseLongField(*stats, "cache_skipped"), 2) << *stats;
    EXPECT_EQ(ParseLongField(*stats, "cache_hits"), 0) << *stats;
    server.Kill();
  }

  // Act 3: make the cache file UNOPENABLE (a directory squats on its
  // path). Open fails entirely; the server must announce cache-off and
  // keep serving correct results with the cache disabled.
  ::unlink(rig.CacheFile().c_str());
  ::mkdir(rig.CacheFile().c_str(), 0755);
  ServerProcess server = ServerProcess::Spawn(
      binary, rig.ServerArgs(/*warm_cache=*/true),
      rig.dir.File("server3.err"), "");
  const int port = server.WaitForPort();
  ASSERT_GT(port, 0) << ReadWholeFile(server.stderr_path);
  EXPECT_NE(ReadWholeFile(server.stderr_path).find("serving cache-off"),
            std::string::npos)
      << "open failure was swallowed silently: "
      << ReadWholeFile(server.stderr_path);

  WireClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
  auto solved = OpenEditSolve(&client, {}, /*expect_recovered=*/true);
  ASSERT_TRUE(solved.has_value());
  EXPECT_NE(solved->find("proven=yes"), std::string::npos) << *solved;
  EXPECT_EQ(ParseErrorField(*solved), want_error)
      << "cache-off mode changed a RESULT: " << *solved;

  ASSERT_TRUE(client.Send("stats\n"));
  auto stats = client.ReadLine();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(ParseLongField(*stats, "cache_hits"), 0) << *stats;
  EXPECT_EQ(ParseLongField(*stats, "cache_entries"), 0) << *stats;

  ASSERT_TRUE(client.Send("quit\n"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
  server.Kill();
}

}  // namespace
}  // namespace rankhow
