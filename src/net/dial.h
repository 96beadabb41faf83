#ifndef RANKHOW_NET_DIAL_H_
#define RANKHOW_NET_DIAL_H_

/// \file dial.h
/// Addressing and client-side connection plumbing for the wire protocol:
/// the `--listen` spec grammar (`rankhow_cli --listen=PATH|HOST:PORT`,
/// `rankhow_coord --listen`, worker specs), dialing an address with a
/// bounded connect timeout, and a blocking line/frame client over the
/// dialed descriptor. Binding and listening belong to the serving
/// reactor (net/reactor.h), the only listener in the program.
///
/// This is the productized form of the WireClient helper the socket and
/// chaos test suites grew independently (PR 5/8): the protocol-conformance
/// fixture (tests/support/), the chaos harness, and the shard coordinator
/// (src/coord/) all speak to workers through it now, so client-side
/// framing and timeout behavior cannot drift between them.
///
/// LineClient is deliberately blocking: a coordinator upstream or a test
/// drives exactly one connection per thread and wants the simplest
/// possible read loop. The serving side stays on the epoll reactor
/// (net/reactor.h); nothing here is used to serve.

#include <optional>
#include <string>

#include "net/frame.h"
#include "util/status.h"

namespace rankhow {

/// A listen or dial address. Unix-domain sockets need a path shorter than
/// sockaddr_un::sun_path; callers (and the test suite) treat a
/// kUnimplemented/kIoError from binding one as "skip", not "fail". IPv4
/// only; HOST accepts a dotted quad, "localhost", or "" / "*" / "0.0.0.0"
/// for INADDR_ANY, and PORT 0 binds an ephemeral port.
struct ListenAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kTcp;
  std::string path;  // kUnix
  std::string host;  // kTcp
  int port = 0;      // kTcp; 0 = ephemeral
};

/// Parses a `--listen` spec: `unix:PATH` and `tcp:HOST:PORT` explicitly;
/// without a prefix, anything containing '/' is a Unix path and
/// `HOST:PORT` is TCP. kInvalidArgument otherwise (including non-numeric
/// or out-of-range ports).
Result<ListenAddress> ParseListenSpec(const std::string& spec);

/// Renders an address back to spec form ("127.0.0.1:8731", "unix:/run/x").
std::string ListenSpecString(const ListenAddress& address);

struct DialOptions {
  /// Connect timeout. A refused or unreachable worker must fail `open`
  /// with a clean Status, never hang a coordinator thread; <= 0 falls back
  /// to the OS default blocking connect.
  int timeout_ms = 5000;
  /// SO_RCVTIMEO for subsequent reads; 0 = block forever (a coordinator's
  /// session upstream, where a legitimate solve may be silent for
  /// minutes). Tests keep the generous default so a dead server can never
  /// hang a suite.
  int recv_timeout_s = 60;
  /// > 0 pins SO_RCVBUF before connect (disables kernel autotuning — the
  /// backpressure test needs a client that genuinely cannot absorb data).
  int rcvbuf = 0;
};

/// Dials `address` (TCP or Unix) with DialOptions::timeout_ms. Returns a
/// connected blocking descriptor; kIoError with the connect errno text
/// on refusal/timeout, kUnimplemented where the family is unsupported.
Result<int> DialSocket(const ListenAddress& address,
                       const DialOptions& options = DialOptions());

/// A blocking client over one dialed socket, speaking both framings
/// (docs/PROTOCOL.md): newline-terminated text lines and 4-byte
/// big-endian length-prefixed binary frames. Move-only; closes on
/// destruction.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;

  /// Dials and adopts the descriptor. Any previous connection is closed.
  Status Connect(const ListenAddress& address,
                 const DialOptions& options = DialOptions());

  /// Test-style conveniences (the historical WireClient signatures).
  bool ConnectTcp(const std::string& host, int port, int rcvbuf = 0);
  bool ConnectUnix(const std::string& path);

  /// Sends raw bytes until done; false on any send error.
  bool Send(const std::string& bytes);
  /// One text-framed request (payload + '\n').
  bool SendLine(const std::string& payload);
  /// One binary frame (4-byte big-endian length + payload).
  bool SendFrame(const std::string& payload);

  /// One response line without the newline; nullopt on EOF/timeout.
  std::optional<std::string> ReadLine();
  /// One binary frame's payload; nullopt on EOF/timeout/oversized length.
  std::optional<std::string> ReadFrame();

  void Close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  bool Fill();

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace rankhow

#endif  // RANKHOW_NET_DIAL_H_
