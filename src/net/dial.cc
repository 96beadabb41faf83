#include "net/dial.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/string_util.h"

namespace rankhow {
namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// connect(2) with a poll()-bounded timeout: the socket goes non-blocking
/// for the connect, then back to blocking for the caller's reads.
Status ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t len,
                          int timeout_ms) {
  if (timeout_ms <= 0) {
    if (::connect(fd, addr, len) != 0) return Errno("connect");
    return Status::OK();
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl");
  }
  Status status = Status::OK();
  if (::connect(fd, addr, len) != 0) {
    if (errno == EINPROGRESS || errno == EAGAIN) {
      pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready == 0) {
        status = Status::IoError("connect: timed out");
      } else if (ready < 0) {
        status = Errno("poll");
      } else {
        int err = 0;
        socklen_t err_len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
          status = Errno("getsockopt");
        } else if (err != 0) {
          status = Status::IoError(std::string("connect: ") +
                                       std::strerror(err));
        }
      }
    } else {
      status = Errno("connect");
    }
  }
  (void)::fcntl(fd, F_SETFL, flags);  // restore blocking mode
  return status;
}

}  // namespace

Result<ListenAddress> ParseListenSpec(const std::string& raw) {
  std::string spec(Trim(raw));
  ListenAddress address;
  if (StartsWith(spec, "unix:")) {
    address.kind = ListenAddress::Kind::kUnix;
    address.path = spec.substr(5);
    if (address.path.empty()) {
      return Status::Invalid("--listen=unix: needs a socket path");
    }
    return address;
  }
  std::string rest = spec;
  if (StartsWith(rest, "tcp:")) {
    rest = rest.substr(4);
  } else if (spec.find('/') != std::string::npos) {
    // A bare filesystem path serves over a Unix-domain socket.
    address.kind = ListenAddress::Kind::kUnix;
    address.path = spec;
    return address;
  }
  const size_t colon = rest.rfind(':');
  if (rest.empty() || colon == std::string::npos) {
    return Status::Invalid(
        "bad --listen spec '" + raw +
        "' (want unix:PATH, a path containing '/', or HOST:PORT)");
  }
  auto port = ParseInt(rest.substr(colon + 1));
  if (!port.ok() || *port < 0 || *port > 65535) {
    return Status::Invalid("bad --listen port in '" + raw +
                           "' (0..65535; 0 = ephemeral)");
  }
  address.kind = ListenAddress::Kind::kTcp;
  address.host = rest.substr(0, colon);
  address.port = static_cast<int>(*port);
  return address;
}

std::string ListenSpecString(const ListenAddress& address) {
  if (address.kind == ListenAddress::Kind::kUnix) {
    return "unix:" + address.path;
  }
  return address.host + ":" + std::to_string(address.port);
}

Result<int> DialSocket(const ListenAddress& address,
                       const DialOptions& options) {
  int fd = -1;
  if (address.kind == ListenAddress::Kind::kTcp) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    if (options.rcvbuf > 0) {
      (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options.rcvbuf,
                         sizeof(options.rcvbuf));
    }
    sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<uint16_t>(address.port));
    std::string host = address.host;
    if (host.empty() || host == "*" || host == "localhost") {
      host = "127.0.0.1";
    }
    if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
      ::close(fd);
      return Status::Invalid("bad host: " + address.host);
    }
    Status connected = ConnectWithTimeout(
        fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin),
        options.timeout_ms);
    if (!connected.ok()) {
      ::close(fd);
      return connected;
    }
  } else {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    sockaddr_un sun;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    if (address.path.size() >= sizeof(sun.sun_path)) {
      ::close(fd);
      return Status::Invalid("unix path too long: " + address.path);
    }
    std::memcpy(sun.sun_path, address.path.c_str(),
                address.path.size() + 1);
    Status connected = ConnectWithTimeout(
        fd, reinterpret_cast<sockaddr*>(&sun), sizeof(sun),
        options.timeout_ms);
    if (!connected.ok()) {
      ::close(fd);
      return connected;
    }
  }
  if (options.recv_timeout_s > 0) {
    timeval tv;
    tv.tv_sec = options.recv_timeout_s;
    tv.tv_usec = 0;
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
      Status status = Errno("setsockopt SO_RCVTIMEO");
      ::close(fd);
      return status;
    }
  }
  return fd;
}

LineClient::~LineClient() { Close(); }

LineClient::LineClient(LineClient&& other) noexcept {
  *this = std::move(other);
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
    other.buffer_.clear();
  }
  return *this;
}

Status LineClient::Connect(const ListenAddress& address,
                           const DialOptions& options) {
  Close();
  auto fd = DialSocket(address, options);
  RH_RETURN_NOT_OK(fd.status());
  fd_ = *fd;
  buffer_.clear();
  return Status::OK();
}

bool LineClient::ConnectTcp(const std::string& host, int port, int rcvbuf) {
  ListenAddress address;
  address.kind = ListenAddress::Kind::kTcp;
  address.host = host;
  address.port = port;
  DialOptions options;
  options.rcvbuf = rcvbuf;
  return Connect(address, options).ok();
}

bool LineClient::ConnectUnix(const std::string& path) {
  ListenAddress address;
  address.kind = ListenAddress::Kind::kUnix;
  address.path = path;
  return Connect(address).ok();
}

bool LineClient::Send(const std::string& bytes) {
  const char* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n <= 0) return false;
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

bool LineClient::SendLine(const std::string& payload) {
  return Send(payload + "\n");
}

bool LineClient::SendFrame(const std::string& payload) {
  std::string framed;
  EncodeFrame(FrameMode::kBinary, payload, &framed);
  return Send(framed);
}

std::optional<std::string> LineClient::ReadLine() {
  for (;;) {
    size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    if (!Fill()) return std::nullopt;
  }
}

std::optional<std::string> LineClient::ReadFrame() {
  while (buffer_.size() < 4) {
    if (!Fill()) return std::nullopt;
  }
  const auto* b = reinterpret_cast<const unsigned char*>(buffer_.data());
  const size_t len = (static_cast<size_t>(b[0]) << 24) |
                     (static_cast<size_t>(b[1]) << 16) |
                     (static_cast<size_t>(b[2]) << 8) |
                     static_cast<size_t>(b[3]);
  if (len > kMaxFrameBytes) return std::nullopt;
  while (buffer_.size() < 4 + len) {
    if (!Fill()) return std::nullopt;
  }
  std::string payload = buffer_.substr(4, len);
  buffer_.erase(0, 4 + len);
  return payload;
}

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool LineClient::Fill() {
  char chunk[4096];
  ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

}  // namespace rankhow
