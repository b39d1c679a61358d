#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace nubb {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw WireError("socket: " + what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  // Request/response round trips are latency-bound; without this, Nagle
  // holds the final partial segment of every frame until the peer ACKs.
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

struct AddrInfoHolder {
  addrinfo* list = nullptr;
  ~AddrInfoHolder() {
    if (list != nullptr) ::freeaddrinfo(list);
  }
};

}  // namespace

SocketChannel SocketChannel::connect(const std::string& host, std::uint16_t port,
                                     std::uint32_t max_frame_bytes) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  AddrInfoHolder res;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res.list);
  if (rc != 0) {
    throw WireError("socket: cannot resolve " + host + ": " + ::gai_strerror(rc));
  }
  int last_errno = 0;
  for (const addrinfo* ai = res.list; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(fd);
      return SocketChannel(fd, max_frame_bytes);
    }
    last_errno = errno;
    ::close(fd);
  }
  errno = last_errno;
  throw_errno("cannot connect to " + host + ":" + service);
}

SocketChannel::SocketChannel(int fd, std::uint32_t max_frame_bytes)
    : Channel(max_frame_bytes, kReceiveBufferBytes), fd_(fd) {
  set_nodelay(fd_);
}

SocketChannel::SocketChannel(SocketChannel&& other) noexcept
    : Channel(std::move(other)), fd_(std::exchange(other.fd_, -1)) {}

SocketChannel::~SocketChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketChannel::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void SocketChannel::write_bytes(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t SocketChannel::read_bytes(std::uint8_t* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv failed");
    }
    return static_cast<std::size_t>(n);  // 0 = orderly peer shutdown
  }
}

SocketListener::SocketListener(const std::string& host, std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("cannot create listener");

  int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw WireError("socket: listener host must be a numeric IPv4 address, got " + host);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("cannot bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, backlog) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("cannot listen");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("cannot read bound port");
  }
  port_ = ntohs(bound.sin_port);
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
}

int SocketListener::accept_for(int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return -1;  // treated as a timeout tick
    throw_errno("poll on listener failed");
  }
  if (ready == 0) return -1;
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return -1;
    throw_errno("accept failed");
  }
  return fd;
}

}  // namespace nubb
