#include "src/common/socket.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace xmt {

namespace {

int makeSocket() {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw IoError(std::string("socket: ") + std::strerror(errno));
  return fd;
}

sockaddr_un makeAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof addr.sun_path)
    throw IoError("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

UnixConn::~UnixConn() { close(); }

UnixConn::UnixConn(UnixConn&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)), pos_(other.pos_) {
  other.fd_ = -1;
  other.pos_ = 0;
}

UnixConn& UnixConn::operator=(UnixConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    pos_ = other.pos_;
    other.fd_ = -1;
    other.pos_ = 0;
  }
  return *this;
}

UnixConn UnixConn::connect(const std::string& path) {
  int fd = makeSocket();
  sockaddr_un addr = makeAddr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    int err = errno;
    ::close(fd);
    throw IoError("connect '" + path + "': " + std::strerror(err));
  }
  return UnixConn(fd);
}

bool UnixConn::sendLine(const std::string& line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed += line;
  framed += '\n';
  return sendAll(framed);
}

bool UnixConn::sendAll(std::string_view bytes) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

UnixConn::Recv UnixConn::recvLine(std::string* out, std::size_t maxBytes) {
  bool oversize = false;
  std::size_t scanned = pos_;  // no '\n' in [pos_, scanned)
  char chunk[65536];
  while (true) {
    std::size_t nl = buf_.find('\n', scanned);
    if (nl != std::string::npos) {
      std::size_t len = nl - pos_;
      std::size_t start = pos_;
      pos_ = nl + 1;
      if (oversize || len > maxBytes) return Recv::kOversize;  // discarded
      out->assign(buf_, start, len);
      return Recv::kOk;
    }
    scanned = buf_.size();
    if (buf_.size() - pos_ > maxBytes) {
      // Keep draining until the newline, but stop accumulating.
      oversize = true;
      buf_.clear();
      pos_ = scanned = 0;
    }
    if (fd_ < 0) return Recv::kEof;
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Recv::kEof;
    }
    if (n == 0) return Recv::kEof;  // a torn trailing line is dropped
    // Drop the consumed prefix before growing the buffer.
    buf_.erase(0, pos_);
    scanned -= pos_;
    pos_ = 0;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void UnixConn::shutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixListener::UnixListener(std::string path) : path_(std::move(path)) {
  fd_ = makeSocket();
  sockaddr_un addr = makeAddr(path_);
  ::unlink(path_.c_str());  // stale socket from a previous daemon
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw IoError("bind '" + path_ + "': " + std::strerror(err));
  }
  if (::listen(fd_, 64) != 0) {
    int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw IoError("listen '" + path_ + "': " + std::strerror(err));
  }
}

UnixListener::~UnixListener() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

UnixConn UnixListener::accept() {
  while (fd_ >= 0) {
    int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd >= 0) return UnixConn(cfd);
    if (errno == EINTR || errno == ECONNABORTED) continue;
    break;  // EINVAL after wake(), or a real failure: stop accepting
  }
  return UnixConn();
}

void UnixListener::wake() {
  // shutdown() on a listening socket makes a blocked accept() return
  // (EINVAL on Linux) without racing fd reuse the way close() would.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace xmt
