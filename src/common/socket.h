// Unix-domain stream sockets with newline-delimited framing.
//
// The xmtserved protocol is one JSON document per line in both
// directions, so the transport layer is exactly two concerns: RAII
// around the file descriptors, and line reassembly with an explicit
// frame-size bound. An oversized frame is reported as kOversize after
// the rest of the line has been drained, so a hostile or buggy client
// can neither wedge the reader mid-line nor force unbounded buffering —
// the connection stays usable for the error reply.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "src/common/error.h"

namespace xmt {

/// Socket-layer failure (bind/listen/connect). Protocol-level errors are
/// JSON replies, not exceptions.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error("io error: " + what) {}
};

/// One connected stream endpoint. Movable, closes on destruction.
class UnixConn {
 public:
  UnixConn() = default;
  explicit UnixConn(int fd) : fd_(fd) {}
  ~UnixConn();
  UnixConn(UnixConn&& other) noexcept;
  UnixConn& operator=(UnixConn&& other) noexcept;
  UnixConn(const UnixConn&) = delete;
  UnixConn& operator=(const UnixConn&) = delete;

  /// Connects to a listening socket. Throws IoError when nothing listens.
  static UnixConn connect(const std::string& path);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends `line` plus a trailing '\n'. Returns false once the peer is
  /// gone (EPIPE/reset) — never raises SIGPIPE.
  bool sendLine(const std::string& line);

  /// Sends already-framed bytes (one or more '\n'-terminated lines) as
  /// they are. Same failure behaviour as sendLine.
  bool sendAll(std::string_view bytes);

  enum class Recv { kOk, kEof, kOversize };

  /// Reads one '\n'-terminated line (without the terminator) into *out.
  /// kOversize: the line exceeded maxBytes; it has been consumed and
  /// discarded, and the stream is positioned at the next line.
  Recv recvLine(std::string* out, std::size_t maxBytes);

  /// Shuts down both directions, waking a blocked peer/reader. The fd
  /// stays owned (and is closed by the destructor).
  void shutdownBoth();

  void close();

 private:
  int fd_ = -1;
  // Bytes received; those before pos_ have been returned already. The
  // consumed prefix is dropped once per recv, not once per line.
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Listening socket bound to a filesystem path. Removes a stale socket
/// file on bind and unlinks its own on destruction.
class UnixListener {
 public:
  explicit UnixListener(std::string path);
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Blocks for the next connection; returns an invalid conn once
  /// wake() has been called (or the listener failed).
  UnixConn accept();

  /// Unblocks accept() permanently (idempotent, thread-safe).
  void wake();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace xmt
