// Minimal buffered std::streambuf over a POSIX file descriptor, shared by
// the TCP transport (server.cpp) and the kmatch ping client (client.cpp).
//
// Read side: blocking ::read with a 4 KiB buffer; EOF and errors both map to
// streambuf EOF (the frame reader treats either as end of stream — for a
// server, a client that vanished mid-frame is routine, not exceptional).
// EINTR returns EOF too, ON PURPOSE: the serve signal handlers are installed
// without SA_RESTART, so a SIGTERM must pop the transport out of a blocking
// read to start the drain. A bulk read (read_frame's body) drains the buffer
// and then reads the rest straight into its destination, one ::read per
// whole buffer or more instead of one per 4 KiB plus a copy; it stops short
// on EOF, an error or EINTR alike, so a cut body reads as truncated.
//
// Write side: none — frames are written with send_all() (MSG_NOSIGNAL, full
// write loop), bypassing buffering so a response is on the wire when the
// response sink returns and a dead peer surfaces as an exception in the
// sink (counted as a dropped response) instead of a SIGPIPE.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <streambuf>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace kstable::serve {

class FdReadBuf final : public std::streambuf {
 public:
  explicit FdReadBuf(int fd) : fd_(fd) { setg(buffer_, buffer_, buffer_); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    const ssize_t got = ::read(fd_, buffer_, sizeof buffer_);
    if (got <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + got);
    return traits_type::to_int_type(*gptr());
  }

  std::streamsize xsgetn(char* out, std::streamsize count) override {
    std::streamsize done = 0;
    while (done < count) {
      const std::streamsize want = count - done;
      if (gptr() < egptr()) {
        const std::streamsize chunk = std::min<std::streamsize>(
            want, egptr() - gptr());
        std::memcpy(out + done, gptr(), static_cast<std::size_t>(chunk));
        gbump(static_cast<int>(chunk));
        done += chunk;
      } else if (want >= static_cast<std::streamsize>(sizeof buffer_)) {
        const ssize_t got = ::read(fd_, out + done, static_cast<std::size_t>(want));
        if (got <= 0) break;
        done += got;
      } else if (underflow() == traits_type::eof()) {
        // A short tail refills the buffer, so what follows it (the next
        // frame's header) arrives in the same ::read.
        break;
      }
    }
    return done;
  }

 private:
  int fd_;
  char buffer_[4096];
};

/// Writes all of [data, data+size) to `fd`; returns false on any error
/// (EPIPE/ECONNRESET included — MSG_NOSIGNAL keeps SIGPIPE away). Retries
/// EINTR: a drain signal must not corrupt a half-written response frame.
inline bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (sent == 0) return false;
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

}  // namespace kstable::serve
