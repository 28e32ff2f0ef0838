#include "socet/service/httpd.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "socet/service/protocol.hpp"
#include "socet/util/error.hpp"

namespace socet::service {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// Read until the end of the request headers (blank line) or the size
/// cap; the socket carries a receive timeout, so a silent peer times
/// out instead of wedging the listener.  Returns false on any error.
bool read_request(int fd, std::string* out) {
  char buf[1024];
  while (out->size() < kMaxRequestBytes) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) break;
    out->append(buf, static_cast<std::size_t>(r));
    if (out->find("\r\n\r\n") != std::string::npos ||
        out->find("\n\n") != std::string::npos) {
      return true;
    }
  }
  // A bare request line with no headers is still answerable.
  return out->find('\n') != std::string::npos;
}

void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w = ::write(fd, data.data() + sent, data.size() - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace

Httpd::~Httpd() { stop(); }

void Httpd::start(const HttpdOptions& options, HttpHandler handler) {
  stop();
  listen_fd_ = net_listen(options.host, options.port);
  port_ = local_port(listen_fd_);
  if (::pipe(wake_pipe_) != 0) {
    const std::string why = std::strerror(errno);
    close_fds();
    util::raise("cannot create wake pipe: " + why);
  }
  if (!options.port_file.empty()) {
    std::ofstream out(options.port_file, std::ios::trunc);
    out << port_ << "\n";
    if (!out.good()) {
      close_fds();
      util::raise("cannot write port file '" + options.port_file + "'");
    }
  }
  handler_ = std::move(handler);
  thread_ = std::thread([this] { loop(); });
}

void Httpd::stop() {
  if (!thread_.joinable()) {
    return;
  }
  const char byte = 'x';
  [[maybe_unused]] const ssize_t w = ::write(wake_pipe_[1], &byte, 1);
  thread_.join();
  close_fds();
}

void Httpd::close_fds() {
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  port_ = 0;
}

void Httpd::loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // The listen fd is non-blocking but accepted fds are not (Linux
    // does not inherit O_NONBLOCK); serial blocking I/O with timeouts
    // is exactly right for one scraper at a time.
    timeval tv = {2, 0};
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    std::string request;
    HttpResponse response;
    if (!read_request(conn, &request)) {
      response = {400, "text/plain; charset=utf-8", "bad request\n"};
    } else {
      // "GET /metrics HTTP/1.0" — method and path are all we use.
      const std::size_t sp1 = request.find(' ');
      const std::size_t line_end = request.find_first_of("\r\n");
      const std::size_t sp2 =
          sp1 == std::string::npos ? std::string::npos
                                   : request.find(' ', sp1 + 1);
      if (sp1 == std::string::npos || sp2 == std::string::npos ||
          sp2 > line_end) {
        response = {400, "text/plain; charset=utf-8", "bad request\n"};
      } else {
        const std::string method = request.substr(0, sp1);
        const std::string path = request.substr(sp1 + 1, sp2 - sp1 - 1);
        response = handler_(method, path);
      }
    }
    std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                      status_reason(response.status) + "\r\n";
    out += "Content-Type: " + response.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
    out += "Connection: close\r\n\r\n";
    out += response.body;
    write_all(conn, out);
    ::close(conn);
  }
}

}  // namespace socet::service
