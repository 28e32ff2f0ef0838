// Minimal embedded HTTP/1.0 listener for the daemon's telemetry plane.
//
// One dedicated thread polls a non-blocking listen socket plus a
// self-pipe, accepts one connection at a time, reads a single request,
// answers it from the registered handler, and closes — exactly what a
// Prometheus scraper or `curl` does.  This is deliberately not a web
// server: no keep-alive, no chunking, no TLS, request line + headers
// capped at 8 KiB, per-connection read/write timeouts so a stuck peer
// cannot wedge the thread.  Bind it to loopback (the default) unless
// the network is trusted.
//
// `socet serve --metrics-port` wires GET /metrics (Prometheus text from
// obs::prometheus_text), /healthz (liveness), and /readyz (readiness —
// flips to 503 while draining) onto this; see docs/SERVICE.md.
#pragma once

#include <functional>
#include <string>
#include <thread>

namespace socet::service {

/// One parsed request -> response body + status.  Runs on the listener
/// thread, so keep handlers fast and lock-light.
struct HttpResponse {
  int status = 200;             ///< 200, 404, 503, ...
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};
using HttpHandler =
    std::function<HttpResponse(const std::string& method,
                               const std::string& path)>;

struct HttpdOptions {
  std::string host = "127.0.0.1";
  unsigned short port = 0;  ///< 0 = ephemeral (read back via port())
  std::string port_file;    ///< when set, the bound port is written here
};

class Httpd {
 public:
  Httpd() = default;
  ~Httpd();
  Httpd(const Httpd&) = delete;
  Httpd& operator=(const Httpd&) = delete;

  /// Bind, listen, write the port file, and start the listener thread.
  /// Throws util::Error, with nothing left open, if the address is
  /// unusable or the port file cannot be written.
  void start(const HttpdOptions& options, HttpHandler handler);
  /// Idempotent; wakes the thread, joins it, closes the socket.
  void stop();
  [[nodiscard]] bool running() const { return thread_.joinable(); }
  /// The bound port (resolves an ephemeral bind; 0 when not running).
  [[nodiscard]] unsigned short port() const { return port_; }

 private:
  void loop();
  /// Close the listener and the wake pipe (whichever are open).
  void close_fds();

  std::thread thread_;
  HttpHandler handler_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  unsigned short port_ = 0;
};

}  // namespace socet::service
