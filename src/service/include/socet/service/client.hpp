// Blocking protocol client for socet serve (docs/FORMATS.md §6).
//
// Client::run_lines replays a FORMATS.md §4 job file against a daemon
// and renders records byte-identical to one-shot `socet batch`: it
// applies the same comment/blank-line filter as
// PlanningService::run_lines, numbers the surviving lines 1..N, and
// prefixes each response payload with "job <n> ".  Requests are
// pipelined up to a window of unanswered frames (responses arrive in
// request order, so matching is positional); the default window is
// deliberately smaller than the server's per-connection window so the
// client never deadlocks writing while the server waits for it to read.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace socet::service {

struct ClientOptions {
  std::string host = "127.0.0.1";
  unsigned short port = 0;
  /// Unanswered requests in flight; must stay below the server's
  /// per-connection window (default 64) or both sides block on writes.
  std::size_t window = 16;
};

struct ClientReport {
  /// "job <n> <response payload>" per surviving line, in order.
  std::vector<std::string> records;
  std::size_t jobs = 0;    ///< lines sent
  std::size_t errors = 0;  ///< `error ...` responses
  std::size_t busy = 0;    ///< `busy ...` rejects

  /// The records joined with newlines — `socet batch` output, byte for
  /// byte, when the server is not saturated.
  [[nodiscard]] std::string records_text() const;
};

class Client {
 public:
  /// Connects immediately; throws util::Error on failure.
  explicit Client(ClientOptions options);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Replay a job file (raw lines, comments included) and collect the
  /// responses.  Throws util::Error if the server closes mid-batch.
  ClientReport run_lines(const std::vector<std::string>& lines);

  /// One control round-trip (`stats`, `journal`, ...);
  /// returns the raw response payload.
  std::string query(const std::string& verb);

 private:
  ClientOptions options_;
  int fd_ = -1;
};

}  // namespace socet::service
