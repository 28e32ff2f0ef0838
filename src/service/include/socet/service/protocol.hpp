// The serve wire protocol (docs/FORMATS.md §6).
//
// Both directions carry length-prefixed frames over a stream socket:
// a 4-byte big-endian payload length followed by that many bytes of
// UTF-8 text, no trailing newline.  A request payload is either one
// FORMATS.md §4 job line *verbatim* (the same line `socet batch`
// reads from a file) or one of two control verbs (`stats`,
// `journal`).  Every request gets exactly one response frame, whose
// payload starts with a status token:
//
//   ok <verb> <payload>      job finished (the record body `socet
//                            batch` prints after "job <n> ")
//   error <message>          job parsed or executed with an error
//   busy <why>               admission-control reject; nothing ran
//   ok stats <k=v ...>       control responses
//
// Responses are delivered in request order per connection, which is
// what lets a client replay a job file and print records byte-identical
// to one-shot `socet batch` output.  Frames above kMaxFrameBytes are a
// protocol error: the stream cannot be resynchronized, so the server
// answers `error ...` and closes that connection (others are
// unaffected).
//
// This header also carries the small blocking socket helpers the
// client and tests share; the server uses the incremental FrameReader
// on non-blocking sockets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace socet::service {

/// Hard upper bound on one frame's payload.  A job line is tens of
/// bytes; anything near this is garbage or an attack.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Top bit of the length word: the frame carries a correlation id.
/// Flagged layout (FORMATS.md §6): the masked word counts
/// `1 + corr_len + payload_len` bytes, followed by [1B corr_len]
/// [corr bytes][payload].  Plain payloads never exceed kMaxFrameBytes
/// (1 MiB), so the bit is unambiguous; a peer that predates the flag
/// sees an oversized frame and drops the connection, never a corrupted
/// payload.  Bits 21 to 30 carry nothing: any of them set leaves the
/// masked length above kMaxFrameBytes, so the header reads as an
/// oversized frame (FORMATS.md §6 reserves bit 30).
inline constexpr std::uint32_t kFrameCorrFlag = 0x80000000u;
inline constexpr std::size_t kMaxCorrBytes = 255;

/// Render `payload` as one wire frame (header + bytes).  A non-empty
/// `corr` rides in the flagged header extension so the server can open
/// its decision journal under the client's correlation id.  Throws
/// util::Error if the payload exceeds kMaxFrameBytes or the corr id
/// exceeds kMaxCorrBytes.
std::string encode_frame(std::string_view payload, std::string_view corr = {});

/// Incremental frame decoder for a non-blocking stream: feed() raw
/// bytes as they arrive, pop complete payloads with next() /
/// next_frame().  Once a header announces a payload beyond
/// kMaxFrameBytes (or a malformed corr extension) the stream is
/// unrecoverable: overflowed() latches and next() returns nothing.
class FrameReader {
 public:
  struct Frame {
    std::string payload;
    std::string corr;  ///< empty when the frame carried no corr id
  };

  void feed(const char* data, std::size_t n);
  /// Next complete payload, if one is fully buffered (corr discarded).
  std::optional<std::string> next();
  /// Next complete frame with its correlation id, if fully buffered.
  std::optional<Frame> next_frame();
  /// True once an oversized header was seen; announced() is the raw
  /// 32-bit length word exactly as it appeared on the wire.
  [[nodiscard]] bool overflowed() const { return overflowed_; }
  [[nodiscard]] std::uint64_t announced() const { return announced_; }
  /// Bytes buffered but not yet returned (bounded by the server's
  /// backpressure window, not by the protocol).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
  bool overflowed_ = false;
  std::uint64_t announced_ = 0;
};

// -- blocking helpers (client side, tests) ---------------------------------

/// Write one frame to a blocking socket.  Throws util::Error on error.
void write_frame(int fd, std::string_view payload, std::string_view corr = {});

/// Read one frame from a blocking socket.  Returns nullopt on clean EOF
/// at a frame boundary; throws util::Error on a mid-frame EOF
/// (truncated), an oversized header, or a socket error.
std::optional<std::string> read_frame(int fd);

// -- sockets ---------------------------------------------------------------

struct HostPort {
  std::string host = "127.0.0.1";
  unsigned short port = 0;
};

/// Parse "host:port" (the --connect argument).  Throws util::Error.
HostPort parse_host_port(const std::string& spec);

/// Bind + listen on host:port (port 0 = ephemeral) and return the
/// non-blocking listen fd.  Throws util::Error.
int net_listen(const std::string& host, unsigned short port);

/// Connect a blocking TCP socket (TCP_NODELAY set).  Throws util::Error.
int net_connect(const std::string& host, unsigned short port);

/// The locally bound port of `fd` (resolves ephemeral listens).
unsigned short local_port(int fd);

}  // namespace socet::service
