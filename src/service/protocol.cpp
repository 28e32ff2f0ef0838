#include "socet/service/protocol.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "socet/util/error.hpp"

namespace socet::service {

namespace {

std::uint32_t decode_length(const char* header) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(header);
  return (std::uint32_t(bytes[0]) << 24) | (std::uint32_t(bytes[1]) << 16) |
         (std::uint32_t(bytes[2]) << 8) | std::uint32_t(bytes[3]);
}

void encode_length(std::uint32_t length, char* header) {
  auto* bytes = reinterpret_cast<unsigned char*>(header);
  bytes[0] = static_cast<unsigned char>(length >> 24);
  bytes[1] = static_cast<unsigned char>(length >> 16);
  bytes[2] = static_cast<unsigned char>(length >> 8);
  bytes[3] = static_cast<unsigned char>(length);
}

/// Read exactly n bytes from a blocking fd.  Returns the bytes actually
/// read (short only at EOF); throws on a socket error.
std::size_t read_exact(int fd, char* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      util::raise(std::string("socket read failed: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

std::string encode_frame(std::string_view payload, std::string_view corr) {
  util::require(payload.size() <= kMaxFrameBytes,
                "frame payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte limit");
  std::string frame(kFrameHeaderBytes, '\0');
  if (corr.empty()) {
    encode_length(static_cast<std::uint32_t>(payload.size()), frame.data());
    frame.append(payload);
    return frame;
  }
  util::require(corr.size() <= kMaxCorrBytes,
                "correlation id of " + std::to_string(corr.size()) +
                    " bytes exceeds the " + std::to_string(kMaxCorrBytes) +
                    "-byte limit");
  encode_length(kFrameCorrFlag | static_cast<std::uint32_t>(
                                     1 + corr.size() + payload.size()),
                frame.data());
  frame += static_cast<char>(corr.size());
  frame.append(corr);
  frame.append(payload);
  return frame;
}

void FrameReader::feed(const char* data, std::size_t n) {
  if (overflowed_) return;  // stream is unrecoverable, drop the tail
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(data, n);
}

std::optional<std::string> FrameReader::next() {
  auto frame = next_frame();
  if (!frame) return std::nullopt;
  return std::move(frame->payload);
}

std::optional<FrameReader::Frame> FrameReader::next_frame() {
  if (overflowed_) return std::nullopt;
  if (buffer_.size() - pos_ < kFrameHeaderBytes) return std::nullopt;
  const std::uint32_t word = decode_length(buffer_.data() + pos_);
  const bool has_corr = (word & kFrameCorrFlag) != 0;
  const std::uint32_t length = word & ~kFrameCorrFlag;
  // announced() keeps the raw wire word: diagnostics for an oversized
  // plain frame and for a bogus flagged header read the same way.
  if (length > kMaxFrameBytes || (has_corr && length == 0)) {
    overflowed_ = true;
    announced_ = word;
    return std::nullopt;
  }
  if (buffer_.size() - pos_ < kFrameHeaderBytes + length) return std::nullopt;
  Frame frame;
  std::size_t body = pos_ + kFrameHeaderBytes;
  std::size_t remaining = length;
  if (has_corr) {
    const std::size_t corr_len =
        static_cast<unsigned char>(buffer_[body]);
    if (corr_len + 1 > remaining) {  // corr_len lies about the body
      overflowed_ = true;
      announced_ = word;
      return std::nullopt;
    }
    frame.corr = buffer_.substr(body + 1, corr_len);
    body += 1 + corr_len;
    remaining -= 1 + corr_len;
  }
  frame.payload = buffer_.substr(body, remaining);
  pos_ += kFrameHeaderBytes + length;
  return frame;
}

void write_frame(int fd, std::string_view payload, std::string_view corr) {
  const std::string frame = encode_frame(payload, corr);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w = ::write(fd, frame.data() + sent, frame.size() - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      util::raise(std::string("socket write failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(w);
  }
}

std::optional<std::string> read_frame(int fd) {
  char header[kFrameHeaderBytes];
  const std::size_t got = read_exact(fd, header, sizeof(header));
  if (got == 0) return std::nullopt;  // clean EOF between frames
  util::require(got == sizeof(header),
                "truncated frame: connection closed inside the header");
  const std::uint32_t word = decode_length(header);
  const bool has_corr = (word & kFrameCorrFlag) != 0;
  const std::uint32_t length = word & ~kFrameCorrFlag;
  util::require(length <= kMaxFrameBytes && !(has_corr && length == 0),
                "oversized frame: peer announced " + std::to_string(word) +
                    " bytes (limit " + std::to_string(kMaxFrameBytes) + ")");
  std::string payload(length, '\0');
  util::require(read_exact(fd, payload.data(), length) == length,
                "truncated frame: connection closed inside the payload");
  if (has_corr) {
    // Responses are matched positionally, so the blocking reader just
    // strips the corr extension.
    const std::size_t corr_len = static_cast<unsigned char>(payload[0]);
    util::require(corr_len + 1 <= payload.size(),
                  "malformed frame: corr length exceeds the body");
    payload.erase(0, 1 + corr_len);
  }
  return payload;
}

HostPort parse_host_port(const std::string& spec) {
  const auto colon = spec.rfind(':');
  util::require(colon != std::string::npos && colon != 0 &&
                    colon + 1 < spec.size(),
                "bad address '" + spec + "' (want HOST:PORT)");
  HostPort hp;
  hp.host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  util::require(end != nullptr && *end == '\0' && port >= 1 && port <= 65535,
                "bad port '" + port_text + "' in '" + spec + "'");
  hp.port = static_cast<unsigned short>(port);
  return hp;
}

namespace {

/// getaddrinfo for a numeric-or-name host; caller owns the result.
addrinfo* resolve(const std::string& host, unsigned short port,
                  bool passive) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &result);
  util::require(rc == 0, "cannot resolve '" + host + "': " +
                             ::gai_strerror(rc));
  return result;
}

}  // namespace

int net_listen(const std::string& host, unsigned short port) {
  addrinfo* info = resolve(host, port, /*passive=*/true);
  int fd = -1;
  std::string error = "no usable address for '" + host + "'";
  for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK,
                  ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, SOMAXCONN) == 0) {
      break;
    }
    error = std::string("cannot listen on ") + host + ":" +
            std::to_string(port) + ": " + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(info);
  util::require(fd >= 0, error);
  return fd;
}

int net_connect(const std::string& host, unsigned short port) {
  addrinfo* info = resolve(host, port, /*passive=*/false);
  int fd = -1;
  std::string error = "no usable address for '" + host + "'";
  for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    error = std::string("cannot connect to ") + host + ":" +
            std::to_string(port) + ": " + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(info);
  util::require(fd >= 0, error);
  // Job frames are tiny; Nagle would add 40ms to every request.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

unsigned short local_port(int fd) {
  sockaddr_storage addr = {};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
  }
  return 0;
}

}  // namespace socet::service
