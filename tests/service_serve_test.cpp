// The socet serve daemon: framing, the byte-bounded cache, multi-client
// byte-identity against the in-process batch service, protocol-error
// isolation, admission control under a saturated queue, graceful drain,
// the access log, the traced daemon's spans, and CLI round-trips
// through the real `socet` binary.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "socet/obs/explain.hpp"
#include "socet/obs/journal.hpp"
#include "socet/obs/jsonin.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"
#include "socet/obs/traceanalyze.hpp"
#include "socet/service/cache.hpp"
#include "socet/service/client.hpp"
#include "socet/service/protocol.hpp"
#include "socet/service/server.hpp"
#include "socet/service/service.hpp"
#include "socet/util/error.hpp"

namespace socet {
namespace {

using namespace std::chrono_literals;

// ----------------------------------------------------------------- framing

TEST(FrameReader, ReassemblesFramesAcrossArbitrarySplits) {
  const std::string wire = service::encode_frame("plan system=barcode") +
                           service::encode_frame("") +
                           service::encode_frame("stats");
  // Feed one byte at a time: every header/payload boundary is crossed.
  service::FrameReader reader;
  std::vector<std::string> payloads;
  for (char byte : wire) {
    reader.feed(&byte, 1);
    while (auto payload = reader.next()) payloads.push_back(*payload);
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "plan system=barcode");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], "stats");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReader, OversizedHeaderLatchesAndDropsTheTail) {
  service::FrameReader reader;
  const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};
  reader.feed(huge, sizeof(huge));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.overflowed());
  EXPECT_EQ(reader.announced(), 0xffffffffu);
  // A valid frame after the bad header is unreachable: the stream
  // cannot be resynchronized.
  const std::string good = service::encode_frame("plan");
  reader.feed(good.data(), good.size());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameReader, EncodeRejectsOversizedPayloads) {
  EXPECT_THROW(
      service::encode_frame(std::string(service::kMaxFrameBytes + 1, 'x')),
      util::Error);
}

TEST(FrameReader, CorrFlagCarriesACorrelationId) {
  const std::string wire =
      service::encode_frame("plan system=barcode", "job-7") +
      service::encode_frame("stats");
  // One byte at a time again: the corr extension spans every boundary.
  service::FrameReader reader;
  std::vector<service::FrameReader::Frame> frames;
  for (char byte : wire) {
    reader.feed(&byte, 1);
    while (auto frame = reader.next_frame()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "plan system=barcode");
  EXPECT_EQ(frames[0].corr, "job-7");
  EXPECT_EQ(frames[1].payload, "stats");
  EXPECT_EQ(frames[1].corr, "");

  // next() is corr-oblivious: same payloads, id discarded.
  service::FrameReader plain;
  plain.feed(wire.data(), wire.size());
  EXPECT_EQ(plain.next().value(), "plan system=barcode");
  EXPECT_EQ(plain.next().value(), "stats");
}

TEST(FrameReader, MalformedCorrLengthLatchesLikeAnOversizedFrame) {
  // A flagged header announcing 2 body bytes whose corr_len byte claims
  // 5 bytes of corr: the stream cannot be trusted from here on.
  service::FrameReader reader;
  const char bad[] = {'\x80', '\x00', '\x00', '\x02', '\x05', 'x'};
  reader.feed(bad, sizeof(bad));
  EXPECT_FALSE(reader.next_frame().has_value());
  EXPECT_TRUE(reader.overflowed());
  EXPECT_EQ(reader.announced(), 0x80000002u);
}

TEST(FrameReader, ReservedHeaderBitReadsAsAnOversizedFrame) {
  // Bit 30 of the length word is reserved.  Set, it leaves the masked
  // length above kMaxFrameBytes, so the header is oversized, with or
  // without the corr flag: the reader latches on the raw word.
  const char plain[] = {'\x40', '\x00', '\x00', '\x05',
                        's',    't',    'a',    't',    's'};
  const char flagged[] = {'\xc0', '\x00', '\x00', '\x02', '\x01', 'j'};
  for (const auto& [bytes, size, word] :
       {std::tuple{plain, sizeof(plain), 0x40000005u},
        std::tuple{flagged, sizeof(flagged), 0xc0000002u}}) {
    service::FrameReader reader;
    reader.feed(bytes, size);
    EXPECT_FALSE(reader.next_frame().has_value());
    EXPECT_TRUE(reader.overflowed());
    EXPECT_EQ(reader.announced(), word);
  }

  // The blocking reader refuses the same header.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::write(fds[0], plain, sizeof(plain)),
            static_cast<ssize_t>(sizeof(plain)));
  ::close(fds[0]);
  try {
    service::read_frame(fds[1]);
    ADD_FAILURE() << "read_frame accepted a bit-30 header";
  } catch (const util::Error& error) {
    EXPECT_EQ(std::string(error.what())
                  .rfind("oversized frame: peer announced 1073741829 bytes", 0),
              0u)
        << error.what();
  }
  ::close(fds[1]);
}

TEST(Protocol, EncodeRejectsOversizedCorrIds) {
  EXPECT_THROW(service::encode_frame("x", std::string(256, 'c')),
               util::Error);
  // At the limit it round-trips.
  const std::string frame =
      service::encode_frame("x", std::string(255, 'c'));
  service::FrameReader reader;
  reader.feed(frame.data(), frame.size());
  const auto decoded = reader.next_frame();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->corr.size(), 255u);
  EXPECT_EQ(decoded->payload, "x");
}

TEST(Protocol, BlockingReadStripsTheCorrExtension) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  service::write_frame(fds[0], "ok plan tat=42", "job-3");
  ::close(fds[0]);
  const auto payload = service::read_frame(fds[1]);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "ok plan tat=42");
  ::close(fds[1]);
}

TEST(Protocol, ParseHostPort) {
  const auto hp = service::parse_host_port("127.0.0.1:8080");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 8080);
  EXPECT_THROW(service::parse_host_port("127.0.0.1"), util::Error);
  EXPECT_THROW(service::parse_host_port(":80"), util::Error);
  EXPECT_THROW(service::parse_host_port("host:"), util::Error);
  EXPECT_THROW(service::parse_host_port("host:0"), util::Error);
  EXPECT_THROW(service::parse_host_port("host:99999"), util::Error);
  EXPECT_THROW(service::parse_host_port("host:12x"), util::Error);
}

TEST(Protocol, BlockingReadThrowsOnTruncatedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Two header bytes, then EOF: the peer died inside the header.
  ASSERT_EQ(::write(fds[0], "\0\0", 2), 2);
  ::close(fds[0]);
  EXPECT_THROW(service::read_frame(fds[1]), util::Error);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A complete header announcing 10 bytes, then only 3 of them.
  const std::string partial = service::encode_frame("0123456789");
  ASSERT_EQ(::write(fds[0], partial.data(), 7),
            static_cast<ssize_t>(7));
  ::close(fds[0]);
  EXPECT_THROW(service::read_frame(fds[1]), util::Error);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  EXPECT_FALSE(service::read_frame(fds[1]).has_value());  // clean EOF
  ::close(fds[1]);
}

// ------------------------------------------------------- byte-bounded cache

service::PlanCache::Entry entry_of(const std::string& payload) {
  service::PlanCache::Entry entry;
  entry.payload = payload;
  return entry;
}

TEST(PlanCache, ByteBudgetEvictsFromTheColdEnd) {
  // Each entry costs payload (10) + overhead bytes; budget fits two.
  const std::size_t per_entry =
      10 + service::PlanCache::kEntryOverheadBytes;
  service::PlanCache cache(/*capacity=*/100, /*max_bytes=*/2 * per_entry);
  cache.insert(1, entry_of(std::string(10, 'a')));
  cache.insert(2, entry_of(std::string(10, 'b')));
  EXPECT_EQ(cache.bytes(), 2 * per_entry);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.insert(3, entry_of(std::string(10, 'c')));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * per_entry);
  EXPECT_FALSE(cache.lookup(1).has_value());  // key 1 was coldest
  EXPECT_TRUE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().evicted_bytes, per_entry);
}

TEST(PlanCache, ByteBudgetKeepsTheNewestEntryEvenWhenOversized) {
  service::PlanCache cache(/*capacity=*/100, /*max_bytes=*/64);
  cache.insert(1, entry_of(std::string(500, 'x')));  // alone over budget
  EXPECT_EQ(cache.size(), 1u);  // never evict down to an empty cache
  EXPECT_TRUE(cache.lookup(1).has_value());

  cache.insert(2, entry_of(std::string(500, 'y')));
  EXPECT_EQ(cache.size(), 1u);  // the old giant goes, the new one stays
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(2).has_value());
}

TEST(PlanCache, ZeroByteBudgetMeansUnbounded) {
  service::PlanCache cache(/*capacity=*/100, /*max_bytes=*/0);
  for (std::uint64_t key = 0; key < 50; ++key) {
    cache.insert(key, entry_of(std::string(1000, 'z')));
  }
  EXPECT_EQ(cache.size(), 50u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// ------------------------------------------------------------------ server

const std::vector<std::string> kJobFile = {
    "# exercise every verb, with repeats for cache hits",
    "plan system=barcode selection=1,2,1",
    "",
    "optimize system=system2 tat-budget=600000",
    "plan system=barcode selection=1,2,1",
    "explore system=barcode",
    "parallel system=barcode selection=2,2,2",
    "program system=barcode",
    "plan system=nope",  // error record, but the batch keeps going
    "optimize system=barcode w1=1.5 w2=0.25",
};

std::string serial_records(const std::vector<std::string>& lines) {
  service::ServiceOptions options;
  options.threads = 1;
  service::PlanningService service(options);
  return service.run_lines(lines).records_text();
}

service::Client connect_to(const service::Server& server,
                           std::size_t window = 16) {
  service::ClientOptions options;
  options.port = server.port();
  options.window = window;
  return service::Client(options);
}

TEST(Serve, StatsRoundTrip) {
  service::ServerOptions options;
  options.threads = 2;
  service::Server server(std::move(options));
  server.start();
  ASSERT_GT(server.port(), 0);

  auto client = connect_to(server);
  // Retired verbs are not verbs: each falls through to the job parser
  // and gets exactly one error record, and the connection stays usable
  // (the next reply on it is the stats answer).
  for (const char* removed :
       {"health", "metrics", "tail", "profile", "clock", "spans"}) {
    const std::string reply = client.query(removed);
    EXPECT_EQ(reply.rfind("error unknown verb '" + std::string(removed) + "'",
                          0),
              0u)
        << reply;
    EXPECT_NE(reply.find("(column 1)"), std::string::npos) << reply;
    EXPECT_EQ(client.query("stats").rfind("ok stats workers=2 ", 0), 0u);
  }
  const std::string stats = client.query("stats");
  EXPECT_EQ(stats.rfind("ok stats workers=2 ", 0), 0u) << stats;
  EXPECT_NE(stats.find(" draining=0 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" cache_entries=0 "), std::string::npos) << stats;
}

TEST(Serve, MatchesBatchByteForByteAtEveryWorkerCount) {
  const std::string expected = serial_records(kJobFile);
  for (unsigned threads : {1u, 2u, 4u}) {
    service::ServerOptions options;
    options.threads = threads;
    service::Server server(std::move(options));
    server.start();
    auto client = connect_to(server);
    const auto report = client.run_lines(kJobFile);
    EXPECT_EQ(report.records_text(), expected) << threads << " workers";
    EXPECT_EQ(report.errors, 1u);
    EXPECT_EQ(report.busy, 0u);
  }
}

TEST(Serve, ManyClientsShareOneWarmCache) {
  service::ServerOptions options;
  options.threads = 4;
  service::Server server(std::move(options));
  server.start();
  const std::string expected = serial_records(kJobFile);

  // Concurrent clients: every one sees byte-identical records.
  std::vector<std::thread> threads;
  std::vector<std::string> outputs(6);
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    threads.emplace_back([&server, &outputs, c] {
      auto client = connect_to(server);
      outputs[c] = client.run_lines(kJobFile).records_text();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::string& output : outputs) EXPECT_EQ(output, expected);

  // The cache outlives connections: a fresh client replaying the same
  // file hits on all 7 successful jobs; only the failing job (errors
  // are never cached) misses again.
  const auto before = server.stats();
  auto client = connect_to(server);
  client.run_lines(kJobFile);
  const auto after = server.stats();
  EXPECT_EQ(after.cache.misses, before.cache.misses + 1);
  EXPECT_GE(after.cache.hits, before.cache.hits + 7);
}

TEST(Serve, OversizedFrameKillsOnlyThatConnection) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();

  auto good = connect_to(server);
  EXPECT_EQ(good.query("stats").rfind("ok stats ", 0), 0u);

  // A raw connection announcing a 4 GiB frame: the server answers with
  // one error frame and closes; the stream cannot be resynchronized.
  const int bad_fd = service::net_connect("127.0.0.1", server.port());
  ASSERT_EQ(::write(bad_fd, "\xff\xff\xff\xff", 4), 4);
  const auto reply = service::read_frame(bad_fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("error oversized frame", 0), 0u) << *reply;
  EXPECT_FALSE(service::read_frame(bad_fd).has_value());  // then EOF
  ::close(bad_fd);

  // The well-behaved connection is unaffected.
  EXPECT_EQ(good.query("stats").rfind("ok stats ", 0), 0u);
  const auto report = good.run_lines({"plan system=barcode"});
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(server.stats().bad_frames, 1u);
}

TEST(Serve, PendingResponsesStillFlushBeforeTheErrorClose) {
  // A job request followed by garbage in the same burst: the job's
  // response arrives first (FIFO slots), then the error, then EOF.
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  const std::string burst =
      service::encode_frame("plan system=barcode") + "\xff\xff\xff\xff";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  const auto first = service::read_frame(fd);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rfind("ok plan ", 0), 0u) << *first;
  const auto second = service::read_frame(fd);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->rfind("error oversized frame", 0), 0u) << *second;
  EXPECT_FALSE(service::read_frame(fd).has_value());
  ::close(fd);
}

TEST(Serve, RepliesOverTheFrameLimitBecomeShortErrors) {
  // Each request fits in one frame, but its error reply echoes it and
  // would not: an unknown verb, and a job option, of nearly 1 MiB.
  // Framed as is, a reply would throw on the event-loop thread and end
  // the daemon; each must get a short error instead, and the connection
  // must stay usable.
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  for (const std::string& request :
       {std::string(service::kMaxFrameBytes, 'x'),
        "plan " + std::string(service::kMaxFrameBytes - 5, 'x')}) {
    service::write_frame(fd, request);
    const auto reply = service::read_frame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->rfind("error reply of ", 0), 0u) << reply->substr(0, 80);
    EXPECT_NE(reply->find(" bytes exceeds the 1048576-byte frame limit"),
              std::string::npos)
        << reply->substr(0, 80);
  }
  service::write_frame(fd, "stats");
  const auto stats = service::read_frame(fd);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rfind("ok stats ", 0), 0u) << *stats;
  ::close(fd);
}

/// Parks worker threads inside before_execute until release() and
/// reports how many workers have entered, so admission/drain tests can
/// sequence requests deterministically against a busy pool.
class WorkerGate {
 public:
  void wait_entered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_cv_.notify_all();
  }
  std::function<void(const std::string&)> hook() {
    return [this](const std::string&) {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [&] { return released_; });
    };
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  std::size_t entered_ = 0;
  bool released_ = false;
};

TEST(Serve, SaturatedQueueAnswersBusyWithoutRunningTheJob) {
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.max_queue = 1;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  // Job 1 occupies the only worker...
  service::write_frame(fd, "plan system=barcode");
  gate.wait_entered(1);
  // ...so job 2 fills the queue (depth 1) and job 3 exceeds the
  // high-water mark.  Frames on one connection process in order, which
  // makes the admission outcomes deterministic.
  service::write_frame(fd, "explore system=barcode");
  service::write_frame(fd, "program system=barcode");
  // Release only once the event loop has rejected job 3; released
  // earlier, the worker can take job 2 off the queue before frame 3 is
  // read, and job 3 is then admitted instead of answered busy.
  while (server.stats().busy_rejects < 1) std::this_thread::sleep_for(1ms);
  gate.release();

  const auto r1 = service::read_frame(fd);
  const auto r2 = service::read_frame(fd);
  const auto r3 = service::read_frame(fd);
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_EQ(r1->rfind("ok plan ", 0), 0u) << *r1;
  EXPECT_EQ(r2->rfind("ok explore ", 0), 0u) << *r2;
  EXPECT_EQ(*r3, "busy queue=1 limit=1");
  ::close(fd);

  const auto stats = server.stats();
  EXPECT_EQ(stats.busy_rejects, 1u);
  EXPECT_EQ(stats.requests, 2u);  // the rejected job was never admitted
  EXPECT_EQ(stats.responses, 2u);
}

TEST(Serve, GracefulDrainFinishesAdmittedWorkAndRejectsTheRest) {
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "plan system=barcode");   // in flight
  gate.wait_entered(1);
  service::write_frame(fd, "explore system=barcode");  // admitted, queued
  // Drain only once the event loop has admitted it; otherwise a slow
  // loop (e.g. under a sanitizer) reads it after the drain began.
  while (server.stats().queue_depth < 1) std::this_thread::sleep_for(1ms);

  server.request_drain();
  while (!server.stats().draining) std::this_thread::sleep_for(1ms);
  // New connections are refused once draining: the listen socket is
  // closed, so a connect attempt fails outright.
  EXPECT_THROW(service::net_connect("127.0.0.1", server.port()),
               util::Error);
  // New work on the existing connection is rejected, structured.
  service::write_frame(fd, "program system=barcode");
  // Release only once that rejection happened: released earlier, both
  // jobs can finish first, and the server closes the flushed, idle
  // connection with the frame unread (the client sees a reset).
  while (server.stats().busy_rejects < 1) std::this_thread::sleep_for(1ms);

  gate.release();
  const auto r1 = service::read_frame(fd);
  const auto r2 = service::read_frame(fd);
  const auto r3 = service::read_frame(fd);
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_EQ(r1->rfind("ok plan ", 0), 0u) << *r1;     // finished in flight
  EXPECT_EQ(r2->rfind("ok explore ", 0), 0u) << *r2;  // finished queued
  EXPECT_EQ(*r3, "busy draining");
  // Flushed and idle, the server closes the connection...
  EXPECT_FALSE(service::read_frame(fd).has_value());
  ::close(fd);
  // ...and the drain completes.
  server.wait();
  const auto stats = server.stats();
  EXPECT_EQ(stats.responses, 2u);
  EXPECT_EQ(stats.busy_rejects, 1u);
  EXPECT_EQ(stats.connections_open, 0u);
}

TEST(Serve, StatsVerbFlipsReadinessDuringDrain) {
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  // `stats` is the readiness signal: ready before the drain...
  service::write_frame(fd, "stats");
  const auto ready = service::read_frame(fd);
  ASSERT_TRUE(ready);
  EXPECT_NE(ready->find(" draining=0 "), std::string::npos) << *ready;

  // ...and, with the only worker parked, draining while the admitted
  // job is still running.
  service::write_frame(fd, "plan system=barcode");
  gate.wait_entered(1);
  server.request_drain();
  while (!server.stats().draining) std::this_thread::sleep_for(1ms);
  service::write_frame(fd, "stats");
  // A job behind the `stats` marks when the loop has read both frames
  // (it is answered `busy draining`).  Released earlier, the plan can
  // finish first, and the server closes the flushed, idle connection
  // with the frames unread.
  service::write_frame(fd, "program system=barcode");
  while (server.stats().busy_rejects < 1) std::this_thread::sleep_for(1ms);

  gate.release();
  const auto plan = service::read_frame(fd);
  const auto draining = service::read_frame(fd);
  const auto rejected = service::read_frame(fd);
  ASSERT_TRUE(plan && draining && rejected);
  EXPECT_EQ(plan->rfind("ok plan ", 0), 0u) << *plan;
  EXPECT_NE(draining->find(" inflight=1 draining=1 "), std::string::npos)
      << *draining;
  EXPECT_EQ(*rejected, "busy draining");
  EXPECT_FALSE(service::read_frame(fd).has_value());
  ::close(fd);
  server.wait();
}

TEST(Serve, DrainClosesIdleConnections) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "stats");
  ASSERT_TRUE(service::read_frame(fd).has_value());
  server.request_drain();
  EXPECT_FALSE(service::read_frame(fd).has_value());  // server-side close
  ::close(fd);
  server.wait();
}

TEST(Serve, ByteBoundedCacheReportsEvictionsInStats) {
  service::ServerOptions options;
  options.threads = 1;
  // A budget small enough that distinct explore payloads evict each
  // other but big enough for one entry.
  options.cache_bytes = 200;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  client.run_lines({"explore system=barcode", "explore system=system2",
                    "explore system=barcode"});
  const auto stats = server.stats();
  EXPECT_GE(stats.cache.evictions, 1u);
  EXPECT_GT(stats.cache.evicted_bytes, 0u);
  EXPECT_LE(stats.cache_entries, 2u);
  const std::string text = client.query("stats");
  EXPECT_NE(text.find("cache_evicted_bytes="), std::string::npos) << text;
}

// --------------------------------------------------------------- telemetry

TEST(Serve, StatsReportTheQueueHighWaterMark) {
  WorkerGate gate;
  service::ServerOptions options;
  options.threads = 1;
  options.before_execute = gate.hook();
  service::Server server(std::move(options));
  server.start();

  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "plan system=barcode");
  gate.wait_entered(1);  // job 1 has been popped: the queue is empty
  service::write_frame(fd, "explore system=barcode");
  service::write_frame(fd, "program system=barcode");
  while (server.stats().queue_depth < 2) std::this_thread::sleep_for(1ms);
  gate.release();
  for (int job = 0; job < 3; ++job) {
    ASSERT_TRUE(service::read_frame(fd).has_value());
  }
  ::close(fd);

  EXPECT_EQ(server.stats().queue_depth_hwm, 2u);
  auto client = connect_to(server);
  const std::string text = client.query("stats");
  EXPECT_NE(text.find(" queue_hwm=2 "), std::string::npos) << text;
}

TEST(Serve, AccessLogCarriesPerRequestTelemetry) {
  const std::string log_path = testing::TempDir() + "serve_access.jsonl";
  std::remove(log_path.c_str());
  service::ServerOptions options;
  // One worker: the duplicate plan job deterministically hits the
  // cache (with more, it can race the first copy's fill and miss).
  options.threads = 1;
  options.access_log = log_path;
  // The access log is self-contained: it does not switch on the
  // metrics registry (only `--metrics` and `--report` do).
  obs::set_metrics_enabled(false);
  service::Server server(std::move(options));
  server.start();
  EXPECT_FALSE(obs::metrics_enabled());
  {
    auto client = connect_to(server);
    EXPECT_EQ(client.run_lines(kJobFile).errors, 1u);
    EXPECT_EQ(client.query("stats").rfind("ok stats ", 0), 0u);
  }
  server.request_drain();
  server.wait();

  std::ifstream log(log_path);
  ASSERT_TRUE(log.is_open());
  std::ostringstream raw;
  raw << log.rdbuf();
  const std::string lines = raw.str();
  EXPECT_NE(lines.find("\"type\":\"serve.access\""), std::string::npos);
  EXPECT_NE(lines.find("\"corr\":\"job-1\""), std::string::npos) << lines;
  EXPECT_NE(lines.find("\"verb\":\"plan\""), std::string::npos);
  EXPECT_NE(lines.find("\"verb\":\"stats\""), std::string::npos);
  EXPECT_NE(lines.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(lines.find("\"cache\":\"hit\""), std::string::npos) << lines;
  std::remove(log_path.c_str());
}

TEST(Serve, AccessLogBoundsAnOversizedVerb) {
  // A 1 MiB first token is logged as its first 32 bytes and its
  // length, so one request adds one short line, not a megabyte.
  const std::string log_path = testing::TempDir() + "serve_verb_access.jsonl";
  std::remove(log_path.c_str());
  service::ServerOptions options;
  options.threads = 1;
  options.access_log = log_path;
  service::Server server(std::move(options));
  server.start();
  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, std::string(service::kMaxFrameBytes, 'x'));
  const auto reply = service::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("error ", 0), 0u) << reply->substr(0, 80);
  ::close(fd);
  server.request_drain();
  server.wait();

  std::ifstream log(log_path);
  std::string line;
  ASSERT_TRUE(std::getline(log, line));
  EXPECT_LT(line.size(), 1024u);
  obs::JsonValue entry;
  std::string error;
  ASSERT_TRUE(obs::json_parse(line, &entry, &error)) << error;
  const obs::JsonValue* verb = entry.get("verb");
  ASSERT_NE(verb, nullptr);
  EXPECT_EQ(verb->string_value, std::string(32, 'x') + "...(1048576 bytes)");
  EXPECT_FALSE(std::getline(log, line)) << "more than one line: " << line;
  std::remove(log_path.c_str());
}

TEST(Serve, AccessLogStaysUtf8WhenAVerbIsNot) {
  // A first token that is not UTF-8 must not make the log undecodable:
  // its bad byte is logged as the escape \ufffd.
  const std::string log_path = testing::TempDir() + "serve_utf8_access.jsonl";
  std::remove(log_path.c_str());
  service::ServerOptions options;
  options.threads = 1;
  options.access_log = log_path;
  service::Server server(std::move(options));
  server.start();
  const int fd = service::net_connect("127.0.0.1", server.port());
  service::write_frame(fd, "pl\xff" "an system=barcode");
  const auto reply = service::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("error ", 0), 0u) << *reply;
  ::close(fd);
  server.request_drain();
  server.wait();

  std::ifstream log(log_path);
  std::string line;
  ASSERT_TRUE(std::getline(log, line));
  // Pure ASCII, hence valid UTF-8.
  EXPECT_TRUE(std::all_of(line.begin(), line.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x80;
  })) << line;
  EXPECT_NE(line.find("\"verb\":\"pl\\ufffdan\""), std::string::npos) << line;
  obs::JsonValue entry;
  std::string error;
  ASSERT_TRUE(obs::json_parse(line, &entry, &error)) << error;
  const obs::JsonValue* verb = entry.get("verb");
  ASSERT_NE(verb, nullptr);
  EXPECT_EQ(verb->string_value, "pl\xef\xbf\xbd" "an");
  std::remove(log_path.c_str());
}

TEST(Serve, TelemetryLeavesRecordsByteIdentical) {
  const std::string expected = serial_records(kJobFile);
  const std::string log_path =
      testing::TempDir() + "serve_identity_access.jsonl";
  std::remove(log_path.c_str());
  service::ServerOptions options;
  options.threads = 3;
  options.access_log = log_path;
  // `serve --metrics` turns the registry on for the whole process.
  obs::set_metrics_enabled(true);
  {
    service::Server server(std::move(options));
    server.start();
    auto client = connect_to(server);
    EXPECT_EQ(client.run_lines(kJobFile).records_text(), expected);
  }
  obs::set_metrics_enabled(false);
  std::remove(log_path.c_str());
}

// ----------------------------------------------------------------- tracing

TEST(Serve, TracedRunRecordsQueueJobAndRespondPerRequest) {
  const std::string expected = serial_records(kJobFile);
  obs::reset_trace();
  obs::set_trace_enabled(true);
  service::ClientReport report;
  {
    service::ServerOptions options;
    options.threads = 2;
    service::Server server(std::move(options));
    server.start();
    report = connect_to(server).run_lines(kJobFile);
    server.request_drain();
    server.wait();
  }
  obs::set_trace_enabled(false);
  // Tracing never changes the records.
  EXPECT_EQ(report.records_text(), expected);

  // One serve/queue and one serve/respond per serve/job, and a forest
  // that holds together: unique non-zero ids, no span ending before it
  // starts, no parent outside the trace.
  const auto events = obs::collect_trace_events();
  std::map<std::string, std::size_t> count;
  std::set<std::uint64_t> ids;
  for (const auto& event : events) {
    ++count[event.name];
    EXPECT_NE(event.id, 0u) << event.name;
    EXPECT_TRUE(ids.insert(event.id).second) << event.name;
    EXPECT_GE(event.end_ns, event.start_ns) << event.name;
  }
  for (const auto& event : events) {
    if (event.parent != 0) {
      EXPECT_EQ(ids.count(event.parent), 1u) << event.name;
    }
  }
  EXPECT_EQ(count["serve/job"], report.jobs);
  EXPECT_EQ(count["serve/queue"], report.jobs);
  EXPECT_EQ(count["serve/respond"], report.jobs);

  // The exported document reloads with both waits in its daemon split.
  obs::analyze::TraceData trace;
  std::string error;
  ASSERT_TRUE(
      obs::analyze::load_trace(obs::chrome_trace_json(), &trace, &error))
      << error;
  const obs::analyze::Aggregate split = obs::analyze::aggregate({trace});
  EXPECT_GT(split.queue_us, 0);
  EXPECT_GT(split.compute_us, 0);
  EXPECT_GT(split.respond_us, 0);
  obs::reset_trace();
}

/// Arms the process flight recorder for one test — what `socet serve
/// --flight-recorder N` does — and switches it off again.
struct FlightRecorder {
  explicit FlightRecorder(std::size_t capacity) {
    obs::journal_start_flight(capacity);
  }
  ~FlightRecorder() { obs::journal_reset(); }
};

TEST(Serve, JournalRingServesTheJournalVerb) {
  const FlightRecorder ring(256);
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  client.run_lines({"plan system=barcode selection=1,2,1"});
  const std::string reply = client.query("journal");
  ASSERT_EQ(reply.rfind("ok journal\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("\"schema\":\"socet-journal-v1\""),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"kind\":\"ring\""), std::string::npos);
  // The job's decision events are in the ring under the wire corr id.
  EXPECT_NE(reply.find("\"corr\":\"job-1\""), std::string::npos) << reply;
}

TEST(Serve, JournalRingKeepsTheNewestLines) {
  const FlightRecorder ring(16);
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  // Eight jobs record far more than 16 events.  One worker and one
  // connection: nothing records between the last reply and the query.
  client.run_lines(kJobFile);
  const std::uint64_t recorded = obs::journal_event_count();
  ASSERT_GT(recorded, 16u);
  const std::string reply = client.query("journal");
  const std::string prefix = "ok journal\n";
  ASSERT_EQ(reply.rfind(prefix, 0), 0u) << reply;
  obs::JournalDoc doc;
  std::string error;
  ASSERT_TRUE(obs::load_journal(reply.substr(prefix.size()), &doc, &error))
      << error;
  ASSERT_EQ(doc.events.size(), 16u) << reply;
  // The newest 16 by seq, oldest first.
  for (std::size_t i = 0; i < doc.events.size(); ++i) {
    const obs::JsonValue* seq = doc.events[i].get("seq");
    ASSERT_NE(seq, nullptr) << reply;
    EXPECT_EQ(seq->number_value, static_cast<double>(recorded - 16 + i));
  }
}

TEST(Serve, JournalVerbWithoutARingIsAStructuredError) {
  service::ServerOptions options;
  options.threads = 1;
  service::Server server(std::move(options));
  server.start();
  auto client = connect_to(server);
  EXPECT_EQ(client.query("journal"),
            "error journal ring disabled (start serve with --flight-recorder N)");
}

TEST(Serve, UnwritablePortFileFailsStart) {
  const std::string path = testing::TempDir() + "no_such_dir/port.txt";
  service::ServerOptions options;
  options.port_file = path;
  service::Server server(std::move(options));
  try {
    server.start();
    ADD_FAILURE() << "start() accepted an unwritable " << path;
  } catch (const util::Error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << error.what();
  }
}

// --------------------------------------------------------------------- CLI

struct CliRun {
  std::string output;
  int exit_code = 0;
};

CliRun run_cli(const std::string& arguments) {
  const std::string command =
      std::string(SOCET_CLI_PATH) + " " + arguments + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CliRun run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

TEST(Cli, ClientJobsMatchLocalBatch) {
  service::ServerOptions options;
  options.threads = 2;
  service::Server server(std::move(options));
  server.start();
  const std::string connect =
      "127.0.0.1:" + std::to_string(server.port());

  const std::string path = testing::TempDir() + "serve_cli_jobs.txt";
  {
    std::ofstream file(path);
    for (const std::string& line : kJobFile) file << line << "\n";
  }
  const CliRun local = run_cli("batch --jobs " + path);
  EXPECT_EQ(local.exit_code, 1);  // kJobFile contains one failing job
  const CliRun remote_client =
      run_cli("client --connect " + connect + " --jobs " + path);
  EXPECT_EQ(remote_client.exit_code, 1);
  EXPECT_EQ(remote_client.output, local.output);

  // `health`, `metrics` and `profile` are no longer client verbs.
  EXPECT_EQ(run_cli("client --connect " + connect + " health").exit_code, 1);
  EXPECT_EQ(run_cli("client --connect " + connect + " metrics").exit_code, 1);
  EXPECT_EQ(run_cli("client --connect " + connect + " profile").exit_code, 1);
  const CliRun stats = run_cli("client --connect " + connect + " stats");
  EXPECT_EQ(stats.exit_code, 0);
  EXPECT_EQ(stats.output.rfind("ok stats workers=2 ", 0), 0u);
  std::remove(path.c_str());
}

TEST(Cli, ClientRejectsBadArguments) {
  EXPECT_EQ(run_cli("client --jobs nowhere.txt").exit_code, 1);
  EXPECT_EQ(run_cli("client --connect 127.0.0.1 --jobs x").exit_code, 1);
  EXPECT_EQ(run_cli("client --connect 127.0.0.1:1 bogus").exit_code, 1);
  // Nothing is listening on a fresh ephemeral port's neighbour; a
  // connect failure is an error, not a hang.
  EXPECT_EQ(run_cli("serve --threads 0").exit_code, 1);
}

TEST(Cli, ServeRejectsAPortThatWouldWrap) {
  // 70000 must be refused, not wrapped to port 4464.  A daemon that
  // listens instead never returns, so `timeout` bounds it (exit 124).
  const std::string command = std::string("timeout 10 ") + SOCET_CLI_PATH +
                              " serve --port 70000 2>/dev/null";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

TEST(Cli, UnknownOptionsAreRejectedByName) {
  // An option the command does not read is a typo, not a default: exit
  // 1 naming it, before any work.  `serve` would otherwise listen
  // forever, so `timeout` bounds it (exit 124).
  const std::string jobs = testing::TempDir() + "serve_cli_typo_jobs.txt";
  {
    std::ofstream file(jobs);
    file << "plan system=barcode selection=1,2,1\n";
  }
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"plan --system barcode --no-such-flag 3",
       "error: unknown option '--no-such-flag' for 'plan'"},
      {"batch --jobs " + jobs + " --theads 8",
       "error: unknown option '--theads' for 'batch'"},
      {"serve --journal-rign 5",
       "error: unknown option '--journal-rign' for 'serve'"},
      // The daemon journal is the flight recorder now.
      {"serve --journal-ring 5",
       "error: unknown option '--journal-ring' for 'serve'"},
      // CPU time is read from spans (`--trace`, then `trace-analyze`),
      // and the daemon answers `stats` instead of serving HTTP.
      {"batch --jobs " + jobs + " --profile p.folded",
       "error: unknown option '--profile' for 'batch'"},
      {"serve --metrics-port 0",
       "error: unknown option '--metrics-port' for 'serve'"},
      // A job file goes to a daemon through `client --jobs` only.
      {"batch --connect 127.0.0.1:1 --jobs " + jobs,
       "error: unknown option '--connect' for 'batch'"},
      // An option given twice is refused, not read as its last value.
      {"plan --system barcode --system system2",
       "error: repeated option '--system' for 'plan'"},
      {"optimize --area-budget 100 --area-budget 5",
       "error: repeated option '--area-budget' for 'optimize'"},
  };
  for (const auto& [arguments, message] : cases) {
    const std::string command = std::string("timeout 10 ") + SOCET_CLI_PATH +
                                " " + arguments + " 2>&1 >/dev/null";
    FILE* pipe = popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string stderr_text;
    char buffer[1024];
    std::size_t n = 0;
    while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
      stderr_text.append(buffer, n);
    }
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << arguments;
    EXPECT_EQ(WEXITSTATUS(status), 1) << arguments;
    EXPECT_EQ(stderr_text, message + "\n") << arguments;
  }
  std::remove(jobs.c_str());
}

TEST(Cli, RemoteRunsKeepStdoutIdenticalAndTraceTheirOwnProcess) {
  service::ServerOptions options;
  options.threads = 2;
  service::Server server(std::move(options));
  server.start();
  const std::string connect = "127.0.0.1:" + std::to_string(server.port());

  const std::string jobs_path = testing::TempDir() + "serve_trace_jobs.txt";
  {
    std::ofstream file(jobs_path);
    for (const std::string& line : kJobFile) file << line << "\n";
  }
  const std::string trace_path = testing::TempDir() + "serve_trace.json";
  std::remove(trace_path.c_str());
  const std::string run =
      "client --connect " + connect + " --jobs " + jobs_path;
  const CliRun plain = run_cli(run);
  const CliRun traced = run_cli(run + " --trace " + trace_path);
  // --trace never changes what the command prints.
  EXPECT_EQ(traced.exit_code, plain.exit_code);
  EXPECT_EQ(traced.output, plain.output);

  // The file holds this process's spans, as on every other command.
  std::ifstream file(trace_path);
  ASSERT_TRUE(file.is_open()) << "no trace at " << trace_path;
  std::ostringstream raw;
  raw << file.rdbuf();
  obs::analyze::TraceData trace;
  std::string error;
  ASSERT_TRUE(obs::analyze::load_trace(raw.str(), &trace, &error)) << error;
  ASSERT_FALSE(trace.roots.empty());
  EXPECT_EQ(trace.spans[static_cast<std::size_t>(trace.roots.front())].name,
            "cli/client");
  std::remove(jobs_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, DaemonTraceLeadsWithAServeRootAndHasNoCliStage) {
  // `serve` opens no cli/serve span: the daemon's own trace holds its
  // per-request serve/* roots only, so trace-analyze's critical-path
  // headline is one of them and no `cli` stage holds the daemon's idle
  // lifetime.
  const std::string dir = testing::TempDir();
  const std::string port_file = dir + "daemon_trace_port.txt";
  const std::string trace_path = dir + "daemon_trace.json";
  const std::string jobs_path = dir + "daemon_trace_jobs.txt";
  std::remove(port_file.c_str());
  std::remove(trace_path.c_str());
  {
    std::ofstream file(jobs_path);
    for (const std::string& line : kJobFile) file << line << "\n";
  }
  const pid_t daemon = ::fork();
  ASSERT_GE(daemon, 0);
  if (daemon == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDERR_FILENO);
    ::execl(SOCET_CLI_PATH, SOCET_CLI_PATH, "serve", "--port", "0",
            "--port-file", port_file.c_str(), "--threads", "2", "--trace",
            trace_path.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::ifstream file(port_file);
    std::ostringstream text;
    text << file.rdbuf();
    if (text.str().ends_with('\n')) {
      port = text.str().substr(0, text.str().size() - 1);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (port.empty()) {
    ::kill(daemon, SIGKILL);
    ::waitpid(daemon, nullptr, 0);
    FAIL() << "the daemon wrote no port file";
  }
  EXPECT_EQ(
      run_cli("client --connect 127.0.0.1:" + port + " --jobs " + jobs_path)
          .exit_code,
      1);  // kJobFile contains one failing job
  ASSERT_EQ(::kill(daemon, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const CliRun analysis = run_cli("trace-analyze " + trace_path);
  EXPECT_EQ(analysis.exit_code, 0);
  EXPECT_NE(analysis.output.find("critical path of slowest root 'serve/"),
            std::string::npos)
      << analysis.output;
  std::ifstream file(trace_path);
  std::ostringstream raw;
  raw << file.rdbuf();
  obs::analyze::TraceData trace;
  std::string error;
  ASSERT_TRUE(obs::analyze::load_trace(raw.str(), &trace, &error)) << error;
  const auto stages = obs::analyze::aggregate({trace}).by_stage;
  ASSERT_FALSE(stages.empty());
  for (const auto& stage : stages) EXPECT_NE(stage.name, "cli");
  std::remove(port_file.c_str());
  std::remove(trace_path.c_str());
  std::remove(jobs_path.c_str());
}

}  // namespace
}  // namespace socet
