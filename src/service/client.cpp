#include "socet/service/client.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "socet/obs/trace.hpp"
#include "socet/service/protocol.hpp"
#include "socet/util/error.hpp"

namespace socet::service {

namespace {

std::string hex_id(std::uint64_t id) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIx64, id);
  return buffer;
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {
  util::require(options_.window >= 1, "client window must be at least 1");
  fd_ = net_connect(options_.host, options_.port);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

ClientReport Client::run_lines(const std::vector<std::string>& lines) {
  // Same filter as PlanningService::run_lines, so job numbering (and
  // therefore output) matches `socet batch` on the same file.
  std::vector<const std::string*> batch;
  for (const std::string& line : lines) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    batch.push_back(&line);
  }

  ClientReport report;
  report.jobs = batch.size();
  report.records.reserve(batch.size());

  if (options_.trace) {
    report.trace.trace_id = obs::new_span_id();
    report.trace.clock_offset_ns = clock_handshake();
  }
  // Per-job submit spans: opened when the frame goes out, closed when
  // its (positionally matched) response comes back — the span covers
  // the job's full wire lifetime, which is what the daemon's
  // queue/job/respond spans nest under.
  std::vector<obs::SpanRecord> submits;
  if (options_.trace) submits.resize(batch.size());

  std::size_t sent = 0;
  std::size_t received = 0;
  while (received < batch.size()) {
    while (sent < batch.size() && sent - received < options_.window) {
      // The corr id matches one-shot batch's JournalScope naming
      // ("job-<n>"), so a daemon-side journal reads exactly like a
      // local one and `socet explain` queries transfer unchanged.
      const std::string corr = "job-" + std::to_string(sent + 1);
      if (options_.trace) {
        auto& span = submits[sent];
        span.name = "submit #" + std::to_string(sent + 1);
        span.id = obs::new_span_id();
        span.start_ns = obs::now_ns();
        const FrameTrace trace{report.trace.trace_id, span.id};
        write_frame(fd_, *batch[sent], corr, &trace);
      } else {
        write_frame(fd_, *batch[sent], corr);
      }
      ++sent;
    }
    auto response = read_frame(fd_);
    util::require(response.has_value(),
                  "server closed the connection after " +
                      std::to_string(received) + " of " +
                      std::to_string(batch.size()) + " responses");
    if (options_.trace) submits[received].end_ns = obs::now_ns();
    ++received;
    if (response->rfind("error", 0) == 0) ++report.errors;
    if (response->rfind("busy", 0) == 0) ++report.busy;
    report.records.push_back("job " + std::to_string(received) + " " +
                             *response);
  }

  if (options_.trace) {
    report.trace.client_spans = std::move(submits);
    report.trace.daemon_spans = collect_spans(report.trace.trace_id);
  }
  return report;
}

std::int64_t Client::clock_handshake() {
  std::vector<obs::ClockSample> samples;
  samples.reserve(options_.clock_probes);
  for (std::size_t probe = 0; probe < options_.clock_probes; ++probe) {
    obs::ClockSample sample;
    sample.send_ns = obs::now_ns();
    write_frame(fd_, "clock");
    auto response = read_frame(fd_);
    sample.recv_ns = obs::now_ns();
    util::require(response.has_value() && response->rfind("ok clock ", 0) == 0,
                  "clock handshake failed: daemon answered '" +
                      response.value_or("<eof>") + "'");
    sample.server_ns = std::strtoull(response->c_str() + 9, nullptr, 10);
    samples.push_back(sample);
  }
  return obs::estimate_clock_offset_ns(samples);
}

std::vector<obs::SpanRecord> Client::collect_spans(std::uint64_t trace_id) {
  write_frame(fd_, "spans " + hex_id(trace_id));
  auto response = read_frame(fd_);
  util::require(response.has_value() && response->rfind("ok spans ", 0) == 0,
                "span collection failed: daemon answered '" +
                    response.value_or("<eof>") + "'");
  const auto newline = response->find('\n');
  std::vector<obs::SpanRecord> spans;
  if (newline != std::string::npos) {
    std::string error;
    // Parse first: the message must be built after `error` is filled.
    const bool ok = obs::parse_remote_spans_jsonl(
        std::string_view(*response).substr(newline + 1), &spans, &error);
    util::require(ok, "span collection failed: " + error);
  }
  return spans;
}

std::string Client::query(const std::string& verb) {
  write_frame(fd_, verb);
  auto response = read_frame(fd_);
  util::require(response.has_value(),
                "server closed the connection before answering '" + verb +
                    "'");
  return *response;
}

std::string ClientTrace::chrome_trace() const {
  obs::MergeInput input;
  input.trace_id = trace_id;
  input.clock_offset_ns = clock_offset_ns;
  input.client_spans = client_spans;
  input.daemon_spans = daemon_spans;
  return obs::merged_chrome_trace(input);
}

std::string ClientReport::records_text() const {
  std::string text;
  for (const std::string& record : records) text += record + "\n";
  return text;
}

}  // namespace socet::service
