#include "socet/service/client.hpp"

#include <unistd.h>

#include <utility>

#include "socet/service/protocol.hpp"
#include "socet/util/error.hpp"

namespace socet::service {

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

  std::size_t sent = 0;
  std::size_t received = 0;
  while (received < batch.size()) {
    while (sent < batch.size() && sent - received < options_.window) {
      // The corr id matches one-shot batch's JournalScope naming
      // ("job-<n>"), so a daemon-side journal reads exactly like a
      // local one and `socet explain` queries transfer unchanged.
      write_frame(fd_, *batch[sent], "job-" + std::to_string(sent + 1));
      ++sent;
    }
    auto response = read_frame(fd_);
    util::require(response.has_value(),
                  "server closed the connection after " +
                      std::to_string(received) + " of " +
                      std::to_string(batch.size()) + " responses");
    ++received;
    if (response->rfind("error", 0) == 0) ++report.errors;
    if (response->rfind("busy", 0) == 0) ++report.busy;
    report.records.push_back("job " + std::to_string(received) + " " +
                             *response);
  }
  return report;
}

std::string Client::query(const std::string& verb) {
  write_frame(fd_, verb);
  auto response = read_frame(fd_);
  util::require(response.has_value(),
                "server closed the connection before answering '" + verb +
                    "'");
  return *response;
}

std::string ClientReport::records_text() const {
  std::string text;
  for (const std::string& record : records) text += record + "\n";
  return text;
}

}  // namespace socet::service
