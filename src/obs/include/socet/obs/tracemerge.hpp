// Cross-process trace assembly for `batch --connect --trace`.
//
// The client and the daemon run on the same machine or not — either
// way their steady clocks have unrelated epochs, so daemon-side span
// timestamps must be re-based onto the client's timeline before the
// two halves can share one Chrome trace.  The client performs a small
// clock handshake (a few `clock` probes over the already-open
// connection) and `estimate_clock_offset_ns` turns the probe samples
// into an offset using the classic min-RTT midpoint estimate: the
// sample with the smallest round trip bounds the server timestamp
// tightest, and the midpoint of its send/receive pair is the best
// guess for when the server read its clock.
//
// `merged_chrome_trace` then renders ONE trace-event document:
//
//   pid 1  socet client   submit lanes (one X slice per in-flight job)
//   pid 2  socet serve    queue/respond lanes + one lane per worker
//
// Every slice comes from `chrome_slice` (trace.hpp), the renderer the
// local `--trace` export uses, so both documents carry hex
// `args.span`/`args.parent` ids; flow events (`ph:"s"`/`"f"`) draw the
// client→daemon handoff in Perfetto.
//
// Span timestamps cross the wire as *decimal strings*, not JSON
// numbers: steady-clock nanosecond readings can exceed the 2^53
// integer range of a double, and only differences are small.  The
// merged document's `ts`/`dur` are relative microseconds and safe as
// numbers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "socet/obs/trace.hpp"

namespace socet::obs {

/// One `clock` probe: client send/receive times (client clock) and the
/// server's reported time (daemon clock), all in nanoseconds.
struct ClockSample {
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
  std::uint64_t server_ns = 0;
};

/// Min-RTT midpoint estimate of (daemon clock − client clock) in
/// nanoseconds: daemon_ns ≈ client_ns + offset.  Samples with
/// recv < send are ignored; returns 0 when no sample is usable.
std::int64_t estimate_clock_offset_ns(const std::vector<ClockSample>& samples);

/// Serialize spans for the serve `spans` verb: one JSON object per line
/// (ids as hex strings, timestamps as decimal-string ns).
std::string remote_spans_jsonl(const std::vector<TraceEvent>& spans);

/// Parse `remote_spans_jsonl` output.  Unknown fields are ignored.
/// Every other field is required and strict: `tid` a whole number that
/// fits 32 bits, `id`/`parent` hex, `start_ns`/`end_ns` decimal with
/// end >= start.  A malformed line fails the whole parse with its line
/// number and field.
bool parse_remote_spans_jsonl(std::string_view text,
                              std::vector<TraceEvent>* out,
                              std::string* error = nullptr);

/// Everything needed to assemble one cross-process trace.
struct MergeInput {
  std::int64_t clock_offset_ns = 0;      ///< daemon = client + offset
  std::vector<TraceEvent> client_spans;  ///< client clock (submit spans)
  std::vector<TraceEvent> daemon_spans;  ///< daemon clock
};

/// One Chrome trace-event JSON document with client and daemon spans
/// on aligned timelines (see the file comment for the layout).
std::string merged_chrome_trace(const MergeInput& input);

}  // namespace socet::obs
