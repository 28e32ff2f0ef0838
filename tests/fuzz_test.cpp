// Robustness: the text parsers must reject arbitrary garbage with a
// util::Error (never crash, never accept), and survive structured
// mutations of valid inputs.  The daemon's decoders get the same
// treatment: the §6 frame reader, the §4 job-line parser that every
// non-verb request reaches, and the journal loader behind
// `explain --connect`.  So do the span readers: the JSON parser under
// them, the `spans` reply parser, and `trace-analyze`'s loader — each
// rejection must say where.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "socet/core/serialize.hpp"
#include "socet/obs/explain.hpp"
#include "socet/obs/journal.hpp"
#include "socet/obs/jsonin.hpp"
#include "socet/obs/trace.hpp"
#include "socet/obs/traceanalyze.hpp"
#include "socet/obs/tracemerge.hpp"
#include "socet/service/job.hpp"
#include "socet/service/protocol.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/rng.hpp"

namespace socet {
namespace {

std::string random_garbage(util::Rng& rng, std::size_t length) {
  static constexpr char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 :.->#\n\t_";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
  }
  return out;
}

TEST(Fuzz, InterfaceParserNeverAcceptsGarbage) {
  util::Rng rng(0xF023);
  for (int trial = 0; trial < 200; ++trial) {
    const auto text = random_garbage(rng, 40 + rng.next_below(200));
    EXPECT_THROW(core::parse_interface(text), util::Error) << text;
  }
}

TEST(Fuzz, MutatedValidInterfaceThrowsOrParses) {
  core::Core gcd = core::Core::prepare(systems::make_gcd_rtl());
  gcd.set_scan_vectors(10);
  const std::string valid = core::serialize_interface(gcd);
  util::Rng rng(0xF025);
  for (int trial = 0; trial < 150; ++trial) {
    std::string mutated = valid;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>('0' + rng.next_below(75));
    try {
      auto parsed = core::parse_interface(mutated);
      // If it parsed, rebuilding a Core may still legitimately throw
      // (e.g. a version edge now names a missing port was caught at
      // parse; zero versions caught here).
      try {
        core::Core::from_interface(parsed);
      } catch (const util::Error&) {
      }
    } catch (const util::Error&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, TruncatedInputsAlwaysRejected) {
  core::Core gcd = core::Core::prepare(systems::make_gcd_rtl());
  gcd.set_scan_vectors(10);
  const std::string valid = core::serialize_interface(gcd);
  ASSERT_EQ(valid.back(), '\n');
  // Every strict prefix misses "end" (and possibly more) and must throw,
  // except the one that drops only the final newline.
  for (std::size_t keep = 0; keep + 1 < valid.size(); ++keep) {
    EXPECT_THROW(core::parse_interface(valid.substr(0, keep)), util::Error)
        << "prefix of " << keep << " bytes accepted";
  }
}

// ------------------------------------------------------ daemon decoders

/// What a FrameReader made of a byte stream.
struct Decoded {
  std::vector<std::string> frames;  ///< one rendering per frame
  bool overflowed = false;
  std::size_t buffered = 0;
};

std::string render_frame(const service::FrameReader::Frame& frame) {
  std::string out = frame.corr + "|" + frame.payload;
  if (frame.has_trace) {
    out += "|" + std::to_string(frame.trace.trace_id) + "/" +
           std::to_string(frame.trace.parent_span);
  }
  return out;
}

/// Decode `wire` fed `step` bytes at a time.
Decoded decode(const std::string& wire, std::size_t step) {
  service::FrameReader reader;
  Decoded out;
  for (std::size_t pos = 0; pos < wire.size(); pos += step) {
    reader.feed(wire.data() + pos, std::min(step, wire.size() - pos));
    while (auto frame = reader.next_frame()) {
      EXPECT_LE(frame->payload.size(), service::kMaxFrameBytes);
      EXPECT_LE(frame->corr.size(), service::kMaxCorrBytes);
      out.frames.push_back(render_frame(*frame));
    }
  }
  out.overflowed = reader.overflowed();
  out.buffered = reader.buffered();
  return out;
}

TEST(Fuzz, MutatedFrameStreamsYieldFramesOrLatch) {
  // Every header layout the decoder knows: plain, corr-flagged,
  // trace-flagged, and both.
  const service::FrameTrace trace{0x0123456789abcdefull, 0xfedcba9876543210ull};
  std::string wire;
  std::vector<std::size_t> ends;  ///< wire offset just past each frame
  std::vector<std::string> expected;
  const auto add = [&](const std::string& payload, const std::string& corr,
                       const service::FrameTrace* context) {
    wire += service::encode_frame(payload, corr, context);
    ends.push_back(wire.size());
    service::FrameReader::Frame frame;
    frame.payload = payload;
    frame.corr = corr;
    frame.has_trace = context != nullptr;
    if (context != nullptr) frame.trace = *context;
    expected.push_back(render_frame(frame));
  };
  add("plan system=barcode selection=1,2,1", "", nullptr);
  add("optimize system=system2 tat-budget=600000", "job-2", nullptr);
  add("explore system=barcode", "", &trace);
  add("spans 123456789abcdef", "job-4", &trace);
  add("", "job-5", nullptr);
  add("stats", "", nullptr);

  // A clean stream cut anywhere yields exactly the frames it holds in
  // full and keeps the rest buffered.
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    const Decoded got = decode(wire.substr(0, cut), 1);
    const auto complete = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
    EXPECT_FALSE(got.overflowed) << cut;
    ASSERT_EQ(got.frames.size(), complete) << cut;
    EXPECT_TRUE(std::equal(got.frames.begin(), got.frames.end(),
                           expected.begin()))
        << cut;
    EXPECT_EQ(got.buffered, cut - (complete == 0 ? 0 : ends[complete - 1]));
  }

  // Mutated (and sometimes truncated) streams: byte-at-a-time delivery
  // must decode exactly like one big read — the same frames, the same
  // latch — whatever the bytes now claim.
  util::Rng rng(0xF026);
  int latched = 0;
  int yielded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = wire;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<char>(rng.next_below(256));
    }
    if (rng.next_bool()) mutated.resize(rng.next_below(mutated.size() + 1));
    const Decoded bytewise = decode(mutated, 1);
    const Decoded whole =
        decode(mutated, std::max<std::size_t>(1, mutated.size()));
    EXPECT_EQ(bytewise.frames, whole.frames) << trial;
    EXPECT_EQ(bytewise.overflowed, whole.overflowed) << trial;
    // A latched reader drops what follows; otherwise nothing is lost.
    if (!bytewise.overflowed) EXPECT_EQ(bytewise.buffered, whole.buffered);
    latched += bytewise.overflowed ? 1 : 0;
    yielded += bytewise.frames.empty() ? 0 : 1;
  }
  EXPECT_GT(latched, 0) << "mutations never latched - decoder too lax?";
  EXPECT_GT(yielded, 0);
}

TEST(Fuzz, MutatedJobLinesParseOrThrow) {
  // Retired daemon verbs are ordinary unknown verbs to the job parser:
  // one located error each.
  for (const char* retired : {"tail", "profile", "health", "metrics"}) {
    try {
      service::parse_job_line(std::string(retired) + " x=1");
      ADD_FAILURE() << retired << " parsed as a job";
    } catch (const util::Error& error) {
      const std::string message = error.what();
      EXPECT_EQ(message.rfind("unknown verb '" + std::string(retired) + "'", 0),
                0u)
          << message;
      EXPECT_NE(message.find("(column 1)"), std::string::npos) << message;
    }
  }

  const std::vector<std::string> corpus = {
      "plan system=barcode selection=1,2,1 pipelined",
      "optimize system=system2 tat-budget=600000",
      "optimize system=barcode area-budget=500",
      "optimize system=barcode w1=1.5 w2=0.25",
      "explore system=barcode",
      "parallel system=barcode selection=2,2,2",
      "program system=synthetic:777:6",
      "tail corr=job-2 type=serve/",
      "profile 0.5",
  };
  static constexpr char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 =,.-:+#\t";
  util::Rng rng(0xF027);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string line = corpus[rng.next_below(corpus.size())];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits && !line.empty(); ++e) {
      const std::size_t at = rng.next_below(line.size());
      const char c = alphabet[rng.next_below(sizeof(alphabet) - 1)];
      switch (rng.next_below(3)) {
        case 0: line[at] = c; break;
        case 1: line.insert(at, 1, c); break;
        default: line.erase(at, 1); break;
      }
    }
    try {
      // Whatever is accepted has a canonical form that is a fixpoint.
      const std::string canonical =
          service::canonical_job_line(service::parse_job_line(line));
      EXPECT_EQ(service::canonical_job_line(service::parse_job_line(canonical)),
                canonical)
          << line;
      ++accepted;
    } catch (const util::Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// A reply to the `journal` verb, minus its "ok journal" status line:
/// the ring header, then event lines rendered by the real sink (every
/// field type, strings that need escaping).
std::string sample_journal_reply() {
  obs::journal_reset();
  obs::journal_start_memory();
  {
    obs::JournalScope scope("job-1");
    SOCET_EVENT("ccg/route", {"core", "CPU"}, {"shift", 2}, {"ok", true});
    SOCET_EVENT("opt/reject", {"why", "tat \"budget\"\t\u00b5"},
                {"delta", -1.5});
  }
  SOCET_EVENT("serve/conn", {"conn", 3u}, {"event", "accept"});
  obs::journal_stop();
  std::string text = obs::journal_jsonl();
  obs::journal_reset();
  text.replace(0, text.find('\n'),
               "{\"schema\":\"socet-journal-v1\",\"events\":3,"
               "\"kind\":\"ring\"}");
  return text;
}

TEST(Fuzz, MutatedJournalRepliesLoadOrSayWhy) {
  const std::string valid = sample_journal_reply();
  obs::JournalDoc doc;
  std::string error;
  ASSERT_TRUE(obs::load_journal(valid, &doc, &error)) << error;
  ASSERT_EQ(doc.events.size(), 3u);

  static constexpr char structural[] = "{}[]\":,\\\n 0123456789tfnu-.e";
  util::Rng rng(0xF028);
  int loaded = 0;
  int refused = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = valid;
    const int flips = static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      text[rng.next_below(text.size())] =
          rng.next_bool()
              ? structural[rng.next_below(sizeof(structural) - 1)]
              : static_cast<char>(rng.next_below(256));
    }
    if (flips == 0 || rng.next_bool()) {
      text.resize(rng.next_below(text.size() + 1));
    }
    doc = {};
    error.clear();
    if (obs::load_journal(text, &doc, &error)) {
      for (const obs::JsonValue& event : doc.events) {
        EXPECT_NE(event.get("type"), nullptr) << text;
      }
      ++loaded;
    } else {
      EXPECT_FALSE(error.empty()) << text;
      ++refused;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
}

/// Flip up to three bytes of `valid` (structural characters or raw
/// bytes) and sometimes truncate it — the mutation every reader suite
/// below shares.
std::string mutate(const std::string& valid, util::Rng& rng) {
  static constexpr char structural[] = "{}[]\":,\\\n 0123456789abcdefxXBE-.";
  std::string text = valid;
  const int flips = static_cast<int>(rng.next_below(4));
  for (int f = 0; f < flips; ++f) {
    text[rng.next_below(text.size())] =
        rng.next_bool() ? structural[rng.next_below(sizeof(structural) - 1)]
                        : static_cast<char>(rng.next_below(256));
  }
  if (flips == 0 || rng.next_bool()) {
    text.resize(rng.next_below(text.size() + 1));
  }
  return text;
}

/// A `--trace` document as the CLI writes it: a named lane, nested
/// slices with ids, and a second thread's lane.
std::string sample_span_trace() {
  obs::reset_trace();
  obs::set_trace_enabled(true);
  obs::name_this_thread("fuzz-main");
  {
    SOCET_SPAN("fuzz/outer");
    { SOCET_SPAN("fuzz/inner"); }
  }
  std::thread([] { SOCET_SPAN("fuzz/worker"); }).join();
  obs::set_trace_enabled(false);
  std::string json = obs::chrome_trace_json();
  obs::reset_trace();
  return json;
}

TEST(Fuzz, MutatedJsonParsesOrNamesAByte) {
  const std::vector<std::string> corpus = {
      sample_span_trace(),
      R"({"a":[1,-2.5e3,true,false,null,"\u00b5\"\\\n"],"b":{"c":{}},"d":[]})",
  };
  util::Rng rng(0xF029);
  int parsed = 0;
  int refused = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string text = mutate(corpus[rng.next_below(corpus.size())], rng);
    obs::JsonValue value;
    std::string error;
    if (obs::json_parse(text, &value, &error)) {
      ++parsed;
      continue;
    }
    ++refused;
    const std::size_t at = error.rfind(" at byte ");
    ASSERT_NE(at, std::string::npos) << error;
    EXPECT_LE(std::stoull(error.substr(at + 9)), text.size()) << error;
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
}

TEST(Fuzz, MutatedSpanLinesParseOrNameTheLine) {
  std::vector<obs::TraceEvent> spans(3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i] = {"serve/job \"" + std::to_string(i) + "\"",
                static_cast<std::uint32_t>(i), 0x1000 + i, i == 0 ? 0u : 0x1000u,
                (1ull << 60) + 10 * i, (1ull << 60) + 100};
  }
  const std::string valid = obs::remote_spans_jsonl(spans);
  util::Rng rng(0xF02A);
  int parsed = 0;
  int refused = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string text = mutate(valid, rng);
    std::vector<obs::TraceEvent> out;
    std::string error;
    if (obs::parse_remote_spans_jsonl(text, &out, &error)) {
      ++parsed;
      for (const obs::TraceEvent& span : out) {
        EXPECT_LE(span.start_ns, span.end_ns) << text;
      }
    } else {
      ++refused;
      EXPECT_EQ(error.rfind("span line ", 0), 0u) << error;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
}

TEST(Fuzz, MutatedTracesLoadOrSayWhere) {
  const std::string valid = sample_span_trace();
  util::Rng rng(0xF02B);
  int loaded = 0;
  int refused = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string text = mutate(valid, rng);
    obs::analyze::TraceData trace;
    std::string error;
    if (obs::analyze::load_trace(text, &trace, &error)) {
      ++loaded;
      // Whatever loads, the analyses digest without crashing.
      (void)obs::analyze::critical_paths(trace);
      (void)obs::analyze::aggregate({trace});
      (void)obs::analyze::folded_stacks({trace});
    } else {
      ++refused;
      EXPECT_TRUE(error.rfind("line ", 0) == 0 ||
                  error.rfind("traceEvents[", 0) == 0)
          << error;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace socet
