// Graph language + handler tests: Params typed parsing, the Click-style
// text format (parse/print round trip, line:col diagnostics), text-built
// graphs reproducing hand-wired ones bit for bit (the pinned relay-session
// checksum under both scheduler modes), and the live-handler determinism
// contract — a write handler queued at a fixed stream position produces
// identical output at any block size, thread count, or scheduler mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/floorplan.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "eval/testbed.hpp"
#include "eval/timedomain.hpp"
#include "phy/frame.hpp"
#include "stream/elements.hpp"
#include "stream/graph.hpp"
#include "stream/lang.hpp"
#include "stream/params.hpp"
#include "stream/scheduler.hpp"

namespace ff {
namespace {

using stream::Graph;
using stream::GraphSpec;
using stream::Params;
using stream::Scheduler;
using stream::SchedulerConfig;

CVec random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CVec x(n);
  for (auto& s : x) s = rng.cgaussian();
  return x;
}

std::uint64_t fnv1a_bytes(const void* bytes, std::size_t len) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t checksum(const CVec& v) {
  return fnv1a_bytes(v.data(), v.size() * sizeof(Complex));
}

/// The thrown message for any FF_CHECK failure inside `fn`.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::logic_error& err) {
    return err.what();
  }
  return {};
}

// ------------------------------------------------------------------ Params

TEST(Params, TypedGettersParseAndMarkUsed) {
  Params p;
  p.set_context("Fir 'f'");
  p.set("taps", "(0.5,-0.25),(1,0)");
  p.set("gain", "-3.5");
  p.set("n", "42");
  p.set("on", "true");
  p.set("z", "(1,2)");
  p.set("label", "hello");

  const CVec taps = p.get_cvec("taps");
  ASSERT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps[0], (Complex{0.5, -0.25}));
  EXPECT_EQ(taps[1], (Complex{1.0, 0.0}));
  EXPECT_DOUBLE_EQ(p.get_double("gain"), -3.5);
  EXPECT_EQ(p.get_size("n"), 42u);
  EXPECT_TRUE(p.get_bool("on"));
  EXPECT_EQ(p.get_complex("z"), (Complex{1.0, 2.0}));
  EXPECT_EQ(p.get_string("label"), "hello");
  EXPECT_NO_THROW(p.check_all_used());

  // Fallback forms don't require presence.
  EXPECT_DOUBLE_EQ(p.get_double_or("absent", 7.0), 7.0);
}

TEST(Params, ErrorsNameContextAndField) {
  Params p;
  p.set_context("Cfo 'c'");
  p.set("hz", "fast");
  const std::string msg = thrown_message([&] { p.get_double("hz"); });
  EXPECT_NE(msg.find("Cfo 'c'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("hz"), std::string::npos) << msg;

  const std::string missing = thrown_message([&] { p.get_double("rate"); });
  EXPECT_NE(missing.find("rate"), std::string::npos) << missing;
}

TEST(Params, CheckAllUsedRejectsLeftoverKey) {
  Params p;
  p.set_context("Fir 'f'");
  p.set("taps", "(1,0)");
  p.set("tap", "(1,0)");  // typo'd key, never consumed
  (void)p.get_cvec("taps");
  const std::string msg = thrown_message([&] { p.check_all_used(); });
  EXPECT_NE(msg.find("tap: unknown parameter"), std::string::npos) << msg;
}

TEST(Params, DuplicateKeyRejected) {
  Params p;
  p.set("a", "1");
  EXPECT_THROW(p.set("a", "2"), std::logic_error);
}

TEST(Params, HasIsNonConsuming) {
  // Regression: has() used to mark the key consumed, so an element could
  // probe a typo'd key and check_all_used() would silently pass it.
  Params p;
  p.set_context("Fir 'f'");
  p.set("bogus", "1");
  EXPECT_TRUE(p.has("bogus"));
  EXPECT_FALSE(p.has("absent"));
  const std::string msg = thrown_message([&] { p.check_all_used(); });
  EXPECT_NE(msg.find("bogus: unknown parameter"), std::string::npos) << msg;
}

TEST(Params, ListParenErrorsAreImmediateAndNameTheField) {
  // Regression: a stray ')' used to underflow the depth counter and an
  // unterminated '(' swallowed the rest of the value; both mis-split the
  // list silently instead of failing.
  const std::string stray = thrown_message(
      [] { stream::split_list_value("Channel 'c': paths", "1:2),3:4"); });
  EXPECT_NE(stray.find("unbalanced ')'"), std::string::npos) << stray;
  EXPECT_NE(stray.find("paths"), std::string::npos) << stray;

  const std::string open = thrown_message(
      [] { stream::split_list_value("Channel 'c': paths", "(1,2"); });
  EXPECT_NE(open.find("unterminated '('"), std::string::npos) << open;
  EXPECT_NE(open.find("paths"), std::string::npos) << open;

  const auto ok = stream::split_list_value("t", "(1,2),(3,4)");
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok[0], "(1,2)");
  EXPECT_EQ(ok[1], "(3,4)");
}

TEST(Params, FormattingRoundTripsExactly) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.gaussian() * std::pow(10.0, rng.uniform() * 40.0 - 20.0);
    EXPECT_EQ(stream::parse_double_value("t", stream::format_double(v)), v);
  }
  const CVec taps = random_signal(17, 5);
  EXPECT_EQ(stream::parse_cvec_value("t", stream::format_cvec(taps)), taps);
}

// ---------------------------------------------------------------- handlers

TEST(Handlers, ReadWriteAndDirectionErrors) {
  stream::FirElement fir("fir");
  Params p;
  p.set("taps", "(1,0)");
  fir.configure(p);

  EXPECT_EQ(fir.call_read("class"), "Fir");
  EXPECT_EQ(fir.call_read("taps"), "(1,0)");
  fir.call_write("set_taps", "(0.5,0),(0.25,0)");
  EXPECT_EQ(fir.call_read("taps"), "(0.5,0),(0.25,0)");

  // Unknown handler / wrong direction fail crisply.
  EXPECT_THROW(fir.call_read("nope"), std::logic_error);
  EXPECT_THROW(fir.call_write("taps", "(1,0)"), std::logic_error);  // read-only
  EXPECT_THROW(fir.call_read("set_taps"), std::logic_error);        // write-only
}

TEST(Handlers, GraphHandlerLookupNamesKnownElements) {
  Graph g;
  g.emplace<stream::Queue>("q");
  const std::string msg =
      thrown_message([&] { (void)g.handler("missing", "class"); });
  EXPECT_NE(msg.find("missing"), std::string::npos) << msg;
  EXPECT_NE(msg.find("q"), std::string::npos) << msg;  // the known-element list
  EXPECT_EQ(g.handler("q", "class").read(), "Queue");
}

TEST(Handlers, PositionedWriteRequiresSupport) {
  stream::AccumulatorSink sink("sink");
  EXPECT_THROW(sink.write_at(10, "samples", "x"), std::logic_error);
  stream::Tee tee("tee");
  EXPECT_THROW(tee.write_at(10, "anything", "x"), std::logic_error);
  // Transforms support positioned writes, but only on write handlers.
  stream::FirElement fir("fir");
  EXPECT_THROW(fir.write_at(10, "taps", "(1,0)"), std::logic_error);
  EXPECT_NO_THROW(fir.write_at(10, "set_taps", "(1,0)"));
  EXPECT_EQ(fir.pending_writes(), 1u);
}

// ------------------------------------------------------------------ parsing

const char* kExampleGraph =
    "// a declaration, a chain with an inline and an anonymous element\n"
    "src :: VectorSource(data=(1,0),(2,0),(3,0), block=2);\n"
    "src -> Fir(taps=(1,0)) -> sink :: AccumulatorSink;\n";

TEST(Lang, ParsesDeclsChainsAndAnonymousElements) {
  const GraphSpec spec = stream::parse_graph(kExampleGraph);
  ASSERT_EQ(spec.decls.size(), 3u);
  EXPECT_EQ(spec.decls[0].name, "src");
  EXPECT_EQ(spec.decls[0].class_name, "VectorSource");
  EXPECT_EQ(spec.decls[0].params.get_cvec("data").size(), 3u);
  EXPECT_EQ(spec.decls[1].name, "Fir@1");  // anonymous, auto-named
  EXPECT_EQ(spec.decls[1].class_name, "Fir");
  EXPECT_EQ(spec.decls[2].name, "sink");
  ASSERT_EQ(spec.connections.size(), 2u);
  EXPECT_EQ(spec.connections[0].from, "src");
  EXPECT_EQ(spec.connections[0].to, "Fir@1");
  EXPECT_EQ(spec.connections[1].from, "Fir@1");
  EXPECT_EQ(spec.connections[1].to, "sink");
}

TEST(Lang, PortAndCapacitySyntax) {
  const GraphSpec spec = stream::parse_graph(
      "t :: Tee(outputs=3); a :: NullSink; b :: NullSink; v :: "
      "VectorSource(data=(1,0));\n"
      "v -> t;\n"
      "t[1] -[4]-> a;\n"
      "t[2] -> b;\n"
      "t -> NullSink();\n");
  ASSERT_EQ(spec.connections.size(), 4u);
  EXPECT_EQ(spec.connections[1].from_port, 1u);
  EXPECT_EQ(spec.connections[1].capacity, 4u);
  EXPECT_EQ(spec.connections[2].from_port, 2u);
  EXPECT_EQ(spec.connections[3].from_port, 0u);
}

TEST(Lang, ToTextRoundTripIsStable) {
  const GraphSpec spec = stream::parse_graph(kExampleGraph);
  const std::string text = spec.to_text();
  const GraphSpec again = stream::parse_graph(text);
  EXPECT_EQ(again.to_text(), text);
  ASSERT_EQ(again.decls.size(), spec.decls.size());
  for (std::size_t i = 0; i < spec.decls.size(); ++i) {
    EXPECT_EQ(again.decls[i].name, spec.decls[i].name);
    EXPECT_EQ(again.decls[i].class_name, spec.decls[i].class_name);
    EXPECT_EQ(again.decls[i].params.items(), spec.decls[i].params.items());
  }
}

TEST(Lang, FileValueSubstitution) {
  stream::FileReader fake = [](const std::string& path) -> std::string {
    EXPECT_EQ(path, "taps.txt");
    return "(0.5,0),(0.25,-0.25)\n";
  };
  const GraphSpec spec =
      stream::parse_graph("f :: Fir(taps=@taps.txt);", "<test>", fake);
  const CVec taps = spec.decls[0].params.get_cvec("taps");
  ASSERT_EQ(taps.size(), 2u);
  EXPECT_EQ(taps[1], (Complex{0.25, -0.25}));
}

// ------------------------------------------------------------- diagnostics

TEST(LangDiagnostics, DuplicateNameCarriesLineAndColumn) {
  const std::string msg = thrown_message([] {
    stream::parse_graph("a :: Queue;\na :: Queue;\n", "g.ff");
  });
  EXPECT_NE(msg.find("g.ff:2:1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate element name 'a'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;  // first decl site
}

TEST(LangDiagnostics, UnknownClassNamesTheKnownOnes) {
  Graph g;
  const std::string msg = thrown_message([&] {
    stream::build_graph(g, "x :: Fri(taps=(1,0)); x -> NullSink();", "g.ff");
  });
  EXPECT_NE(msg.find("g.ff:1:1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown element class 'Fri'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Fir"), std::string::npos) << msg;  // the catalog
}

TEST(LangDiagnostics, BadParamValueCarriesDeclLocation) {
  Graph g;
  const std::string msg = thrown_message([&] {
    stream::build_graph(g, "s :: VectorSource(data=(1,0));\nc :: Cfo(hz=fast);\ns -> c -> NullSink();",
                        "g.ff");
  });
  EXPECT_NE(msg.find("g.ff:2:1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Cfo 'c'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("hz"), std::string::npos) << msg;
}

TEST(LangDiagnostics, UnknownParameterRejectedWithDeclLocation) {
  Graph g;
  const std::string msg = thrown_message([&] {
    stream::build_graph(g, "f :: Fir(taps=(1,0), tap_count=2);\n"
                           "VectorSource(data=(1,0)) -> f -> NullSink();", "g.ff");
  });
  EXPECT_NE(msg.find("g.ff:1:1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tap_count"), std::string::npos) << msg;
}

TEST(LangDiagnostics, UndeclaredReferenceAndSyntaxErrors) {
  const std::string unknown = thrown_message([] {
    stream::parse_graph("a :: Queue;\na -> ghost;\n", "g.ff");
  });
  EXPECT_NE(unknown.find("g.ff:2:6"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("unknown element 'ghost'"), std::string::npos) << unknown;

  const std::string nosemi =
      thrown_message([] { stream::parse_graph("a :: Queue", "g.ff"); });
  EXPECT_NE(nosemi.find("g.ff:1:11"), std::string::npos) << nosemi;

  const std::string badarrow =
      thrown_message([] { stream::parse_graph("a :: Queue;\na -[0]-> a;", "g.ff"); });
  EXPECT_NE(badarrow.find("capacity"), std::string::npos) << badarrow;

  const std::string unterminated =
      thrown_message([] { stream::parse_graph("a :: Fir(taps=(1,0);", "g.ff"); });
  EXPECT_NE(unterminated.find("unterminated"), std::string::npos) << unterminated;
}

// ------------------------------------------- text == hand-wired, bit-exact

/// The bench_runtime stream_relay session (tests/stream_test.cpp pins the
/// hand-wired construction); here it is *serialized to text*, re-parsed and
/// rebuilt through the registry, and must reproduce the same samples.
struct RelaySession {
  eval::TimeDomainLink link;
  relay::PipelineConfig pipeline;
  stream::PacketSourceConfig packets;
  double fs_hi = 0.0;
};

RelaySession make_relay_session(std::size_t max_packets) {
  constexpr std::size_t kOversample = 4;
  const eval::TestbedConfig tb;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  Rng rng(20140817);

  RelaySession s;
  s.link = eval::build_td_link(placement, {6.0, 4.0}, tb, rng);
  s.fs_hi = tb.ofdm.sample_rate_hz * static_cast<double>(kOversample);
  s.pipeline = eval::make_ff_pipeline(s.link, tb.ofdm, /*extra_latency_s=*/0.0);

  s.packets.params = tb.ofdm;
  s.packets.mcs_index = 3;
  s.packets.payload_bits = 600;
  s.packets.gap_samples = 400 * kOversample;
  s.packets.oversample = kOversample;
  s.packets.seed = 20140817;
  const phy::Transmitter tx(tb.ofdm);
  const std::size_t stride =
      tx.modulate(std::vector<std::uint8_t>(s.packets.payload_bits, 0),
                  {.mcs_index = s.packets.mcs_index})
              .size() *
          kOversample +
      s.packets.gap_samples;
  const auto want = static_cast<std::size_t>(5e-3 * s.fs_hi);
  s.packets.n_packets =
      std::min(max_packets, std::max<std::size_t>(1, want / stride));
  return s;
}

stream::ChannelElementConfig channel_cfg(const RelaySession& s,
                                         const channel::MultipathChannel& ch,
                                         double noise_dbm, std::uint64_t seed_xor) {
  stream::ChannelElementConfig cfg;
  cfg.channel = ch;
  cfg.sample_rate_hz = s.fs_hi;
  cfg.noise_power = noise_dbm != 0.0 ? power_from_db(noise_dbm) * 4.0 : 0.0;
  cfg.seed = s.packets.seed ^ seed_xor;
  return cfg;
}

/// Hand-wired construction — byte-for-byte the stream_test session.
void wire_session(Graph& g, const RelaySession& s, std::size_t block_size) {
  constexpr std::size_t kCap = 8;
  auto* src = g.emplace<stream::PacketSource>("src", s.packets, block_size);
  auto* cfo = g.emplace<stream::CfoElement>("src_cfo", s.link.source_cfo_hz, s.fs_hi);
  auto* tee = g.emplace<stream::Tee>("tee", 2);
  auto* chan_sd = g.emplace<stream::ChannelElement>(
      "chan_sd", channel_cfg(s, s.link.sd, s.link.dest_noise_dbm, 0xD5));
  auto* q = g.emplace<stream::Queue>("q");
  auto* chan_sr = g.emplace<stream::ChannelElement>(
      "chan_sr", channel_cfg(s, s.link.sr, s.link.relay_noise_dbm, 0x5F));
  auto* relay = g.emplace<stream::PipelineElement>("relay", s.pipeline);
  auto* chan_rd = g.emplace<stream::ChannelElement>(
      "chan_rd", channel_cfg(s, s.link.rd, 0.0, 0xFD));
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");

  g.connect(*src, 0, *cfo, 0, kCap);
  g.connect(*cfo, 0, *tee, 0, kCap);
  g.connect(*tee, 0, *chan_sd, 0, kCap);
  g.connect(*chan_sd, 0, *q, 0, kCap);
  g.connect(*q, 0, *add, 0, kCap);
  g.connect(*tee, 1, *chan_sr, 0, kCap);
  g.connect(*chan_sr, 0, *relay, 0, kCap);
  g.connect(*relay, 0, *chan_rd, 0, kCap);
  g.connect(*chan_rd, 0, *add, 1, kCap);
  g.connect(*add, 0, *sink, 0, kCap);
}

std::string format_paths(const channel::MultipathChannel& ch) {
  std::string out;
  for (const auto& tap : ch.taps()) {
    if (!out.empty()) out += ",";
    out += stream::format_double(tap.delay_s) + ":" + stream::format_complex(tap.amp);
  }
  return out;
}

Params channel_params(const stream::ChannelElementConfig& cfg) {
  Params p;
  p.set("paths", format_paths(cfg.channel));
  p.set("fc", stream::format_double(cfg.channel.carrier_hz()));
  p.set("rate", stream::format_double(cfg.sample_rate_hz));
  if (cfg.noise_power > 0.0) p.set("noise", stream::format_double(cfg.noise_power));
  p.set("seed", std::to_string(cfg.seed));
  return p;
}

/// The same session printed as a graph description (every value %.17g).
std::string session_text(const RelaySession& s, std::size_t block_size) {
  GraphSpec spec;
  auto decl = [&spec](const char* name, const char* cls, Params params) {
    stream::ElementDecl d;
    d.name = name;
    d.class_name = cls;
    d.params = std::move(params);
    spec.decls.push_back(std::move(d));
  };
  Params src;
  src.set("mcs", std::to_string(s.packets.mcs_index));
  src.set("payload_bits", std::to_string(s.packets.payload_bits));
  src.set("packets", std::to_string(s.packets.n_packets));
  src.set("gap", std::to_string(s.packets.gap_samples));
  src.set("oversample", std::to_string(s.packets.oversample));
  src.set("seed", std::to_string(s.packets.seed));
  src.set("block", std::to_string(block_size));
  decl("src", "PacketSource", std::move(src));

  Params cfo;
  cfo.set("hz", stream::format_double(s.link.source_cfo_hz));
  cfo.set("rate", stream::format_double(s.fs_hi));
  decl("src_cfo", "Cfo", std::move(cfo));

  decl("tee", "Tee", {});
  decl("chan_sd", "Channel",
       channel_params(channel_cfg(s, s.link.sd, s.link.dest_noise_dbm, 0xD5)));
  decl("q", "Queue", {});
  decl("chan_sr", "Channel",
       channel_params(channel_cfg(s, s.link.sr, s.link.relay_noise_dbm, 0x5F)));

  Params relay;
  relay.set("rate", stream::format_double(s.pipeline.sample_rate_hz));
  relay.set("adc_dac_delay", std::to_string(s.pipeline.adc_dac_delay_samples));
  relay.set("extra_buffer", std::to_string(s.pipeline.extra_buffer_samples));
  relay.set("cfo_hz", stream::format_double(s.pipeline.cfo_hz));
  relay.set("restore_cfo", s.pipeline.restore_cfo ? "true" : "false");
  relay.set("prefilter", stream::format_cvec(s.pipeline.prefilter));
  relay.set("analog_rotation", stream::format_complex(s.pipeline.analog_rotation));
  relay.set("gain_db", stream::format_double(s.pipeline.gain_db));
  if (!s.pipeline.tx_filter.empty())
    relay.set("tx_filter", stream::format_cvec(s.pipeline.tx_filter));
  relay.set("scrub_nonfinite", s.pipeline.scrub_nonfinite ? "true" : "false");
  decl("relay", "Pipeline", std::move(relay));

  decl("chan_rd", "Channel", channel_params(channel_cfg(s, s.link.rd, 0.0, 0xFD)));
  decl("add", "Add2", {});
  decl("sink", "AccumulatorSink", {});

  auto edge = [&spec](const char* from, std::size_t fp, const char* to, std::size_t tp) {
    stream::Connection c;
    c.from = from;
    c.from_port = fp;
    c.to = to;
    c.to_port = tp;
    spec.connections.push_back(std::move(c));
  };
  edge("src", 0, "src_cfo", 0);
  edge("src_cfo", 0, "tee", 0);
  edge("tee", 0, "chan_sd", 0);
  edge("chan_sd", 0, "q", 0);
  edge("q", 0, "add", 0);
  edge("tee", 1, "chan_sr", 0);
  edge("chan_sr", 0, "relay", 0);
  edge("relay", 0, "chan_rd", 0);
  edge("chan_rd", 0, "add", 1);
  edge("add", 0, "sink", 0);
  return spec.to_text();
}

std::uint64_t run_graph(Graph& g, const SchedulerConfig& sc) {
  Scheduler(g, sc).run();
  auto* sink = dynamic_cast<stream::AccumulatorSink*>(g.find("sink"));
  EXPECT_NE(sink, nullptr);
  return checksum(sink->take());
}

std::uint64_t run_hand_wired(const RelaySession& s, std::size_t block,
                             const SchedulerConfig& sc) {
  Graph g;
  wire_session(g, s, block);
  return run_graph(g, sc);
}

std::uint64_t run_text_built(const RelaySession& s, std::size_t block,
                             const SchedulerConfig& sc) {
  Graph g;
  stream::build_graph(g, session_text(s, block), "<session>",
                      stream::ElementRegistry::builtin(), 8);
  return run_graph(g, sc);
}

TEST(LangChecksum, TextBuiltSessionMatchesPinnedChecksumBothModes) {
  // The exact constant stream_test pins for the hand-wired session. The
  // text path — serialize, parse, registry construction, configure() —
  // must land on the same bytes.
  constexpr std::uint64_t kChecksum = 0x6A5A4D77AD3C20FFULL;
  const RelaySession s = make_relay_session(/*max_packets=*/SIZE_MAX);

  SchedulerConfig reference;
  EXPECT_EQ(run_hand_wired(s, 256, reference), kChecksum);
  EXPECT_EQ(run_text_built(s, 256, reference), kChecksum);

  SchedulerConfig throughput;
  throughput.mode = stream::SchedulerMode::kThroughput;
  throughput.threads = 4;
  throughput.batch_size = 16;
  EXPECT_EQ(run_text_built(s, 256, throughput), kChecksum);
}

TEST(LangChecksum, TextEqualsHandWiredAcrossBlockSizesAndModes) {
  // Shorter session (3 packets) so the block-size grid stays fast; the
  // equality must hold at every block size in both modes — and across
  // block sizes, since the session is block-size invariant.
  const RelaySession s = make_relay_session(/*max_packets=*/3);
  const SchedulerConfig reference;
  const std::uint64_t expected = run_hand_wired(s, 64, reference);

  for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{4096}}) {
    EXPECT_EQ(run_hand_wired(s, block, reference), expected) << "block=" << block;
    EXPECT_EQ(run_text_built(s, block, reference), expected) << "block=" << block;

    SchedulerConfig throughput;
    throughput.mode = stream::SchedulerMode::kThroughput;
    throughput.threads = 2;
    throughput.batch_size = 4;
    EXPECT_EQ(run_text_built(s, block, throughput), expected) << "block=" << block;
  }
}

// -------------------------------------- positioned writes are deterministic

CVec run_write_grid_session(const CVec& data, std::size_t block,
                            const SchedulerConfig& sc) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", data, block);
  auto* fir = g.emplace<stream::FirElement>("fir", CVec{Complex{1.0, 0.0}});
  auto* cfo = g.emplace<stream::CfoElement>("cfo", 500.0, 20e6);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *fir, 0, 8);
  g.connect(*fir, 0, *cfo, 0, 8);
  g.connect(*cfo, 0, *sink, 0, 8);

  // The determinism contract under test: a write handler queued at a fixed
  // stream position takes effect at exactly that sample, regardless of how
  // the stream is blocked or scheduled.
  fir->write_at(1000, "set_taps", "(0.5,0.25),(0.1,0)");
  cfo->write_at(2500, "set_cfo", "1500");

  Scheduler(g, sc).run();
  EXPECT_EQ(fir->pending_writes(), 0u);
  // Read-back prints %.17g, so 0.1 comes back as its exact double value.
  EXPECT_EQ(stream::parse_cvec_value("t", fir->call_read("taps")),
            (CVec{Complex{0.5, 0.25}, Complex{0.1, 0.0}}));
  EXPECT_EQ(cfo->call_read("cfo_hz"), "1500");
  return sink->take();
}

TEST(LangWriteHandlers, PositionedWritesDeterministicAcrossBlockThreadsModes) {
  const CVec data = random_signal(6000, 31);
  SchedulerConfig baseline_cfg;
  const CVec baseline = run_write_grid_session(data, 64, baseline_cfg);
  ASSERT_EQ(baseline.size(), data.size());

  // The writes genuinely changed the stream (vs. the no-write session).
  {
    Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", data, 64);
    auto* fir = g.emplace<stream::FirElement>("fir", CVec{Complex{1.0, 0.0}});
    auto* cfo = g.emplace<stream::CfoElement>("cfo", 500.0, 20e6);
    auto* sink = g.emplace<stream::AccumulatorSink>("sink");
    g.connect(*src, 0, *fir, 0, 8);
    g.connect(*fir, 0, *cfo, 0, 8);
    g.connect(*cfo, 0, *sink, 0, 8);
    Scheduler(g, SchedulerConfig{}).run();
    const CVec untouched = sink->take();
    EXPECT_NE(untouched, baseline);
    // ...and the prefix before the first write position is untouched.
    EXPECT_TRUE(std::equal(untouched.begin(), untouched.begin() + 1000,
                           baseline.begin()));
    EXPECT_NE(untouched[1000], baseline[1000]);
  }

  for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{256}, std::size_t{4096}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SchedulerConfig ref;
      ref.threads = threads;
      EXPECT_EQ(run_write_grid_session(data, block, ref), baseline)
          << "reference block=" << block << " threads=" << threads;

      SchedulerConfig thr;
      thr.mode = stream::SchedulerMode::kThroughput;
      thr.threads = threads;
      thr.batch_size = 4;
      EXPECT_EQ(run_write_grid_session(data, block, thr), baseline)
          << "throughput block=" << block << " threads=" << threads;
    }
  }
}

// --------------------------------------------------- quiescent-point reads

TEST(LangHandlers, OnRoundReadsLiveCountersAtQuiescentPoints) {
  const CVec data = random_signal(1000, 7);
  Graph g;
  stream::build_graph(g,
                      "src :: VectorSource(data=" + stream::format_cvec(data) +
                          ", block=64);\n"
                          "src -> sink :: NullSink;\n",
                      "<test>", stream::ElementRegistry::builtin(), 4);

  std::vector<std::uint64_t> produced;
  SchedulerConfig sc;
  sc.on_round = [&](std::uint64_t) {
    produced.push_back(std::stoull(g.handler("src", "produced").read()));
  };
  Scheduler(g, sc).run();

  ASSERT_FALSE(produced.empty());
  EXPECT_TRUE(std::is_sorted(produced.begin(), produced.end()));
  EXPECT_EQ(produced.back(), data.size());
  EXPECT_EQ(g.handler("sink", "samples_seen").read(), std::to_string(data.size()));
}

TEST(LangHandlers, OnRoundRejectedInThroughputMode) {
  const CVec data = random_signal(64, 7);
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", data, 32);
  auto* sink = g.emplace<stream::NullSink>("sink");
  g.connect(*src, 0, *sink, 0, 4);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.on_round = [](std::uint64_t) {};
  EXPECT_THROW(Scheduler(g, sc).run(), std::logic_error);
}

}  // namespace
}  // namespace ff
