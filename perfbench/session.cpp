#include "session.hpp"

#include <cmath>
#include <vector>

#include "channel/floorplan.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/resample.hpp"
#include "phy/frame.hpp"
#include "stream/params.hpp"

namespace ffbench {

using namespace ff;

namespace {

// Sub-sample path delays get a two-sided interpolation lead, as in the
// batch evaluator; the direct path gets twice the lead so both arrival
// paths share the same total alignment.
constexpr double kAlignSamples = 16.0;

constexpr std::uint64_t kLinkSeed = 20140817;

std::string channel_decl(const char* name, const stream::ChannelElementConfig& c) {
  std::string paths;
  for (const auto& tap : c.channel.taps()) {
    if (!paths.empty()) paths += ",";
    paths += stream::format_double(tap.delay_s) + ":" + stream::format_complex(tap.amp);
  }
  std::string out = std::string(name) + " :: Channel(paths=" + paths +
                    ", fc=" + stream::format_double(c.channel.carrier_hz()) +
                    ", rate=" + stream::format_double(c.sample_rate_hz) +
                    ", delay_ref=" + stream::format_double(c.delay_ref_s);
  if (c.noise_power > 0.0) out += ", noise=" + stream::format_double(c.noise_power);
  out += ", seed=" + std::to_string(c.seed);
  if (c.precision == Precision::kF32) out += ", precision=f32";
  return out + ");\n";
}

std::string source_decl(const SessionDesign& s, const std::string& cls) {
  const auto& pc = s.packets;
  return "src :: " + cls + "(mcs=" + std::to_string(pc.mcs_index) +
         ", payload_bits=" + std::to_string(pc.payload_bits) +
         ", packets=" + std::to_string(pc.n_packets) +
         ", gap=" + std::to_string(pc.gap_samples) +
         ", oversample=" + std::to_string(pc.oversample) +
         ", seed=" + std::to_string(pc.seed) + ", block=" + std::to_string(kBlock) +
         ");\n";
}

std::string front_decls(const SessionDesign& s, const std::string& source_class) {
  std::string cfo = "src_cfo :: Cfo(hz=" + stream::format_double(s.link.source_cfo_hz) +
                    ", rate=" + stream::format_double(s.fs_hi);
  if (s.pipeline.precision == Precision::kF32) cfo += ", precision=f32";
  return source_decl(s, source_class) + "txgain :: Fir(taps=" +
         stream::format_cvec(CVec{Complex{s.tx_amp, 0.0}}) + ");\n" + cfo + ");\n";
}

}  // namespace

SessionDesign session_inputs(std::uint64_t seed, std::size_t packets,
                             Precision precision) {
  SessionDesign s;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  // The link realization is fixed (examples/relay.ff's): its multipath
  // delays set the channel filters' lengths, so a seeded link would change
  // the amount of work from seed to seed. The seed drives the payload bits
  // and every noise stream.
  Rng rng(kLinkSeed);
  s.link = eval::build_td_link(placement, {6.0, 4.0}, s.testbed, rng);
  s.fs_hi = s.testbed.ofdm.sample_rate_hz * static_cast<double>(kOversample);
  s.pipeline.precision = precision;

  auto& pc = s.packets;
  pc.params = s.testbed.ofdm;
  pc.mcs_index = 1;
  pc.payload_bits = 600;
  pc.gap_samples = 400 * kOversample;
  pc.oversample = kOversample;
  pc.seed = seed;
  pc.n_packets = packets;

  // Packet length and power (payload bits change neither).
  const phy::Transmitter tx(pc.params);
  phy::TxOptions txo;
  txo.mcs_index = pc.mcs_index;
  const CVec hi =
      dsp::upsample(tx.modulate(std::vector<std::uint8_t>(pc.payload_bits, 0), txo),
                    pc.oversample);
  s.stride = hi.size() + pc.gap_samples;
  s.tx_amp = std::sqrt(power_from_db(s.link.source_power_dbm) / dsp::mean_power(hi));

  const double align_s = kAlignSamples / s.fs_hi;
  s.sd.channel = s.link.sd;
  s.sd.sample_rate_hz = s.fs_hi;
  s.sd.delay_ref_s = -2.0 * align_s;
  s.sd.noise_power = power_from_db(s.link.dest_noise_dbm) * kOversample;
  s.sd.seed = seed ^ 0xD5;
  s.sr.channel = s.link.sr;
  s.sr.sample_rate_hz = s.fs_hi;
  s.sr.delay_ref_s = -align_s;
  s.sr.noise_power = power_from_db(s.link.relay_noise_dbm) * kOversample;
  s.sr.seed = seed ^ 0x5F;
  s.rd.channel = s.link.rd;
  s.rd.sample_rate_hz = s.fs_hi;
  s.rd.delay_ref_s = -align_s;
  s.rd.seed = seed ^ 0xFD;
  s.sd.precision = s.sr.precision = s.rd.precision = precision;
  return s;
}

void design_relay(SessionDesign& s) {
  const Precision precision = s.pipeline.precision;
  s.pipeline = eval::make_ff_pipeline(s.link, s.testbed.ofdm, /*extra_latency_s=*/0.0);
  s.pipeline.precision = precision;
}

std::string pipeline_params(const relay::PipelineConfig& p) {
  std::string out = "rate=" + stream::format_double(p.sample_rate_hz) +
                    ", adc_dac_delay=" + std::to_string(p.adc_dac_delay_samples) +
                    ", extra_buffer=" + std::to_string(p.extra_buffer_samples) +
                    ", cfo_hz=" + stream::format_double(p.cfo_hz) +
                    ", restore_cfo=" + (p.restore_cfo ? "true" : "false") +
                    ", prefilter=" + stream::format_cvec(p.prefilter) +
                    ", analog_rotation=" + stream::format_complex(p.analog_rotation) +
                    ", gain_db=" + stream::format_double(p.gain_db);
  if (!p.tx_filter.empty()) out += ", tx_filter=" + stream::format_cvec(p.tx_filter);
  if (p.precision == Precision::kF32) out += ", precision=f32";
  return out;
}

std::string downlink_graph_text(const SessionDesign& s, const std::string& source_class,
                                const std::string& sink_class) {
  return front_decls(s, source_class) + "tee :: Tee;\n" + channel_decl("chan_sd", s.sd) +
         "q :: Queue;\n" + channel_decl("chan_sr", s.sr) + "relay :: Pipeline(" +
         pipeline_params(s.pipeline) + ");\n" + channel_decl("chan_rd", s.rd) +
         "add :: Add2;\n" + "sink :: " + sink_class + ";\n" +
         "src -> txgain -> src_cfo -> tee;\n"
         "tee -> chan_sd -> q -> add;\n"
         "tee[1] -> chan_sr -> relay -> chan_rd -> [1]add;\n"
         "add -> sink;\n";
}

std::string sr_stream_graph_text(const SessionDesign& s) {
  return front_decls(s, "PacketSource") + channel_decl("chan_sr", s.sr) +
         "sink :: AccumulatorSink;\n"
         "src -> txgain -> src_cfo -> chan_sr -> sink;\n";
}

}  // namespace ffbench
