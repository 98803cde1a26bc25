// The downlink session both stream workloads are built from: the
// time-domain link of the Fig. 1 home (AP, relay, client at (6,4) m) with
// examples/relay.ff's fading realization, packet and noise streams drawn
// from the workload seed, and the relay designed for that link by
// eval::make_ff_pipeline. Everything is expressed as graph text for the
// stream language, so building a session is a parse plus a build.
#pragma once

#include <cstdint>
#include <string>

#include "eval/testbed.hpp"
#include "eval/timedomain.hpp"
#include "relay/pipeline.hpp"
#include "stream/elements.hpp"

namespace ffbench {

inline constexpr std::size_t kOversample = 4;  // 80 Msps for the 20 MHz PHY
inline constexpr std::size_t kBlock = 256;     // samples per block / wire frame

struct SessionDesign {
  ff::eval::TestbedConfig testbed;
  ff::eval::TimeDomainLink link;
  ff::relay::PipelineConfig pipeline;  // the relay's forward path
  ff::stream::PacketSourceConfig packets;
  ff::stream::ChannelElementConfig sd, sr, rd;
  double fs_hi = 0.0;      // stream sample rate (80 Msps)
  double tx_amp = 0.0;     // AP transmit amplitude (one-tap Fir)
  std::size_t stride = 0;  // samples per packet including its gap, at fs_hi
};

/// The workload's inputs for `seed`: link, packet stream and channel
/// elements, sized to `packets` packets. The relay is not designed.
SessionDesign session_inputs(std::uint64_t seed, std::size_t packets,
                             ff::Precision precision);

/// Design the relay's forward path for the session's link (CNF split,
/// gain, CFO estimate) — the "relay design" part of a workload's set-up.
void design_relay(SessionDesign& s);

/// `Pipeline(...)` parameter list for the relay's forward path.
std::string pipeline_params(const ff::relay::PipelineConfig& p);

/// The full downlink session graph (src, txgain, src_cfo, tee, chan_sd, q,
/// chan_sr, relay, chan_rd, add, sink). `source_class`/`sink_class` name the
/// element classes used for `src` and `sink`.
std::string downlink_graph_text(const SessionDesign& s, const std::string& source_class,
                                const std::string& sink_class);

/// The stream the relay receives: src -> txgain -> src_cfo -> chan_sr -> sink.
std::string sr_stream_graph_text(const SessionDesign& s);

}  // namespace ffbench
