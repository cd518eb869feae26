// The traced run's layer replay: the frames and batch sizes a traced round
// served are pushed again, call by call, through each layer's public
// functions, with a bench span around every call. This times layers the
// server does not trace (CE encode, codec, link, GEMM kernels) and engine
// costs at exactly the batch sizes the run produced, without adding any
// instrumentation to the library.
#pragma once

#include <vector>

#include "fleet.h"
#include "spans.h"

namespace perfbench {

struct LayerTimes {
  double codec_encode_us = 0.0;       // quantize_frame + encode_bitplanes, per frame
  double codec_decode_us = 0.0;       // decode_bitplanes, per frame
  double codec_plane_ratio = 0.0;     // decoded / total planes in the replay
  double transfer_us = 0.0;           // FramedLink::transfer, per frame
  double overhead_ratio = 0.0;        // framed bytes / payload bytes
  double link_ok_ratio = 0.0;         // replayed transfers that arrived intact
  double stack_us = 0.0;              // BatchAggregator::stack_coded, per batch
  double cache_miss_ms = 0.0;         // EngineCache::resolve on a miss
  // Per frame, at the run's batch sizes: [precision][task], fp32/int8 x
  // classify/reconstruct.
  double engine_us[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  double gemm_nn_gflops = 0.0;        // at the engine's qkv/fc1/fc2 shapes
  double gemm_s8_gops = 0.0;
};

// `batch_sizes` are the batch sizes the traced round served, per shard.
LayerTimes replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::vector<int> (&batch_sizes)[2], SpanLane& lane);

}  // namespace perfbench
