// perfbench: the fleet benchmark for the SNAPPIX serving stack.
//
//   perfbench --workload <ar_fp32|codec_edge> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//   perfbench --probe
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: untraced and traced rounds alternate on the same
// inputs, the server traces every frame, the bench records its own spans,
// and the served frames and batch sizes are replayed through each layer's
// public functions. Either way the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when an output check fails. See README.md for every metric's definition.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "energy/model.h"
#include "eval/metrics.h"
#include "estimators.h"
#include "fleet.h"
#include "replay.h"
#include "spans.h"
#include "tensor/gemm.h"

namespace {

using namespace perfbench;

// Cold starts: two before every round, topped up to this many at the end.
constexpr std::size_t kColdStarts = 24;
// The warm-up skipped at the start of every round.
constexpr double kWarmupS = 0.15;
// A rate sample spans this many consecutive batches of one shard: 128
// frames, eight times a shard's queue, so a sample cannot be served from
// backlog alone, and any stall that recurs within 16 batches lands in every
// sample.
constexpr std::size_t kRateSpanBatches = 16;
// How far the traced rounds' latency_ms may sit from the untraced rounds'
// for the reconciliation to count as agreeing.
constexpr double kReconcileTolerance = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
};

bool parse(int argc, char** argv, Options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opts.workload = value;
      } else if (key == "--seed") {
        opts.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "--trace") {
        opts.trace = std::stoi(value);
      } else if (key == "--spans") {
        opts.spans = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !opts.workload.empty() && opts.seconds > 0.0 &&
         (opts.trace == 0 || opts.trace == 1);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// A round's steady span: from the later shard's first batch plus the warm-up
// to the moment the first camera asked for its last frame, so both cameras
// are busy throughout.
struct SteadySpan {
  double t0 = 0.0, t1 = 0.0;
};

SteadySpan steady_span(const RoundLog& log) {
  if (log.batches[0].empty() || log.batches[1].empty() || log.captures[0].empty() ||
      log.captures[1].empty()) {
    return {};
  }
  return {std::max(log.batches[0].front().t, log.batches[1].front().t) + kWarmupS,
          std::min(log.captures[0].back(), log.captures[1].back())};
}

// The timing estimators, fed round by round over each round's steady span.
struct Timing {
  std::vector<double> rates[2];  // per shard
  std::vector<double> latency_windows;

  void add(const RoundLog& log) {
    const SteadySpan span = steady_span(log);
    for (int s = 0; s < 2; ++s) {
      const std::vector<double> r = span_rates(log.batches[s], span.t0, span.t1, kRateSpanBatches);
      rates[s].insert(rates[s].end(), r.begin(), r.end());
    }
    const std::vector<double> lat = window_latencies_ms(log.e2e_reads, span.t0, span.t1);
    latency_windows.insert(latency_windows.end(), lat.begin(), lat.end());
  }

  bool complete() const {
    return !rates[0].empty() && !rates[1].empty() && !latency_windows.empty();
  }

  // Per shard, the q-quantile of its rate samples; summed.
  double fleet_fps(double q) const {
    return complete() ? quantile(rates[0], q) + quantile(rates[1], q) : 0.0;
  }

  // The q-quantile of the per-window mean latencies.
  double latency_ms(double q) const {
    return complete() ? quantile(latency_windows, q) : 0.0;
  }
};

// Each round's threads may allocate from their own malloc arenas, and
// memory freed there is kept for reuse by threads that no longer exist.
// Handing it back after every round keeps peak_rss_mb a property of one
// round, not of how many rounds the host's speed allowed.
void release_freed_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

// Totals over a set of rounds, for the ratio metrics.
struct Totals {
  std::int64_t offered = 0, served = 0, classify = 0, agree = 0, rec = 0;
  double psnr_sum = 0.0;
  std::uint64_t frames = 0, wire_bytes = 0, results_bytes = 0;
  std::vector<std::string> errors;

  void add(const RoundLog& log) {
    for (int c = 0; c < 2; ++c) {
      offered += log.tally[c].offered;
      served += log.tally[c].served;
    }
    classify += log.classify_served;
    agree += log.classify_agree;
    rec += log.rec_served;
    psnr_sum += log.rec_psnr_sum;
    frames += log.summary.frames;
    wire_bytes += log.summary.wire_bytes;
    results_bytes = std::max(results_bytes, log.results_bytes);
    errors.insert(errors.end(), log.errors.begin(), log.errors.end());
  }
};

// Edge energy per served frame (µJ): T slots of analog exposure and CE
// pattern streaming, one coded readout, and the wire bytes actually sent
// (one byte per 8-bit pixel) over passive Wi-Fi.
struct EdgeEnergy {
  double capture_uj, readout_uj, transmit_uj;
  double total() const { return capture_uj + readout_uj + transmit_uj; }
};

EdgeEnergy edge_energy(const WorkloadSpec& spec, double wire_bytes_per_frame) {
  const snappix::energy::EnergyModel model;
  const double pixels = static_cast<double>(spec.image) * spec.image;
  return {1e-6 * spec.slots * pixels * (model.analog_pj_per_pixel() + model.ce_pj_per_pixel_slot()),
          1e-6 * pixels * model.readout_pj_per_pixel(),
          1e-6 * wire_bytes_per_frame *
              model.wireless_pj_per_pixel(snappix::energy::WirelessTech::kPassiveWifi)};
}

// Every workload reports every end-to-end metric. One that serves no REC
// frames reports, as rec_psnr_db, the PSNR of the batch-1 reconstructions
// of the frames it serves: a reference figure of its inputs, not of a served
// path, and deterministic per seed.
double reference_psnr(const Inputs& inputs) {
  snappix::NoGradGuard no_grad;
  double sum = 0.0;
  int n = 0;
  for (const CameraInputs& cam : inputs.cameras) {
    for (std::size_t i = 0; i < cam.coded.size(); ++i) {
      const auto& s = cam.coded[i].shape();
      const Tensor video = inputs.system->reconstruct_coded(
          Tensor::from_vector(cam.coded[i].data(), snappix::Shape{1, s[0], s[1]}));
      const auto& v = video.shape();
      sum += snappix::eval::psnr_db(
          Tensor::from_vector(video.data(), snappix::Shape{v[1], v[2], v[3]}), cam.clips[i]);
      ++n;
    }
  }
  return sum / n;
}

void emit(const std::vector<Metric>& metrics, bool correct, std::int64_t attempted,
          std::int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void report_errors(const std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", errors[i].c_str());
  }
  if (errors.size() > 20) {
    std::fprintf(stderr, "... and %zu more\n", errors.size() - 20);
  }
}

int run_untraced(const WorkloadSpec& spec, const Options& opts, const Inputs& inputs) {
  std::vector<double> cold;
  Totals totals;
  Timing timing;
  const double t_end = now_s() + opts.seconds;
  int rounds = 0;
  do {
    // Cold starts between rounds sample the same host phases as the rounds.
    cold.push_back(cold_start(spec, inputs));
    cold.push_back(cold_start(spec, inputs));
    const RoundLog log = run_round(spec, inputs, false, nullptr);
    timing.add(log);
    totals.add(log);
    ++rounds;
    release_freed_memory();
  } while (now_s() < t_end);
  while (cold.size() < kColdStarts) {
    cold.push_back(cold_start(spec, inputs));
  }

  const double wire_per_frame = totals.frames > 0
                                    ? static_cast<double>(totals.wire_bytes) / static_cast<double>(totals.frames)
                                    : 0.0;
  const std::vector<Metric> metrics = {
      {"setup_s", quantile(cold, 0.5), "s"},
      {"fleet_fps", timing.fleet_fps(spec.rate_quantile), "frames/s"},
      {"latency_ms", timing.latency_ms(spec.latency_quantile), "ms"},
      {"wire_bytes_per_frame", wire_per_frame, "B"},
      {"edge_uj_per_frame", edge_energy(spec, wire_per_frame).total(), "uJ"},
      {"top1_agreement",
       totals.classify > 0 ? static_cast<double>(totals.agree) / static_cast<double>(totals.classify) : 0.0,
       "ratio"},
      {"rec_psnr_db",
       totals.rec > 0 ? totals.psnr_sum / static_cast<double>(totals.rec) : reference_psnr(inputs),
       "dB"},
      {"ok_ratio",
       totals.offered > 0 ? static_cast<double>(totals.served) / static_cast<double>(totals.offered) : 0.0,
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::fprintf(stderr, "%s: %d rounds, %zu cold starts, %zu + %zu rate samples, %zu latency windows, %lld frames served\n",
               spec.name.c_str(), rounds, cold.size(), timing.rates[0].size(), timing.rates[1].size(),
               timing.latency_windows.size(), static_cast<long long>(totals.served));
  // Other quantiles of the same samples, for steady.py to record beside the
  // reported estimators.
  std::string candidates;
  char buf[64];
  for (const double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9}) {
    const int pct = static_cast<int>(std::lround(100.0 * q));
    std::snprintf(buf, sizeof(buf), "\"setup_s_p%d\": %.9g, ", pct, quantile(cold, q));
    candidates += buf;
    std::snprintf(buf, sizeof(buf), "\"fleet_fps_p%d\": %.9g, ", pct, timing.fleet_fps(q));
    candidates += buf;
    std::snprintf(buf, sizeof(buf), "\"latency_ms_p%d\": %.9g, ", pct, timing.latency_ms(q));
    candidates += buf;
  }
  std::fprintf(stderr, "candidates {%s}\n", candidates.substr(0, candidates.size() - 2).c_str());
  if (!timing.complete()) {
    totals.errors.push_back("too few steady samples");
  }
  report_errors(totals.errors);
  const bool correct = totals.errors.empty();
  emit(metrics, correct, totals.offered, totals.offered - totals.served);
  return correct ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Options& opts, const Inputs& inputs) {
  SpanLog spans;
  Totals plain_totals, traced_totals;
  Timing plain_timing, traced_timing;
  double hist_e2e_s = 0.0;
  std::vector<RoundLog::FrameTimes> frames;
  double busy_ratio_sum = 0.0, capture_us = 0.0, infer_us = 0.0, queue_wait_us = 0.0;
  std::uint64_t batches = 0, batched = 0, timeout_flushes = 0, steals = 0;
  std::uint64_t cache_hits = 0, cache_lookups = 0, planes_decoded = 0, planes_total = 0;
  std::uint64_t framed = 0, framed_ok = 0;
  std::size_t high_water = 0;
  std::vector<int> batch_sizes[2];
  int rounds = 0;
  const double t_end = now_s() + opts.seconds;
  do {
    // Untraced and traced rounds alternate, so both see the same host phases.
    const RoundLog plain = run_round(spec, inputs, false, nullptr);
    plain_timing.add(plain);
    plain_totals.add(plain);
    release_freed_memory();

    // Only the first traced round records bench spans: one round is enough
    // to show where a frame's time goes, and it bounds the span log.
    RoundLog log = run_round(spec, inputs, true, rounds == 0 ? &spans : nullptr);
    traced_timing.add(log);
    traced_totals.add(log);
    hist_e2e_s += log.e2e_sum_s;
    frames.insert(frames.end(), log.frame_times.begin(), log.frame_times.end());
    const snappix::runtime::RuntimeSummary& s = log.summary;
    busy_ratio_sum += (log.shard_busy_s[0] + log.shard_busy_s[1]) / (2.0 * (log.done - log.start));
    capture_us += s.capture.mean_ms * 1e3;
    infer_us += s.inference.mean_ms * 1e3;
    queue_wait_us += s.queue_wait.mean_ms * 1e3;
    batches += s.batches;
    batched += s.frames;
    timeout_flushes += s.flush_max_latency;
    steals += s.steal_successes;
    cache_hits += s.cache_hits;
    cache_lookups += s.cache_hits + s.cache_misses;
    high_water = std::max(high_water, s.queue_high_water);
    planes_decoded += s.transport.codec_planes_decoded;
    planes_total += s.transport.codec_planes_total;
    framed += s.transport.framed_frames;
    framed_ok += s.transport.ok_frames;
    for (int c = 0; rounds == 0 && c < 2; ++c) {
      for (const BatchMark& b : log.batches[c]) {
        batch_sizes[c].push_back(b.frames);
      }
    }
    ++rounds;
    release_freed_memory();
  } while (now_s() < t_end);

  const LayerTimes layers = replay_layers(spec, inputs, batch_sizes, spans.lane("replay"));

  // ce.encode_us: the capture spans where the camera encodes at capture,
  // otherwise the CE encode of each clip while the inputs were built.
  std::size_t ce_count = 0;
  double ce_us = 1e6 * spans.mean_duration("ce_encode", &ce_count);
  if (ce_count == 0) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const CameraInputs& cam : inputs.cameras) {
      for (const double t : cam.ce_encode_s) {
        sum += t;
        ++n;
      }
    }
    ce_us = 1e6 * sum / static_cast<double>(n);
  }

  // Reconciliation, from the per-frame stage times to latency_ms. (1) The
  // trace holds every served frame, and its frame spans sum to the same
  // rounds' e2e histogram within 0.1%. (2) A frame's stages (capture, queue
  // wait, batch assembly, infer) account for its e2e time within 1%
  // (trace.unexplained_ratio). (3) So the traced rounds' latency_ms, the
  // same estimator over that histogram, is the per-frame stage times'
  // latency; it should agree with the untraced rounds' latency_ms within
  // kReconcileTolerance (the ratio is obs.trace_overhead_ratio). (1) and (2)
  // are exact and fail the run; (3) compares two timings taken minutes
  // apart on a noisy host, so it is reported, not gated.
  double stages = 0.0, e2e = 0.0, assembly = 0.0;
  std::vector<double> per_frame_ms;
  per_frame_ms.reserve(frames.size());
  for (const RoundLog::FrameTimes& ft : frames) {
    stages += ft.stages;
    e2e += ft.e2e;
    assembly += ft.assembly;
    per_frame_ms.push_back(1e3 * ft.e2e);
  }
  const double n_frames = static_cast<double>(std::max<std::size_t>(frames.size(), 1));
  const double unexplained = e2e > 0.0 ? 1.0 - stages / e2e : 1.0;
  const double untraced_ms = plain_timing.latency_ms(spec.latency_quantile);
  const double traced_ms = traced_timing.latency_ms(spec.latency_quantile);
  const double overhead = untraced_ms > 0.0 ? traced_ms / untraced_ms : 0.0;
  std::vector<std::string> errors = plain_totals.errors;
  errors.insert(errors.end(), traced_totals.errors.begin(), traced_totals.errors.end());
  if (frames.size() != static_cast<std::size_t>(traced_totals.served) ||
      !(std::fabs(e2e / hist_e2e_s - 1.0) <= 1e-3)) {
    errors.push_back("the trace does not hold every served frame's e2e time");
  }
  if (!(std::fabs(unexplained) <= 0.01)) {
    errors.push_back("a frame's traced stages do not account for its e2e time");
  }
  std::fprintf(stderr,
               "reconciliation: traced latency_ms %.4f (stages explain all but %.4f%% of e2e) "
               "vs untraced %.4f: %+.1f%%, %s the %.0f%% tolerance\n",
               traced_ms, 100.0 * unexplained, untraced_ms, 100.0 * (overhead - 1.0),
               std::fabs(overhead - 1.0) <= kReconcileTolerance ? "within" : "OUTSIDE",
               100.0 * kReconcileTolerance);
  if (!plain_timing.complete() || !traced_timing.complete()) {
    errors.push_back("too few steady samples");
  }

  const double n_rounds = static_cast<double>(rounds);
  const double wire_per_frame =
      traced_totals.frames > 0
          ? static_cast<double>(traced_totals.wire_bytes) / static_cast<double>(traced_totals.frames)
          : 0.0;
  const EdgeEnergy energy = edge_energy(spec, wire_per_frame);
  const double mean_batch =
      batches > 0 ? static_cast<double>(batched) / static_cast<double>(batches) : 0.0;
  const auto ratio = [](std::uint64_t num, std::uint64_t den, double otherwise) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : otherwise;
  };
  const std::vector<Metric> metrics = {
      {"ce.encode_us", ce_us, "us"},
      {"codec.encode_us", layers.codec_encode_us, "us"},
      {"codec.decode_us", layers.codec_decode_us, "us"},
      {"codec.plane_ratio", ratio(planes_decoded, planes_total, layers.codec_plane_ratio), "ratio"},
      {"transport.transfer_us", layers.transfer_us, "us"},
      {"transport.overhead_ratio", layers.overhead_ratio, "ratio"},
      {"transport.ok_ratio", ratio(framed_ok, framed, layers.link_ok_ratio), "ratio"},
      {"queue.wait_us", queue_wait_us / n_rounds, "us"},
      {"queue.high_water", static_cast<double>(high_water), "count"},
      {"batcher.batch_size", mean_batch, "count"},
      {"batcher.fill_ratio", mean_batch / snappix::runtime::BatchPolicy{}.max_batch, "ratio"},
      {"batcher.timeout_flush_ratio", ratio(timeout_flushes, batches, 0.0), "ratio"},
      {"batcher.assembly_us", 1e6 * assembly / n_frames, "us"},
      {"batcher.stack_us", layers.stack_us, "us"},
      {"cache.hit_ratio", ratio(cache_hits, cache_lookups, 0.0), "ratio"},
      {"cache.miss_ms", layers.cache_miss_ms, "ms"},
      {"engine.fp32_classify_us", layers.engine_us[0][0], "us"},
      {"engine.fp32_rec_us", layers.engine_us[0][1], "us"},
      {"engine.int8_classify_us", layers.engine_us[1][0], "us"},
      {"engine.int8_rec_us", layers.engine_us[1][1], "us"},
      {"tensor.gemm_nn_gflops", layers.gemm_nn_gflops, "GFLOP/s"},
      {"tensor.gemm_s8_gops", layers.gemm_s8_gops, "GOP/s"},
      {"server.capture_us", capture_us / n_rounds, "us"},
      {"server.infer_us", infer_us / n_rounds, "us"},
      {"server.busy_ratio", busy_ratio_sum / n_rounds, "ratio"},
      {"server.steal_ratio", ratio(steals, batches, 0.0), "ratio"},
      {"server.results_mb", 1e-6 * static_cast<double>(traced_totals.results_bytes), "MB"},
      {"energy.readout_uj", energy.readout_uj, "uJ"},
      {"energy.transmit_uj", energy.transmit_uj, "uJ"},
      {"obs.trace_overhead_ratio", overhead, "ratio"},
      {"trace.unexplained_ratio", unexplained, "ratio"},
      {"trace.latency_p50_ms", per_frame_ms.empty() ? 0.0 : nearest_rank(per_frame_ms, 0.5), "ms"},
      {"trace.latency_p999_ms", per_frame_ms.empty() ? 0.0 : nearest_rank(per_frame_ms, 0.999), "ms"},
      {"trace.latency_samples", static_cast<double>(per_frame_ms.size()), "count"},
  };
  if (!opts.spans.empty()) {
    spans.write(opts.spans);
    std::fprintf(stderr, "wrote %zu spans to %s\n", spans.size(), opts.spans.c_str());
  }
  report_errors(errors);
  const bool correct = errors.empty();
  const std::int64_t attempted = plain_totals.offered + traced_totals.offered;
  const std::int64_t served = plain_totals.served + traced_totals.served;
  emit(metrics, correct, attempted, attempted - served);
  return correct ? 0 : 1;
}

// Host-phase probe: a fixed fp32 GEMM at the fp32 engine's qkv shape
// (batch 8 at 32x32), called back to back for about a second. Printed as
// one JSON line: the 10th percentile and the median of the per-call time,
// which show whether the host was in its fast or slow phase.
int run_probe() {
  constexpr std::int64_t m = 128, k = 48, n = 144;
  std::vector<float> a(m * k, 0.5F), b(k * n, 0.25F), c(m * n);
  std::vector<double> calls;
  const double t_end = now_s() + 1.0;
  while (now_s() < t_end) {
    const double t0 = now_s();
    std::fill(c.begin(), c.end(), 0.0F);
    snappix::detail::gemm_nn(a.data(), b.data(), c.data(), m, k, n);
    calls.push_back(1e6 * (now_s() - t0));
  }
  std::printf("{\"probe_gemm_us_p10\": %.4f, \"probe_gemm_us_p50\": %.4f, \"calls\": %zu}\n",
              quantile(calls, 0.1), quantile(calls, 0.5), calls.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--probe") == 0) {
    return run_probe();
  }
  Options opts;
  if (!parse(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\n",
                 workload_names().c_str());
    return 2;
  }
  const std::vector<std::string> failures = selfcheck();
  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "estimator self-check failed: %s\n", f.c_str());
    }
    return 3;
  }
  const WorkloadSpec* spec = find_workload(opts.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (have: %s)\n", opts.workload.c_str(),
                 workload_names().c_str());
    return 2;
  }
  try {
    const Inputs inputs = make_inputs(*spec, opts.seed);
    return opts.trace == 0 ? run_untraced(*spec, opts, inputs) : run_traced(*spec, opts, inputs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench failed: %s\n", e.what());
    return 4;
  }
}
