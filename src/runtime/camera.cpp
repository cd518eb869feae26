#include "runtime/camera.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "ce/encode.h"
#include "codec/bitplane.h"
#include "util/common.h"

namespace snappix::runtime {

namespace {

const ce::CePattern& checked_pattern(const PatternRef& pattern, int id) {
  SNAPPIX_CHECK(pattern != nullptr, "camera " << id << " needs a CE pattern");
  return *pattern;
}

}  // namespace

// The pattern id and encode table are computed once, used on every frame.
CameraSource::CameraSource(int id, PatternRef pattern)
    : id_(id), pattern_(std::move(pattern)), pattern_id_(checked_pattern(pattern_, id).hash()),
      encode_table_(*pattern_) {}

Frame CameraSource::next_frame() {
  Frame frame = capture_frame();
  if (link_ != nullptr) {
    // Kept for TransportPolicy::kRetransmit; a move, since transfer_framed
    // replaces frame.coded with the receiver-side reassembly anyway.
    last_coded_ = std::move(frame.coded);
    last_sequence_ = frame.sequence;
    if (link_->config().codec) {
      // Classify rides the truncated plane stream; reconstruct needs every
      // plane. Set before the first attempt so retransmits reuse the depth.
      const int planes = frame.task == Task::kClassify ? classify_codec_planes() : 0;
      link_->set_codec_planes(planes);
      frame.decode_depth = static_cast<std::uint8_t>(planes);
    }
    frame.transport_start = Clock::now();
    transfer_framed(frame);
    frame.transport_end = Clock::now();
  }
  return frame;
}

void CameraSource::set_framed(const transport::LinkConfig& link) {
  link_ = std::make_unique<transport::FramedLink>(link);
}

void CameraSource::set_deadline_budget(std::chrono::microseconds budget) {
  if (budget.count() < 0) {
    std::ostringstream os;
    os << "camera " << id_ << ": deadline_budget must be non-negative (0 = no deadline), got "
       << budget.count() << " us";
    throw std::invalid_argument(os.str());
  }
  deadline_budget_ = budget;
}

void CameraSource::set_codec_planes(int planes) {
  if (planes < 0 || planes > codec::kMaxBitplanes) {
    std::ostringstream os;
    os << "camera " << id_ << ": codec_planes must be in [0, " << codec::kMaxBitplanes
       << "] (0 = full depth), got " << planes;
    throw std::invalid_argument(os.str());
  }
  codec_planes_ = planes;
}

void CameraSource::retransmit(Frame& frame) {
  SNAPPIX_CHECK(link_ != nullptr, "camera " << id_ << " is not framed");
  SNAPPIX_CHECK(frame.camera_id == id_ && frame.sequence == last_sequence_,
                "camera " << id_ << " can only retransmit its latest frame (sequence "
                          << last_sequence_ << "), got camera " << frame.camera_id
                          << " sequence " << frame.sequence);
  const std::uint64_t prior_wire_bytes = frame.wire_bytes;
  transfer_framed(frame);
  frame.transport_end = Clock::now();  // the transport span absorbs retries
  // Every attempt's bytes crossed the wire; the frame's traffic accumulates
  // (raw_bytes stays per-attempt: a conventional pipeline has no retries).
  frame.wire_bytes += prior_wire_bytes;
  ++frame.retransmits;
}

namespace {

TransportStatus to_status(transport::RxOutcome outcome) {
  switch (outcome) {
    case transport::RxOutcome::kOk:
      return TransportStatus::kFramedOk;
    case transport::RxOutcome::kCrcError:
      return TransportStatus::kCrcError;
    case transport::RxOutcome::kTruncated:
      return TransportStatus::kTruncated;
    default:
      return TransportStatus::kMissingLines;
  }
}

}  // namespace

void CameraSource::transfer_framed(Frame& frame) {
  transport::TransferResult result =
      link_->transfer(last_coded_, static_cast<std::uint16_t>(frame.sequence & 0xFFFF));
  frame.transport = to_status(result.outcome);
  // The receiver only ever has what the wire delivered — corrupt transfers
  // hand over the partial/damaged reassembly, not the transmitter's tensor.
  frame.coded = std::move(result.coded);
  // Framed accounting replaces the analytic estimate on BOTH sides of the
  // ratio, keeping it an apples-to-apples transport comparison: wire_bytes
  // is the coded frame as actually framed (float32 payload + header/CRC/
  // short-packet overhead), raw_bytes is what a conventional pipeline would
  // ship over the SAME framed link — all T slot frames, identically framed.
  // The compression ratio therefore stays T, as in the analytic model.
  frame.wire_bytes = result.wire_bytes;
  frame.raw_bytes = result.wire_bytes * static_cast<std::uint64_t>(pattern_->slots());
  frame.decoded_planes = result.decoded_planes;
  frame.total_planes = result.total_planes;
}

Frame CameraSource::begin_frame(std::int64_t height, std::int64_t width) {
  Frame frame;
  frame.camera_id = id_;
  frame.sequence = next_sequence_++;
  frame.pattern_id = pattern_id_;
  frame.task = task_;
  frame.precision = precision_;
  frame.qos = qos_;
  // Deadline at capture: the budget covers the frame's WHOLE journey
  // (capture, transport, queueing, batching, inference) — a frame that
  // misses it anywhere downstream is shed rather than served stale.
  if (deadline_budget_.count() > 0) {
    frame.deadline = Clock::now() + deadline_budget_;
  }
  // 8-bit readout: a conventional pipeline ships all T slot frames, the CE
  // sensor ships one coded image of the same geometry.
  frame.wire_bytes = static_cast<std::uint64_t>(height * width);
  frame.raw_bytes = frame.wire_bytes * static_cast<std::uint64_t>(pattern_->slots());
  return frame;
}

Tensor CameraSource::encode_normalized(const Tensor& clip) const {
  SNAPPIX_CHECK(clip.ndim() == 3, "camera " << id_ << " encodes (T, H, W) clips, got "
                                            << clip.shape().to_string());
  return ce::encode_normalized(clip, encode_table_);
}

// --- SyntheticCameraSource ---------------------------------------------------

SyntheticCameraSource::SyntheticCameraSource(int id, const data::SceneConfig& scene,
                                             PatternRef pattern, std::uint64_t seed)
    : CameraSource(id, std::move(pattern)), generator_(scene), rng_(seed) {
  SNAPPIX_CHECK(scene.frames == pattern_->slots(),
                "camera " << id << ": scene frames " << scene.frames
                          << " != pattern slots " << pattern_->slots());
}

Frame SyntheticCameraSource::capture_frame() {
  const data::VideoSample sample = generator_.sample(rng_);
  Frame frame = begin_frame(sample.video.shape()[1], sample.video.shape()[2]);
  frame.coded = encode_normalized(sample.video);
  frame.label = sample.label;
  return frame;
}

// --- DatasetCameraSource -----------------------------------------------------

DatasetCameraSource::DatasetCameraSource(int id,
                                         std::shared_ptr<const data::VideoDataset> dataset,
                                         PatternRef pattern, std::int64_t offset)
    : CameraSource(id, std::move(pattern)), dataset_(std::move(dataset)), cursor_(offset) {
  SNAPPIX_CHECK(dataset_ != nullptr && dataset_->test_size() > 0,
                "camera " << id << ": dataset has no test samples");
  SNAPPIX_CHECK(offset >= 0, "camera " << id << ": negative dataset offset " << offset);
  cursor_ %= dataset_->test_size();
}

Frame DatasetCameraSource::capture_frame() {
  const data::VideoSample& sample = dataset_->test_sample(cursor_);
  cursor_ = (cursor_ + 1) % dataset_->test_size();
  Frame frame = begin_frame(sample.video.shape()[1], sample.video.shape()[2]);
  frame.coded = encode_normalized(sample.video);
  frame.label = sample.label;
  return frame;
}

// --- SensorCameraSource ------------------------------------------------------

SensorCameraSource::SensorCameraSource(int id, const sensor::SensorConfig& sensor_config,
                                       const data::SceneConfig& scene, PatternRef pattern,
                                       std::uint64_t seed)
    : CameraSource(id, std::move(pattern)), sensor_(sensor_config, pattern_),
      generator_(scene), rng_(seed) {
  SNAPPIX_CHECK(scene.frames == pattern_->slots(),
                "camera " << id << ": scene frames " << scene.frames
                          << " != pattern slots " << pattern_->slots());
  SNAPPIX_CHECK(scene.height == sensor_config.height && scene.width == sensor_config.width,
                "camera " << id << ": scene geometry does not match sensor");
}

Frame SensorCameraSource::capture_frame() {
  NoGradGuard guard;
  const data::VideoSample sample = generator_.sample(rng_);
  Frame frame = begin_frame(sensor_.config().height, sensor_.config().width);
  // Cycle-level capture -> scene units -> the same exposure normalization the
  // mathematical path applies. The per-capture stats out-param keeps byte
  // attribution correct even if several cameras share one sensor instance.
  sensor::CaptureStats stats;
  const Tensor captured = sensor_.capture_normalized(sample.video, rng_, &stats);
  frame.coded = ce::normalize_by_exposure(captured, encode_table());
  frame.label = sample.label;
  // Replace the analytic byte estimate with the simulated link's accounting.
  frame.wire_bytes = stats.mipi_bytes;
  frame.raw_bytes = stats.mipi_bytes * static_cast<std::uint64_t>(pattern_->slots());
  return frame;
}

// --- ReplayCameraSource ------------------------------------------------------

ReplayCameraSource::ReplayCameraSource(int id, PatternRef pattern,
                                       std::vector<Tensor> coded,
                                       std::vector<std::int64_t> labels)
    : CameraSource(id, std::move(pattern)), coded_(std::move(coded)),
      labels_(std::move(labels)) {
  SNAPPIX_CHECK(!coded_.empty(), "ReplayCameraSource needs at least one frame");
  SNAPPIX_CHECK(labels_.empty() || labels_.size() == coded_.size(),
                "labels must be empty or parallel to the frame buffer");
}

std::unique_ptr<ReplayCameraSource> ReplayCameraSource::record(CameraSource& source,
                                                               int frames) {
  SNAPPIX_CHECK(frames > 0, "record() needs a positive frame count");
  std::vector<Tensor> coded;
  std::vector<std::int64_t> labels;
  std::vector<std::uint64_t> raw;
  std::vector<std::uint64_t> wire;
  coded.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    Frame frame = source.next_frame();
    coded.push_back(std::move(frame.coded));
    labels.push_back(frame.label);
    raw.push_back(frame.raw_bytes);
    wire.push_back(frame.wire_bytes);
  }
  auto replay = std::make_unique<ReplayCameraSource>(source.id(), source.pattern_ref(),
                                                     std::move(coded), std::move(labels));
  replay->set_task(source.task());
  replay->set_precision(source.precision());
  replay->set_qos(source.qos());
  replay->set_deadline_budget(source.deadline_budget());
  replay->set_codec_planes(source.classify_codec_planes());
  replay->raw_bytes_ = std::move(raw);
  replay->wire_bytes_ = std::move(wire);
  return replay;
}

Frame ReplayCameraSource::capture_frame() {
  const std::size_t i = cursor_;
  cursor_ = (cursor_ + 1) % coded_.size();
  Frame frame = begin_frame(coded_[i].shape()[0], coded_[i].shape()[1]);
  frame.coded = coded_[i];
  if (!labels_.empty()) {
    frame.label = labels_[i];
  }
  if (!raw_bytes_.empty()) {
    frame.raw_bytes = raw_bytes_[i];
    frame.wire_bytes = wire_bytes_[i];
  }
  return frame;
}

}  // namespace snappix::runtime
