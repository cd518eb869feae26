// In-memory span log for the traced run. Each thread that records owns one
// lane (a camera's producer, a shard's before_batch hook, the replay on the
// main thread), so recording takes no lock. Lanes are created before the
// threads start; the log is written once, after every thread has joined.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;        // seconds on the bench clock
  double end = 0.0;
  std::int64_t parent = -1;  // index of the enclosing span in the same lane
  std::uint64_t id = 0;      // frame id (camera << 32 | sequence) or batch id
};

class SpanLane {
 public:
  explicit SpanLane(std::string name) : name_(std::move(name)) {}

  // Opens a span and returns its index; close it with end().
  std::int64_t begin(const char* name, double start, std::uint64_t id,
                     std::int64_t parent = -1) {
    spans_.push_back({name, start, start, parent, id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t index, double end) { spans_[static_cast<std::size_t>(index)].end = end; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  const std::string& name() const { return name_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string name_;
  std::vector<Span> spans_;
};

class SpanLog {
 public:
  SpanLane& lane(const std::string& name) { return lanes_.emplace_back(name); }

  std::size_t size() const;
  // Mean duration in seconds of the spans called `name`, and how many there were.
  double mean_duration(const std::string& name, std::size_t* count = nullptr) const;
  // Writes every span as JSON: {"spans": [{"lane", "name", "start_us",
  // "end_us", "parent", "id"}, ...]}, `parent` being the enclosing span's
  // index in the same array (-1 at the top level).
  void write(const std::string& path) const;

 private:
  std::deque<SpanLane> lanes_;  // deque: lane addresses stay valid as lanes are added
};

}  // namespace perfbench
