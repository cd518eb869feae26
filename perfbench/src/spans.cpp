#include "spans.h"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace perfbench {

std::size_t SpanLog::size() const {
  std::size_t n = 0;
  for (const SpanLane& lane : lanes_) {
    n += lane.spans().size();
  }
  return n;
}

double SpanLog::mean_duration(const std::string& name, std::size_t* count) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const SpanLane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      if (name == span.name) {
        sum += span.end - span.start;
        ++n;
      }
    }
  }
  if (count != nullptr) {
    *count = n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

void SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  std::fputs("{\"spans\": [\n", out);
  std::int64_t offset = 0;
  bool first = true;
  for (const SpanLane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      std::fprintf(out,
                   "%s{\"lane\": \"%s\", \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %lld, \"id\": %llu}",
                   first ? "" : ",\n", lane.name().c_str(), span.name, span.start * 1e6,
                   span.end * 1e6,
                   static_cast<long long>(span.parent < 0 ? -1 : offset + span.parent),
                   static_cast<unsigned long long>(span.id));
      first = false;
    }
    offset += static_cast<std::int64_t>(lane.spans().size());
  }
  std::fputs("\n]}\n", out);
  if (std::fclose(out) != 0) {
    throw std::runtime_error("failed writing spans to " + path);
  }
}

}  // namespace perfbench
