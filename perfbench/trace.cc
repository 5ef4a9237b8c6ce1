#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(const char* name, uint64_t id, uint64_t parent,
                    int64_t start_ns, int64_t end_ns) {
  if (!recording_.load()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, start_ns, end_ns});
}

double Tracer::TotalMicros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) / 1000.0;
}

int64_t Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

std::vector<Tracer::LayerRow> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans_.size(); ++i) by_id[spans_[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it != by_id.end()) children[it->second].emplace_back(s.start_ns,
                                                             s.end_ns);
  }
  std::map<std::string, LayerRow> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t cur_start = 0;
    int64_t cur_end = 0;
    bool open = false;
    for (const auto& [cs, ce] : kids) {
      const int64_t a = std::max(cs, s.start_ns);
      const int64_t b = std::min(ce, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_end) {
        cur_end = std::max(cur_end, b);
      } else {
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_start;
    LayerRow& row = rows[s.name];
    row.name = s.name;
    row.count += 1;
    const int64_t duration = s.end_ns - s.start_ns;
    row.total_ms += static_cast<double>(duration) / 1e6;
    row.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t id)
    : tracer_(tracer != nullptr && tracer->recording() ? tracer : nullptr),
      name_(name),
      parent_(parent),
      id_(id),
      start_ns_(0) {
  if (tracer_ == nullptr) return;
  if (id_ == 0) id_ = tracer_->NextId();
  start_ns_ = SteadyNanos();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->Record(name_, id_, parent_, start_ns_, SteadyNanos());
}

}  // namespace perfbench
