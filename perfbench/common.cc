#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"

namespace perfbench {

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void RunResult::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void RunResult::PrintJson() const {
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // Non-finite values are not JSON; they only arise from a broken run,
    // which the checks already mark incorrect.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  values_.reserve(capacity);
}

void Reservoir::Add(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(static_cast<float>(value));
    return;
  }
  std::uniform_int_distribution<int64_t> pick(0, seen_ - 1);
  const int64_t slot = pick(rng_);
  if (slot < static_cast<int64_t>(capacity_)) {
    values_[static_cast<size_t>(slot)] = static_cast<float>(value);
  }
}

std::vector<cgkgr::serve::ScoredItem> BruteForceTopK(
    const float* scores, int64_t num_items,
    const std::vector<int64_t>& seen_sorted, int64_t k) {
  std::vector<cgkgr::serve::ScoredItem> candidates;
  candidates.reserve(static_cast<size_t>(num_items));
  for (int64_t item = 0; item < num_items; ++item) {
    if (std::binary_search(seen_sorted.begin(), seen_sorted.end(), item)) {
      continue;
    }
    candidates.push_back({item, scores[item]});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const cgkgr::serve::ScoredItem& a,
               const cgkgr::serve::ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });
  if (static_cast<int64_t>(candidates.size()) > k) {
    candidates.resize(static_cast<size_t>(k));
  }
  return candidates;
}

double RankSumAuc(const std::vector<float>& positive_scores,
                  const std::vector<float>& negative_scores) {
  std::vector<std::pair<float, bool>> all;
  all.reserve(positive_scores.size() + negative_scores.size());
  for (const float s : positive_scores) all.emplace_back(s, true);
  for (const float s : negative_scores) all.emplace_back(s, false);
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double positive_rank_sum = 0.0;
  size_t i = 0;
  while (i < all.size()) {
    size_t j = i;
    while (j < all.size() && all[j].first == all[i].first) ++j;
    // Ranks are 1-based; a tie group [i, j) shares the mean of its ranks.
    const double average_rank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t t = i; t < j; ++t) {
      if (all[t].second) positive_rank_sum += average_rank;
    }
    i = j;
  }
  const double p = static_cast<double>(positive_scores.size());
  const double n = static_cast<double>(negative_scores.size());
  if (p == 0.0 || n == 0.0) return 0.0;
  return (positive_rank_sum - p * (p + 1.0) / 2.0) / (p * n);
}

void SpanFolder::SetRecording(bool on) {
  if (on) {
    cgkgr::obs::TraceCollector::Default().Enable("");
  } else {
    cgkgr::obs::TraceCollector::Default().Disable();
  }
}

void SpanFolder::Drain() {
  std::vector<cgkgr::obs::TraceCollector::Event> events =
      cgkgr::obs::TraceCollector::Default().DrainEvents();
  // Events arrive sorted by start time; nesting is per thread.
  std::unordered_map<int64_t, std::vector<size_t>> open_by_thread;
  std::vector<double> child_micros(events.size(), 0.0);
  for (size_t e = 0; e < events.size(); ++e) {
    std::vector<size_t>& open = open_by_thread[events[e].tid];
    const double start = events[e].ts_us;
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.ts_us + top.dur_us > start) break;
      open.pop_back();
    }
    if (!open.empty()) child_micros[open.back()] += events[e].dur_us;
    open.push_back(e);
  }
  for (size_t e = 0; e < events.size(); ++e) {
    self_micros_[events[e].name] += events[e].dur_us - child_micros[e];
  }
}

double SpanFolder::SelfMicros(const std::string& name) const {
  const auto it = self_micros_.find(name);
  return it == self_micros_.end() ? 0.0 : it->second;
}

double CpuSeconds() {
  return cgkgr::obs::ProcessStats::Sample().CpuSeconds();
}

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

int64_t PeakRssBytes() {
  return cgkgr::obs::ProcessStats::Sample().peak_rss_bytes;
}

int64_t LiveThreads() {
  return cgkgr::obs::ProcessStats::Sample().num_threads;
}

int64_t CounterValue(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  return cgkgr::obs::MetricsRegistry::Default()
      .GetCounter(name, labels)
      ->value();
}

void ThreadWatch::Sample() { peak_ = std::max(peak_, LiveThreads()); }

void ThreadWatch::Report() const {
  const int64_t cores = cgkgr::ThreadPool::HardwareThreads();
  std::fprintf(stderr, "perfbench: peak threads %lld (nproc %lld)\n",
               static_cast<long long>(peak_), static_cast<long long>(cores));
  if (peak_ > cores) {
    std::fprintf(stderr,
                 "perfbench: WARNING: more threads than hardware threads\n");
  }
}

CpuTicks CpuTicks::Read() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  // cpu user nice system idle iowait irq softirq steal ...
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double StealShareSince(const CpuTicks& before) {
  const CpuTicks now = CpuTicks::Read();
  const int64_t total = now.total - before.total;
  return total > 0 ? static_cast<double>(now.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
