#ifndef CGKGR_PERFBENCH_COMMON_H_
#define CGKGR_PERFBENCH_COMMON_H_

// Shared pieces of the CG-KGR benchmark: the run result and its JSON line,
// order statistics, the oracles that check the program's outputs, the span
// folder that turns CGKGR_TRACE spans into self-times, and process probes.

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "serve/request.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshot/delta/model files (removed at exit).
  std::string workdir;
};

/// What one run reports: the operation accounting and its metrics.
class RunResult {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);

  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints the final result line: {"correct", "attempted", "failed",
  /// "metrics"} with every value at full precision.
  void PrintJson() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct_ = true;
  std::vector<Metric> metrics_;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank quantile q in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Fixed-size uniform sample of a stream (Algorithm R), so the memory the
/// benchmark holds does not grow with the program's throughput.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);
  void Add(double value);
  /// Forgets every value (capacity and random stream are kept).
  void Clear() {
    values_.clear();
    seen_ = 0;
  }
  int64_t seen() const { return seen_; }
  std::vector<double> Values() const {
    return std::vector<double>(values_.begin(), values_.end());
  }

 private:
  size_t capacity_;
  int64_t seen_ = 0;
  std::vector<float> values_;
  std::mt19937_64 rng_;
};

/// Top-K by exhaustive sort: every candidate not in `seen_sorted`, ordered
/// by score descending then item id ascending. Deliberately naive — it is
/// the reference the serving engine's blocked partial sort is checked
/// against.
std::vector<cgkgr::serve::ScoredItem> BruteForceTopK(
    const float* scores, int64_t num_items,
    const std::vector<int64_t>& seen_sorted, int64_t k);

/// Area under the ROC curve by the Mann-Whitney rank sum, with average
/// ranks for ties.
double RankSumAuc(const std::vector<float>& positive_scores,
                  const std::vector<float>& negative_scores);

/// Folds the spans the program records under CGKGR_TRACE into per-name
/// self-times (span duration minus the time its direct children cover on
/// the same thread). Drain only at points where no span is open, or accept
/// that a span open across a drain loses its children.
class SpanFolder {
 public:
  /// Starts or stops recording (obs::TraceCollector, no output file).
  static void SetRecording(bool on);
  /// Drains every buffered span into the running totals.
  void Drain();
  /// Total self-time of spans named `name`, in microseconds.
  double SelfMicros(const std::string& name) const;

 private:
  std::map<std::string, double> self_micros_;
};

/// Process CPU seconds (user + system) so far.
double CpuSeconds();
/// CPU seconds the calling thread has run so far. Time the hypervisor
/// takes the thread's vCPU away is not counted (the guest kernel accounts
/// it as steal), nor is time the thread sleeps or waits.
double ThreadCpuSeconds();
/// Peak resident set size so far, in bytes.
int64_t PeakRssBytes();
/// Live threads in this process right now.
int64_t LiveThreads();

/// Value of a registry counter, e.g. threadpool_busy_micros_total{pool=x}.
int64_t CounterValue(const std::string& name,
                     const std::vector<std::pair<std::string, std::string>>&
                         labels = {});

/// Tracks the highest thread count seen; warns when it exceeds nproc.
class ThreadWatch {
 public:
  void Sample();
  int64_t peak() const { return peak_; }
  /// Prints a warning on stderr when the peak exceeded the hardware
  /// threads.
  void Report() const;

 private:
  int64_t peak_ = 0;
};

/// Machine-wide CPU time counters from /proc/stat, in clock ticks.
struct CpuTicks {
  int64_t total = 0;
  int64_t steal = 0;
  static CpuTicks Read();
};

/// Share of the machine's CPU time the hypervisor gave to other guests
/// since `before` (0 when /proc/stat is unavailable). Printed with every
/// run: on a shared host it explains runs of identical code that differ.
double StealShareSince(const CpuTicks& before);

/// Steady-clock seconds since an arbitrary process-local epoch.
double NowSeconds();

}  // namespace perfbench

#endif  // CGKGR_PERFBENCH_COMMON_H_
