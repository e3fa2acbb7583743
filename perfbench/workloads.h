#ifndef CGKGR_PERFBENCH_WORKLOADS_H_
#define CGKGR_PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>

#include "common.h"

namespace perfbench {

/// Per-layer values measured by a traced run, keyed by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Adds every per-layer metric to `result`, in BENCHMARK.json order. A
/// layer the workload leaves idle reports 0.
void EmitLayers(const LayerMetrics& layers, RunResult* result);

/// `train`: CG-KGR Fit on movie (see train.cc).
void RunTrain(const RunOptions& options, RunResult* result);

/// `serve_hot` (`refresh` false) and `serve_refresh` (`refresh` true): the
/// Frontend -> Router -> Engine plane over a music snapshot (see serve.cc).
void RunServe(const RunOptions& options, bool refresh, RunResult* result);

}  // namespace perfbench

#endif  // CGKGR_PERFBENCH_WORKLOADS_H_
