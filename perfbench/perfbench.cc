// cgkgr_perfbench: the repo's benchmark binary. One run = one workload in
// one process; the last stdout line is the result JSON. See README.md.
//
//   cgkgr_perfbench --workload train|serve_hot|serve_refresh --seed N
//                   --seconds S --trace 0|1 --workdir DIR

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/flags.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Every per-layer metric with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"data.generate_s", "s"},
      {"graph.sample_us", "us"},
      {"data.negatives_us", "us"},
      {"core.forward_us", "us"},
      {"autograd.backward_us", "us"},
      {"models.reduce_us", "us"},
      {"nn.adam_us", "us"},
      {"models.shard_imbalance_us", "us"},
      {"eval.epoch_s", "s"},
      {"common.pool_busy_share", "share"},
      {"process.cpu_per_op_us", "us"},
      {"process.threads_peak", "count"},
      {"core.export_pair_us", "us"},
      {"serve.snapshot_save_ms", "ms"},
      {"serve.snapshot_load_ms", "ms"},
      {"serve.frontend_us", "us"},
      {"serve.router_us", "us"},
      {"serve.engine_us", "us"},
      {"serve.cache_hit_ratio", "share"},
      {"serve.batch_size_mean", "count"},
      {"serve.queue_peak", "count"},
      {"serve.rank_us", "us"},
      {"serve.merge_us", "us"},
      {"serve.computes_per_request", "count"},
      {"core.rescore_pair_us", "us"},
      {"serve.delta_build_ms", "ms"},
      {"serve.delta_save_ms", "ms"},
      {"serve.delta_apply_ms", "ms"},
      {"serve.delta_rows", "count"},
      {"trace.overhead_share", "share"},
  };
  return units;
}

}  // namespace

void EmitLayers(const LayerMetrics& layers, RunResult* result) {
  for (const auto& [name, unit] : LayerUnits()) {
    const auto it = layers.find(name);
    result->Add(name, it == layers.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : layers) {
    bool known = false;
    for (const auto& entry : LayerUnits()) known |= entry.first == name;
    if (!known) result->Fail("unlisted per-layer metric " + name);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  cgkgr::FlagParser flags;
  flags.DefineString("workload", "", "train | serve_hot | serve_refresh");
  flags.DefineInt64("seed", 1, "input seed");
  flags.DefineDouble("seconds", 10.0, "length of the timed phase");
  flags.DefineInt64("trace", 0, "1: per-layer metrics from a traced run");
  flags.DefineString("workdir", ".bench_build/work",
                     "scratch directory for model/snapshot files");
  const cgkgr::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.help_requested()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return parsed.ok() ? 0 : 2;
  }
  perfbench::RunOptions options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.seconds = flags.GetDouble("seconds");
  options.trace = flags.GetInt64("trace") != 0;
  const std::string base = flags.GetString("workdir");
  options.workdir =
      base + "/" + options.workload + "-" + std::to_string(::getpid());
  if (options.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  perfbench::RunResult result;
  if (options.workload == "train") {
    perfbench::RunTrain(options, &result);
  } else if (options.workload == "serve_hot") {
    perfbench::RunServe(options, /*refresh=*/false, &result);
  } else if (options.workload == "serve_refresh") {
    perfbench::RunServe(options, /*refresh=*/true, &result);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n",
                 options.workload.c_str());
    std::filesystem::remove_all(options.workdir, ec);
    return 2;
  }
  std::filesystem::remove_all(options.workdir, ec);
  result.PrintJson();
  return 0;
}
