// The unified experiment runner: executes a declarative spec
// (bench/specs/*.json) through exp::RunSpec and publishes one schema-v1
// BENCH_<name>.json artifact. This is the single entry point the perf
// trajectory is built from — tools/bench_compare diffs consecutive
// artifacts, and tools/check.sh runs the committed smoke spec behind
// CGKGR_CHECK_BENCH=1.
//
//   ./build/bench/cgkgr_bench                          # bench/specs/default.json
//   ./build/bench/cgkgr_bench --spec bench/specs/smoke.json --overwrite
//   ./build/bench/cgkgr_bench --spec bench/specs/sweeps.json
//   ./build/bench/cgkgr_bench --spec my.json --out /tmp/artifacts
//
// See docs/benchmarking.md for the spec format and artifact schema.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "exp/artifact.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "obs/json.h"

namespace cgkgr {
namespace {

/// "name=value name=value ..." for every metric of a row, %.5g.
std::string MetricsSummary(const obs::Json& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics.members()) {
    if (!out.empty()) out += "  ";
    out += name + "=" + StrFormat("%.5g", value.AsDouble());
  }
  return out;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("spec", "bench/specs/default.json",
                     "experiment spec to run");
  flags.DefineString("out", exp::kDefaultArtifactDir,
                     "artifact output directory (empty = skip the write)");
  flags.DefineBool("overwrite", false,
                   "replace an existing BENCH_*.json artifact");
  flags.DefineInt64("seed", 0, "override the spec's base seed (0 = keep)");
  flags.DefineString("scratch", "/tmp",
                     "scratch directory for scenario work files");
  flags.DefineBool("verbose", false, "log per-case progress");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }

  Result<exp::ExperimentSpec> spec =
      exp::ParseSpecFile(flags.GetString("spec"));
  if (!spec.ok()) {
    std::fprintf(stderr, "%s: %s\n", flags.GetString("spec").c_str(),
                 spec.status().ToString().c_str());
    return 1;
  }
  std::printf("spec %s: %lld case(s), seed %llu\n",
              spec.value().name.c_str(),
              static_cast<long long>(spec.value().cases.size()),
              static_cast<unsigned long long>(spec.value().seed));

  exp::RunnerOptions options;
  options.seed_override = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.verbose = flags.GetBool("verbose");
  options.scratch_dir = flags.GetString("scratch");
  Result<std::vector<exp::CaseResult>> rows =
      exp::RunSpec(spec.value(), options);
  if (!rows.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 rows.status().ToString().c_str());
    return 1;
  }

  TablePrinter table({"Row", "Wall (s)", "Metrics"});
  for (const exp::CaseResult& row : rows.value()) {
    table.AddRow({row.label,
                  StrFormat("%.3f", row.metrics.GetDouble("wall_seconds", 0.0)),
                  MetricsSummary(row.metrics)});
  }
  table.Print();

  const std::string out_dir = flags.GetString("out");
  if (out_dir.empty()) return 0;
  Result<std::string> path = exp::PublishArtifact(
      spec.value().name, rows.value(), out_dir, flags.GetBool("overwrite"));
  if (!path.ok()) {
    std::fprintf(stderr, "artifact: %s\n", path.status().ToString().c_str());
    return 1;
  }
  std::printf("artifact written to %s\n", path.value().c_str());
  return 0;
}

}  // namespace
}  // namespace cgkgr

int main(int argc, char** argv) { return cgkgr::Main(argc, argv); }
