// Serving-engine throughput: queries/sec over a frozen snapshot across a
// lane sweep with the LRU result cache off and on. A thin CLI over the
// exp::RunCase "serve" scenario; results publish as the unified
// BENCH_serve_engine.json artifact.
//
//   ./build/bench/bench_serve_engine
//   ./build/bench/bench_serve_engine --scale 8 --queries 200000 --overwrite
//
// The workload is a fixed pregenerated request stream with zipf-ish user
// skew (half the traffic on ~1/16 of users), served through HandleBatch. The
// model is BPRMF by default — scoring quality is irrelevant here; the engine
// only ever sees the snapshot, so any trained model produces the same
// serving load.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/runner.h"
#include "exp/spec.h"

namespace cgkgr {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("model", "BPRMF", "registry model to freeze");
  flags.DefineString("dataset", "music", "dataset preset to freeze");
  flags.DefineInt64("epochs", 2, "training epochs before the freeze");
  flags.DefineInt64("seed", 17, "base random seed");
  flags.DefineDouble("scale", 6.0, "dataset scale factor");
  flags.DefineInt64("queries", 100000, "queries per configuration");
  flags.DefineInt64("batch", 256, "requests per HandleBatch call");
  flags.DefineInt64("k", 20, "items returned per query");
  flags.DefineString("threads", "1,2,4,8", "lane counts to sweep");
  AddArtifactFlags(&flags);
  ParseFlagsOrDie(&flags, argc, argv);

  exp::CaseSpec spec;
  spec.scenario = "serve";
  spec.model = flags.GetString("model");
  spec.dataset = flags.GetString("dataset");
  spec.scale = flags.GetDouble("scale");
  spec.epochs = flags.GetInt64("epochs");
  spec.queries = flags.GetInt64("queries");
  spec.batch = flags.GetInt64("batch");
  spec.k = flags.GetInt64("k");
  spec.cache = {false, true};
  spec.threads =
      ParsePositiveInt64ListOrDie(flags.GetString("threads"), "threads");

  std::vector<exp::CaseResult> rows;
  const Status st =
      exp::RunCase(spec, static_cast<uint64_t>(flags.GetInt64("seed")),
                   exp::RunnerOptions{}, &rows);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  TablePrinter table({"Threads", "Cache", "Queries/s", "Speedup", "Hit rate",
                      "p50", "p95", "p99"});
  double base_qps = 0.0;
  bool last_cache = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    const exp::CaseResult& row = rows[i];
    const obs::Json* cache_field = row.params.Get("cache");
    const bool cache =
        cache_field != nullptr && cache_field->is_bool() &&
        cache_field->AsBool();
    const double qps = row.metrics.GetDouble("qps", 0.0);
    // Speedup is relative to the first lane count of each cache block.
    if (i == 0 || cache != last_cache) {
      base_qps = qps;
      if (i != 0) table.AddSeparator();
      last_cache = cache;
    }
    table.AddRow(
        {StrFormat("%lld", (long long)row.params.GetInt("threads", 0)),
         cache ? "on" : "off", StrFormat("%.0f", qps),
         StrFormat("%.2fx", qps / base_qps),
         StrFormat("%.1f%%",
                   100.0 * row.metrics.GetDouble("cache_hit_rate", 0.0)),
         StrFormat("%.0f us", row.metrics.GetDouble("latency_p50_us", 0.0)),
         StrFormat("%.0f us", row.metrics.GetDouble("latency_p95_us", 0.0)),
         StrFormat("%.0f us", row.metrics.GetDouble("latency_p99_us", 0.0))});
  }
  table.Print();

  return EmitBenchArtifact(flags, "serve_engine", rows);
}

}  // namespace
}  // namespace bench
}  // namespace cgkgr

int main(int argc, char** argv) { return cgkgr::bench::Main(argc, argv); }
