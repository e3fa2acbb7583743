// The `serve_hot` and `serve_refresh` workloads: the online serving plane
// (Frontend -> Router -> Engine) over a snapshot of CG-KGR trained one
// epoch on the music preset. One client thread keeps a fixed window of
// requests outstanding (closed loop) and checks every answer against a
// brute-force Top-K; on serve_refresh a publisher thread re-scores user
// slices with a second model and hot-reloads them as deltas meanwhile.
//
// Set-up and refresh are timed on the CPU clock of the thread doing them:
// on a shared host the hypervisor takes vCPUs away for milliseconds at a
// time, and wall time follows how much it takes (the same refresh read 158
// ms at 7% steal and 275 ms at 22%). The thread's CPU clock does not count
// that time. Wall-clock figures are printed on stderr for reference.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "core/cgkgr_config.h"
#include "core/cgkgr_model.h"
#include "data/dataset.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "models/recommender.h"
#include "serve/delta.h"
#include "serve/engine.h"
#include "serve/frontend.h"
#include "serve/request.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "serve/stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cgkgr::core::CgKgrConfig;
using cgkgr::core::CgKgrModel;
using cgkgr::serve::Engine;
using cgkgr::serve::Frontend;
using cgkgr::serve::Request;
using cgkgr::serve::Response;
using cgkgr::serve::Router;
using cgkgr::serve::ScoredItem;
using cgkgr::serve::Snapshot;

constexpr char kPreset[] = "music";
/// The preset's own scale: 180 users x 420 items. Exporting the snapshot
/// (~20 us per scored pair) dominates set-up at ~1.5 s.
constexpr double kScale = 1.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr char kTenant[] = "main";
constexpr int64_t kTopK = 10;
/// Requests the client keeps outstanding: four frontend batches, so the
/// dispatcher always finds a full batch queued and neither thread waits on
/// the other. Each wake-up is a chance to lose the core on a shared host;
/// with one batch outstanding, identical runs moved by up to 2x.
constexpr int64_t kWindow = 256;
constexpr int64_t kMaxBatch = 64;
constexpr int64_t kMaxQueue = 1024;
/// Engine lanes on serve_hot: the dispatcher plus one worker, so with the
/// client 3 busy threads (the publisher sleeps 94% of the time there).
/// serve_refresh ranks inline on the dispatcher (1 lane): with the client
/// and the publisher also 3 busy threads. A fourth busy thread on a 4-core
/// machine leaves no core for anything else, and runs of the same code
/// then moved by 2-3x.
constexpr int64_t kHotEngineLanes = 2;
/// Users re-scored per refresh.
constexpr int64_t kRefreshSlice = 16;
/// The publisher starts one refresh every this many seconds (a refresh
/// takes ~0.15 s): on serve_refresh it is busy a third of the time, on
/// serve_hot it touches 16 users' cached lists every 2.5 s. Spreading the
/// refreshes over the whole timed phase makes their median as steady as
/// the other metrics; a burst at the end caught whatever the host did
/// in those two seconds.
constexpr double kRefreshPeriodSeconds = 0.5;
constexpr double kHotRefreshPeriodSeconds = 2.5;
/// Latency is measured per slice of this many seconds; op_us is the median
/// over the slices, so a short stall of the machine moves one slice, not
/// the result. Traced runs toggle tracing at slice boundaries.
constexpr double kSliceSeconds = 0.5;
/// Warm-up requests per user, sent before the first timed request.
constexpr int64_t kWarmupPerUser = 8;
/// Latencies kept per slice: a uniform sample of the ~100k answers, small
/// enough to sort at the slice boundary in about a millisecond.
constexpr size_t kLatencySamples = size_t{1} << 14;
/// Layer-isolation replays (traced run only).
constexpr int kIsolationRounds = 5;
constexpr int64_t kIsolationRequests = 8192;
/// Score-row versions kept per user by the mirror: far more than a
/// request can lag behind (a refresh takes ~100 ms, a request ~100 us).
constexpr size_t kVersionsKept = 3;

/// The request stream. Skewed: half the requests go to a hot set of 1/16
/// of the users (drawn from the seed), the rest uniformly to all users.
class Traffic {
 public:
  Traffic(uint64_t seed, int64_t num_users, bool skewed)
      : rng_(seed), all_(0, num_users - 1), skewed_(skewed) {
    std::vector<int64_t> users(static_cast<size_t>(num_users));
    std::iota(users.begin(), users.end(), 0);
    std::shuffle(users.begin(), users.end(), rng_);
    hot_.assign(users.begin(),
                users.begin() + std::max<int64_t>(1, num_users / 16));
    pick_hot_ = std::uniform_int_distribution<size_t>(0, hot_.size() - 1);
  }

  Request Next() {
    Request request;
    request.k = kTopK;
    request.user = skewed_ && coin_(rng_) ? hot_[pick_hot_(rng_)]
                                          : all_(rng_);
    return request;
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_int_distribution<int64_t> all_;
  std::uniform_int_distribution<size_t> pick_hot_;
  std::bernoulli_distribution coin_{0.5};
  std::vector<int64_t> hot_;
  bool skewed_;
};

/// The score rows every snapshot generation serves, kept by the benchmark
/// apart from the engine: the exported base rows, then each refresh's
/// re-scored rows, registered before the engine installs them. Answers are
/// checked against a brute-force Top-K over these rows with seen lists
/// built from the train split.
class RowMirror {
 public:
  RowMirror(const Snapshot& base, const cgkgr::data::Dataset& dataset)
      : num_items_(base.num_items),
        seen_(static_cast<size_t>(base.num_users)),
        versions_(static_cast<size_t>(base.num_users)) {
    for (const auto& x : dataset.train) {
      seen_[static_cast<size_t>(x.user)].push_back(x.item);
    }
    for (auto& items : seen_) {
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
    }
    for (int64_t user = 0; user < base.num_users; ++user) {
      const float* row = base.UserScores(user);
      Register(0, user, std::vector<float>(row, row + num_items_));
    }
  }

  /// Records `row` as `user`'s scores from `generation` on. Thread-safe.
  void Register(uint64_t generation, int64_t user, std::vector<float> row) {
    auto version = std::make_shared<Version>();
    version->generation = generation;
    version->row = std::move(row);
    std::lock_guard<std::mutex> lock(mu_);
    auto& list = versions_[static_cast<size_t>(user)];
    list.push_back(std::move(version));
    if (list.size() > kVersionsKept) list.erase(list.begin());
  }

  /// True when `response` is kOk from `tenant` and its items are exactly
  /// the brute-force Top-K of `user` in the reported generation. Called
  /// from one thread at a time (the expected lists are memoized).
  bool Matches(int64_t user, const Response& response,
               const std::string& tenant = kTenant) {
    if (!response.ok()) {
      return Reject("status " + std::string(cgkgr::serve::ResponseStatusName(
                                    response.status)));
    }
    if (response.tenant != tenant) {
      return Reject("answered by tenant '" + response.tenant + "'");
    }
    std::shared_ptr<Version> version;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& v : versions_[static_cast<size_t>(user)]) {
        if (v->generation <= response.generation) version = v;
      }
    }
    if (version == nullptr) return Reject("generation older than kept rows");
    if (!version->expected_ready) {
      version->expected = BruteForceTopK(version->row.data(), num_items_,
                                         seen_[static_cast<size_t>(user)],
                                         kTopK);
      version->expected_ready = true;
    }
    if (response.items != version->expected) {
      return Reject("items differ from brute-force Top-K for user " +
                    std::to_string(user) + " generation " +
                    std::to_string(response.generation));
    }
    return true;
  }

 private:
  struct Version {
    uint64_t generation = 0;
    std::vector<float> row;
    bool expected_ready = false;
    std::vector<ScoredItem> expected;
  };

  bool Reject(const std::string& why) {
    if (rejections_++ < 5) {
      std::fprintf(stderr, "perfbench: wrong answer: %s\n", why.c_str());
    }
    return false;
  }

  const int64_t num_items_;
  std::vector<std::vector<int64_t>> seen_;
  int64_t rejections_ = 0;
  std::mutex mu_;
  std::vector<std::vector<std::shared_ptr<Version>>> versions_;
};

/// Everything one set-up builds. Declaration order is teardown order in
/// reverse: the frontend drains before the router and its engine go.
struct ServeStack {
  cgkgr::data::Dataset dataset;
  std::unique_ptr<CgKgrModel> model;    // one epoch: exported
  std::unique_ptr<CgKgrModel> further;  // two epochs: re-scores slices
  std::string dir;
  std::unique_ptr<RowMirror> mirror;
  std::unique_ptr<Router> router;
  Engine* engine = nullptr;
  std::unique_ptr<Frontend> frontend;
};

struct SetupTimes {
  double setup_s = 0.0;  // on the set-up thread's CPU clock
  double wall_s = 0.0;
  double generate_s = 0.0;
  double export_pair_us = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
};

struct LoopPlan {
  /// Run for this long, in whole throughput slices ...
  double seconds = 0.0;
  /// ... or, when set, send exactly these requests.
  const std::vector<Request>* replay = nullptr;
  /// Traced run: toggle span recording every slice.
  bool alternate_trace = false;
  uint64_t seed = 0;
  ThreadWatch* threads = nullptr;
  SpanFolder* spans = nullptr;
};

struct LoopResult {
  int64_t sent = 0;
  int64_t failed = 0;
  // Answers per second of each window turnover (kWindow answers in a row),
  // in untraced and traced slices.
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  // Per untraced slice: median and p99 latency (us).
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  int64_t latency_samples = 0;
  // Wall-clock totals of the untraced slices, stalls included.
  int64_t untraced_answers = 0;
  double untraced_seconds = 0.0;
  int64_t traced_answers = 0;
  double seconds = 0.0;
};

/// The closed-loop client: keeps kWindow requests in flight through the
/// frontend, answers are awaited in submission order (the frontend serves
/// FIFO), and each is checked against the mirror.
///
/// Throughput is timed per window turnover: the time the client takes to
/// receive kWindow answers in a row (0.5-2 ms). On a shared host the
/// hypervisor takes a vCPU away for a few milliseconds at a time, and the
/// pipeline stops whenever it takes the client's or the dispatcher's, so
/// longer averages follow the host's load (as a median over 0.5 s slices,
/// the same code read 64k answers/s at 23% steal and 141k at 4%). A stall
/// falls into the one turnover it hits; the median turnover is the rate
/// the plane serves at while it has its cores.
LoopResult ClosedLoop(Frontend* frontend, Traffic* traffic, RowMirror* mirror,
                      const LoopPlan& plan) {
  struct InFlight {
    std::future<Response> answer;
    double sent_at = 0.0;
    int64_t user = 0;
  };
  LoopResult result;
  std::deque<InFlight> window;
  size_t next_replay = 0;
  auto submit = [&] {
    Request request;
    if (plan.replay != nullptr) {
      if (next_replay >= plan.replay->size()) return;
      request = (*plan.replay)[next_replay++];
    } else {
      request = traffic->Next();
    }
    const int64_t user = request.user;
    const double now = NowSeconds();
    window.push_back({frontend->Submit(std::move(request)), now, user});
    ++result.sent;
  };

  bool traced = false;
  Reservoir latencies(kLatencySamples, plan.seed);
  const double start = NowSeconds();
  double slice_start = start;
  int64_t slice_answers = 0;
  double turn_start = start;
  int64_t turn_answers = 0;
  bool open = true;
  for (int64_t i = 0; i < kWindow; ++i) submit();
  while (!window.empty()) {
    InFlight in_flight = std::move(window.front());
    window.pop_front();
    const Response response = in_flight.answer.get();
    const double now = NowSeconds();
    latencies.Add((now - in_flight.sent_at) * 1e6);
    if (!mirror->Matches(in_flight.user, response)) ++result.failed;
    ++slice_answers;
    if (++turn_answers == kWindow) {
      const double rate = static_cast<double>(kWindow) / (now - turn_start);
      (traced ? result.traced_rates : result.untraced_rates).push_back(rate);
      turn_answers = 0;
      turn_start = now;
    }
    if (plan.seconds > 0.0 && now - slice_start >= kSliceSeconds) {
      if (traced) {
        result.traced_answers += slice_answers;
      } else {
        const std::vector<double> sample = latencies.Values();
        result.untraced_answers += slice_answers;
        result.untraced_seconds += now - slice_start;
        result.p50_us.push_back(Median(sample));
        result.p99_us.push_back(Quantile(sample, 0.99));
        result.latency_samples += latencies.seen();
      }
      latencies.Clear();
      if (plan.threads != nullptr) plan.threads->Sample();
      if (plan.alternate_trace) {
        plan.spans->Drain();
        traced = !traced;
        SpanFolder::SetRecording(traced);
      }
      if (now - start >= plan.seconds) open = false;
      // The next slice (and turnover) starts after this bookkeeping, so
      // neither slice pays for it.
      slice_answers = 0;
      slice_start = NowSeconds();
      turn_answers = 0;
      turn_start = slice_start;
    }
    if (open) submit();
  }
  if (plan.alternate_trace) {
    SpanFolder::SetRecording(false);
    plan.spans->Drain();
  }
  result.seconds = NowSeconds() - start;
  return result;
}

struct RefreshTimes {
  double total_ms = 0.0;  // on the publisher thread's CPU clock
  double wall_ms = 0.0;
  double rescore_pair_us = 0.0;
  double build_ms = 0.0;
  double save_ms = 0.0;
  double apply_ms = 0.0;
  int64_t rows = 0;
};

/// One refresh = re-score a rotating slice of users, diff it into a delta
/// against the served snapshot, publish it next to the base snapshot and
/// have the engine apply it through ReloadFromDir. Passes over the users
/// alternate between the two models, so every refresh changes its rows.
class Refresher {
 public:
  explicit Refresher(ServeStack* stack) : stack_(stack) {}

  /// Returns false (and says why) when a step fails.
  bool RefreshOnce(RefreshTimes* times) {
    const Snapshot& shape = *stack_->engine->snapshot();
    const int64_t num_users = shape.num_users;
    const int64_t num_items = shape.num_items;
    const int64_t offset = refreshes_ * kRefreshSlice;
    ++refreshes_;
    CgKgrModel* model = (offset / num_users) % 2 == 0 ? stack_->further.get()
                                                      : stack_->model.get();
    std::vector<int64_t> slice;
    std::vector<int64_t> users;
    std::vector<int64_t> items;
    for (int64_t i = 0; i < kRefreshSlice; ++i) {
      const int64_t user = (offset + i) % num_users;
      slice.push_back(user);
      for (int64_t item = 0; item < num_items; ++item) {
        users.push_back(user);
        items.push_back(item);
      }
    }

    const double t0 = NowSeconds();
    const double cpu0 = ThreadCpuSeconds();
    std::vector<float> scores;
    model->ScorePairs(users, items, &scores);
    const double t1 = NowSeconds();
    const std::shared_ptr<const Snapshot> base = stack_->engine->snapshot();
    Snapshot target = *base;
    for (size_t s = 0; s < slice.size(); ++s) {
      std::copy(scores.begin() + static_cast<int64_t>(s) * num_items,
                scores.begin() + static_cast<int64_t>(s + 1) * num_items,
                target.scores.begin() + slice[s] * num_items);
    }
    cgkgr::Result<cgkgr::serve::SnapshotDelta> delta =
        cgkgr::serve::BuildDelta(*base, target);
    if (!delta.ok()) return Fail("BuildDelta: " + delta.status().ToString());
    const double t2 = NowSeconds();
    char name[64];
    std::snprintf(name, sizeof(name), "/snap-%06lld.delta",
                  static_cast<long long>(next_file_++));
    const std::string path = stack_->dir + name;
    cgkgr::Status status = cgkgr::serve::SaveDelta(delta.value(), path);
    if (!status.ok()) return Fail("SaveDelta: " + status.ToString());
    const double t3 = NowSeconds();
    const uint64_t generation = stack_->engine->generation() + 1;
    for (size_t s = 0; s < slice.size(); ++s) {
      stack_->mirror->Register(
          generation, slice[s],
          std::vector<float>(scores.begin() + static_cast<int64_t>(s) * num_items,
                             scores.begin() +
                                 static_cast<int64_t>(s + 1) * num_items));
    }
    status = stack_->engine->ReloadFromDir(stack_->dir);
    const double t4 = NowSeconds();
    const double cpu4 = ThreadCpuSeconds();
    if (!status.ok()) return Fail("ReloadFromDir: " + status.ToString());
    if (stack_->engine->generation() != generation) {
      return Fail("delta did not install as generation " +
                  std::to_string(generation));
    }
    // Keep the directory small: the applied delta stays as the reload
    // anchor, the one before it is no longer needed.
    if (!previous_.empty()) std::filesystem::remove(previous_);
    previous_ = path;

    times->total_ms = (cpu4 - cpu0) * 1e3;
    times->wall_ms = (t4 - t0) * 1e3;
    times->rescore_pair_us = (t1 - t0) * 1e6 / static_cast<double>(users.size());
    times->build_ms = (t2 - t1) * 1e3;
    times->save_ms = (t3 - t2) * 1e3;
    times->apply_ms = (t4 - t3) * 1e3;
    times->rows = static_cast<int64_t>(delta.value().rows.size());
    return true;
  }

 private:
  bool Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: refresh failed: %s\n", why.c_str());
    return false;
  }

  ServeStack* stack_;
  int64_t refreshes_ = 0;
  int64_t next_file_ = 2;  // snap-000001.snap is the base
  std::string previous_;
};

cgkgr::models::TrainOptions TrainFor(const cgkgr::data::Preset& preset,
                                     uint64_t seed, int64_t epochs) {
  cgkgr::models::TrainOptions options;
  options.max_epochs = epochs;
  options.patience = epochs + 1;
  options.batch_size = preset.hparams.batch_size;
  options.seed = seed;
  options.num_threads = 2;
  options.run_label = "cgkgr";
  return options;
}

/// Builds one serving stack, up to (not including) the first timed
/// request: data, two models, snapshot export/save/load, router, frontend
/// and a warm-up that fills the cache.
cgkgr::Status BuildStack(const RunOptions& options, bool refresh, int setup,
                         ServeStack* stack, SetupTimes* times,
                         int64_t* warmup_failed) {
  const double start = NowSeconds();
  const double start_cpu = ThreadCpuSeconds();
  const cgkgr::data::Preset preset = cgkgr::data::GetPreset(kPreset, kScale);
  stack->dataset =
      cgkgr::data::GenerateSyntheticDataset(preset.data, options.seed);
  times->generate_s = NowSeconds() - start;
  stack->model =
      std::make_unique<CgKgrModel>(CgKgrConfig::FromPreset(preset.hparams));
  CGKGR_RETURN_NOT_OK(
      stack->model->Fit(stack->dataset, TrainFor(preset, options.seed, 1)));
  stack->further =
      std::make_unique<CgKgrModel>(CgKgrConfig::FromPreset(preset.hparams));
  CGKGR_RETURN_NOT_OK(
      stack->further->Fit(stack->dataset, TrainFor(preset, options.seed, 2)));

  double t = NowSeconds();
  auto snapshot = std::make_shared<const Snapshot>(
      cgkgr::serve::BuildSnapshot(stack->model.get(), stack->dataset));
  times->export_pair_us =
      (NowSeconds() - t) * 1e6 /
      static_cast<double>(snapshot->num_users * snapshot->num_items);
  stack->dir = options.workdir + "/serve-" + std::to_string(setup);
  std::filesystem::create_directories(stack->dir);
  t = NowSeconds();
  CGKGR_RETURN_NOT_OK(
      cgkgr::serve::SaveSnapshot(*snapshot, stack->dir + "/snap-000001.snap"));
  times->save_ms = (NowSeconds() - t) * 1e3;
  stack->mirror = std::make_unique<RowMirror>(*snapshot, stack->dataset);

  cgkgr::serve::EngineOptions engine;
  engine.num_threads = refresh ? 1 : kHotEngineLanes;
  // serve_hot: room for every user's list, so the hot set (and after
  // warm-up nearly everything) is a hit. serve_refresh: room for 1/16 of
  // the users under uniform traffic, so most requests rank.
  engine.cache_capacity = std::max<int64_t>(
      1, refresh ? snapshot->num_users / 16 : snapshot->num_users);
  stack->router = std::make_unique<Router>();
  CGKGR_RETURN_NOT_OK(stack->router->AddTenant(kTenant, snapshot, engine));
  stack->engine = stack->router->GetEngine(kTenant);
  t = NowSeconds();
  CGKGR_RETURN_NOT_OK(stack->engine->ReloadFromDir(stack->dir));
  times->load_ms = (NowSeconds() - t) * 1e3;

  cgkgr::serve::FrontendOptions frontend;
  frontend.max_batch = kMaxBatch;
  frontend.max_queue = kMaxQueue;
  frontend.num_dispatchers = 1;
  cgkgr::Result<std::unique_ptr<Frontend>> created =
      Frontend::Create(stack->router.get(), frontend);
  CGKGR_RETURN_NOT_OK(created.status());
  stack->frontend = std::move(created).value();

  Traffic warmup(options.seed ^ 0x3A3A, snapshot->num_users, !refresh);
  const std::vector<Request> requests = [&] {
    std::vector<Request> list;
    for (int64_t i = 0; i < kWarmupPerUser * snapshot->num_users; ++i) {
      list.push_back(warmup.Next());
    }
    return list;
  }();
  LoopPlan plan;
  plan.replay = &requests;
  *warmup_failed +=
      ClosedLoop(stack->frontend.get(), nullptr, stack->mirror.get(), plan)
          .failed;
  times->setup_s = ThreadCpuSeconds() - start_cpu;
  times->wall_s = NowSeconds() - start;
  return cgkgr::Status::OK();
}

/// Traced run only: replays one stream straight into Engine::HandleBatch,
/// then Router::HandleBatch, then through the frontend. The differences
/// between the three are each layer's own cost per request.
void IsolateLayers(ServeStack* stack, bool refresh, uint64_t seed,
                   LayerMetrics* layers, RunResult* result) {
  Traffic traffic(seed ^ 0x1507, stack->engine->snapshot()->num_users,
                  !refresh);
  std::vector<Request> stream;
  for (int64_t i = 0; i < kIsolationRequests; ++i) {
    stream.push_back(traffic.Next());
  }
  // Batches of the frontend's size. An engine called directly reports no
  // tenant; the router names it.
  auto replay_batches = [&](auto&& handle, const std::string& tenant) {
    const double start = NowSeconds();
    for (size_t begin = 0; begin < stream.size(); begin += kMaxBatch) {
      const size_t end = std::min(stream.size(), begin + kMaxBatch);
      const std::vector<Request> batch(stream.begin() + begin,
                                       stream.begin() + end);
      const std::vector<Response> answers = handle(batch);
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!stack->mirror->Matches(batch[i].user, answers[i], tenant)) {
          ++result->failed;
        }
      }
      result->attempted += static_cast<int64_t>(batch.size());
    }
    return NowSeconds() - start;
  };
  auto engine = [&](const std::vector<Request>& batch) {
    return stack->engine->HandleBatch(batch);
  };
  auto router = [&](const std::vector<Request>& batch) {
    return stack->router->HandleBatch(batch);
  };
  replay_batches(engine, "");  // warm-up
  std::vector<double> engine_s;
  std::vector<double> router_s;
  std::vector<double> frontend_s;
  for (int round = 0; round < kIsolationRounds; ++round) {
    engine_s.push_back(replay_batches(engine, ""));
    router_s.push_back(replay_batches(router, kTenant));
    LoopPlan plan;
    plan.replay = &stream;
    const LoopResult loop = ClosedLoop(stack->frontend.get(), nullptr,
                                       stack->mirror.get(), plan);
    result->attempted += loop.sent;
    result->failed += loop.failed;
    frontend_s.push_back(loop.seconds);
  }
  const double n = static_cast<double>(stream.size());
  const double e = Median(engine_s);
  const double r = Median(router_s);
  const double f = Median(frontend_s);
  (*layers)["serve.engine_us"] = e * 1e6 / n;
  (*layers)["serve.router_us"] = (r - e) * 1e6 / n;
  (*layers)["serve.frontend_us"] = (f - r) * 1e6 / n;
}

}  // namespace

void RunServe(const RunOptions& options, bool refresh, RunResult* result) {
  ThreadWatch threads;
  std::vector<SetupTimes> setups;
  std::unique_ptr<ServeStack> stack;
  int64_t warmup_failed = 0;
  for (int setup = 0; setup < kSetups; ++setup) {
    stack.reset();  // tear the previous stack down before building again
    stack = std::make_unique<ServeStack>();
    SetupTimes times;
    const cgkgr::Status status =
        BuildStack(options, refresh, setup, stack.get(), &times,
                   &warmup_failed);
    if (!status.ok()) {
      result->Fail("set-up: " + status.ToString());
      return;
    }
    setups.push_back(times);
    threads.Sample();
  }
  if (warmup_failed > 0) result->Fail("warm-up answers failed the check");

  // --- timed phase ---
  Refresher refresher(stack.get());
  std::vector<RefreshTimes> refreshes;
  int64_t refresh_failures = 0;
  std::atomic<bool> stop{false};
  SpanFolder spans;
  Traffic traffic(options.seed, stack->engine->snapshot()->num_users,
                  !refresh);
  stack->engine->ResetStats();
  const cgkgr::serve::FrontendStats frontend_before = stack->frontend->stats();
  const int64_t busy_before = CounterValue("threadpool_busy_micros_total");
  const double cpu_before = CpuSeconds();
  const CpuTicks ticks_before = CpuTicks::Read();
  const double period =
      refresh ? kRefreshPeriodSeconds : kHotRefreshPeriodSeconds;
  std::thread publisher([&] {
    double next = NowSeconds();
    while (!stop.load()) {
      RefreshTimes times;
      if (refresher.RefreshOnce(&times)) {
        refreshes.push_back(times);
      } else {
        ++refresh_failures;
      }
      next += period;
      // Sleep in short steps so the phase end is never waited out.
      while (!stop.load() && NowSeconds() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  });
  LoopPlan plan;
  plan.seconds = options.seconds;
  plan.alternate_trace = options.trace;
  plan.seed = options.seed ^ 0x1A7E;
  plan.threads = &threads;
  plan.spans = &spans;
  const LoopResult loop = ClosedLoop(stack->frontend.get(), &traffic,
                                     stack->mirror.get(), plan);
  stop.store(true);
  publisher.join();
  const double cpu_s = CpuSeconds() - cpu_before;
  std::fprintf(stderr, "perfbench: host steal %.1f%% of CPU time\n",
               100.0 * StealShareSince(ticks_before));
  const double busy_micros = static_cast<double>(
      CounterValue("threadpool_busy_micros_total") - busy_before);
  const cgkgr::serve::EngineStats engine_stats = stack->engine->stats();
  const cgkgr::serve::FrontendStats frontend_after = stack->frontend->stats();

  result->attempted = loop.sent + static_cast<int64_t>(refreshes.size()) +
                      refresh_failures;
  result->failed = loop.failed + refresh_failures;
  if (loop.failed > 0) result->Fail("served answers failed the check");
  if (refresh_failures > 0) result->Fail("refreshes failed");
  if (refreshes.empty()) result->Fail("no refresh completed");
  std::vector<double> refresh_ms;
  std::vector<double> refresh_wall_ms;
  std::vector<double> rescore_us;
  std::vector<double> build_ms;
  std::vector<double> save_ms;
  std::vector<double> apply_ms;
  double rows = 0.0;
  for (const RefreshTimes& r : refreshes) {
    refresh_ms.push_back(r.total_ms);
    refresh_wall_ms.push_back(r.wall_ms);
    rescore_us.push_back(r.rescore_pair_us);
    build_ms.push_back(r.build_ms);
    save_ms.push_back(r.save_ms);
    apply_ms.push_back(r.apply_ms);
    rows += static_cast<double>(r.rows);
  }
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<double> generate_s;
  std::vector<double> export_us;
  std::vector<double> snap_save_ms;
  std::vector<double> snap_load_ms;
  for (const SetupTimes& s : setups) {
    setup_s.push_back(s.setup_s);
    setup_wall_s.push_back(s.wall_s);
    generate_s.push_back(s.generate_s);
    export_us.push_back(s.export_pair_us);
    snap_save_ms.push_back(s.save_ms);
    snap_load_ms.push_back(s.load_ms);
  }

  if (!options.trace) {
    // The p99 moves with the host's scheduling noise far more than any
    // bound could absorb, so it is a reference figure, not a metric.
    std::fprintf(stderr,
                 "perfbench: %lld answers; latency over %zu slices of "
                 "%.1f s, %lld samples: p99 %.1f us (median of slice p99s); "
                 "%zu refreshes\n",
                 static_cast<long long>(loop.sent), loop.p50_us.size(),
                 kSliceSeconds, static_cast<long long>(loop.latency_samples),
                 Median(loop.p99_us), refreshes.size());
    std::fprintf(stderr,
                 "perfbench: wall clock: %.0f answers/s (stalls included; "
                 "median of %zu window turnovers %.0f), set-up %.3f s, "
                 "refresh %.1f ms\n",
                 static_cast<double>(loop.untraced_answers) /
                     std::max(1e-9, loop.untraced_seconds),
                 loop.untraced_rates.size(), Median(loop.untraced_rates),
                 Median(setup_wall_s), Median(refresh_wall_ms));
    threads.Report();
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("ops_per_s", Median(loop.untraced_rates), "ops/s");
    result->Add("op_us", Median(loop.p50_us), "us");
    result->Add("refresh_ms", Median(refresh_ms), "ms");
    result->Add("peak_rss_mb", static_cast<double>(PeakRssBytes()) / 1e6,
                "MB");
    return;
  }

  LayerMetrics layers;
  const int64_t failed_before = result->failed;
  IsolateLayers(stack.get(), refresh, options.seed, &layers, result);
  if (result->failed > failed_before) {
    result->Fail("layer-isolation answers failed the check");
  }
  threads.Sample();
  threads.Report();
  const double answered = static_cast<double>(loop.sent);
  const double traced = std::max<double>(1.0, loop.traced_answers);
  const int64_t batches = frontend_after.batches - frontend_before.batches;
  layers["data.generate_s"] = Median(generate_s);
  const int64_t workers = stack->engine->options().num_threads - 1;
  layers["common.pool_busy_share"] =
      workers > 0 ? busy_micros / (workers * loop.seconds * 1e6) : 0.0;
  layers["process.cpu_per_op_us"] = cpu_s * 1e6 / answered;
  layers["process.threads_peak"] = static_cast<double>(threads.peak());
  layers["core.export_pair_us"] = Median(export_us);
  layers["serve.snapshot_save_ms"] = Median(snap_save_ms);
  layers["serve.snapshot_load_ms"] = Median(snap_load_ms);
  layers["serve.cache_hit_ratio"] = engine_stats.CacheHitRate();
  layers["serve.batch_size_mean"] =
      static_cast<double>(frontend_after.completed -
                          frontend_before.completed) /
      static_cast<double>(std::max<int64_t>(1, batches));
  layers["serve.queue_peak"] = static_cast<double>(frontend_after.queue_peak);
  layers["serve.rank_us"] = spans.SelfMicros("serve/rank") / traced;
  layers["serve.merge_us"] = spans.SelfMicros("serve/merge") / traced;
  layers["serve.computes_per_request"] =
      static_cast<double>(engine_stats.computes) /
      static_cast<double>(std::max<int64_t>(1, engine_stats.requests));
  layers["core.rescore_pair_us"] = Median(rescore_us);
  layers["serve.delta_build_ms"] = Median(build_ms);
  layers["serve.delta_save_ms"] = Median(save_ms);
  layers["serve.delta_apply_ms"] = Median(apply_ms);
  layers["serve.delta_rows"] =
      refreshes.empty() ? 0.0 : rows / static_cast<double>(refreshes.size());
  layers["trace.overhead_share"] =
      Median(loop.untraced_rates) / Median(loop.traced_rates) - 1.0;
  EmitLayers(layers, result);
}

}  // namespace perfbench
