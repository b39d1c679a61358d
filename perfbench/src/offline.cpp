// The offline Monte-Carlo workload: rounds of the registry's max-load
// scenario, timed end to end, and the traced replica of a round that
// attributes its time to the layers.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "bench.hpp"
#include "bench_stats.hpp"

namespace perfbench {
namespace {

// The collector composition of the registry's max-load scenario
// (sample of max loads, mean sorted profile, class-of-max frequencies).
// The traced round must serialize exactly like the registry's, so a change
// to either shows up as a failed check.
using MaxLoadCollectors =
    nubb::MultiCollector<nubb::SampleCollector, nubb::VectorMeanCollector,
                         nubb::KeyFrequencyCollector>;
using MaxLoadShard = nubb::ExperimentShard<MaxLoadCollectors>;

const nubb::Scenario& max_load_scenario() {
  return nubb::ScenarioRegistry::global().require("max-load");
}

std::uint64_t total_capacity(const std::vector<std::uint64_t>& caps) {
  std::uint64_t c = 0;
  for (const std::uint64_t x : caps) c += x;
  return c;
}

nubb::RunMeta make_meta(const nubb::ScenarioSpec& spec) {
  nubb::RunMeta meta;
  meta.experiment = "max-load";
  meta.n = spec.capacities.size();
  meta.total_capacity = total_capacity(spec.capacities);
  meta.caps_hash = nubb::caps_fingerprint(spec.capacities);
  meta.policy = spec.policy.describe();
  meta.choices = spec.game.choices;
  meta.tie_break = "capacity";
  meta.balls = meta.total_capacity;
  meta.batch = spec.game.batch;
  meta.stream = "v2";
  meta.replications = spec.exp.replications;
  meta.seed = spec.exp.base_seed;
  meta.chunks = spec.exp.chunks;
  meta.profile = spec.profile;
  meta.classes = spec.classes;
  return meta;
}

template <typename T>
std::string to_json_string(const T& value) {
  std::ostringstream os;
  nubb::JsonWriter w(os);
  value.to_json(w);
  return os.str();
}

/// The scenario's JSON report block for a complete set of shard states.
std::string merge_and_report(const nubb::ScenarioSpec& spec,
                             const std::vector<nubb::JsonValue>& states) {
  const nubb::RunMeta meta = make_meta(spec);
  std::ostringstream json;
  std::ostringstream text;  // the human tables; not inspected
  nubb::JsonWriter w(json);
  w.begin_object();
  max_load_scenario().merge_and_report(states, nubb::ReportContext{meta, text, &w});
  w.end_object();
  return json.str();
}

struct RegistryRound {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string report;
  std::vector<std::string> states;  ///< one shard-state JSON per shard
};

/// One experiment through the scenario registry, as `scripts/shard_run.sh`
/// runs it.
RegistryRound registry_round(const OfflineWorkload& wl, nubb::ScenarioSpec& spec) {
  RegistryRound r;
  const double c0 = self_cpu_seconds();
  const std::int64_t t0 = now_ns();
  spec.exp.shard_count = wl.shards;
  for (std::uint64_t i = 0; i < wl.shards; ++i) {
    spec.exp.shard_index = i;
    std::ostringstream os;
    nubb::JsonWriter w(os);
    max_load_scenario().run_shard(spec, w);
    r.states.push_back(os.str());
  }
  spec.exp.shard_index = 0;
  spec.exp.shard_count = 1;
  std::vector<nubb::JsonValue> parsed;
  for (const std::string& s : r.states) parsed.push_back(nubb::JsonValue::parse(s));
  r.report = merge_and_report(spec, parsed);
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.cpu_s = self_cpu_seconds() - c0;
  return r;
}

double theorem3_limit(const OfflineWorkload& wl) {
  return nubb::bounds::theorem3_bound(static_cast<double>(wl.capacities.size()),
                                      std::max<std::uint32_t>(wl.game.choices, 2), 4.0);
}

/// Checks one round's outputs: every replication's max load lies in
/// [m/C, Theorem-3 bound] (m = C here, so the floor is 1), and the shard
/// states account for every replication.
void check_round(const OfflineWorkload& wl, const RegistryRound& r, Outcome& out) {
  const double floor = 1.0;
  const double limit = theorem3_limit(wl);
  const std::uint64_t reps = wl.reps_per_round;
  out.attempted += reps;
  try {
    const nubb::JsonValue report = nubb::JsonValue::parse(r.report);
    const nubb::JsonValue& ml = report.at("max_load");
    out.check(ml.at("min").as_double() >= floor && ml.at("max").as_double() <= limit,
              "max load outside [m/C, theorem-3 bound]: " + r.report.substr(0, 200));
    std::vector<MaxLoadShard> shards;
    for (const std::string& s : r.states) {
      shards.push_back(MaxLoadShard::from_json(nubb::JsonValue::parse(s)));
    }
    const MaxLoadCollectors merged = nubb::merge_shards(shards);
    const auto& values = merged.part<0>().values;
    out.check(values.size() == reps, "shard states hold " + std::to_string(values.size()) +
                                         " of " + std::to_string(reps) + " replications");
    for (const double v : values) {
      if (!(v >= floor && v <= limit)) out.fail("replication max load out of range");
    }
    if (wl.profile) {
      out.check(merged.part<1>().count() == reps, "profile count differs from replications");
    }
    if (wl.classes) {
      out.check(merged.part<2>().trials() == reps, "class trials differ from replications");
    }
  } catch (const std::exception& e) {
    out.fail(std::string("round output unreadable: ") + e.what());
  }
}

/// Replays replication 0 of a round through the public game API and checks
/// that it conserves balls and matches what the registry reported.
void check_replay(const OfflineWorkload& wl, const nubb::ScenarioSpec& spec,
                  const RegistryRound& r, Outcome& out) {
  const std::uint64_t m = total_capacity(wl.capacities);
  nubb::BinArray bins(wl.capacities, wl.game.memory);
  const nubb::BinSampler sampler = nubb::BinSampler::from_policy(spec.policy, wl.capacities);
  nubb::Xoshiro256StarStar rng(nubb::seed_for_replication(spec.exp.base_seed, 0));
  const nubb::GameResult result = nubb::play_game(bins, sampler, wl.game, rng);
  out.check(bins.total_balls() == m && result.balls_thrown == m,
            "replayed replication placed " + std::to_string(bins.total_balls()) + " of " +
                std::to_string(m) + " balls");
  const nubb::JsonValue report = nubb::JsonValue::parse(r.report);
  const nubb::JsonValue& ml = report.at("max_load");
  const double v = result.max_load_value();
  out.check(v >= ml.at("min").as_double() && v <= ml.at("max").as_double(),
            "replayed max load outside the reported [min, max]");
  const MaxLoadShard first = MaxLoadShard::from_json(nubb::JsonValue::parse(r.states[0]));
  out.check(!first.chunks.empty() && !first.chunks[0].second.part<0>().values.empty() &&
                first.chunks[0].second.part<0>().values[0] == v,
            "replayed replication 0 differs from the registry's");
}

/// The traced replica of the registry's max-load shard: the same calls
/// GameFixture::run_one and the scenario body make, each in its own span.
MaxLoadShard traced_shard(const nubb::ScenarioSpec& spec, std::uint64_t m,
                          std::atomic<std::uint64_t>& unconserved) {
  std::optional<nubb::BinSampler> sampler;
  {
    ScopedSpan span("sampler.build");
    sampler.emplace(nubb::BinSampler::from_policy(spec.policy, spec.capacities));
  }
  const bool profile = spec.profile;
  const bool classes = spec.classes;
  const nubb::GameConfig game = spec.game;
  ScopedSpan span("experiment.replicate_shard");
  return nubb::replicate_shard<MaxLoadCollectors>(
      spec.capacities, spec.exp,
      [&](std::uint64_t, nubb::Xoshiro256StarStar& rng, nubb::ReplicationScratch& w,
          MaxLoadCollectors& local) {
        ScopedSpan rep("replication");
        {
          ScopedSpan s("bin_array.clear");
          w.bins.clear();
        }
        std::optional<nubb::PlacementKernel> kernel;
        {
          ScopedSpan s("placement_kernel.ctor");
          kernel.emplace(w.bins, *sampler, game);
        }
        {
          ScopedSpan s("placement_kernel.run");
          kernel->run(kernel->planned_balls(), rng);
        }
        if (w.bins.total_balls() != m) unconserved.fetch_add(1, std::memory_order_relaxed);
        ScopedSpan s("experiment.collect");
        local.part<0>().add(w.bins.max_load().value());
        if (profile) {
          nubb::sorted_load_profile(w.bins, w.scratch);
          local.part<1>().add(w.scratch);
        }
        if (classes) {
          local.part<2>().add_trial();
          for (const std::uint64_t cap : nubb::capacities_attaining_max(w.bins)) {
            local.part<2>().add(cap);
          }
        }
      },
      game.memory);
}

/// Engine occupancy from the replication spans inside each
/// replicate_shard call: the share of worker time spent in replications,
/// and the median over calls of the mean time a worker waited between its
/// last replication and the end of the call.
struct EngineSpans {
  double busy_frac = 0.0;
  double tail_idle_ms = 0.0;
};

EngineSpans engine_spans(const std::vector<Span>& spans, std::size_t workers) {
  std::vector<const Span*> calls;
  std::vector<const Span*> reps;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "experiment.replicate_shard") calls.push_back(&s);
    if (std::string_view(s.name) == "replication") reps.push_back(&s);
  }
  double busy = 0.0;
  double capacity = 0.0;
  std::vector<double> tails;
  for (const Span* call : calls) {
    std::map<std::uint32_t, std::int64_t> last_end;
    for (const Span* r : reps) {
      if (r->start_ns < call->start_ns || r->end_ns > call->end_ns) continue;
      busy += static_cast<double>(r->duration_ns());
      auto [it, fresh] = last_end.try_emplace(r->thread, r->end_ns);
      if (!fresh) it->second = std::max(it->second, r->end_ns);
    }
    capacity += static_cast<double>(workers) * static_cast<double>(call->duration_ns());
    double idle = 0.0;
    for (const auto& [thread, end] : last_end) idle += static_cast<double>(call->end_ns - end);
    // Workers that ran no replication in this call idled through all of it.
    const std::size_t idle_workers = workers > last_end.size() ? workers - last_end.size() : 0;
    idle += static_cast<double>(idle_workers) * static_cast<double>(call->duration_ns());
    tails.push_back(idle / static_cast<double>(workers) * 1e-6);
  }
  EngineSpans e;
  if (capacity > 0.0) e.busy_frac = busy / capacity;
  if (!tails.empty()) e.tail_idle_ms = median(tails);
  return e;
}

}  // namespace

OfflineWorkload make_mc_fig6() {
  OfflineWorkload wl;
  wl.capacities = nubb::two_class_capacities(500, 1, 500, 10);
  wl.game.choices = 2;
  wl.game.stream = nubb::RngStream::kV2;
  wl.profile = true;
  wl.classes = true;
  wl.reps_per_round = 16384;
  wl.shards = 2;
  return wl;
}

nubb::ScenarioSpec make_spec(const OfflineWorkload& wl, nubb::ThreadPool& pool) {
  nubb::ScenarioSpec spec;
  spec.capacities = wl.capacities;
  spec.game = wl.game;
  spec.profile = wl.profile;
  spec.classes = wl.classes;
  spec.exp.replications = wl.reps_per_round;
  spec.exp.pool = &pool;
  return spec;
}

TracedRound traced_round(const OfflineWorkload& wl, nubb::ScenarioSpec& spec, Outcome& out) {
  TracedRound tr;
  const RegistryRound reference = registry_round(wl, spec);
  tr.registry_s = reference.wall_s;
  check_round(wl, reference, out);

  const std::uint64_t m = total_capacity(wl.capacities);
  std::atomic<std::uint64_t> unconserved{0};
  std::string collectors;
  std::string report;
  set_tracing(true);
  const std::int64_t t0 = now_ns();
  {
    std::vector<MaxLoadShard> shards;
    spec.exp.shard_count = wl.shards;
    for (std::uint64_t i = 0; i < wl.shards; ++i) {
      spec.exp.shard_index = i;
      shards.push_back(traced_shard(spec, m, unconserved));
    }
    spec.exp.shard_index = 0;
    spec.exp.shard_count = 1;
    std::vector<std::string> texts;
    {
      ScopedSpan span("json.write");
      for (const MaxLoadShard& s : shards) texts.push_back(to_json_string(s));
    }
    std::vector<nubb::JsonValue> parsed;
    {
      ScopedSpan span("json.parse");
      for (const std::string& t : texts) parsed.push_back(nubb::JsonValue::parse(t));
    }
    MaxLoadCollectors merged;
    {
      ScopedSpan span("experiment.merge");
      merged = nubb::merge_shards(shards);
    }
    {
      ScopedSpan span("scenario.merge_report");
      report = merge_and_report(spec, parsed);
    }
    for (const std::string& t : texts) tr.state_bytes += t.size();
    collectors = to_json_string(merged);
  }
  tr.traced_s = static_cast<double>(now_ns() - t0) * 1e-9;
  set_tracing(false);
  tr.balls = m * wl.reps_per_round;
  out.attempted += wl.reps_per_round;

  out.check(unconserved.load() == 0,
            std::to_string(unconserved.load()) + " traced replications did not conserve balls");
  std::vector<MaxLoadShard> reference_shards;
  for (const std::string& s : reference.states) {
    reference_shards.push_back(MaxLoadShard::from_json(nubb::JsonValue::parse(s)));
  }
  out.check(to_json_string(nubb::merge_shards(reference_shards)) == collectors,
            "traced collectors differ from the registry scenario's");
  out.check(report == reference.report, "traced report differs from the registry scenario's");
  return tr;
}

std::map<std::string, SpanTotals> offline_layer_metrics(const OfflineWorkload& wl,
                                                       const std::vector<Span>& spans,
                                                       const std::vector<TracedRound>& rounds,
                                                       std::size_t workers, Outcome& out) {
  const auto totals = summarize_spans(spans);
  const auto get = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto per_call = [](const SpanTotals& t, bool self) {
    return t.count == 0 ? 0.0 : (self ? t.self_ns : t.total_ns) / static_cast<double>(t.count);
  };
  double balls = 0.0;
  double bytes = 0.0;
  for (const TracedRound& r : rounds) {
    balls += static_cast<double>(r.balls);
    bytes += static_cast<double>(r.state_bytes);
  }
  const double d = wl.game.choices;
  auto& pl = out.per_layer;
  pl["placement_kernel.run_ns_per_ball"] = {get("placement_kernel.run").self_ns / balls, "ns"};
  pl["placement_kernel.probes"] = {d * balls / static_cast<double>(rounds.size()), "count"};
  // Computed, not measured: per candidate one 16-byte BinSlot read plus one
  // alias-table entry (8-byte threshold + 4-byte alias); one slot write-back.
  pl["placement_kernel.computed_bytes_per_ball"] = {d * (16.0 + 12.0) + 16.0, "B"};
  pl["placement_kernel.ctor_ns"] = {per_call(get("placement_kernel.ctor"), true), "ns"};
  pl["bin_array.clear_ns"] = {per_call(get("bin_array.clear"), true), "ns"};
  pl["experiment.collect_ns"] = {per_call(get("experiment.collect"), true), "ns"};
  pl["experiment.merge_ns"] = {per_call(get("experiment.merge"), false), "ns"};
  pl["scenario.state_bytes"] = {bytes / static_cast<double>(rounds.size()), "B"};
  pl["json.write_ns_per_byte"] = {get("json.write").total_ns / bytes, "ns/B"};
  pl["json.parse_ns_per_byte"] = {get("json.parse").total_ns / bytes, "ns/B"};
  pl["scenario.merge_report_ms"] = {per_call(get("scenario.merge_report"), false) * 1e-6,
                                    "ms"};
  const EngineSpans engine = engine_spans(spans, workers);
  pl["experiment.worker_busy_frac"] = {engine.busy_frac, "frac"};
  pl["experiment.tail_idle_ms"] = {engine.tail_idle_ms, "ms"};
  return totals;
}

Outcome run_offline(const Args& args) {
  Outcome out;
  const std::size_t workers = pool_workers();

  // Set-up, in the order a user waits for it before the first
  // replication: inputs generated, the pool started, the sampler built,
  // then one replication scratch allocated on each worker. One set-up takes
  // about 0.1 ms, mostly thread start, so it is repeated many times and the
  // median is the metric; the last repetition's inputs and pool are used.
  std::vector<double> setups;
  OfflineWorkload wl;
  std::unique_ptr<nubb::ThreadPool> pool;
  nubb::ScenarioSpec spec;
  for (int i = 0; i < 1001; ++i) {
    pool.reset();
    const std::int64_t t0 = now_ns();
    wl = make_mc_fig6();
    pool = std::make_unique<nubb::ThreadPool>(workers);
    spec = make_spec(wl, *pool);
    {
      const nubb::BinSampler sampler = nubb::BinSampler::from_policy(spec.policy, wl.capacities);
      std::vector<std::future<void>> scratches;
      for (std::size_t w = 0; w < workers; ++w) {
        scratches.push_back(pool->submit([&wl] {
          const nubb::ReplicationScratch scratch(wl.capacities, wl.game.memory);
        }));
      }
      for (auto& f : scratches) f.get();
    }
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const std::uint64_t m = total_capacity(wl.capacities);
  const std::uint64_t round_balls = m * wl.reps_per_round;
  std::uint64_t round = 0;
  const auto next_seed = [&] { return nubb::mix_seed(args.seed, ++round); };

  if (args.trace) {
    std::vector<TracedRound> rounds;
    const std::int64_t start = now_ns();
    do {
      spec.exp.base_seed = next_seed();
      rounds.push_back(traced_round(wl, spec, out));
    } while (static_cast<double>(now_ns() - start) * 1e-9 < args.seconds);
    const auto totals = offline_layer_metrics(wl, drain_spans(), rounds, workers, out);
    const SpanTotals& rep = totals.at("replication");
    out.per_layer["trace.unattributed_frac"] = {rep.self_ns / rep.total_ns, "frac"};
    std::vector<double> registry;
    std::vector<double> traced;
    for (const TracedRound& r : rounds) {
      registry.push_back(r.registry_s);
      traced.push_back(r.traced_s);
    }
    out.per_layer["trace.overhead_frac"] = {median(traced) / median(registry) - 1.0, "frac"};
    sampler_layer_probes(wl.capacities, wl.game, out);
    ServedGame served;
    served.capacities = wl.capacities;
    served.choices = wl.game.choices;
    served.seed = args.seed;
    service_layer_probes(served, out);
    // A daemon takes its bins as capacity classes, so it serves the same
    // capacity multiset in sorted order.
    std::sort(served.capacities.begin(), served.capacities.end());
    served_layer_probe(args, served, 1.0, out);
    return out;
  }

  // One warm-up round, checked but not timed.
  spec.exp.base_seed = next_seed();
  check_round(wl, registry_round(wl, spec), out);
  std::vector<double> walls;
  std::vector<double> cpu_per_ball;
  double wall = 0.0;
  while (wall < args.seconds) {
    spec.exp.base_seed = next_seed();
    const RegistryRound r = registry_round(wl, spec);
    walls.push_back(r.wall_s);
    wall += r.wall_s;
    cpu_per_ball.push_back(r.cpu_s * 1e9 / static_cast<double>(round_balls));
    check_round(wl, r, out);
    if (walls.size() == 1) check_replay(wl, spec, r, out);
  }
  std::vector<double> rates;
  for (const double w : walls) rates.push_back(static_cast<double>(round_balls) / w);
  auto& e = out.end_to_end;
  e["balls_per_s"] = {median(rates), "1/s"};
  e["cpu_ns_per_ball"] = {median(cpu_per_ball), "ns"};
  e["setup_s"] = {median(setups), "s"};
  e["peak_rss_mb"] = {self_peak_rss_mb(), "MB"};
  e["req_per_s"] = {1.0 / median(walls), "1/s"};
  e["req_p50_us"] = {median(walls) * 1e6, "us"};
  out.report_only["rounds"] = {static_cast<double>(walls.size()), "count"};
  out.report_only["balls_per_s_spread"] = {walls.size() >= 2 ? quartile_spread(rates) : 0.0,
                                           "frac"};
  return out;
}

}  // namespace perfbench
