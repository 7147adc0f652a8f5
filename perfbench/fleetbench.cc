// fleetbench: runs one benchmark workload once through the public fleet
// harness (FleetSpec -> RunFleetExperiment) and prints one JSON object of raw
// measurements as the last line of stdout. perfbench/run.py drives it: it
// repeats runs, takes medians, and checks every output before reporting.
//
//   fleetbench --workload uniform_r1000 --seed 1 [--threads N] [--collect]
//              [--traced]
//
// --threads  worker threads for the sharded workloads (default 1). The fleet
//            harness gives bit-identical results for any thread count, so
//            this changes host time only;
// --collect  also collects the canonical per-request outcome stream
//            (FleetSpec::collect_trace) and reports its digest and the SLO
//            counts derived from it;
// --traced   installs a Tracer and reports trace-derived per-layer counts,
//            the TTFT attribution, and the spans timed around each call.
//
// Host times come from std::chrono::steady_clock; simulated quantities are
// exact functions of (workload, seed).

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/harness/fleet.h"
#include "src/obs/attribution.h"
#include "src/obs/trace.h"

namespace skywalker {
namespace {

using Clock = std::chrono::steady_clock;

// A request meets the SLO when its first token arrives within this much
// simulated time of its submission.
constexpr SimDuration kSloTtft = Seconds(1);

// Closed loop: every client waits for its reply, then thinks for an
// exponentially distributed time (mean 500 ms between turns of a
// conversation, 1 s between conversations). No client issues after
// warmup + measure; the drain then lets every in-flight request settle, so a
// request the system loses shows up as lost. Outputs follow the WildChat
// length model with the tail clamped at 2048 tokens, so a 120 s drain
// covers the slowest request.
FleetSpec BaseSpec(uint64_t seed) {
  FleetSpec spec;
  spec.topology = Topology::FourRegions();
  spec.seed = seed;
  spec.conversation.lengths.output_max = 2048;
  spec.client.think_time_mean = Milliseconds(500);
  spec.client.program_gap_mean = Seconds(1);
  // Small-batch replicas (the fig_fleet_scale operating point).
  spec.replica_config.max_running_requests = 8;
  spec.replica_config.kv_capacity_tokens = 24576;
  spec.warmup = Seconds(10);
  spec.measure = Seconds(60);
  spec.drain = Seconds(120);
  spec.num_shards = 4;
  return spec;
}

bool MakeSpec(const std::string& name, uint64_t seed, FleetSpec* out) {
  FleetSpec spec = BaseSpec(seed);
  if (name == "uniform_r1000") {
    // 4 x 250 replicas, 2 clients per replica, SP-P, coarse KV.
    spec.replicas_per_region.assign(4, 250);
    spec.clients_per_region = 500;
  } else if (name == "skew_r256") {
    // The 4 x 64 fleet with region 0 at half strength, and a hot cohort of
    // 600 clients in region 0 on top of 96 per region: region 0 stays
    // overloaded and forwards cross-region.
    spec.replicas_per_region = {32, 64, 64, 64};
    spec.clients_per_region = 96;
    FleetClientWave hot;
    hot.region = 0;
    hot.count = 600;
    spec.client_waves.push_back(hot);
    spec.measure = Seconds(300);
  } else if (name == "paged_pressure") {
    // Paged KV (16-token blocks, swap preemption, cold-subtree eviction)
    // below the working set, on a small unsharded region-local fleet, so
    // memory rather than forwarding absorbs the load.
    spec.replicas_per_region.assign(4, 8);
    spec.clients_per_region = 20;
    spec.replica_config.max_running_requests = 32;
    spec.replica_config.kv_capacity_tokens = 6144;
    spec.replica_config.kv_block_size_tokens = 16;
    spec.replica_config.kv_watermark_blocks = (512 + 128) / 16;
    spec.replica_config.kv_preempt_policy = PreemptPolicy::kSwap;
    spec.replica_config.cache_eviction_policy = EvictionPolicy::kColdSubtree;
    spec.lb.routing.enable_forwarding = false;
    spec.measure = Seconds(900);
    spec.drain = Seconds(180);
    spec.num_shards = 0;
  } else {
    return false;
  }
  spec.client.stop_issuing_after = spec.warmup + spec.measure;
  for (FleetClientWave& wave : spec.client_waves) {
    wave.stop_issuing_after = spec.client.stop_issuing_after;
  }
  *out = spec;
  return true;
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// 64-bit FNV-1a, defined here rather than taken from src/common/hash.h so
// that a change to the program's own hash cannot change the digest.
std::string Fnv1aHex(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// What the canonical outcome stream (FleetSpec::collect_trace, one line per
// completed request) says about the measurement window [start, end).
struct Outcomes {
  bool parsed = true;
  int64_t lines = 0;
  int64_t slo_submitted = 0;  // Requests submitted in the window...
  int64_t slo_met = 0;        // ...whose first token came within kSloTtft.
  // Requests whose client-side completion falls in the window: the
  // population of the harness's TTFT and forwarded-fraction metrics.
  std::unordered_set<int64_t> completed_in_window;
};

Outcomes ParseOutcomes(const std::string& stream, SimTime start,
                       SimTime end) {
  Outcomes out;
  size_t begin = 0;
  while (begin < stream.size()) {
    size_t stop = stream.find('\n', begin);
    if (stop == std::string::npos) {
      stop = stream.size();
    }
    const std::string line = stream.substr(begin, stop - begin);
    begin = stop + 1;
    long long id = 0, submit = 0, first = 0, complete = 0;
    int from = 0, to = 0, replica = 0;
    if (std::sscanf(line.c_str(), "%lld r%d>r%d@%d s%lld f%lld c%lld", &id,
                    &from, &to, &replica, &submit, &first, &complete) != 7) {
      out.parsed = false;
      return out;
    }
    ++out.lines;
    if (submit >= start && submit < end) {
      ++out.slo_submitted;
      if (first - submit <= kSloTtft) {
        ++out.slo_met;
      }
    }
    if (complete >= start && complete < end) {
      out.completed_in_window.insert(id);
    }
  }
  return out;
}

Json Span(const char* name, const char* parent, double start_s, double dur_s) {
  Json span = Json::Object();
  span.Set("name", name);
  span.Set("parent", parent == nullptr ? Json() : Json(parent));
  span.Set("start_s", start_s < 0 ? Json() : Json(start_s));
  span.Set("dur_s", dur_s);
  return span;
}

// Per-layer numbers derived from the merged lifecycle trace.
Json TraceSummary(const Tracer& tracer,
                  const std::unordered_set<int64_t>& completed_in_window,
                  Clock::time_point origin, Json* spans) {
  const Clock::time_point t0 = Clock::now();
  std::vector<TraceRecord> records = tracer.Merged();
  const Clock::time_point t1 = Clock::now();
  const std::vector<RequestAttribution> attributions =
      AttributeRequests(records);
  const Clock::time_point t2 = Clock::now();
  spans->Append(Span("obs.trace_merge", nullptr, SecondsBetween(origin, t0),
                     SecondsBetween(t0, t1)));
  spans->Append(Span("obs.attribution", nullptr, SecondsBetween(origin, t1),
                     SecondsBetween(t1, t2)));

  int64_t count[32] = {};
  int64_t step_prefill_tokens = 0, step_decode_seqs = 0, evicted_blocks = 0;
  int64_t submit_prompt_tokens = 0, complete_output_tokens = 0;
  double mem_util_sum = 0;
  for (const TraceRecord& r : records) {
    if (r.type < 32) {
      ++count[r.type];
    }
    switch (static_cast<TraceEventType>(r.type)) {
      case TraceEventType::kSubmit:
        submit_prompt_tokens += r.a;
        break;
      case TraceEventType::kComplete:
        complete_output_tokens += r.a;
        break;
      case TraceEventType::kEngineStep:
        step_prefill_tokens += r.a;
        step_decode_seqs += r.b;
        break;
      case TraceEventType::kCacheEvict:
        evicted_blocks += r.b;
        break;
      case TraceEventType::kMemSample:
        mem_util_sum += r.x;
        break;
      default:
        break;
    }
  }
  auto n = [&count](TraceEventType type) {
    return count[static_cast<uint16_t>(type)];
  };

  // Attribution over the requests the harness counts as completed in the
  // window. The trace's own `complete` record is the replica's, one network
  // hop before the client's, so it cannot pick that population itself.
  Distribution lb_queue_ms, stall_ms, prefill_ms;
  int64_t in_window = 0, forwarded_in_window = 0;
  for (const RequestAttribution& a : attributions) {
    if (completed_in_window.count(a.request) == 0) {
      continue;
    }
    ++in_window;
    if (a.forwards > 0) {
      ++forwarded_in_window;
    }
    if (a.ttft_us >= 0) {
      lb_queue_ms.Add(static_cast<double>(a.lb_queue_us) / 1e3);
      stall_ms.Add(static_cast<double>(a.stall_us) / 1e3);
      prefill_ms.Add(static_cast<double>(a.prefill_us) / 1e3);
    }
  }
  auto mean = [](const Distribution& d) { return d.empty() ? 0.0 : d.mean(); };
  auto p99 = [](const Distribution& d) {
    return d.empty() ? 0.0 : d.Percentile(99);
  };

  Json out = Json::Object();
  out.Set("records", tracer.size());
  out.Set("dropped", tracer.dropped());
  out.Set("submits", n(TraceEventType::kSubmit));
  out.Set("completes", n(TraceEventType::kComplete));
  out.Set("route_decisions", n(TraceEventType::kRouteDecision));
  out.Set("route_candidates", n(TraceEventType::kRouteCandidate));
  out.Set("probes", n(TraceEventType::kProbe));
  out.Set("forwards", n(TraceEventType::kForward));
  out.Set("engine_steps", n(TraceEventType::kEngineStep));
  out.Set("step_prefill_tokens", step_prefill_tokens);
  out.Set("step_decode_seqs", step_decode_seqs);
  out.Set("preemptions", n(TraceEventType::kPreempt));
  out.Set("swap_outs", n(TraceEventType::kKvSwapOut));
  out.Set("watermark_rejects", n(TraceEventType::kWatermarkReject));
  out.Set("cache_evictions", n(TraceEventType::kCacheEvict));
  out.Set("evicted_blocks", evicted_blocks);
  out.Set("mem_samples", n(TraceEventType::kMemSample));
  out.Set("mem_util_sum", mem_util_sum);
  out.Set("submit_prompt_tokens", submit_prompt_tokens);
  out.Set("complete_output_tokens", complete_output_tokens);
  out.Set("attributed_in_window", in_window);
  out.Set("forwarded_in_window", forwarded_in_window);
  out.Set("lb_queue_ms_mean", mean(lb_queue_ms));
  out.Set("lb_queue_ms_p99", p99(lb_queue_ms));
  out.Set("stall_ms_mean", mean(stall_ms));
  out.Set("stall_ms_p99", p99(stall_ms));
  out.Set("prefill_ms_mean", mean(prefill_ms));
  return out;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  int threads = 1;
  bool have_seed = false, collect = false, traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--collect") {
      collect = true;
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "fleetbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  FleetSpec spec;
  if (!have_seed || threads < 1 || !MakeSpec(workload, seed, &spec)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload <name> --seed <n> "
                 "[--threads N] [--collect] [--traced]\n");
    return 2;
  }
  spec.num_threads = spec.num_shards > 0 ? threads : 1;
  spec.collect_trace = collect || traced;
  Tracer tracer(static_cast<int32_t>(spec.topology.num_regions()));
  if (traced) {
    spec.tracer = &tracer;
  }

  const Clock::time_point origin = Clock::now();
  const FleetResult result = RunFleetExperiment(spec);
  const Clock::time_point call_end = Clock::now();
  const double call_s = SecondsBetween(origin, call_end);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  int clients = spec.clients_per_region *
                static_cast<int>(spec.replicas_per_region.size());
  int replicas = 0;
  for (int count : spec.replicas_per_region) {
    replicas += count;
  }
  for (const FleetClientWave& wave : spec.client_waves) {
    clients += wave.count;
  }

  Json out = Json::Object();
  out.Set("workload", workload);
  out.Set("seed", static_cast<uint64_t>(seed));
  out.Set("traced", traced);

  Json host = Json::Object();
  host.Set("call_s", call_s);
  host.Set("run_s", result.run_wall_seconds);
  host.Set("setup_s", call_s - result.run_wall_seconds);
  host.Set("peak_rss_kb", static_cast<int64_t>(usage.ru_maxrss));
  host.Set("threads", result.num_threads);
  host.Set("windows", result.windows);
  Json shards = Json::Array();
  for (const ShardedSimulator::ShardTiming& shard : result.shard_timing) {
    Json s = Json::Object();
    s.Set("busy_s", shard.busy_seconds);
    s.Set("barrier_s", shard.barrier_seconds);
    s.Set("events", shard.executed_events);
    s.Set("mailbox_in", shard.mailbox_in);
    shards.Append(std::move(s));
  }
  host.Set("shards", std::move(shards));
  out.Set("host", std::move(host));

  const ExperimentResult& m = result.metrics;
  Json sim = Json::Object();
  sim.Set("replicas", replicas);
  sim.Set("clients", clients);
  sim.Set("completed_in_window", static_cast<uint64_t>(m.completed));
  sim.Set("ttft_samples", static_cast<uint64_t>(m.ttft.count()));
  sim.Set("ttft_p50_s", m.ttft.empty() ? 0.0 : m.ttft.Percentile(50));
  sim.Set("ttft_p99_s", m.ttft.empty() ? 0.0 : m.ttft.Percentile(99));
  sim.Set("e2e_p50_s", m.e2e.empty() ? 0.0 : m.e2e.Percentile(50));
  sim.Set("throughput_tok_s", m.throughput_tok_s);
  sim.Set("cache_hit_rate", m.cache_hit_rate);
  sim.Set("forwarded_fraction", m.forwarded_fraction);
  sim.Set("issued", result.issued);
  sim.Set("completed_total", result.completed_total);
  sim.Set("client_errors", result.client_errors);
  sim.Set("lost_forever", result.lost_forever);
  sim.Set("events", static_cast<uint64_t>(result.executed_events));
  sim.Set("messages", result.messages_sent);
  sim.Set("cross_region_messages", result.cross_region_messages);
  out.Set("sim", std::move(sim));

  const Outcomes outcomes = ParseOutcomes(result.trace, spec.warmup,
                                          spec.warmup + spec.measure);
  if (spec.collect_trace) {
    Json o = Json::Object();
    o.Set("parsed", outcomes.parsed);
    o.Set("digest", Fnv1aHex(result.trace));
    o.Set("lines", outcomes.lines);
    o.Set("slo_submitted", outcomes.slo_submitted);
    o.Set("slo_met", outcomes.slo_met);
    out.Set("outcomes", std::move(o));
  }

  if (traced) {
    // Spans timed from outside the program: the fleet call, the event loop
    // inside it, and each shard's busy and barrier time inside the loop.
    // The harness reports the last three as durations only.
    Json spans = Json::Array();
    spans.Append(Span("harness.fleet_call", nullptr, 0.0, call_s));
    spans.Append(Span("sim.event_loop", "harness.fleet_call", -1,
                      result.run_wall_seconds));
    for (size_t s = 0; s < result.shard_timing.size(); ++s) {
      const std::string busy = "sim.shard" + std::to_string(s) + ".busy";
      const std::string barrier = "sim.shard" + std::to_string(s) + ".barrier";
      spans.Append(Span(busy.c_str(), "sim.event_loop", -1,
                        result.shard_timing[s].busy_seconds));
      spans.Append(Span(barrier.c_str(), "sim.event_loop", -1,
                        result.shard_timing[s].barrier_seconds));
    }
    Json trace =
        TraceSummary(tracer, outcomes.completed_in_window, origin, &spans);
    out.Set("trace", std::move(trace));
    out.Set("spans", std::move(spans));
  }

  std::printf("%s\n", out.Dump(/*indent=*/false).c_str());
  return 0;
}

}  // namespace
}  // namespace skywalker

int main(int argc, char** argv) { return skywalker::Main(argc, argv); }
