#include "src/harness/fleet.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>

#include "src/analysis/cost_model.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/deployment.h"
#include "src/core/dns.h"
#include "src/harness/scenario.h"
#include "src/lb/gateway.h"
#include "src/lb/policies.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace skywalker {

namespace {

// Single-LB baselines deploy here (the paper puts them in the US).
constexpr RegionId kCentralLbRegion = 0;

// Canonical outcome order: independent of which shard recorded what when.
bool OutcomeBefore(const RequestOutcome& a, const RequestOutcome& b) {
  return std::tie(a.completion_time, a.submit_time, a.client_region, a.id) <
         std::tie(b.completion_time, b.submit_time, b.client_region, b.id);
}

bool IsLbFault(const FleetFault& fault) {
  return fault.kind == FleetFault::kLbFail ||
         fault.kind == FleetFault::kLbRecover;
}

// A baseline frontend (every kind but kSkyWalker) and the replicas it owns.
struct BaselineSystem {
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<GatewayLb> gateway;
  std::unique_ptr<LoadBalancer> central_lb;
  std::unique_ptr<FrontendResolver> resolver;
};

std::unique_ptr<LoadBalancer> MakeCentralLb(SystemKind kind, Simulator* sim,
                                            Network* net) {
  const DispatchConfig config;  // Blind pushing.
  switch (kind) {
    case SystemKind::kRoundRobin:
      return std::make_unique<RoundRobinLb>(sim, net, 0, kCentralLbRegion,
                                            config);
    case SystemKind::kLeastLoad:
      return std::make_unique<LeastLoadLb>(sim, net, 0, kCentralLbRegion,
                                           config);
    case SystemKind::kConsistentHash:
      return std::make_unique<ConsistentHashLb>(sim, net, 0, kCentralLbRegion,
                                                config);
    case SystemKind::kSglRouter:
      return std::make_unique<SglRouterLb>(sim, net, 0, kCentralLbRegion,
                                           config);
    default:
      SKYWALKER_CHECK(false) << "not a central-LB system";
      return nullptr;
  }
}

BaselineSystem BuildBaseline(const FleetSpec& spec, Network* net) {
  BaselineSystem system;
  ReplicaId next_replica = 0;
  for (RegionId region = 0;
       region < static_cast<RegionId>(spec.replicas_per_region.size());
       ++region) {
    for (int i = 0; i < spec.replicas_per_region[static_cast<size_t>(region)];
         ++i) {
      system.replicas.push_back(std::make_unique<Replica>(
          net->SimForRegion(region), next_replica++, region,
          spec.replica_config));
    }
  }
  Simulator* central_sim = net->SimForRegion(kCentralLbRegion);
  if (spec.system == SystemKind::kGkeGateway) {
    system.gateway =
        std::make_unique<GatewayLb>(central_sim, net);
    auto resolver = std::make_unique<NearestFrontendResolver>(&net->topology());
    for (const auto& replica : system.replicas) {
      system.gateway->AttachReplica(replica.get());
    }
    for (RegionId region = 0;
         region < static_cast<RegionId>(spec.replicas_per_region.size());
         ++region) {
      resolver->AddFrontend(system.gateway->EndpointFor(region));
    }
    system.resolver = std::move(resolver);
    return system;
  }
  system.central_lb = MakeCentralLb(spec.system, central_sim, net);
  for (const auto& replica : system.replicas) {
    system.central_lb->AttachReplica(replica.get());
  }
  system.resolver =
      std::make_unique<SingleFrontendResolver>(system.central_lb.get());
  return system;
}

// One cohort of identical clients; `start` offsets its 5 s stagger.
// `legacy_token_band` marks the base population and the waves, whose
// conversation forks keep the shared legacy token band (see
// ConversationGenerator) so fleet runs committed before the fork bands
// replay byte-identically.
struct Cohort {
  ClientGroup group;
  SimDuration start = 0;
  bool legacy_token_band = false;
};

// Base population, then waves, then groups: the order fixes client indices.
std::vector<Cohort> Cohorts(const FleetSpec& spec) {
  std::vector<Cohort> cohorts;
  for (RegionId region = 0;
       region < static_cast<RegionId>(spec.topology.num_regions()); ++region) {
    ClientGroup base;
    base.region = region;
    base.count = spec.clients_per_region;
    base.client = spec.client;
    cohorts.push_back({base, 0, true});
  }
  for (const FleetClientWave& wave : spec.client_waves) {
    ClientGroup group;
    group.region = wave.region;
    group.count = wave.count;
    group.client = spec.client;
    group.client.stop_issuing_after = wave.stop_issuing_after;
    cohorts.push_back({group, wave.start, true});
  }
  for (const ClientGroup& group : spec.groups) {
    cohorts.push_back({group, 0, false});
  }
  return cohorts;
}

}  // namespace

std::string_view SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSkyWalker:
      return "SkyWalker";
    case SystemKind::kGkeGateway:
      return "GKE-Gateway";
    case SystemKind::kRoundRobin:
      return "RR";
    case SystemKind::kLeastLoad:
      return "LL";
    case SystemKind::kConsistentHash:
      return "CH";
    case SystemKind::kSglRouter:
      return "SGL";
  }
  return "unknown";
}

FleetResult RunFleetExperiment(const FleetSpec& spec) {
  const Topology& topology = spec.topology;
  const size_t num_regions = topology.num_regions();
  SKYWALKER_CHECK(spec.replicas_per_region.size() == num_regions)
      << "replicas_per_region must match the topology";
  const bool skywalker = spec.system == SystemKind::kSkyWalker;
  const bool lb_faults =
      std::any_of(spec.faults.begin(), spec.faults.end(), IsLbFault);
  SKYWALKER_CHECK(spec.num_shards <= 1 || (skywalker && !lb_faults))
      << "more than one shard requires SkyWalker without LB fail/recover "
         "faults";
  SKYWALKER_CHECK(skywalker || !lb_faults) << "LB faults need SkyWalker LBs";

  // --- simulation substrate ---
  ShardedSimulator sim(topology, std::max(spec.num_shards, 1),
                       spec.num_threads);
  Network net(&sim);
  sim.SetTracer(spec.tracer);

  // --- serving system: SkyWalker deployment or a baseline ---
  std::unique_ptr<Deployment> deployment;
  BaselineSystem baseline;
  if (skywalker) {
    DeploymentSpec dspec;
    dspec.replicas_per_region = spec.replicas_per_region;
    dspec.replica_config = spec.replica_config;
    dspec.lb_config = spec.lb;
    dspec.controller_config = spec.controller;
    Simulator* controller_sim = net.SimForRegion(kControllerRegion);
    deployment = Deployment::Build(controller_sim, &net, dspec);
  } else {
    baseline = BuildBaseline(spec, &net);
  }
  const std::vector<std::unique_ptr<Replica>>& replicas =
      skywalker ? deployment->replicas() : baseline.replicas;
  FrontendResolver* resolver =
      skywalker ? deployment->resolver() : baseline.resolver.get();

  // --- per-region metric collectors (each written only by its shard) ---
  const SimTime measure_end = spec.warmup + spec.measure;
  std::vector<std::unique_ptr<MetricsCollector>> collectors;
  collectors.reserve(num_regions);
  for (size_t r = 0; r < num_regions; ++r) {
    auto collector = std::make_unique<MetricsCollector>();
    collector->SetMeasurementWindow(spec.warmup, measure_end);
    collectors.push_back(std::move(collector));
  }

  // --- client population: everything derived from (seed, client index),
  // indices running over the cohorts so id ranges stay disjoint ---
  ConversationGenerator base_gen(spec.conversation, num_regions, spec.seed);
  std::vector<std::unique_ptr<ConversationGenerator>> conversation_gens;
  std::vector<std::unique_ptr<ToTGenerator>> tot_gens;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients;
  std::vector<SimDuration> staggers;
  uint64_t index = 0;
  for (const Cohort& cohort : Cohorts(spec)) {
    const ClientGroup& group = cohort.group;
    Simulator* region_sim = net.SimForRegion(group.region);
    MetricsCollector* collector =
        collectors[static_cast<size_t>(group.region)].get();
    for (int i = 0; i < group.count; ++i, ++index) {
      const uint64_t generator_seed = MixSeed(spec.seed + 1000, index + 1);
      const uint64_t client_seed = MixSeed(spec.seed + 2000, index + 1);
      ClientConfig client_config = group.client;
      client_config.request_id_base =
          static_cast<RequestId>((index + 1) << 32);
      if (group.kind == ClientGroup::Kind::kConversation) {
        conversation_gens.push_back(std::make_unique<ConversationGenerator>(
            base_gen, index, generator_seed, cohort.legacy_token_band));
        clients.push_back(std::make_unique<ConversationClient>(
            region_sim, &net, resolver, conversation_gens.back().get(),
            collector, group.region, client_config, client_seed));
      } else {
        tot_gens.push_back(
            std::make_unique<ToTGenerator>(group.tot, index, generator_seed));
        clients.push_back(std::make_unique<ToTClient>(
            region_sim, &net, resolver, tot_gens.back().get(), collector,
            group.region, client_config, client_seed));
      }
      // Stagger start over the first 5 s, independently per client (a shared
      // stagger RNG would be consumed in client-iteration order, which is
      // exactly the order sharding abolishes).
      Rng stagger_rng(MixSeed(spec.seed ^ 0xdead, index + 1));
      staggers.push_back(cohort.start + static_cast<SimDuration>(
                                            stagger_rng.Uniform(0, 5e6)));
    }
  }
  SKYWALKER_CHECK(!clients.empty()) << "fleet needs clients";

  if (skywalker) {
    deployment->Start();
  } else if (baseline.central_lb != nullptr) {
    baseline.central_lb->Start();
  }
  for (size_t i = 0; i < clients.size(); ++i) {
    clients[i]->Start(staggers[i]);
  }

  // --- scheduled faults, each an event on the faulted region's shard ---
  for (const FleetFault& fault : spec.faults) {
    Simulator* region_sim = net.SimForRegion(fault.region);
    region_sim->SetCurrentRegion(fault.region);
    switch (fault.kind) {
      case FleetFault::kLbFail: {
        SkyWalkerLb* lb = deployment->LbInRegion(fault.region);
        SKYWALKER_CHECK(lb != nullptr);
        region_sim->ScheduleAt(fault.at, [lb] { lb->Fail(); });
        break;
      }
      case FleetFault::kLbRecover: {
        // Controller-led recovery returns displaced replicas home; if the
        // controller never executed failover, recover the LB directly.
        // Touches two LBs' replica sets, so one shard only (checked above).
        SkyWalkerLb* lb = deployment->LbInRegion(fault.region);
        SKYWALKER_CHECK(lb != nullptr);
        Controller* controller = deployment->controller();
        region_sim->ScheduleAt(fault.at, [controller, lb] {
          if (!controller->RecoverLb(lb->id())) {
            lb->Recover();
          }
        });
        break;
      }
      case FleetFault::kReplicaFail:
      case FleetFault::kReplicaRecover:
      case FleetFault::kReplicaSlowdown: {
        int region_local = 0;
        bool matched = false;
        for (const auto& replica : replicas) {
          if (replica->region() != fault.region) {
            continue;
          }
          if (fault.replica_index >= 0 &&
              region_local++ != fault.replica_index) {
            continue;
          }
          matched = true;
          Replica* target = replica.get();
          if (fault.kind == FleetFault::kReplicaFail) {
            region_sim->ScheduleAt(fault.at, [target] { target->Fail(); });
          } else if (fault.kind == FleetFault::kReplicaRecover) {
            region_sim->ScheduleAt(fault.at, [target] { target->Recover(); });
          } else {
            const double factor = fault.factor;
            region_sim->ScheduleAt(
                fault.at, [target, factor] { target->SetSlowdown(factor); });
          }
        }
        SKYWALKER_CHECK(matched) << "fault matched no replica";
        break;
      }
    }
  }

  // --- per-region imbalance samplers (each samples only its own shard's
  // replicas; RunningStat slots are per-replica, so there is no sharing) ---
  std::vector<RunningStat> outstanding_stats(replicas.size());
  std::vector<std::vector<size_t>> region_replicas(num_regions);
  for (size_t i = 0; i < replicas.size(); ++i) {
    region_replicas[static_cast<size_t>(replicas[i]->region())].push_back(i);
  }
  std::vector<std::unique_ptr<PeriodicTask>> samplers;
  for (RegionId region = 0; region < static_cast<RegionId>(num_regions);
       ++region) {
    Simulator* region_sim = net.SimForRegion(region);
    const std::vector<size_t>& mine = region_replicas[static_cast<size_t>(region)];
    auto sampler = std::make_unique<PeriodicTask>(
        region_sim, Seconds(1),
        [&replicas, &outstanding_stats, &mine, region_sim,
         warmup = spec.warmup, measure_end] {
          // Drain time is settling, not measurement.
          if (region_sim->now() < warmup || region_sim->now() > measure_end) {
            return;
          }
          for (size_t i : mine) {
            outstanding_stats[i].Add(
                static_cast<double>(replicas[i]->outstanding_count()));
          }
        });
    region_sim->SetCurrentRegion(region);
    sampler->Start();
    samplers.push_back(std::move(sampler));
  }

  // --- run ---
  const auto wall0 = std::chrono::steady_clock::now();
  const SimTime run_end = measure_end + spec.drain;
  const size_t executed = sim.RunUntil(run_end);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  for (auto& sampler : samplers) {
    sampler->Stop();
  }

  // --- canonical summarization: merge, sort, re-feed one collector so
  // every order-sensitive accumulation sees the same sequence ---
  std::vector<RequestOutcome> all;
  for (const auto& collector : collectors) {
    all.insert(all.end(), collector->outcomes().begin(),
               collector->outcomes().end());
  }
  std::sort(all.begin(), all.end(), OutcomeBefore);
  MetricsCollector merged;
  merged.SetMeasurementWindow(spec.warmup, measure_end);
  for (const RequestOutcome& outcome : all) {
    merged.RecordOutcome(outcome);
  }

  FleetResult result;
  result.metrics.system = SystemKindName(spec.system);
  result.metrics.completed = merged.CountInWindow();
  result.metrics.throughput_tok_s = merged.ThroughputTokensPerSec();
  result.metrics.output_throughput_tok_s =
      merged.OutputThroughputTokensPerSec();
  result.metrics.ttft = merged.TtftSeconds();
  result.metrics.e2e = merged.E2eSeconds();
  result.metrics.ttft_p50_s = result.metrics.ttft.Percentile(50);
  result.metrics.ttft_p90_s = result.metrics.ttft.Percentile(90);
  result.metrics.ttft_mean_s = result.metrics.ttft.mean();
  result.metrics.e2e_p50_s = result.metrics.e2e.Percentile(50);
  result.metrics.e2e_p90_s = result.metrics.e2e.Percentile(90);
  result.metrics.e2e_mean_s = result.metrics.e2e.mean();
  result.metrics.cache_hit_rate = AggregateCacheHitRate(replicas);
  result.metrics.forwarded_fraction = merged.ForwardedFraction();

  double min_mean = std::numeric_limits<double>::max();
  double max_mean = 0;
  for (const RunningStat& stat : outstanding_stats) {
    min_mean = std::min(min_mean, stat.mean());
    max_mean = std::max(max_mean, stat.mean());
  }
  result.metrics.outstanding_imbalance =
      (outstanding_stats.empty() || min_mean <= 0.0) ? 0.0
                                                     : max_mean / min_mean;

  if (spec.collect_trace) {
    std::string trace;
    trace.reserve(all.size() * 64);
    for (const RequestOutcome& o : all) {
      trace += StrFormat(
          "%lld r%d>r%d@%d s%lld f%lld c%lld p%lld k%lld o%lld h%d%s\n",
          static_cast<long long>(o.id), static_cast<int>(o.client_region),
          static_cast<int>(o.served_region), static_cast<int>(o.replica),
          static_cast<long long>(o.submit_time),
          static_cast<long long>(o.first_token_time),
          static_cast<long long>(o.completion_time),
          static_cast<long long>(o.prompt_tokens),
          static_cast<long long>(o.cached_prompt_tokens),
          static_cast<long long>(o.output_tokens), o.hops,
          o.forwarded ? " F" : "");
    }
    result.trace = std::move(trace);
  }

  // --- resilience accounting ---
  for (const auto& client : clients) {
    result.issued += static_cast<int64_t>(client->issued_requests());
    result.completed_total +=
        static_cast<int64_t>(client->completed_requests());
    result.client_errors += static_cast<int64_t>(client->errors());
  }
  result.lost_forever =
      result.issued - result.completed_total - result.client_errors;
  if (skywalker) {
    for (const auto& lb : deployment->lbs()) {
      const DispatchEngine::Stats& lb_stats = lb->engine().stats();
      result.request_timeouts += lb_stats.request_timeouts;
      result.probe_misses += lb_stats.probe_misses;
      result.ejections += lb_stats.ejections;
      result.recoveries += lb_stats.recoveries;
      result.late_completions += lb_stats.late_completions;
    }
    result.failovers = deployment->controller()->stats().failovers_handled;
  }

  result.messages_sent = net.messages_sent();
  result.cross_region_messages = net.cross_region_messages();
  result.executed_events = executed;
  result.run_wall_seconds = wall_seconds;
  result.shard_timing = sim.Timing();
  result.windows = sim.windows();
  result.num_shards = sim.num_shards();
  result.num_threads = sim.num_threads();
  return result;
}

MetricRow ExperimentMetricRow(std::string label,
                              const ExperimentResult& result,
                              int total_replicas) {
  MetricRow row;
  row.label = std::move(label);
  row.Set(metric_keys::kThroughputTokS, result.throughput_tok_s);
  row.Set(metric_keys::kOutputTokS, result.output_throughput_tok_s);
  row.Set(metric_keys::kTtftP50, result.ttft_p50_s);
  row.Set(metric_keys::kTtftP90, result.ttft_p90_s);
  row.Set(metric_keys::kTtftP99,
          result.ttft.empty() ? 0.0 : result.ttft.Percentile(99));
  row.Set(metric_keys::kTtftMean, result.ttft_mean_s);
  row.Set(metric_keys::kE2eP50, result.e2e_p50_s);
  row.Set(metric_keys::kE2eP90, result.e2e_p90_s);
  row.Set(metric_keys::kE2eP99,
          result.e2e.empty() ? 0.0 : result.e2e.Percentile(99));
  row.Set(metric_keys::kCacheHitRate, result.cache_hit_rate);
  row.Set(metric_keys::kForwardRate, result.forwarded_fraction);
  row.Set(metric_keys::kImbalance, result.outstanding_imbalance);
  row.Set(metric_keys::kCompleted, static_cast<double>(result.completed));
  row.Set(metric_keys::kCostUsdPerHour,
          total_replicas * Pricing().reserved_hourly);
  return row;
}

}  // namespace skywalker
