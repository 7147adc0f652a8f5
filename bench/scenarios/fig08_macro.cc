// Scenario port of bench/fig08_macro.cc — the macrobenchmark: service
// throughput, TTFT and end-to-end latency for seven systems across four
// workloads (ChatBot Arena, WildChat, ToT, Mixed Tree) on the
// three-continent topology.
//
// Expected shape (paper):
//  * SkyWalker variants beat single-LB baselines by 1.12-1.2x on the chat
//    workloads and GKE Gateway by 1.43-2.06x overall;
//  * CH ~matches SkyWalker on uniform ToT but collapses on Mixed Tree;
//  * SkyWalker (trie) edges out SkyWalker-CH by a few percent;
//  * SkyWalker holds the lowest P50/P90 TTFT (regional entry + cache hits);
//  * hit rates: RR lowest, LL modest, SkyWalker highest.
//
// Absolute numbers differ from the paper (simulated L4s, not real ones);
// the orderings and ratios are the reproduction target.

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenarios/scenarios.h"
#include "src/net/topology.h"

namespace skywalker {

FleetSpec PaperFleet(const WorkloadSpec& workload,
                     std::vector<int> replicas_per_region, SimDuration warmup,
                     SimDuration measure) {
  FleetSpec spec;
  spec.topology = Topology::ThreeContinents();
  spec.replicas_per_region = std::move(replicas_per_region);
  spec.replica_config.max_running_requests = 32;
  spec.replica_config.kv_capacity_tokens = 40960;
  spec.conversation = workload.conversation;
  spec.groups = workload.groups;
  spec.seed = workload.seed;
  spec.warmup = warmup;
  spec.measure = measure;
  return spec;
}

namespace {

// One Fig. 8 system under its paper name. SkyWalker-CH is SkyWalker with
// two-layer consistent hashing in place of the prefix trees.
struct MacroSystem {
  const char* name;
  SystemKind kind;
  RoutingPolicyKind policy = RoutingPolicyKind::kPrefixTree;
};

constexpr MacroSystem kSystems[] = {
    {"GKE-Gateway", SystemKind::kGkeGateway},
    {"RR", SystemKind::kRoundRobin},
    {"LL", SystemKind::kLeastLoad},
    {"CH", SystemKind::kConsistentHash},
    {"SGL", SystemKind::kSglRouter},
    {"SkyWalker-CH", SystemKind::kSkyWalker,
     RoutingPolicyKind::kConsistentHash},
    {"SkyWalker", SystemKind::kSkyWalker},
};

MacroWorkloadCase MakeCase(int workload, const ScenarioOptions& options) {
  MacroWorkloadCase wc;
  switch (workload) {
    case 0:
      wc = ArenaMacroCase(MixSeed(81, options.seed_stream));
      break;
    case 1:
      wc = WildChatMacroCase(MixSeed(82, options.seed_stream));
      break;
    case 2:
      wc = ToTMacroCase(MixSeed(83, options.seed_stream));
      break;
    default:
      wc = MixedTreeMacroCase(MixSeed(84, options.seed_stream));
      break;
  }
  if (options.smoke) {
    wc.spec.ScaleClients(0.25);
  }
  return wc;
}

// Durations hold the system at the paper's high-utilization operating
// point. Much longer windows let closed-loop conversations accumulate
// context until every system collapses into queueing-dominated overload,
// which masks the routing effects the figure is about.
FleetSpec MacroFleet(const MacroWorkloadCase& wc, const MacroSystem& system,
                     bool smoke) {
  FleetSpec spec = PaperFleet(wc.spec, wc.replicas_per_region,
                              smoke ? Seconds(5) : Seconds(30),
                              smoke ? Seconds(15) : Seconds(120));
  spec.system = system.kind;
  spec.lb.routing.policy = system.policy;
  return spec;
}

}  // namespace

Scenario MakeFig08MacroScenario() {
  Scenario scenario;
  scenario.name = "fig08";
  scenario.title = "Macrobenchmark: 7 systems x 4 workloads";
  scenario.description =
      "Throughput/TTFT/E2E for GKE-Gateway, RR, LL, CH, SGL, SkyWalker-CH "
      "and SkyWalker across ChatBot Arena, WildChat, ToT and Mixed Tree on "
      "the three-continent topology. One cell per (workload, system).";
  scenario.metric_keys = StandardExperimentMetricKeys();
  scenario.plan = [](const ScenarioOptions& options) {
    ScenarioPlan plan;
    for (int w = 0; w < 4; ++w) {
      // Rebuilding the case per cell is deterministic, so cells stay
      // independent without sharing state.
      for (const MacroSystem& system : kSystems) {
        const std::string label = MakeCase(w, options).name + "/" +
                                  system.name;
        plan.cells.push_back(ScenarioCell{label, [w, system, options, label] {
          MacroWorkloadCase wc = MakeCase(w, options);
          FleetResult result =
              RunFleetExperiment(MacroFleet(wc, system, options.smoke));
          const int replicas =
              std::accumulate(wc.replicas_per_region.begin(),
                              wc.replicas_per_region.end(), 0);
          MetricRow row = ExperimentMetricRow(label, result.metrics, replicas);
          row.Dim("workload", wc.name);
          row.Dim("system", system.name);
          return std::vector<MetricRow>{std::move(row)};
        }});
      }
    }
    plan.finalize = [](const std::vector<std::vector<MetricRow>>& cell_rows) {
      ScenarioReport report;
      for (const auto& rows : cell_rows) {
        report.rows.insert(report.rows.end(), rows.begin(), rows.end());
      }
      // Headline: SkyWalker vs the best single-LB baseline per workload.
      // Rows mirror the cell order (workload-major over kSystems).
      const size_t stride = std::size(kSystems);
      for (size_t w = 0; w * stride < report.rows.size(); ++w) {
        double best_baseline = 0;
        double sky = 0;
        std::string workload;
        for (size_t s = 0; s < stride; ++s) {
          const MetricRow& row = report.rows[w * stride + s];
          const double tput = *row.Find(metric_keys::kThroughputTokS);
          const MacroSystem& system = kSystems[s];
          if (system.kind == SystemKind::kSkyWalker) {
            if (system.policy == RoutingPolicyKind::kPrefixTree) {
              sky = tput;
            }
          } else if (system.kind != SystemKind::kGkeGateway) {
            best_baseline = std::max(best_baseline, tput);
          }
          for (const auto& [k, v] : row.dims) {
            if (k == "workload") {
              workload = v;
            }
          }
        }
        for (char& c : workload) {
          if (c == ' ') {
            c = '_';
          }
        }
        report.derived.emplace_back(
            "skywalker_vs_best_baseline_x_" + workload,
            best_baseline <= 0 ? 0.0 : sky / best_baseline);
      }
      report.notes.push_back(
          "Check vs paper (Fig. 8): SkyWalker best-or-tied throughput with "
          "the lowest TTFT; CH competitive on uniform ToT but degraded on "
          "Mixed Tree; baselines pay cross-region TTFT for remote clients; "
          "SkyWalker hit rate highest.");
      return report;
    };
    return plan;
  };
  return scenario;
}

}  // namespace skywalker
