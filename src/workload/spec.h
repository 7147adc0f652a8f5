// Workload specification and the canonical workload presets of the paper's
// evaluation (§5.1). The workload layer owns its own configuration, so
// benchmark scenarios share one set of paper-calibrated builders instead of
// copy-pasting client tables; FleetSpec::groups carries the client groups
// into the fleet harness (src/harness/fleet.h).

#ifndef SKYWALKER_WORKLOAD_SPEC_H_
#define SKYWALKER_WORKLOAD_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/client.h"

namespace skywalker {

// One group of identical closed-loop clients in one region.
struct ClientGroup {
  enum class Kind { kConversation, kToT };
  Kind kind = Kind::kConversation;
  RegionId region = 0;
  int count = 0;
  ToTConfig tot;  // Used when kind == kToT.
  ClientConfig client;
};

struct WorkloadSpec {
  // Conversation groups fork one generator (its shared template pools
  // drive cross-user prefix similarity); configure it here.
  ConversationWorkloadConfig conversation;
  std::vector<ClientGroup> groups;
  uint64_t seed = 42;

  // Multiplies every group's client count by `factor` (rounding up, so no
  // group vanishes). Smoke runs shrink workloads through this.
  WorkloadSpec& ScaleClients(double factor);
};

// The paper's chat-interactivity pacing (Fig. 8 chat workloads).
ClientConfig ChatClientConfig();
// Agentic pacing: near-back-to-back tree expansions (Fig. 8 ToT workloads).
ClientConfig ToTClientConfig();

// One macrobenchmark column of Fig. 8: the workload plus the paper's
// replica placement for it.
struct MacroWorkloadCase {
  std::string name;
  WorkloadSpec spec;
  std::vector<int> replicas_per_region;
};

// The four Fig. 8 workloads, with their canonical seeds.
MacroWorkloadCase ArenaMacroCase(uint64_t seed);
MacroWorkloadCase WildChatMacroCase(uint64_t seed);
MacroWorkloadCase ToTMacroCase(uint64_t seed);
MacroWorkloadCase MixedTreeMacroCase(uint64_t seed);

// Regionally skewed WildChat load (Fig. 10 / migration ablation):
// `counts[r]` clients per region at chat pacing.
WorkloadSpec SkewedChatWorkload(const std::vector<int>& counts, uint64_t seed);

// Uniform WildChat load, `clients_per_region` per region, 1 s pacing
// (the ablation studies' base workload).
WorkloadSpec UniformChatWorkload(int clients_per_region, uint64_t seed);

}  // namespace skywalker

#endif  // SKYWALKER_WORKLOAD_SPEC_H_
