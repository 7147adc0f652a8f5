// GKE-Gateway-style multi-cluster baseline (paper §5.1, §6).
//
// One gateway endpoint per region provides a unified entry point; each
// request is routed to exactly one cluster (a region's replica pool).
// Routing is capacity-aware but LLM-agnostic: the client's local cluster is
// used while its average outstanding-per-replica stays under a utilization
// threshold, otherwise traffic spills to the nearest cluster with headroom.
// Within a cluster, requests go to the least-connected replica and are
// pushed blindly — there is no prefix awareness and no selective pushing,
// which is exactly what the paper identifies as the gateway's weakness.

#ifndef SKYWALKER_LB_GATEWAY_H_
#define SKYWALKER_LB_GATEWAY_H_

#include <map>
#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"
#include "src/workload/request.h"

namespace skywalker {

class GatewayLb {
 public:
  GatewayLb(Simulator* sim, Network* net);
  ~GatewayLb();

  GatewayLb(const GatewayLb&) = delete;
  GatewayLb& operator=(const GatewayLb&) = delete;

  // Registers a replica; clustered by its region.
  void AttachReplica(Replica* replica);

  // Endpoint clients in `region` should contact (created on first use).
  Frontend* EndpointFor(RegionId region);

  struct Stats {
    int64_t received = 0;
    int64_t spilled = 0;  // Served by a non-local cluster.
    int64_t completed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct ReplicaSlot {
    Replica* replica = nullptr;
    int outstanding = 0;
  };
  struct Cluster {
    RegionId region = kInvalidRegion;
    std::vector<ReplicaSlot> replicas;
    int TotalOutstanding() const;
  };

  class Endpoint;

  // Core routing invoked by an endpoint.
  void Route(RegionId endpoint_region, Request req,
             RequestCallbacks callbacks);

  Cluster* ClusterFor(RegionId region);
  // Cluster choice: local if under threshold, else nearest under threshold,
  // else globally least utilized.
  Cluster* PickCluster(RegionId client_cluster_region);
  ReplicaSlot* PickReplica(Cluster* cluster);

  Simulator* sim_;
  Network* net_;
  std::map<RegionId, Cluster> clusters_;
  std::map<RegionId, std::unique_ptr<Endpoint>> endpoints_;
  Stats stats_;
};

}  // namespace skywalker

#endif  // SKYWALKER_LB_GATEWAY_H_
