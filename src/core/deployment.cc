#include "src/core/deployment.h"

#include "src/common/logging.h"

namespace skywalker {

std::unique_ptr<Deployment> Deployment::Build(Simulator* sim, Network* net,
                                              const DeploymentSpec& spec) {
  const Topology& topology = net->topology();
  SKYWALKER_CHECK(spec.replicas_per_region.size() == topology.num_regions())
      << "replicas_per_region must match the topology";

  auto deployment = std::unique_ptr<Deployment>(new Deployment(&topology));
  deployment->controller_ =
      std::make_unique<Controller>(sim, net, spec.controller_config);

  ReplicaId next_replica = 0;
  LbId next_lb = 0;
  for (RegionId region = 0;
       region < static_cast<RegionId>(topology.num_regions()); ++region) {
    // Shard affinity: every actor runs on its own region's simulator.
    Simulator* region_sim = net->SimForRegion(region);
    auto lb = std::make_unique<SkyWalkerLb>(region_sim, net, next_lb++,
                                            region, spec.lb_config);
    for (int i = 0; i < spec.replicas_per_region[static_cast<size_t>(region)];
         ++i) {
      auto replica = std::make_unique<Replica>(region_sim, next_replica++,
                                               region, spec.replica_config);
      lb->AttachReplica(replica.get());
      deployment->replicas_.push_back(std::move(replica));
    }
    deployment->resolver_.AddFrontend(lb.get());
    deployment->controller_->ManageLb(lb.get());
    deployment->lbs_.push_back(std::move(lb));
  }
  // Full peer mesh.
  for (auto& a : deployment->lbs_) {
    for (auto& b : deployment->lbs_) {
      a->AddPeer(b.get());
    }
  }
  return deployment;
}

Deployment::~Deployment() = default;

void Deployment::Start() {
  for (auto& lb : lbs_) {
    lb->Start();
  }
  controller_->Start();
}

void Deployment::Stop() {
  for (auto& lb : lbs_) {
    lb->Stop();
  }
  controller_->Stop();
}

SkyWalkerLb* Deployment::LbInRegion(RegionId region) {
  for (auto& lb : lbs_) {
    if (lb->region() == region) {
      return lb.get();
    }
  }
  return nullptr;
}

int64_t Deployment::TotalForwarded() const {
  int64_t total = 0;
  for (const auto& lb : lbs_) {
    total += lb->stats().forwarded_out;
  }
  return total;
}

}  // namespace skywalker
