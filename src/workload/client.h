// Closed-loop client actors. Each client runs one program at a time (paper
// §5.1): a multi-turn conversation issued turn-by-turn, or a Tree-of-Thoughts
// tree issued level-by-level with concurrent siblings.
//
// Clients resolve a frontend through a FrontendResolver (the DNS layer) and
// submit over the network model, so TTFT measured at the client includes the
// client↔LB and LB↔replica paths exactly as in the paper's testbed.

#ifndef SKYWALKER_WORKLOAD_CLIENT_H_
#define SKYWALKER_WORKLOAD_CLIENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/workload/conversation.h"
#include "src/workload/request.h"
#include "src/workload/tot.h"

namespace skywalker {

// Destination for completed-request records; implemented by
// analysis::MetricsCollector. Kept abstract here so workload does not depend
// on the analysis library.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void RecordOutcome(const RequestOutcome& outcome) = 0;
};

// Stamps submit_time and delivers the request to the frontend after the
// client→frontend one-way latency.
void SubmitViaNetwork(Network* net, RegionId client_region, Frontend* frontend,
                      Request req, RequestCallbacks callbacks);

struct ClientConfig {
  SimDuration think_time_mean = Seconds(2);        // Between turns.
  SimDuration program_gap_mean = Seconds(3);       // Between programs.
  SimTime stop_issuing_after = kSimTimeMax;        // No new requests after.
  // Required (CHECKed nonzero): the client draws ids from its own private
  // range starting here, so ids depend neither on shard interleaving nor on
  // other cells running in the same process. Ranges of distinct clients
  // must not overlap; harnesses give client i the band (i + 1) << 32.
  RequestId request_id_base = 0;
};

// What every closed-loop client exposes to a harness: a start hook and its
// request accounting.
class ClosedLoopClient {
 public:
  virtual ~ClosedLoopClient() = default;

  // Begins the first program after `initial_delay`.
  virtual void Start(SimDuration initial_delay = 0) = 0;

  size_t completed_requests() const { return completed_requests_; }
  size_t errors() const { return errors_; }
  // Submissions handed to the network (retries count again). Every issued
  // request eventually completes or errors; after a full drain,
  // issued - completed - errors is the number of requests swallowed by the
  // system — the lost-forever count the resilience scenarios assert on.
  size_t issued_requests() const { return issued_requests_; }

 protected:
  size_t issued_requests_ = 0;
  size_t completed_requests_ = 0;
  size_t errors_ = 0;
};

// Issues conversations sequentially: submit turn, await completion, think,
// next turn; new conversation when the previous ends.
class ConversationClient : public ClosedLoopClient {
 public:
  ConversationClient(Simulator* sim, Network* net, FrontendResolver* resolver,
                     ConversationGenerator* generator, MetricsSink* metrics,
                     RegionId region, const ClientConfig& config,
                     uint64_t seed);

  void Start(SimDuration initial_delay = 0) override;

  size_t completed_conversations() const { return completed_conversations_; }

 private:
  void BeginConversation();
  void IssueTurn();
  void OnTurnComplete(const RequestOutcome& outcome);

  Simulator* sim_;
  Network* net_;
  FrontendResolver* resolver_;
  ConversationGenerator* generator_;
  MetricsSink* metrics_;
  RegionId region_;
  ClientConfig config_;
  Rng rng_;

  ConversationGenerator::UserProfile user_;
  ConversationGenerator::Conversation current_;
  RequestId next_request_id_ = 0;
  size_t next_turn_ = 0;
  size_t completed_conversations_ = 0;
};

// Issues one ToT tree at a time: all nodes of a level concurrently, next
// level once every node of the current level completed. Requests carry no
// error callback: a ToT client never retries, so it belongs on fault-free
// runs.
class ToTClient : public ClosedLoopClient {
 public:
  ToTClient(Simulator* sim, Network* net, FrontendResolver* resolver,
            ToTGenerator* generator, MetricsSink* metrics, RegionId region,
            const ClientConfig& config, uint64_t seed);

  void Start(SimDuration initial_delay = 0) override;

  size_t completed_trees() const { return completed_trees_; }

 private:
  void BeginTree();
  void IssueLevel();
  void OnNodeComplete(const RequestOutcome& outcome);

  Simulator* sim_;
  Network* net_;
  FrontendResolver* resolver_;
  ToTGenerator* generator_;
  MetricsSink* metrics_;
  RegionId region_;
  ClientConfig config_;
  Rng rng_;

  UserId user_id_;
  std::string routing_key_base_;
  RequestId next_request_id_ = 0;
  ToTGenerator::Tree current_;
  int current_level_ = 0;
  size_t level_pending_ = 0;
  size_t completed_trees_ = 0;
};

}  // namespace skywalker

#endif  // SKYWALKER_WORKLOAD_CLIENT_H_
