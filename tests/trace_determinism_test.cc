// Trace determinism contract (ISSUE 9, DESIGN.md §11):
//
//   1. Lifecycle tracing never perturbs the simulation: a traced fleet run's
//      per-request outcome stream and summary metrics are bit-identical to
//      the untraced run's.
//   2. Exported trace bytes are bit-identical across shard/thread counts —
//      {1, 4} shards x {1, 8} threads all produce the same SKTRACE1
//      buffer, because records are buffered per region and merged by the
//      keyed (time, region, per-region seq) order.
//   3. A capped tracer's steady state allocates nothing: once a ring reaches
//      its slab cap, drop-oldest recycles slab storage instead of growing.
//      (Counted with the operator new replacement in
//      tests/counting_new.h.)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/fleet.h"
#include "src/obs/trace.h"
#include "tests/counting_new.h"

namespace skywalker {
namespace {

constexpr int kRegions = 4;

FleetSpec SmallFleet() {
  FleetSpec spec;
  spec.topology = Topology::FourRegions();
  spec.replicas_per_region = {2, 2, 2, 2};
  spec.clients_per_region = 3;
  spec.warmup = Seconds(2);
  spec.measure = Seconds(6);
  spec.seed = 23;
  spec.collect_trace = true;
  return spec;
}

TEST(TraceDeterminismTest, TracingNeverPerturbsTheRun) {
  FleetSpec spec = SmallFleet();
  const FleetResult untraced = RunFleetExperiment(spec);
  ASSERT_GT(untraced.metrics.completed, 0u);

  Tracer tracer(kRegions);
  spec.tracer = &tracer;
  const FleetResult traced = RunFleetExperiment(spec);
  EXPECT_GT(tracer.size(), 0);

  // Every observable of the run is bit-identical with tracing on.
  EXPECT_EQ(traced.trace, untraced.trace);
  EXPECT_EQ(traced.metrics.completed, untraced.metrics.completed);
  EXPECT_EQ(traced.metrics.throughput_tok_s,
            untraced.metrics.throughput_tok_s);
  EXPECT_EQ(traced.metrics.ttft_p50_s, untraced.metrics.ttft_p50_s);
  EXPECT_EQ(traced.metrics.ttft_p90_s, untraced.metrics.ttft_p90_s);
  EXPECT_EQ(traced.metrics.e2e_p90_s, untraced.metrics.e2e_p90_s);
  EXPECT_EQ(traced.messages_sent, untraced.messages_sent);
  EXPECT_EQ(traced.executed_events, untraced.executed_events);
}

TEST(TraceDeterminismTest, TraceBytesIdenticalAcrossShardsAndThreads) {
  // Reference: one shard.
  FleetSpec spec = SmallFleet();
  spec.num_shards = 1;
  Tracer reference_tracer(kRegions);
  spec.tracer = &reference_tracer;
  const FleetResult reference = RunFleetExperiment(spec);
  ASSERT_GT(reference.metrics.completed, 0u);
  ASSERT_GT(reference_tracer.size(), 0);
  const std::string reference_bytes =
      TraceToBinary(reference_tracer.Merged(), {});

  struct Config {
    int shards;
    int threads;
  };
  for (Config config :
       std::vector<Config>{{1, 8}, {4, 1}, {4, 8}}) {
    SCOPED_TRACE("shards=" + std::to_string(config.shards) +
                 " threads=" + std::to_string(config.threads));
    FleetSpec run_spec = SmallFleet();
    run_spec.num_shards = config.shards;
    run_spec.num_threads = config.threads;
    Tracer tracer(kRegions);
    run_spec.tracer = &tracer;
    const FleetResult result = RunFleetExperiment(run_spec);
    EXPECT_EQ(result.trace, reference.trace);
    EXPECT_EQ(TraceToBinary(tracer.Merged(), {}), reference_bytes);
  }
}

TEST(TraceDeterminismTest, CappedTracerSteadyStateDoesNotAllocate) {
  // Cap each ring at 4 slabs, then emit far past the cap: every further
  // emission recycles the oldest slab in place (std::rotate of the pointer
  // vector), so the counting window sees zero allocations.
  constexpr int64_t kCap = 4 * static_cast<int64_t>(Tracer::kSlabRecords);
  Tracer tracer(2, kCap);
  // Alternate regions so *each* ring fills past its cap and starts
  // recycling.
  for (int64_t i = 0; i < 2 * (kCap + 1); ++i) {
    EmitTrace(&tracer, i, TraceEventType::kSubmit, static_cast<int32_t>(i % 2),
              -1, i);
  }
  ASSERT_GT(tracer.dropped(), 0);  // Both rings warm and at cap.

  const long long baseline = NewCount();
  for (int64_t i = 0; i < 200'000; ++i) {
    EmitTrace(&tracer, kCap + i, TraceEventType::kEngineStep,
              static_cast<int32_t>(i % 2), 1, -1, 8, 2, 100.0);
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "emitting against capped warm rings must not allocate";
  EXPECT_GT(tracer.dropped(), kCap);
}

TEST(TraceDeterminismTest, ClearedTracerReusesItsHotSlab) {
  // Clear keeps one slab per ring hot: a cleared tracer re-emitting up to
  // one slab's worth of records allocates nothing.
  Tracer tracer(1);
  for (size_t i = 0; i < Tracer::kSlabRecords / 2; ++i) {
    EmitTrace(&tracer, static_cast<SimTime>(i), TraceEventType::kSubmit, 0,
              -1, static_cast<int64_t>(i));
  }
  tracer.Clear();
  const long long baseline = NewCount();
  for (size_t i = 0; i < Tracer::kSlabRecords; ++i) {
    EmitTrace(&tracer, static_cast<SimTime>(i), TraceEventType::kSubmit, 0,
              -1, static_cast<int64_t>(i));
  }
  EXPECT_EQ(NewCount() - baseline, 0)
      << "re-emitting into a cleared ring's hot slab must not allocate";
  EXPECT_EQ(tracer.size(), static_cast<int64_t>(Tracer::kSlabRecords));
}

}  // namespace
}  // namespace skywalker
