// Determinism tests for the skybench harness: identical seeds must produce
// byte-identical BENCH_*.json output and TRACE_* files regardless of
// worker-thread count, and trial 0 must always run each scenario's
// canonical seeds (so historical headline numbers stay comparable across
// CLI seeds).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench/scenarios/scenarios.h"
#include "src/common/json.h"
#include "src/harness/parallel.h"
#include "src/harness/runner.h"

namespace skywalker {
namespace {

class SkybenchDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { RegisterAllScenarios(); }
};

std::string RunToJson(const Scenario* scenario, int trials, uint64_t seed,
                      int threads) {
  RunConfig config;
  config.trials = trials;
  config.seed = seed;
  config.smoke = true;
  config.threads = threads;
  const std::vector<ScenarioRunResult> results =
      RunScenarios({scenario}, config);
  return ScenarioRunJson(results[0]).Dump();
}

TEST_F(SkybenchDeterminismTest,
       DeterministicScenariosAreIdenticalAcrossThreadCounts) {
  for (const Scenario* scenario : ScenarioRegistry::Get().All()) {
    if (!scenario->deterministic) {
      continue;  // Wall-clock microbenchmarks legitimately vary.
    }
    SCOPED_TRACE(scenario->name);
    const std::string single = RunToJson(scenario, 2, 7, 1);
    const std::string pooled = RunToJson(scenario, 2, 7, 4);
    EXPECT_EQ(single, pooled);
  }
}

// Runs `scenario` in smoke mode with tracing into a fresh `dir` and returns
// every file it wrote, name -> bytes.
std::map<std::string, std::string> RunTraced(const Scenario* scenario,
                                             int threads,
                                             const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  RunConfig config;
  config.smoke = true;
  config.threads = threads;
  config.trace = true;
  config.trace_dir = dir.string();
  RunScenarios({scenario}, config);
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  std::filesystem::remove_all(dir);
  return files;
}

TEST_F(SkybenchDeterminismTest, TraceBytesAreIdenticalAcrossThreadCounts) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "skybench_trace_threads";
  int traceable = 0;
  for (const Scenario* scenario : ScenarioRegistry::Get().All()) {
    if (!scenario->traceable) {
      continue;
    }
    ++traceable;
    SCOPED_TRACE(scenario->name);
    const auto single = RunTraced(scenario, 1, root / "t1");
    const auto pooled = RunTraced(scenario, 4, root / "t4");
    ASSERT_FALSE(single.empty());
    ASSERT_EQ(single.size(), pooled.size());
    for (const auto& [name, bytes] : single) {
      const auto it = pooled.find(name);
      ASSERT_NE(it, pooled.end()) << name;
      // Not EXPECT_EQ: a failure would print megabytes of trace.
      EXPECT_TRUE(it->second == bytes) << name << " differs";
    }
  }
  EXPECT_GT(traceable, 0);
}

TEST_F(SkybenchDeterminismTest, RepeatedRunsAreBitIdentical) {
  const Scenario* scenario = ScenarioRegistry::Get().Find("fig06");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(RunToJson(scenario, 1, 42, 2), RunToJson(scenario, 1, 42, 2));
}

TEST_F(SkybenchDeterminismTest, TrialZeroIsCanonicalAcrossCliSeeds) {
  // The CLI seed perturbs trials >= 1 only; trial 0 always runs the
  // scenario's canonical seeds.
  const Scenario* scenario = ScenarioRegistry::Get().Find("fig05a");
  ASSERT_NE(scenario, nullptr);
  std::optional<Json> a = Json::Parse(RunToJson(scenario, 2, 1, 2));
  std::optional<Json> b = Json::Parse(RunToJson(scenario, 2, 999, 2));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const Json& trial0_a = a->Find("trial_results")->elements()[0];
  const Json& trial0_b = b->Find("trial_results")->elements()[0];
  EXPECT_EQ(trial0_a.Dump(), trial0_b.Dump());
  // And the perturbed trials differ between seeds.
  const Json& trial1_a = a->Find("trial_results")->elements()[1];
  const Json& trial1_b = b->Find("trial_results")->elements()[1];
  EXPECT_NE(trial1_a.Find("seed_stream")->AsString(),
            trial1_b.Find("seed_stream")->AsString());
}

TEST_F(SkybenchDeterminismTest, SeedStreamsPerturbTrialResults) {
  // Different streams must actually change sampled results (no accidental
  // seed plumbing dead ends).
  const Scenario* scenario = ScenarioRegistry::Get().Find("fig04a");
  ASSERT_NE(scenario, nullptr);
  std::optional<Json> doc = Json::Parse(RunToJson(scenario, 2, 3, 2));
  ASSERT_TRUE(doc.has_value());
  const auto& trials = doc->Find("trial_results")->elements();
  const Json* row0 = trials[0].Find("rows");
  const Json* row1 = trials[1].Find("rows");
  EXPECT_NE(row0->Dump(), row1->Dump());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 3, 8}) {
    std::vector<int> hits(257, 0);
    ParallelFor(hits.size(), threads,
                [&](size_t i) { hits[i] += static_cast<int>(i) + 1; });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], static_cast<int>(i) + 1) << "threads=" << threads;
    }
  }
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(ParallelFor(16, 4,
                           [](size_t i) {
                             if (i == 7) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace skywalker
