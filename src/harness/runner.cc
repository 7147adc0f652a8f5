#include "src/harness/runner.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/harness/parallel.h"

namespace skywalker {

ShardTimingRegistry& ShardTimingRegistry::Instance() {
  static ShardTimingRegistry* registry = new ShardTimingRegistry();
  return *registry;
}

void ShardTimingRegistry::Record(CellShardTiming timing) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(timing));
}

std::vector<CellShardTiming> ShardTimingRegistry::Drain() {
  std::vector<CellShardTiming> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.swap(records_);
  }
  std::sort(out.begin(), out.end(),
            [](const CellShardTiming& a, const CellShardTiming& b) {
              return std::tie(a.scenario, a.cell, a.shards, a.threads) <
                     std::tie(b.scenario, b.cell, b.shards, b.threads);
            });
  return out;
}

namespace {

// One planned trial: the plan plus slots for its cells' rows.
struct PlannedTrial {
  const Scenario* scenario = nullptr;
  int trial = 0;
  uint64_t seed_stream = 0;
  ScenarioPlan plan;
  std::vector<std::vector<MetricRow>> cell_rows;  // Indexed by cell.
  std::vector<double> cell_seconds;               // Indexed by cell.
};

ScenarioReport Finalize(const PlannedTrial& planned) {
  if (planned.plan.finalize != nullptr) {
    return planned.plan.finalize(planned.cell_rows);
  }
  ScenarioReport report;
  for (const auto& rows : planned.cell_rows) {
    report.rows.insert(report.rows.end(), rows.begin(), rows.end());
  }
  return report;
}

}  // namespace

std::vector<ScenarioRunResult> RunScenarios(
    const std::vector<const Scenario*>& scenarios, const RunConfig& config,
    RunTiming* timing) {
  SKYWALKER_CHECK(config.trials >= 1);
  const auto run_start = std::chrono::steady_clock::now();

  // Plan sequentially (plans are cheap); collect a flat job list.
  std::vector<PlannedTrial> planned;
  struct Job {
    size_t planned_index;
    size_t cell_index;
  };
  std::vector<Job> jobs;
  for (const Scenario* scenario : scenarios) {
    for (int trial = 0; trial < config.trials; ++trial) {
      PlannedTrial pt;
      pt.scenario = scenario;
      pt.trial = trial;
      pt.seed_stream = TrialSeedStream(config.seed, trial);
      ScenarioOptions options;
      options.seed_stream = pt.seed_stream;
      options.smoke = config.smoke;
      options.trace = config.trace && scenario->traceable;
      options.trace_dir = config.trace_dir;
      pt.plan = scenario->plan(options);
      if (!config.cell_filter.empty()) {
        // Keep only the requested labels (plan order preserved). Finalizers
        // are written against FindRow-style null guards, so derived metrics
        // over absent rows drop out instead of faulting.
        std::vector<ScenarioCell> kept;
        for (ScenarioCell& cell : pt.plan.cells) {
          for (const std::string& want : config.cell_filter) {
            if (cell.label == want) {
              kept.push_back(std::move(cell));
              break;
            }
          }
        }
        pt.plan.cells = std::move(kept);
      }
      pt.cell_rows.resize(pt.plan.cells.size());
      pt.cell_seconds.resize(pt.plan.cells.size(), 0);
      planned.push_back(std::move(pt));
      for (size_t c = 0; c < planned.back().plan.cells.size(); ++c) {
        jobs.push_back(Job{planned.size() - 1, c});
      }
    }
  }

  // Every cell owns its world and writes only its indexed slot, so the pool
  // schedule cannot affect the merged result. Per-cell wall time feeds the
  // --timing sidecar only, never the merged metrics.
  ParallelFor(jobs.size(), config.threads, [&](size_t i) {
    PlannedTrial& pt = planned[jobs[i].planned_index];
    const ScenarioCell& cell = pt.plan.cells[jobs[i].cell_index];
    const auto start = std::chrono::steady_clock::now();
    try {
      pt.cell_rows[jobs[i].cell_index] = cell.run();
    } catch (const std::exception& e) {
      throw std::runtime_error(pt.scenario->name + "/" + cell.label + ": " +
                               e.what());
    }
    pt.cell_seconds[jobs[i].cell_index] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  });

  std::vector<ScenarioRunResult> results;
  size_t planned_index = 0;
  for (const Scenario* scenario : scenarios) {
    ScenarioRunResult result;
    result.scenario = scenario;
    result.config = config;
    for (int trial = 0; trial < config.trials; ++trial) {
      PlannedTrial& pt = planned[planned_index++];
      for (double seconds : pt.cell_seconds) {
        result.cell_seconds += seconds;
        ++result.cells;
      }
      TrialResult tr;
      tr.trial = pt.trial;
      tr.seed_stream = pt.seed_stream;
      tr.report = Finalize(pt);
      result.trials.push_back(std::move(tr));
    }
    results.push_back(std::move(result));
  }
  // Always drain: records from this run must not bleed into the next
  // RunScenarios call in the same process (e.g. back-to-back tests).
  std::vector<CellShardTiming> shard_cells = ShardTimingRegistry::Instance().Drain();
  if (timing != nullptr) {
    timing->wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - run_start)
                               .count();
    timing->shard_cells = std::move(shard_cells);
  }
  return results;
}

Json TimingJson(const std::vector<ScenarioRunResult>& results,
                const RunConfig& config, const RunTiming& timing) {
  Json doc = Json::Object();
  doc.Set("schema_version", 1);
  doc.Set("kind", "timing_sidecar");
  doc.Set("trials", config.trials);
  doc.Set("smoke", config.smoke);
  doc.Set("threads", config.threads);
  doc.Set("hardware_concurrency",
          static_cast<int>(std::thread::hardware_concurrency()));
  doc.Set("wall_seconds", timing.wall_seconds);
  Json scenarios = Json::Array();
  for (const ScenarioRunResult& result : results) {
    Json entry = Json::Object();
    entry.Set("scenario", result.scenario->name);
    entry.Set("cells", static_cast<int>(result.cells));
    entry.Set("cell_seconds", result.cell_seconds);
    scenarios.Append(std::move(entry));
  }
  doc.Set("scenarios", std::move(scenarios));
  // Shard-level breakdowns for cells that ran on a ShardedSimulator: busy vs
  // barrier-wait wall time per shard (the load-balance picture for the
  // conservative-lookahead windows).
  if (!timing.shard_cells.empty()) {
    Json cells = Json::Array();
    for (const CellShardTiming& cell : timing.shard_cells) {
      Json cj = Json::Object();
      cj.Set("scenario", cell.scenario);
      cj.Set("cell", cell.cell);
      cj.Set("shards", cell.shards);
      cj.Set("threads", cell.threads);
      cj.Set("wall_seconds", cell.wall_seconds);
      cj.Set("windows", static_cast<double>(cell.windows));
      Json per_shard = Json::Array();
      for (const ShardedSimulator::ShardTiming& shard : cell.per_shard) {
        Json sj = Json::Object();
        sj.Set("busy_seconds", shard.busy_seconds);
        sj.Set("barrier_seconds", shard.barrier_seconds);
        sj.Set("executed_events", static_cast<double>(shard.executed_events));
        sj.Set("mailbox_in", static_cast<double>(shard.mailbox_in));
        per_shard.Append(std::move(sj));
      }
      cj.Set("per_shard", std::move(per_shard));
      cells.Append(std::move(cj));
    }
    doc.Set("cells", std::move(cells));
  }
  return doc;
}

Json ScenarioRunJson(const ScenarioRunResult& result) {
  const Scenario& scenario = *result.scenario;
  Json doc = Json::Object();
  doc.Set("schema_version", 1);
  doc.Set("scenario", scenario.name);
  doc.Set("title", scenario.title);
  // Seeds are full 64-bit values; doubles lose the low bits above 2^53, so
  // they serialize as decimal strings to keep recorded trials reproducible.
  doc.Set("seed", std::to_string(result.config.seed));
  doc.Set("trials", result.config.trials);
  doc.Set("smoke", result.config.smoke);
  doc.Set("deterministic", scenario.deterministic);
  Json keys = Json::Array();
  for (const std::string& key : scenario.metric_keys) {
    keys.Append(key);
  }
  doc.Set("metric_keys", std::move(keys));

  Json trial_results = Json::Array();
  std::vector<std::vector<MetricRow>> per_trial_rows;
  for (const TrialResult& trial : result.trials) {
    Json tj = Json::Object();
    tj.Set("trial", trial.trial);
    tj.Set("seed_stream", std::to_string(trial.seed_stream));
    Json rows = Json::Array();
    for (const MetricRow& row : trial.report.rows) {
      rows.Append(MetricRowJson(row));
    }
    tj.Set("rows", std::move(rows));
    if (!trial.report.derived.empty()) {
      Json derived = Json::Object();
      for (const auto& [k, v] : trial.report.derived) {
        derived.Set(k, v);
      }
      tj.Set("derived", std::move(derived));
    }
    if (!trial.report.notes.empty()) {
      Json notes = Json::Array();
      for (const std::string& note : trial.report.notes) {
        notes.Append(note);
      }
      tj.Set("notes", std::move(notes));
    }
    trial_results.Append(std::move(tj));
    per_trial_rows.push_back(trial.report.rows);
  }
  doc.Set("trial_results", std::move(trial_results));

  Json summary = Json::Object();
  Json summary_rows = Json::Array();
  for (const MetricRow& row : MeanRowsByLabel(per_trial_rows)) {
    summary_rows.Append(MetricRowJson(row));
  }
  summary.Set("rows", std::move(summary_rows));
  // Mean of derived metrics across trials: reuse the row averager by
  // wrapping each trial's derived pairs in a single pseudo-row.
  std::vector<std::vector<MetricRow>> per_trial_derived;
  for (const TrialResult& trial : result.trials) {
    if (trial.report.derived.empty()) {
      continue;
    }
    MetricRow row;
    row.label = "derived";
    row.metrics = trial.report.derived;
    per_trial_derived.push_back({std::move(row)});
  }
  if (!per_trial_derived.empty()) {
    // Named: a range-for over MeanRowsByLabel(...)[0].metrics would iterate
    // a member of a destroyed temporary.
    const std::vector<MetricRow> derived_means =
        MeanRowsByLabel(per_trial_derived);
    Json derived = Json::Object();
    for (const auto& [k, v] : derived_means[0].metrics) {
      derived.Set(k, v);
    }
    summary.Set("derived", std::move(derived));
  }
  doc.Set("summary", std::move(summary));
  return doc;
}

std::string ScenarioReportText(const Scenario& scenario,
                               const TrialResult& trial) {
  std::string out = "=== " + scenario.name + ": " + scenario.title + " ===\n";
  if (!trial.report.rows.empty()) {
    // Header = label + union of metric keys in first-seen order.
    std::vector<std::string> headers = {"label"};
    for (const MetricRow& row : trial.report.rows) {
      for (const auto& [key, value] : row.metrics) {
        (void)value;
        bool seen = false;
        for (const std::string& h : headers) {
          if (h == key) {
            seen = true;
            break;
          }
        }
        if (!seen) {
          headers.push_back(key);
        }
      }
    }
    Table table(headers);
    for (const MetricRow& row : trial.report.rows) {
      std::vector<std::string> cells = {row.label};
      for (size_t i = 1; i < headers.size(); ++i) {
        const double* v = row.Find(headers[i]);
        cells.push_back(v == nullptr ? "-" : Table::Num(*v, 3));
      }
      table.AddRow(std::move(cells));
    }
    out += table.ToAscii();
  }
  if (!trial.report.derived.empty()) {
    Table derived({"derived metric", "value"});
    for (const auto& [k, v] : trial.report.derived) {
      derived.AddRow({k, Table::Num(v, 3)});
    }
    out += derived.ToAscii();
  }
  for (const std::string& note : trial.report.notes) {
    out += note;
    out.push_back('\n');
  }
  return out;
}

}  // namespace skywalker
