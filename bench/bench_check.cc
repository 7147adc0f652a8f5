// CI gate over skybench output (ISSUE 5): byte-diffs coarse-mode golden
// BENCH_*.json files against a fresh run and enforces derived-metric
// floors (fig07's SP-P/BP throughput gap, micro_selection, micro_memory),
// so the coarse determinism contract and the headline ratios are guarded
// in CI rather than only by local discipline.
//
// Usage:
//   bench_check --goldens=bench/goldens/smoke --results=bench-results
//               [--derived=bench-results/BENCH_fig07_memory_pressure.json
//                --floors=bench/goldens/fig07_floors.json]
//               [--timing=bench-results/BENCH_TIMING.json
//                --timing-floors=bench/goldens/fleet_floors.json]
//
// Golden comparison is byte equality: the emitter serializes
// deterministically (src/common/json.h), so any difference is a real
// metric/behavior change — update the goldens deliberately, never in the
// same breath as the change that moved them. Floors are a JSON object of
// derived-metric key -> minimum value; keys starting with '_' are notes.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/obs/trace.h"

namespace {

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string FlagValue(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return "";
}

int CheckGoldens(const std::string& goldens, const std::string& results) {
  namespace fs = std::filesystem;
  int failures = 0;
  int checked = 0;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(goldens)) {
    if (entry.path().extension() == ".json" &&
        entry.path().filename().string().rfind("BENCH_", 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& golden : files) {
    ++checked;
    const std::string name = golden.filename().string();
    auto want = ReadFile(golden.string());
    auto got = ReadFile((fs::path(results) / name).string());
    if (!want.has_value()) {
      std::fprintf(stderr, "FAIL %s: cannot read committed golden\n",
                   name.c_str());
      ++failures;
      continue;
    }
    if (!got.has_value()) {
      std::fprintf(stderr, "FAIL %s: missing from results dir\n",
                   name.c_str());
      ++failures;
      continue;
    }
    if (*want != *got) {
      std::fprintf(stderr,
                   "FAIL %s: differs from committed golden (%zu vs %zu "
                   "bytes) — coarse-mode output must stay byte-identical\n",
                   name.c_str(), want->size(), got->size());
      ++failures;
      continue;
    }
    std::printf("ok   %s\n", name.c_str());
  }
  if (checked == 0) {
    std::fprintf(stderr, "FAIL no goldens found under %s\n", goldens.c_str());
    return 1;
  }
  return failures;
}

int CheckFloors(const std::string& bench_path,
                const std::string& floors_path) {
  auto bench_text = ReadFile(bench_path);
  auto floors_text = ReadFile(floors_path);
  if (!bench_text || !floors_text) {
    std::fprintf(stderr, "FAIL cannot read %s or %s\n", bench_path.c_str(),
                 floors_path.c_str());
    return 1;
  }
  auto bench = skywalker::Json::Parse(*bench_text);
  auto floors = skywalker::Json::Parse(*floors_text);
  if (!bench || !floors || !floors->is_object()) {
    std::fprintf(stderr, "FAIL unparseable BENCH/floors JSON\n");
    return 1;
  }
  const skywalker::Json* summary = bench->Find("summary");
  const skywalker::Json* derived =
      summary != nullptr ? summary->Find("derived") : nullptr;
  if (derived == nullptr || !derived->is_object()) {
    std::fprintf(stderr, "FAIL %s has no summary.derived object\n",
                 bench_path.c_str());
    return 1;
  }
  int failures = 0;
  for (const auto& [key, floor] : floors->items()) {
    if (!key.empty() && key[0] == '_') {
      continue;  // Annotation, not a floor.
    }
    const skywalker::Json* value = derived->Find(key);
    if (value == nullptr || !value->is_number()) {
      std::fprintf(stderr, "FAIL derived metric '%s' missing\n",
                   key.c_str());
      ++failures;
      continue;
    }
    if (value->AsDouble() < floor.AsDouble()) {
      std::fprintf(stderr, "FAIL %s = %.4f below floor %.4f\n", key.c_str(),
                   value->AsDouble(), floor.AsDouble());
      ++failures;
    } else {
      std::printf("ok   %s = %.4f (floor %.4f)\n", key.c_str(),
                  value->AsDouble(), floor.AsDouble());
    }
  }
  return failures;
}

// Finds a fig_fleet_scale cell entry by label in BENCH_TIMING.json's
// "cells" array.
const skywalker::Json* FindTimingCell(const skywalker::Json& timing,
                                      const std::string& label) {
  const skywalker::Json* cells = timing.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return nullptr;
  }
  for (const skywalker::Json& cell : cells->elements()) {
    const skywalker::Json* name = cell.Find("cell");
    if (name != nullptr && name->is_string() && name->AsString() == label) {
      return &cell;
    }
  }
  return nullptr;
}

// Enforces parallel-speedup floors on the sharded-simulator cells recorded
// in the skybench --timing sidecar (ISSUE 6). The floors file pairs a
// multi-shard cell with its single-shard twin and sets a minimum wall-clock
// ratio; the whole check is skipped (not failed) on hosts with fewer
// hardware threads than `min_host_threads`, where no parallel speedup is
// physically available.
int CheckTiming(const std::string& timing_path,
                const std::string& floors_path) {
  auto timing_text = ReadFile(timing_path);
  auto floors_text = ReadFile(floors_path);
  if (!timing_text || !floors_text) {
    std::fprintf(stderr, "FAIL cannot read %s or %s\n", timing_path.c_str(),
                 floors_path.c_str());
    return 1;
  }
  auto timing = skywalker::Json::Parse(*timing_text);
  auto floors = skywalker::Json::Parse(*floors_text);
  if (!timing || !floors || !floors->is_object()) {
    std::fprintf(stderr, "FAIL unparseable timing/floors JSON\n");
    return 1;
  }
  const skywalker::Json* host = timing->Find("hardware_concurrency");
  const skywalker::Json* min_host = floors->Find("min_host_threads");
  const double host_threads = host != nullptr ? host->AsDouble() : 0;
  if (min_host != nullptr && host_threads < min_host->AsDouble()) {
    std::printf(
        "skip timing floors: host has %.0f hardware thread(s), floors "
        "require >= %.0f (no parallel speedup available)\n",
        host_threads, min_host->AsDouble());
    return 0;
  }
  const skywalker::Json* smoke = timing->Find("smoke");
  const bool is_smoke = smoke != nullptr && smoke->AsBool();
  const skywalker::Json* pairs = floors->Find("pairs");
  const skywalker::Json* cells = floors->Find("cells");
  if ((pairs == nullptr || !pairs->is_array()) &&
      (cells == nullptr || !cells->is_array())) {
    std::fprintf(stderr, "FAIL floors file has no 'pairs' or 'cells' array\n");
    return 1;
  }
  int failures = 0;
  // Absolute wall-clock ceilings (ISSUE 10): for cells with no single-shard
  // twin to ratio against, the floors file bounds the cell's wall time
  // outright. Keyed per mode so the full-size ceiling is meaningful while
  // smoke stays unbounded unless asked for.
  if (cells != nullptr && cells->is_array()) {
    for (const skywalker::Json& entry : cells->elements()) {
      const skywalker::Json* name = entry.Find("cell");
      const skywalker::Json* ceiling = entry.Find(
          is_smoke ? "max_wall_seconds_smoke" : "max_wall_seconds");
      if (name == nullptr) {
        std::fprintf(stderr, "FAIL malformed floors cell entry\n");
        ++failures;
        continue;
      }
      if (ceiling == nullptr) {
        continue;  // No ceiling for this mode.
      }
      const skywalker::Json* timed = FindTimingCell(*timing, name->AsString());
      if (timed == nullptr) {
        std::fprintf(stderr, "FAIL timing cell '%s' missing from %s\n",
                     name->AsString().c_str(), timing_path.c_str());
        ++failures;
        continue;
      }
      const double wall = timed->Find("wall_seconds")->AsDouble();
      if (wall > ceiling->AsDouble()) {
        std::fprintf(stderr, "FAIL %s wall %.3fs above ceiling %.3fs\n",
                     name->AsString().c_str(), wall, ceiling->AsDouble());
        ++failures;
      } else {
        std::printf("ok   %s wall %.3fs (ceiling %.3fs)\n",
                    name->AsString().c_str(), wall, ceiling->AsDouble());
      }
    }
  }
  if (pairs == nullptr || !pairs->is_array()) {
    return failures;
  }
  for (const skywalker::Json& pair : pairs->elements()) {
    const skywalker::Json* parallel_name = pair.Find("parallel_cell");
    const skywalker::Json* single_name = pair.Find("single_cell");
    const skywalker::Json* floor = pair.Find(is_smoke ? "min_speedup_x_smoke"
                                                      : "min_speedup_x");
    if (parallel_name == nullptr || single_name == nullptr ||
        floor == nullptr) {
      std::fprintf(stderr, "FAIL malformed floors pair entry\n");
      ++failures;
      continue;
    }
    const skywalker::Json* parallel =
        FindTimingCell(*timing, parallel_name->AsString());
    const skywalker::Json* single =
        FindTimingCell(*timing, single_name->AsString());
    if (parallel == nullptr || single == nullptr) {
      std::fprintf(stderr, "FAIL timing cells '%s'/'%s' missing from %s\n",
                   parallel_name->AsString().c_str(),
                   single_name->AsString().c_str(), timing_path.c_str());
      ++failures;
      continue;
    }
    const double parallel_wall = parallel->Find("wall_seconds")->AsDouble();
    const double single_wall = single->Find("wall_seconds")->AsDouble();
    const skywalker::Json* min_wall = pair.Find("min_single_wall_seconds");
    if (min_wall != nullptr && single_wall < min_wall->AsDouble()) {
      std::printf(
          "skip %s vs %s: single-shard wall %.3fs below the %.3fs noise "
          "threshold\n",
          parallel_name->AsString().c_str(), single_name->AsString().c_str(),
          single_wall, min_wall->AsDouble());
      continue;
    }
    const double speedup =
        parallel_wall <= 0 ? 0.0 : single_wall / parallel_wall;
    if (speedup < floor->AsDouble()) {
      std::fprintf(stderr,
                   "FAIL %s speedup %.2fx vs %s below floor %.2fx "
                   "(parallel %.3fs, single %.3fs)\n",
                   parallel_name->AsString().c_str(), speedup,
                   single_name->AsString().c_str(), floor->AsDouble(),
                   parallel_wall, single_wall);
      ++failures;
    } else {
      std::printf("ok   %s speedup %.2fx (floor %.2fx)\n",
                  parallel_name->AsString().c_str(), speedup,
                  floor->AsDouble());
    }
  }
  return failures;
}

// Every name the tracer can emit; anything else in a trace file is a schema
// violation. Built by probing the enum's stable id space (ids are on-disk
// format, so the probe range only ever grows).
std::vector<std::string> KnownTraceEventNames() {
  std::vector<std::string> names;
  for (uint16_t id = 1; id < 64; ++id) {
    const char* name = skywalker::TraceEventTypeName(
        static_cast<skywalker::TraceEventType>(id));
    if (std::strcmp(name, "unknown") != 0) {
      names.push_back(name);
    }
  }
  return names;
}

// Validates a trace artifact written by `skybench --trace` (ISSUE 9).
// Accepts either format: the SKTRACE1 compact binary (checked for known
// event types and non-decreasing merged timestamps) or the Chrome
// trace_event JSON (checked for the traceEvents array, the skywalker
// metadata object, and per-event name/ph/ts shape).
int CheckTraceSchema(const std::string& path) {
  auto text = ReadFile(path);
  if (!text) {
    std::fprintf(stderr, "FAIL cannot read %s\n", path.c_str());
    return 1;
  }
  const std::vector<std::string> known = KnownTraceEventNames();
  auto known_name = [&known](const std::string& name) {
    return std::find(known.begin(), known.end(), name) != known.end();
  };

  if (text->rfind("SKTRACE1", 0) == 0) {
    std::vector<skywalker::TraceRecord> records;
    std::vector<std::pair<std::string, std::string>> meta;
    if (!skywalker::ParseTraceBinary(*text, &records, &meta)) {
      std::fprintf(stderr, "FAIL %s: malformed SKTRACE1 binary\n",
                   path.c_str());
      return 1;
    }
    int failures = 0;
    skywalker::SimTime last = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const skywalker::TraceRecord& r = records[i];
      const char* name = skywalker::TraceEventTypeName(
          static_cast<skywalker::TraceEventType>(r.type));
      if (std::strcmp(name, "unknown") == 0 ||
          std::strcmp(name, "invalid") == 0) {
        std::fprintf(stderr, "FAIL %s: record %zu has unknown type %u\n",
                     path.c_str(), i, r.type);
        ++failures;
      }
      if (r.time < last) {
        std::fprintf(stderr,
                     "FAIL %s: record %zu breaks merged time order "
                     "(%lld < %lld)\n",
                     path.c_str(), i, static_cast<long long>(r.time),
                     static_cast<long long>(last));
        ++failures;
      }
      last = r.time;
      if (failures >= 10) {
        break;  // Enough evidence.
      }
    }
    if (failures == 0) {
      std::printf("ok   %s: %zu records, %zu meta entries (binary)\n",
                  path.c_str(), records.size(), meta.size());
    }
    return failures;
  }

  auto doc = skywalker::Json::Parse(*text);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "FAIL %s: unparseable trace JSON\n", path.c_str());
    return 1;
  }
  const skywalker::Json* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "FAIL %s: no traceEvents array\n", path.c_str());
    return 1;
  }
  const skywalker::Json* meta = doc->Find("skywalker");
  const skywalker::Json* schema =
      meta != nullptr ? meta->Find("schema_version") : nullptr;
  if (schema == nullptr || !schema->is_number() || schema->AsDouble() != 1) {
    std::fprintf(stderr, "FAIL %s: skywalker.schema_version != 1\n",
                 path.c_str());
    return 1;
  }
  int failures = 0;
  size_t index = 0;
  for (const skywalker::Json& event : events->elements()) {
    const skywalker::Json* name = event.Find("name");
    const skywalker::Json* ph = event.Find("ph");
    const skywalker::Json* ts = event.Find("ts");
    if (name == nullptr || !name->is_string() ||
        !known_name(name->AsString())) {
      std::fprintf(stderr, "FAIL %s: event %zu has unknown name\n",
                   path.c_str(), index);
      ++failures;
    } else if (ph == nullptr || !ph->is_string() ||
               (ph->AsString() != "X" && ph->AsString() != "C" &&
                ph->AsString() != "i")) {
      std::fprintf(stderr, "FAIL %s: event %zu (%s) has bad phase\n",
                   path.c_str(), index, name->AsString().c_str());
      ++failures;
    } else if (ts == nullptr || !ts->is_number()) {
      std::fprintf(stderr, "FAIL %s: event %zu (%s) missing ts\n",
                   path.c_str(), index, name->AsString().c_str());
      ++failures;
    } else if (ph->AsString() == "X" &&
               (event.Find("dur") == nullptr ||
                !event.Find("dur")->is_number())) {
      std::fprintf(stderr, "FAIL %s: event %zu (%s) slice missing dur\n",
                   path.c_str(), index, name->AsString().c_str());
      ++failures;
    }
    ++index;
    if (failures >= 10) {
      break;  // Enough evidence.
    }
  }
  if (failures == 0) {
    std::printf("ok   %s: %zu events validate (chrome json)\n", path.c_str(),
                index);
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string goldens = FlagValue(argc, argv, "goldens");
  const std::string results = FlagValue(argc, argv, "results");
  const std::string derived = FlagValue(argc, argv, "derived");
  const std::string floors = FlagValue(argc, argv, "floors");
  const std::string timing = FlagValue(argc, argv, "timing");
  const std::string timing_floors = FlagValue(argc, argv, "timing-floors");
  const std::string trace_schema = FlagValue(argc, argv, "trace-schema");
  if (goldens.empty() && derived.empty() && timing.empty() &&
      trace_schema.empty()) {
    std::fprintf(stderr,
                 "usage: bench_check --goldens=DIR --results=DIR "
                 "[--derived=FILE --floors=FILE] "
                 "[--timing=FILE --timing-floors=FILE] "
                 "[--trace-schema=FILE]\n");
    return 2;
  }
  int failures = 0;
  if (!goldens.empty()) {
    if (results.empty()) {
      std::fprintf(stderr, "--goldens requires --results\n");
      return 2;
    }
    failures += CheckGoldens(goldens, results);
  }
  if (!derived.empty()) {
    if (floors.empty()) {
      std::fprintf(stderr, "--derived requires --floors\n");
      return 2;
    }
    failures += CheckFloors(derived, floors);
  }
  if (!timing.empty()) {
    if (timing_floors.empty()) {
      std::fprintf(stderr, "--timing requires --timing-floors\n");
      return 2;
    }
    failures += CheckTiming(timing, timing_floors);
  }
  if (!trace_schema.empty()) {
    failures += CheckTraceSchema(trace_schema);
  }
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
