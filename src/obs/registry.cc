#include "src/obs/registry.h"

#include <algorithm>

namespace skywalker {

std::string FormatTags(
    const std::vector<std::pair<std::string, std::string>>& tags) {
  std::string out;
  for (const auto& [key, value] : tags) {
    if (!out.empty()) {
      out += ',';
    }
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::string MetricsRegistry::Key(const std::string& name,
                                 const std::string& tags) {
  return tags.empty() ? name : name + "{" + tags + "}";
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& tags) {
  return &counters_[Key(name, tags)];
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& tags) {
  return &gauges_[Key(name, tags)];
}

Histogram* MetricsRegistry::GetHistogram(
    const std::string& name, const std::string& tags,
    const std::vector<double>& upper_bounds) {
  auto [it, inserted] =
      histograms_.try_emplace(Key(name, tags), Histogram(upper_bounds));
  return &it->second;
}

Series* MetricsRegistry::GetSeries(const std::string& name,
                                   const std::string& tags) {
  return &series_[Key(name, tags)];
}

Json MetricsRegistry::Snapshot(bool include_series) const {
  Json root = Json::Object();
  Json counters = Json::Object();
  for (const auto& [key, counter] : counters_) {
    counters.Set(key, counter.value());
  }
  root.Set("counters", std::move(counters));
  Json gauges = Json::Object();
  for (const auto& [key, gauge] : gauges_) {
    gauges.Set(key, gauge.value());
  }
  root.Set("gauges", std::move(gauges));
  Json histograms = Json::Object();
  for (const auto& [key, histogram] : histograms_) {
    Json h = Json::Object();
    h.Set("count", static_cast<int64_t>(histogram.count()));
    h.Set("mean", histogram.mean());
    h.Set("p50", histogram.Quantile(0.5));
    h.Set("p90", histogram.Quantile(0.9));
    h.Set("p99", histogram.Quantile(0.99));
    h.Set("max", histogram.max());
    histograms.Set(key, std::move(h));
  }
  root.Set("histograms", std::move(histograms));
  if (include_series) {
    Json series = Json::Object();
    for (const auto& [key, s] : series_) {
      Json points = Json::Array();
      for (const auto& [t, v] : s.points()) {
        Json point = Json::Array();
        point.Append(t);
        point.Append(v);
        points.Append(std::move(point));
      }
      series.Set(key, std::move(points));
    }
    root.Set("series", std::move(series));
  }
  return root;
}

namespace {

std::string ReplicaTags(const TraceRecord& r) {
  return FormatTags({{"region", std::to_string(r.region)},
                     {"replica", std::to_string(r.replica)}});
}

std::string RegionTags(const TraceRecord& r) {
  return FormatTags({{"region", std::to_string(r.region)}});
}

// Latency-style geometric grid: 1 ms .. ~537 s in x2 steps (microseconds).
std::vector<double> LatencyBoundsUs() {
  return Histogram::Exponential(1000.0, 2.0, 20).bounds();
}

}  // namespace

void BuildMetricsFromTrace(const std::vector<TraceRecord>& records,
                           SimDuration window, MetricsRegistry* registry) {
  const std::vector<double> latency_bounds = LatencyBoundsUs();
  // Per-request submit / first-token times for the TTFT histogram. Request
  // ids are dense enough in practice that a sorted map stays cheap; the map
  // also keeps everything deterministic regardless of id allocation order.
  std::map<int64_t, TraceRecord> submits;
  for (const TraceRecord& r : records) {
    const auto type = static_cast<TraceEventType>(r.type);
    const std::string name = TraceEventTypeName(type);
    registry->GetCounter("trace_records", "type=" + name)->Add();
    switch (type) {
      case TraceEventType::kSubmit:
        registry->GetCounter("requests_submitted", RegionTags(r))->Add();
        submits.emplace(r.request, r);
        break;
      case TraceEventType::kRouteDecision:
        registry
            ->GetHistogram("lb_queue_wait_us", RegionTags(r), latency_bounds)
            ->Add(r.x);
        break;
      case TraceEventType::kForward:
        registry->GetCounter("requests_forwarded", RegionTags(r))->Add();
        break;
      case TraceEventType::kAdmit:
        registry->GetCounter("admissions", ReplicaTags(r))->Add();
        break;
      case TraceEventType::kFirstToken: {
        auto it = submits.find(r.request);
        if (it != submits.end()) {
          registry
              ->GetHistogram("ttft_us", RegionTags(it->second),
                             latency_bounds)
              ->Add(static_cast<double>(r.time - it->second.time));
        }
        break;
      }
      case TraceEventType::kComplete: {
        registry->GetCounter("requests_completed", ReplicaTags(r))->Add();
        auto it = submits.find(r.request);
        if (it != submits.end()) {
          registry
              ->GetHistogram("request_latency_us", RegionTags(it->second),
                             latency_bounds)
              ->Add(static_cast<double>(r.time - it->second.time));
        }
        break;
      }
      case TraceEventType::kTimeout:
        registry->GetCounter("requests_timed_out", RegionTags(r))->Add();
        break;
      case TraceEventType::kDrop:
        registry->GetCounter("requests_dropped", ReplicaTags(r))->Add();
        break;
      case TraceEventType::kLbError:
        registry->GetCounter("lb_errors", RegionTags(r))->Add();
        break;
      case TraceEventType::kPreempt:
        registry->GetCounter("preemptions", ReplicaTags(r))->Add();
        break;
      case TraceEventType::kKvSwapOut:
        registry->GetCounter("kv_swap_outs", ReplicaTags(r))->Add();
        break;
      case TraceEventType::kKvSwapIn:
        registry->GetCounter("kv_swap_ins", ReplicaTags(r))->Add();
        break;
      case TraceEventType::kWatermarkReject:
        registry->GetCounter("watermark_rejections", ReplicaTags(r))->Add();
        break;
      case TraceEventType::kCacheEvict:
        registry->GetCounter("cache_evictions", ReplicaTags(r))
            ->Add(r.a);  // victims
        break;
      case TraceEventType::kEngineStep:
        registry
            ->GetHistogram("engine_step_us", ReplicaTags(r), latency_bounds)
            ->Add(r.x);
        break;
      case TraceEventType::kMemSample:
        registry->GetSeries("memory_utilization", ReplicaTags(r))
            ->Append(r.time, r.x);
        registry->GetGauge("memory_utilization_last", ReplicaTags(r))
            ->Set(r.x);
        break;
      case TraceEventType::kEject:
        registry->GetCounter(
            r.a != 0 ? "ejections_latency" : "ejections_failure",
            ReplicaTags(r))
            ->Add();
        break;
      case TraceEventType::kRecover:
        registry->GetCounter("recoveries", ReplicaTags(r))->Add();
        break;
      default:
        break;
    }
  }
  // Windowed throughput / preemption series over the whole fleet. Records
  // are time-sorted, so one forward pass bins them.
  if (window > 0 && !records.empty()) {
    Series* throughput = registry->GetSeries("completions_per_window");
    Series* preempts = registry->GetSeries("preemptions_per_window");
    SimTime window_end = window;
    double completed = 0;
    double preempted = 0;
    auto flush = [&](SimTime end) {
      throughput->Append(end, completed);
      preempts->Append(end, preempted);
      completed = 0;
      preempted = 0;
    };
    for (const TraceRecord& r : records) {
      while (r.time >= window_end) {
        flush(window_end);
        window_end += window;
      }
      const auto type = static_cast<TraceEventType>(r.type);
      if (type == TraceEventType::kComplete) {
        completed += 1;
      } else if (type == TraceEventType::kPreempt) {
        preempted += 1;
      }
    }
    flush(window_end);
  }
}

}  // namespace skywalker
