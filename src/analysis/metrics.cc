#include "src/analysis/metrics.h"

#include <algorithm>
#include <map>

namespace skywalker {

void MetricsCollector::SetMeasurementWindow(SimTime start, SimTime end) {
  window_start_ = start;
  window_end_ = end;
}

void MetricsCollector::RecordOutcome(const RequestOutcome& outcome) {
  outcomes_.push_back(outcome);
}

bool MetricsCollector::InWindow(const RequestOutcome& o) const {
  return o.completion_time >= window_start_ && o.completion_time < window_end_;
}

double MetricsCollector::WindowSeconds() const {
  SimTime end = window_end_;
  if (end == kSimTimeMax) {
    // Open window: use the last completion as the effective end.
    end = 0;
    for (const auto& o : outcomes_) {
      end = std::max(end, o.completion_time);
    }
  }
  return std::max(1e-9, ToSeconds(end - window_start_));
}

size_t MetricsCollector::CountInWindow() const {
  size_t n = 0;
  for (const auto& o : outcomes_) {
    if (InWindow(o)) {
      ++n;
    }
  }
  return n;
}

Distribution MetricsCollector::TtftSeconds() const {
  Distribution d;
  for (const auto& o : outcomes_) {
    if (InWindow(o) && o.first_token_time > 0) {
      d.Add(ToSeconds(o.first_token_time - o.submit_time));
    }
  }
  return d;
}

Distribution MetricsCollector::E2eSeconds() const {
  Distribution d;
  for (const auto& o : outcomes_) {
    if (InWindow(o)) {
      d.Add(ToSeconds(o.completion_time - o.submit_time));
    }
  }
  return d;
}

double MetricsCollector::ThroughputTokensPerSec() const {
  double tokens = 0;
  for (const auto& o : outcomes_) {
    if (InWindow(o)) {
      tokens += static_cast<double>(o.prompt_tokens + o.output_tokens);
    }
  }
  return tokens / WindowSeconds();
}

double MetricsCollector::OutputThroughputTokensPerSec() const {
  double tokens = 0;
  for (const auto& o : outcomes_) {
    if (InWindow(o)) {
      tokens += static_cast<double>(o.output_tokens);
    }
  }
  return tokens / WindowSeconds();
}

double MetricsCollector::CacheHitRate() const {
  double cached = 0;
  double prompt = 0;
  for (const auto& o : outcomes_) {
    if (InWindow(o)) {
      cached += static_cast<double>(o.cached_prompt_tokens);
      prompt += static_cast<double>(o.prompt_tokens);
    }
  }
  return prompt <= 0 ? 0.0 : cached / prompt;
}

double MetricsCollector::ForwardedFraction() const {
  size_t forwarded = 0;
  size_t total = 0;
  for (const auto& o : outcomes_) {
    if (InWindow(o)) {
      ++total;
      if (o.forwarded) {
        ++forwarded;
      }
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(forwarded) /
                          static_cast<double>(total);
}

void MetricsCollector::Clear() { outcomes_.clear(); }

MetricRow& MetricRow::Set(std::string key, double value) {
  for (auto& [k, v] : metrics) {
    if (k == key) {
      v = value;
      return *this;
    }
  }
  metrics.emplace_back(std::move(key), value);
  return *this;
}

const double* MetricRow::Find(std::string_view key) const {
  for (const auto& [k, v] : metrics) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

const std::vector<std::string>& StandardExperimentMetricKeys() {
  static const std::vector<std::string> keys = {
      metric_keys::kThroughputTokS, metric_keys::kOutputTokS,
      metric_keys::kTtftP50,        metric_keys::kTtftP90,
      metric_keys::kTtftP99,        metric_keys::kTtftMean,
      metric_keys::kE2eP50,         metric_keys::kE2eP90,
      metric_keys::kE2eP99,         metric_keys::kCacheHitRate,
      metric_keys::kForwardRate,    metric_keys::kImbalance,
      metric_keys::kCompleted,      metric_keys::kCostUsdPerHour,
  };
  return keys;
}

const std::vector<std::string>& ResilienceMetricKeys() {
  static const std::vector<std::string> keys = {
      metric_keys::kGoodputReqS, metric_keys::kLostForever,
      metric_keys::kMisrouted,   metric_keys::kEjections,
      metric_keys::kRecoveries,  metric_keys::kClientErrors,
  };
  return keys;
}

MetricRow& SetKvMetrics(MetricRow& row, const KvCounters& counters,
                        int64_t capacity_tokens_total) {
  row.Set(metric_keys::kPreemptions,
          static_cast<double>(counters.preempt_recompute +
                              counters.preempt_swap));
  row.Set(metric_keys::kSwapOuts, static_cast<double>(counters.preempt_swap));
  row.Set(metric_keys::kSwapIns, static_cast<double>(counters.swap_ins));
  row.Set(metric_keys::kSwapTransferSec, counters.swap_transfer_us * 1e-6);
  row.Set(metric_keys::kKvFragmentationPct,
          capacity_tokens_total <= 0
              ? 0.0
              : 100.0 *
                    static_cast<double>(counters.peak_fragmentation_tokens) /
                    static_cast<double>(capacity_tokens_total));
  row.Set(metric_keys::kKvWatermarkRejections,
          static_cast<double>(counters.watermark_rejections));
  return row;
}

Json MetricRowJson(const MetricRow& row) {
  Json j = Json::Object();
  j.Set("label", row.label);
  if (!row.dims.empty()) {
    Json dims = Json::Object();
    for (const auto& [k, v] : row.dims) {
      dims.Set(k, v);
    }
    j.Set("dims", std::move(dims));
  }
  Json metrics = Json::Object();
  for (const auto& [k, v] : row.metrics) {
    metrics.Set(k, v);
  }
  j.Set("metrics", std::move(metrics));
  return j;
}

std::vector<MetricRow> MeanRowsByLabel(
    const std::vector<std::vector<MetricRow>>& per_trial_rows) {
  std::vector<MetricRow> means;
  std::vector<std::map<std::string, int>> counts;  // Parallel to `means`.
  for (const auto& rows : per_trial_rows) {
    for (const MetricRow& row : rows) {
      MetricRow* mean = nullptr;
      std::map<std::string, int>* count = nullptr;
      for (size_t i = 0; i < means.size(); ++i) {
        if (means[i].label == row.label) {
          mean = &means[i];
          count = &counts[i];
          break;
        }
      }
      if (mean == nullptr) {
        MetricRow fresh;
        fresh.label = row.label;
        fresh.dims = row.dims;
        means.push_back(std::move(fresh));
        counts.emplace_back();
        mean = &means.back();
        count = &counts.back();
      }
      for (const auto& [key, value] : row.metrics) {
        const double* prev = mean->Find(key);
        mean->Set(key, (prev == nullptr ? 0.0 : *prev) + value);
        ++(*count)[key];
      }
    }
  }
  for (size_t i = 0; i < means.size(); ++i) {
    for (auto& [key, sum] : means[i].metrics) {
      int n = counts[i][key];
      if (n > 1) {
        sum /= n;
      }
    }
  }
  return means;
}

}  // namespace skywalker
