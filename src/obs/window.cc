#include "obs/window.h"

namespace adn::obs {

namespace {

std::string Key(std::string_view name, std::string_view labels) {
  std::string key(name);
  key += '|';
  key += labels;
  return key;
}

}  // namespace

SnapshotHistogram SnapshotHistogram::FromSample(const MetricSample& sample) {
  SnapshotHistogram h;
  h.upper_bounds = sample.upper_bounds;
  h.bucket_counts = sample.bucket_counts;
  h.count = sample.count;
  h.sum = sample.value;
  return h;
}

SnapshotHistogram SnapshotHistogram::DeltaSince(
    const SnapshotHistogram& earlier) const {
  if (earlier.bucket_counts.empty()) return *this;
  if (earlier.bucket_counts.size() != bucket_counts.size() ||
      earlier.upper_bounds != upper_bounds) {
    return *this;
  }
  SnapshotHistogram d;
  d.upper_bounds = upper_bounds;
  d.bucket_counts.reserve(bucket_counts.size());
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    d.bucket_counts.push_back(bucket_counts[i] - earlier.bucket_counts[i]);
  }
  d.count = count - earlier.count;
  d.sum = sum - earlier.sum;
  return d;
}

double SnapshotHistogram::Quantile(double q) const {
  return BucketQuantile(upper_bounds, bucket_counts, count, q);
}

void WindowedSeries::Ingest(const MetricsSnapshot& snapshot,
                            int64_t window_start, int64_t window_end) {
  SeriesWindow window;
  window.start = window_start;
  window.end = window_end;
  for (const MetricSample& s : snapshot.samples) {
    const std::string key = Key(s.name, s.labels);
    switch (s.kind) {
      case MetricKind::kCounter: {
        const uint64_t cur = static_cast<uint64_t>(s.value);
        auto [it, fresh] = last_counter_.try_emplace(key, cur);
        // First observation seeds the baseline; unsigned subtraction stays
        // correct across one 2^64 wrap (the Counter contract).
        window.counter_deltas[key] = fresh ? 0 : cur - it->second;
        it->second = cur;
        break;
      }
      case MetricKind::kGauge:
        window.gauges[key] = s.value;
        break;
      case MetricKind::kHistogram: {
        SnapshotHistogram cur = SnapshotHistogram::FromSample(s);
        auto [it, fresh] = last_histogram_.try_emplace(key, cur);
        if (fresh) {
          window.histogram_deltas[key] = cur.DeltaSince(cur);  // zero delta
        } else {
          window.histogram_deltas[key] = cur.DeltaSince(it->second);
          it->second = std::move(cur);
        }
        break;
      }
    }
  }
  windows_.push_back(std::move(window));
  while (windows_.size() > keep_windows_) windows_.pop_front();
}

uint64_t WindowedSeries::CounterDelta(std::string_view name,
                                      std::string_view labels) const {
  if (windows_.empty()) return 0;
  const auto& deltas = windows_.back().counter_deltas;
  auto it = deltas.find(Key(name, labels));
  return it == deltas.end() ? 0 : it->second;
}

double WindowedSeries::CounterRatePerSec(std::string_view name,
                                         std::string_view labels) const {
  if (windows_.empty()) return 0.0;
  const SeriesWindow& w = windows_.back();
  const int64_t span = w.end - w.start;
  if (span <= 0) return 0.0;
  return static_cast<double>(CounterDelta(name, labels)) /
         (static_cast<double>(span) / 1e9);
}

const SnapshotHistogram* WindowedSeries::HistogramDelta(
    std::string_view name, std::string_view labels) const {
  if (windows_.empty()) return nullptr;
  const auto& hists = windows_.back().histogram_deltas;
  auto it = hists.find(Key(name, labels));
  return it == hists.end() ? nullptr : &it->second;
}

std::string WindowedSeries::FirstLabels(std::string_view name) const {
  if (windows_.empty()) return "";
  const SeriesWindow& w = windows_.back();
  const std::string prefix = std::string(name) + "|";
  auto scan = [&](const auto& map) -> const std::string* {
    for (const auto& [key, value] : map) {
      if (key.compare(0, prefix.size(), prefix) == 0) return &key;
    }
    return nullptr;
  };
  const std::string* key = scan(w.counter_deltas);
  if (key == nullptr) key = scan(w.gauges);
  if (key == nullptr) key = scan(w.histogram_deltas);
  return key == nullptr ? "" : key->substr(prefix.size());
}

}  // namespace adn::obs
