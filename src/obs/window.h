// Windowed telemetry time-series (the streaming half of the Figure-3
// feedback plane).
//
// The registry's instruments are cumulative — counters count since process
// start, histograms accumulate forever. A *live* control loop needs
// per-window views: "how many RPCs this window", "what was p99 over the
// last 5 ms". WindowedSeries turns a stream of MetricsSnapshots into those
// views by diffing successive snapshots:
//
//   counters   -> window delta and rate/sec (unsigned diff, wrap-safe)
//   histograms -> bucket-count deltas (a SnapshotHistogram), from which
//                 window quantiles (p50/p99) derive
//   gauges     -> pass through (already instantaneous)
//
// Baseline seeding: the first observation of any (name, labels) key only
// seeds the baseline — it contributes a zero delta, never the cumulative
// value, so a processor that appears mid-run does not report its lifetime
// total as one window's rate.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace adn::obs {

// A histogram's bucket counts detached from the live instrument — either a
// snapshot of a cumulative histogram or the delta between two snapshots.
// This is the one shared home for bucket-quantile math: the telemetry hub,
// adntop and bench_breakdown all derive percentiles through it instead of
// reimplementing the interpolation.
struct SnapshotHistogram {
  std::vector<double> upper_bounds;      // finite bounds, ascending
  std::vector<uint64_t> bucket_counts;   // upper_bounds.size() + 1, +Inf last
  uint64_t count = 0;
  double sum = 0;

  static SnapshotHistogram FromSample(const MetricSample& sample);

  // Bucketwise this-minus-earlier. An empty/default `earlier` acts as a
  // zero baseline; mismatched bucket layouts return *this unchanged (the
  // instrument was re-registered with different bounds).
  SnapshotHistogram DeltaSince(const SnapshotHistogram& earlier) const;

  // Linear-interpolated quantile (q clamped to [0,1]); 0 when empty, values
  // beyond the last finite bound clamp to it (same math as
  // Histogram::Quantile — both call BucketQuantile).
  double Quantile(double q) const;

  bool empty() const { return count == 0; }
};

// One report window's worth of derived telemetry.
struct SeriesWindow {
  int64_t start = 0;
  int64_t end = 0;
  // key = 'name|labels' (the registry's snapshot identity).
  std::map<std::string, uint64_t> counter_deltas;
  std::map<std::string, double> gauges;
  std::map<std::string, SnapshotHistogram> histogram_deltas;
};

class WindowedSeries {
 public:
  // Keeps the most recent `keep_windows` windows for rendering/smoothing.
  explicit WindowedSeries(size_t keep_windows = 64)
      : keep_windows_(keep_windows == 0 ? 1 : keep_windows) {}

  // Diff `snapshot` against the previous one and append a window. Call once
  // per report interval with the window bounds.
  void Ingest(const MetricsSnapshot& snapshot, int64_t window_start,
              int64_t window_end);

  size_t windows() const { return windows_.size(); }
  // i = 0 is the most recent window; i < windows().
  const SeriesWindow& Window(size_t i = 0) const {
    return windows_[windows_.size() - 1 - i];
  }

  // --- Latest-window accessors (0 / empty when the key is unseen) -----------
  uint64_t CounterDelta(std::string_view name, std::string_view labels) const;
  // Delta scaled by the window span (events per second of window time).
  double CounterRatePerSec(std::string_view name,
                           std::string_view labels) const;
  const SnapshotHistogram* HistogramDelta(std::string_view name,
                                          std::string_view labels) const;

  // First label set seen for `name` in the latest window ("" if none) —
  // lets a consumer find e.g. the one adn_rpc_latency_ns series without
  // knowing how the producer labeled it.
  std::string FirstLabels(std::string_view name) const;

 private:
  size_t keep_windows_;
  std::deque<SeriesWindow> windows_;
  // Baselines: last cumulative values, keyed by 'name|labels'.
  std::map<std::string, uint64_t> last_counter_;
  std::map<std::string, SnapshotHistogram> last_histogram_;
};

}  // namespace adn::obs
