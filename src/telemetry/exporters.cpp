#include "telemetry/exporters.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "common/json.h"

namespace arlo::telemetry {
namespace {

/// Splits "name{label=\"v\"}" into base name and label body ("" when none).
void SplitLabels(const std::string& full, std::string* base,
                 std::string* labels) {
  const auto brace = full.find('{');
  if (brace == std::string::npos) {
    *base = full;
    labels->clear();
    return;
  }
  *base = full.substr(0, brace);
  // Keep the inner "k=\"v\"" text without the braces.
  *labels = full.substr(brace + 1, full.size() - brace - 2);
}

/// Joins existing labels with an extra one ("le=...") into "{...}".
std::string BraceJoin(const std::string& labels, const std::string& extra) {
  if (labels.empty() && extra.empty()) return "";
  if (labels.empty()) return "{" + extra + "}";
  if (extra.empty()) return "{" + labels + "}";
  return "{" + labels + "," + extra + "}";
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void WriteHistogramProm(std::ostream& os, const std::string& base,
                        const std::string& labels,
                        const LatencyHistogram& h) {
  const std::vector<std::uint64_t> counts = h.BucketCounts();
  std::uint64_t cumulative = 0;
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    if (counts[b] == 0) continue;
    cumulative += counts[b];
    os << base << "_bucket"
       << BraceJoin(labels, "le=\"" +
                                std::to_string(
                                    LatencyHistogram::BucketUpperBound(b)) +
                                "\"")
       << " " << cumulative << "\n";
  }
  os << base << "_bucket" << BraceJoin(labels, "le=\"+Inf\"") << " "
     << cumulative << "\n";
  os << base << "_sum" << BraceJoin(labels, "") << " " << h.Sum() << "\n";
  os << base << "_count" << BraceJoin(labels, "") << " " << h.Count() << "\n";
}

}  // namespace

void WritePrometheusText(const MetricsRegistry& registry, std::ostream& os) {
  registry.ForEach([&os](const std::string& name,
                         const MetricsRegistry::Entry& entry) {
    std::string base, labels;
    SplitLabels(name, &base, &labels);
    if (!entry.help.empty()) {
      os << "# HELP " << base << " " << entry.help << "\n";
    }
    switch (entry.kind) {
      case MetricKind::kCounter:
        os << "# TYPE " << base << " counter\n";
        os << base << BraceJoin(labels, "") << " " << entry.counter->Value()
           << "\n";
        break;
      case MetricKind::kGauge:
        os << "# TYPE " << base << " gauge\n";
        os << base << BraceJoin(labels, "") << " " << entry.gauge->Value()
           << "\n";
        break;
      case MetricKind::kHistogram:
        os << "# TYPE " << base << " histogram\n";
        WriteHistogramProm(os, base, labels, *entry.histogram);
        break;
    }
  });
}

void WriteJsonSnapshot(const MetricsRegistry& registry, std::uint64_t run_id,
                       std::ostream& os) {
  json::Writer w(os);
  w.BeginObject().Field("run_id", std::to_string(run_id)).Key("metrics");
  w.BeginObject(json::Writer::Layout::kLines);
  // Metric names carry Prometheus-style labels with embedded quotes
  // (arlo_queue_depth{level="3"}); the writer escapes them as keys.
  registry.ForEach([&w](const std::string& name,
                        const MetricsRegistry::Entry& entry) {
    w.Key(name);
    switch (entry.kind) {
      case MetricKind::kCounter:
        w.Number(entry.counter->Value());
        break;
      case MetricKind::kGauge:
        w.Number(entry.gauge->Value());
        break;
      case MetricKind::kHistogram: {
        const LatencyHistogram& h = *entry.histogram;
        w.BeginObject().Field("count", h.Count()).Field("sum", h.Sum());
        w.Field("p50", h.Quantile(0.50)).Field("p98", h.Quantile(0.98));
        w.Field("p99", h.Quantile(0.99)).Key("buckets").BeginArray();
        const std::vector<std::uint64_t> counts = h.BucketCounts();
        for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
          if (counts[b] == 0) continue;
          w.BeginArray().Number(LatencyHistogram::BucketUpperBound(b));
          w.Number(counts[b]).EndArray();
        }
        w.EndArray().EndObject();
        break;
      }
    }
  });
  w.EndObject().EndObject();
  os << '\n';
}

void WriteCsvTimeSeries(const std::vector<SnapshotRow>& rows,
                        std::ostream& os) {
  os << "time_s,enqueued,completed,buffered,instances,outstanding,"
        "buffer_depth,demotions,e2e_p50_ms,e2e_p98_ms\n";
  for (const SnapshotRow& r : rows) {
    os << FormatDouble(r.time_s) << "," << r.enqueued << "," << r.completed
       << "," << r.buffered << "," << r.instances << "," << r.outstanding
       << "," << r.buffer_depth << "," << r.demotions << ","
       << FormatDouble(r.e2e_p50_ms) << "," << FormatDouble(r.e2e_p98_ms)
       << "\n";
  }
}

namespace {

std::ofstream OpenOrThrow(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open output file: " + path);
  return out;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void WriteMetricsFile(const TelemetrySink& sink, const std::string& path) {
  std::ofstream out = OpenOrThrow(path);
  if (EndsWith(path, ".json")) {
    sink.WriteJson(out);
  } else if (EndsWith(path, ".csv")) {
    sink.WriteCsv(out);
  } else {
    sink.WritePrometheus(out);
  }
}

void WriteTraceFile(const TelemetrySink& sink, const std::string& path) {
  std::ofstream out = OpenOrThrow(path);
  sink.WriteChromeTrace(out);
}

}  // namespace arlo::telemetry
