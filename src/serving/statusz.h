// A node's /statusz document: the typed struct LiveTestbed fills, the one
// writer that formats it and the one parser that reads it back.  The
// router's prober, /fleetz and the cluster Runtime Scheduler read node
// signals only through ParseStatusz (docs/OBSERVABILITY.md has the schema).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace arlo::serving {

struct Statusz {
  /// One row of "tenants", in class-id order.
  struct Tenant {
    int id = 0;  ///< "class"
    std::string name;
    int weight = 1;
    double slo_ms = 0.0;
    std::int64_t buffered = 0;
    std::int64_t completed = 0;
    /// How long the class's oldest buffered request has waited; 0 when
    /// nothing is buffered.
    std::int64_t queue_delay_ns = 0;
  };
  /// One row of "workers": every worker ever launched, by id.
  struct Worker {
    int id = 0;
    std::int64_t runtime = 0;
    std::string state;  ///< provisioning, ready, retiring, gone or killed
    int max_length = 0;
    int queued = 0;
    int executing = 0;
    std::optional<double> idle_s;  ///< since the last progress, if any
  };

  // Required in every body; the rest may be absent.
  double time_s = 0.0;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t inflight = 0;
  std::int64_t buffered = 0;
  int live_workers = 0;
  /// The admission estimate, exported so a router tier can steer on
  /// backend queue pressure without a second estimator.
  std::int64_t est_queue_delay_ns = 0;

  int peak_workers = 0;
  std::int64_t batches_formed = 0;
  std::int64_t batch_timeouts = 0;
  /// Cumulative submitted-length histogram ("length_mix"): ascending bin
  /// upper bounds and counts, both empty when the node exports no mix.
  std::vector<int> mix_bounds;
  std::vector<std::int64_t> mix_counts;
  /// External POST /realloc applies ("reallocs").
  std::int64_t reallocs_applied = 0;
  std::int64_t reallocs_rejected = 0;
  std::optional<double> last_realloc_s;
  std::vector<Tenant> tenants;  ///< empty without a tenant class table
  std::vector<Worker> workers;
  /// The stage summary (TelemetrySink::WriteStageSummaryJson) and the
  /// scheme block (sim::Scheme::WriteStatusJson) as serialized JSON: their
  /// formats belong to those modules.  Empty when absent.
  std::string stages;
  std::string scheme;
  /// "pending_launches" inside the scheme block, set by ParseStatusz:
  /// non-zero while a runtime rollout is in flight.
  std::int64_t pending_launches = 0;

  /// max_length of each ready worker: the length profile the length-aware
  /// routing policy fits requests to.
  std::vector<int> ReadyMaxLengths() const;
  /// Runtime of each ready worker, parallel to ReadyMaxLengths: the
  /// allocation the cluster Runtime Scheduler diffs against its target.
  std::vector<int> ReadyRuntimes() const;
};

/// Formats `status` as one compact JSON object.
void WriteStatusz(std::ostream& os, const Statusz& status);

/// Parses a /statusz body.  All-or-nothing: false, with `out` untouched,
/// unless the body is one JSON object (json::Parse) carrying every required
/// field, and every present field, with the right type.  Unknown members
/// are ignored.
bool ParseStatusz(std::string_view body, Statusz& out);

}  // namespace arlo::serving
