// The traced run: the benchmark times its calls into the layers' public
// functions and reads their public counters. Nothing inside the program is
// instrumented. The core layer is read from the facade run with a timed
// engine probe attached; counters the facades do not expose (the flow
// solver, route lookups, the overlay build) come from copies of the facade's
// composition that the benchmark assembles from the same public pieces.
// Every traced run must reproduce the untraced facade run's simulated
// results exactly, which the benchmark checks.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "replicate.hpp"

namespace perfbench {

/// Host-time spans around the benchmark's calls into the layers, kept in
/// memory and written as JSON lines when the run ends. Spans of one
/// replication share its `replication` number.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  /// Open a span; returns its id (the index in write order).
  int begin(const std::string& name, int parent, int replication);
  void end(int id);
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    int replication;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-layer metrics by name (BENCHMARK.json's per_layer list).
using Layers = std::map<std::string, double>;

struct TracedRun {
  /// The probed facade run first, then the composed copy if any: each must
  /// equal the untraced facade run's results.
  std::vector<Outcome> outcomes;
  /// Other simulation runs made for the layer metrics (the 4-LP run).
  std::vector<Outcome> references;
  Layers layers;
};

/// One traced replication of `workload` on `ini_text`.
TracedRun run_traced(const std::string& workload, const std::string& ini_text, Tracer& tracer,
                     int replication);

/// Direct run of the LP tier model (what the monarc facade's parallel branch
/// calls), on the LPs of the scenario or, with `one_lp`, on the 1-LP serial
/// reference of the same inputs.
struct TierRun {
  Outcome outcome;  // the facade's report fields, from the same result
  std::string trace;  // canonical record of every transfer and job
  double lookahead_violations = 0;
  double past_clamped = 0;
  /// Arrival of the last replica at a T1 site.
  double last_replica = 0;
};
TierRun run_tier_direct(const std::string& ini_text, bool one_lp);

}  // namespace perfbench
