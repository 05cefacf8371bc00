// lsds benchmark driver.
//
//   lsds_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>]
//
// Generates kInputs scenarios of the workload from the seed and replicates
// them round-robin through the facade registry for `--seconds` of host time.
// With --trace 0 it reports the end-to-end metrics: for each input the
// median of its replications, each scaled to the reference host's speed,
// averaged over the inputs. With --trace 1 it alternates untraced and traced
// replications of the first input and reports the per-layer metrics,
// writing the traced run's spans to --spans.
//
// Why several inputs: the seed changes how much work an input holds (how
// many T2 pulls, outages or deaths it draws), and with one input per run
// that moved chaos_bag's events_per_s by an interquartile 12 % across ten
// seeds; the mean over four inputs moved by about 4 %.
//
// Why scaled: on a shared host the same replication runs up to 2x slower
// for a minute or more at a time, in CPU time as much as in wall time, so
// even the fastest of a run's replications moved by an interquartile
// 50-80 % across ten runs. After each replication the run times a fixed
// reference computation (calib.hpp) and scales the replication by the
// reference's speed around it: time x kCalibNominalS / reference time.
// README.md has how well that tracks co-running load. The median of the
// scaled replications then drops the bursts shorter than a replication.
// setup_s is one cold set-up per run, from the process's start to the
// first event, since a warm set-up (p2p_churn: 21 ms against 35-50 ms
// cold) measures another thing; it is scaled by the reference timed right
// after it, and its median over many runs is the estimate.
//
// Either way it checks the simulated outputs and prints, as the last stdout
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Everything the facades print goes to stderr.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "calib.hpp"
#include "checks.hpp"
#include "replicate.hpp"
#include "scenarios.hpp"
#include "traced.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool has_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      has_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    std::string known;
    for (const auto& n : names) known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("--workload must be one of " + known);
  }
  if (!has_seed || !(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  return a;
}

// Inputs per run: benchmark seed s generates the scenarios of derived seeds
// s * kInputs .. s * kInputs + kInputs - 1, so no two seeds share an input.
constexpr std::uint64_t kInputs = 4;

double lowest(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

struct Metric {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's per_layer list; a layer that a workload does not reach
// reports 0.
constexpr Metric kLayerMetrics[] = {
    {"core.events", "count"},         {"core.scheduled", "count"},
    {"core.cancelled", "count"},      {"core.live_ratio", "ratio"},
    {"core.pending_peak", "count"},   {"core.queue_push_s", "s"},
    {"core.queue_pop_s", "s"},        {"core.handler_s", "s"},
    {"lp.windows", "count"},          {"lp.events_per_window", "count"},
    {"lp.cross_messages", "count"},   {"lp.imbalance", "ratio"},
    {"lp.window_us", "us"},           {"net.flow.completed", "count"},
    {"net.flow.solves", "count"},     {"net.flow.rerated_per_flow", "count"},
    {"net.route.lookups", "count"},   {"net.route.lookup_s", "s"},
    {"mw.dispatches", "count"},       {"mw.attempts_per_job", "count"},
    {"mw.kills", "count"},            {"mw.useful_ratio", "ratio"},
    {"p2p.build_s", "s"},             {"p2p.messages_per_lookup", "count"},
    {"p2p.stabilize_rounds", "count"}, {"trace.overhead_ratio", "ratio"},
};

/// Runs, counts and verdicts of one benchmark process.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void count(const Outcome& o) {
    ++attempted;
    if (o.exit_code != 0) ++failed;
  }
  void require(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// Run `checks` on `checked`, then their self-test.
void run_checks(const std::vector<Check>& checks, const Outcome& checked, Verdict& v) {
  for (const auto& name : failing_checks(checks, checked)) v.require(false, "check failed: " + name);
  std::vector<std::string> missed;
  try {
    missed = self_test(checks, checked);
  } catch (const std::exception& e) {
    missed.push_back(e.what());
  }
  for (const auto& name : missed) v.require(false, "self-test: check passed a perturbed input: " + name);
  std::fprintf(stderr, "perfbench: %zu output checks, %zu perturbations rejected\n", checks.size(),
               checks.size() - missed.size());
}

/// The workload's checks on its first replication `first`, with the
/// reference run they compare against (p2p_churn: the same input on the
/// heap queue), and the identity check's self-test.
void check_outputs(const std::string& workload, const std::string& ini, const Outcome& first,
                   Verdict& v) {
  Outcome checked = first;
  if (workload == "p2p_churn") {
    const Outcome heap = run_facade(with_key(ini, "scenario", "queue", "heap"));
    v.count(heap);
    merge_reference(checked, heap, "heap.");
  }
  run_checks(workload_checks(workload, ini), checked, v);
  Outcome other = first;
  other.values.begin()->second = std::nextafter(first.values.begin()->second, INFINITY);
  v.require(!diff_results(first, other).empty(), "self-test: identity check missed a change");
}

/// The LP tier's checks on `lp_ini` (an lhc_tier input on 4 LPs): its
/// facade run against a direct 4-LP run and the 1-LP reference.
void check_lp_tier(const std::string& lp_ini, Verdict& v) {
  Outcome checked = run_facade(lp_ini);
  v.count(checked);
  for (const bool one_lp : {false, true}) {
    TierRun run = run_tier_direct(lp_ini, one_lp);
    v.count(run.outcome);
    const std::string p = one_lp ? "lp1." : "lp4.";
    merge_reference(checked, run.outcome, p);
    checked.text[p + "trace"] = std::move(run.trace);
    checked.values[p + "lookahead_violations"] = run.lookahead_violations;
    checked.values[p + "past_clamped"] = run.past_clamped;
    checked.values[p + "last_replica"] = run.last_replica;
  }
  run_checks(lp_tier_checks(lp_ini), checked, v);
}

void require_identical(const std::vector<Outcome>& runs, const Outcome& first, const char* what,
                       Verdict& v) {
  for (const Outcome& o : runs) {
    const std::string d = diff_results(first, o);
    v.require(d.empty(), std::string(what) + " differ in " + d);
  }
}

void print_result(std::FILE* out, Verdict& v, std::vector<std::pair<Metric, double>> metrics) {
  std::fflush(stdout);  // the facades' lines first
  for (auto& [m, value] : metrics) {
    if (std::isfinite(value)) continue;
    v.require(false, std::string("metric ") + m.name + " is not finite");
    value = 0;
  }
  for (const std::string& p : v.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  for (const auto& [m, value] : metrics) {
    std::fprintf(stderr, "  %-26s %14.6g %s\n", m.name, value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += v.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(v.attempted);
  json += ", \"failed\": " + std::to_string(v.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.name, metrics[i].second, metrics[i].first.unit);
    json += buf;
  }
  json += "}}";
  std::fprintf(out, "%s\n", json.c_str());
  std::fflush(out);
}

/// --trace 0: the end-to-end metrics.
void measure(const Args& a, const std::vector<std::string>& inis,
             Clock::time_point process_start, std::FILE* out) {
  Verdict v;
  double setup_s = 0;
  std::vector<std::vector<Outcome>> reps(inis.size());
  // calib[k] is timed right after replication k, so replication k > 0 lies
  // between calib[k - 1] and calib[k].
  std::vector<CalibSample> calib;
  double rss = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  std::size_t n = 0;
  do {  // whole rounds over the inputs
    const auto start = Clock::now();
    const std::size_t i = n % inis.size();
    reps[i].push_back(run_facade(inis[i]));
    v.count(reps[i].back());
    if (n == 0) {
      // One cold set-up: later replications reuse warm code, allocator
      // arenas and page mappings, so they would measure another thing.
      setup_s = seconds_between(process_start, start) + reps[i].back().setup_s;
      // Freed memory is not always returned to the system, so later
      // replications would raise the high-water mark by the allocator's
      // slack: the first replication is its input's peak.
      rss = peak_rss_mb();
    }
    calib.push_back(run_calibration());
    ++n;
  } while (Clock::now() < deadline || n % inis.size() != 0);

  // The host's speed around replication k, as the reference's wall and CPU
  // time there.
  const auto around = [&](std::size_t k) {
    CalibSample c = calib[k];
    if (k > 0) {
      c.wall_s = (c.wall_s + calib[k - 1].wall_s) / 2;
      c.cpu_s = (c.cpu_s + calib[k - 1].cpu_s) / 2;
    }
    return c;
  };
  setup_s *= kCalibNominalS / calib[0].wall_s;
  {
    std::vector<double> cw;
    for (const CalibSample& c : calib) cw.push_back(c.wall_s);
    std::fprintf(stderr, "perfbench: reference %.4f s median over %zu timings (nominal %.3f s)\n",
                 median(cw), cw.size(), kCalibNominalS);
  }

  double wall = 0, cpu = 0, rate = 0;
  for (std::size_t i = 0; i < inis.size(); ++i) {
    require_identical(reps[i], reps[i].front(), "replications", v);
    check_outputs(a.workload, inis[i], reps[i].front(), v);
    std::vector<double> w, c, r;
    for (std::size_t j = 0; j < reps[i].size(); ++j) {
      const Outcome& o = reps[i][j];
      const CalibSample ref = around(j * inis.size() + i);
      v.require(o.setup_s >= 0, "a replication executed no event");
      const double scale = kCalibNominalS / ref.wall_s;
      w.push_back(o.wall_s * scale);
      c.push_back(o.cpu_s * kCalibNominalS / ref.cpu_s);
      r.push_back(static_cast<double>(o.events) / ((o.wall_s - o.setup_s) * scale));
    }
    wall += median(w) / static_cast<double>(inis.size());
    cpu += median(c) / static_cast<double>(inis.size());
    rate += median(r) / static_cast<double>(inis.size());
    std::fprintf(stderr,
                 "perfbench: %s seed %llu input %zu: %zu replications, %llu events each; wall",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed), i, reps[i].size(),
                 static_cast<unsigned long long>(reps[i].front().events));
    for (const Outcome& o : reps[i]) std::fprintf(stderr, " %.3f", o.wall_s);
    std::fprintf(stderr, " s, scaled");
    for (const double x : w) std::fprintf(stderr, " %.3f", x);
    std::fprintf(stderr, " s\n");
  }
  print_result(out, v,
               {{{"wall_s", "s"}, wall},
                {{"setup_s", "s"}, setup_s},
                {{"cpu_s", "s"}, cpu},
                {{"events_per_s", "events/s"}, rate},
                {{"peak_rss_mb", "MB"}, rss}});
}

/// --trace 1: the per-layer metrics.
void trace(const Args& a, const std::string& ini, Clock::time_point process_start,
           std::FILE* out) {
  Verdict v;
  Tracer tracer(process_start);
  std::vector<Outcome> plain;
  std::vector<TracedRun> traced;
  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  do {
    plain.push_back(run_facade(ini));
    v.count(plain.back());
    traced.push_back(run_traced(a.workload, ini, tracer, static_cast<int>(traced.size())));
    for (const Outcome& o : traced.back().outcomes) v.count(o);
    for (const Outcome& o : traced.back().references) v.count(o);
  } while (Clock::now() < deadline);

  require_identical(plain, plain.front(), "untraced replications", v);
  for (const TracedRun& t : traced) {
    require_identical(t.outcomes, plain.front(), "traced and untraced results", v);
  }
  check_outputs(a.workload, ini, plain.front(), v);
  // lhc_tier's traced replications also run its input on 4 LPs for the
  // lp.* metrics; that LP run gets the LP tier's checks.
  if (a.workload == "lhc_tier") check_lp_tier(on_lps(ini), v);
  if (!a.spans.empty()) tracer.write(a.spans);

  // The overhead of tracing the program's own path: the facade run with the
  // timed probe against the untraced one.
  std::vector<double> plain_wall, traced_wall;
  for (const Outcome& o : plain) plain_wall.push_back(o.wall_s);
  for (const TracedRun& t : traced) traced_wall.push_back(t.outcomes.front().wall_s);
  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& m : kLayerMetrics) {
    std::vector<double> values;
    for (const TracedRun& t : traced) {
      const auto it = t.layers.find(m.name);
      values.push_back(it == t.layers.end() ? 0.0 : it->second);
    }
    metrics.push_back({m, lowest(values)});  // counts repeat exactly
  }
  metrics.back().second = lowest(traced_wall) / lowest(plain_wall);
  print_result(out, v, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "lsds_perfbench: %s\nusage: lsds_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n",
                 e.what());
    return 2;
  }
  // stdout carries the result line only; the facades' own output goes to
  // stderr.
  std::fflush(stdout);
  const int result_fd = dup(STDOUT_FILENO);
  std::FILE* out = result_fd >= 0 ? fdopen(result_fd, "w") : nullptr;
  if (!out || dup2(STDERR_FILENO, STDOUT_FILENO) < 0) {
    std::perror("lsds_perfbench: redirecting stdout");
    return 1;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // keep facade lines whole on stderr
  try {
    std::vector<std::string> inis;
    for (std::uint64_t i = 0; i < kInputs; ++i) {
      inis.push_back(scenario_ini(args.workload, args.seed * kInputs + i));
    }
    arm_flow_tally();
    if (args.trace == 0) {
      measure(args, inis, process_start, out);
    } else {
      trace(args, inis.front(), process_start, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsds_perfbench: %s\n", e.what());
    return 1;
  }
  std::fclose(out);
  return 0;
}
