// One replication of a scenario through the user path — INI text ->
// sim::FacadeRegistry -> core::Engine, as examples/scenario_runner does —
// and the simulated outcome it produced.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "core/probe.hpp"

namespace lsds::core {
class Engine;
}
namespace lsds::obs {
class RunReport;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What one replication simulated, plus the host cost of producing it.
struct Outcome {
  /// Every number of the run report's result / dependability / execution
  /// sections ("result.makespan", ...) and the flow-span tally ("flows.*").
  /// Simulated values only: two replications of one input must agree
  /// bit for bit.
  std::map<std::string, double> values;
  /// Every string of those sections (state digests, overlay name, ...).
  std::map<std::string, std::string> text;
  int exit_code = 0;
  /// Engine events executed, summed over LPs.
  std::uint64_t events = 0;
  // Host measures (not compared between replications).
  double wall_s = 0;
  double cpu_s = 0;
  /// Start of the replication to its first executed event; negative when
  /// the engine is not reachable (the LP tier owns its engines).
  double setup_s = -1;

  double value(const std::string& key) const;
};

/// First differing field of two outcomes' simulated results, or "" when
/// they are identical.
std::string diff_results(const Outcome& a, const Outcome& b);

/// Fill `out.values` / `out.text` from a run report.
void read_report(const lsds::obs::RunReport& report, Outcome& out);

/// Process CPU time (user + sys, all threads) in seconds.
double process_cpu_s();
/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// Flow spans of the process-wide span bus, summed. The benchmark arms the
/// tally once at start-up; every replication resets and then reads it. The
/// bus is the flow network's own output, independent of the facade's counts,
/// so its byte total cross-checks the model's accounting.
void arm_flow_tally();
void reset_flow_tally();
/// Adds flows.done, flows.bytes and flows.last_t0_out (the latest end of a
/// completed flow leaving node 0, the T0 site) to `out.values`.
void read_flow_tally(Outcome& out);

/// The engine probe of a traced replication: it times every queue push and
/// pop and accumulates the core layer's counters.
class LayerProbe final : public lsds::core::EngineProbe {
 public:
  void attach(lsds::core::Engine& engine);
  /// Detach and copy the engine's scheduled / cancelled counters.
  void detach();

  void on_event(lsds::core::SimTime t, lsds::core::EventId seq) override;
  void on_queue_push(std::uint64_t ns, std::size_t pending) override;
  void on_queue_pop(std::uint64_t ns) override;

  bool started() const { return started_; }
  Clock::time_point first_event() const { return first_event_; }
  std::uint64_t events = 0;
  std::uint64_t push_ns = 0;
  std::uint64_t pop_ns = 0;
  /// Queue time spent after the first event (the handler split).
  std::uint64_t run_queue_ns = 0;
  std::size_t pending_peak = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;

 private:
  bool started_ = false;
  Clock::time_point first_event_{};
  lsds::core::Engine* engine_ = nullptr;
};

/// Run `ini_text` through the facade registry on a fresh engine, with
/// `probe` attached when given. Without a probe, only a trace hook notes
/// the first event's host time (Outcome::setup_s); queue operations are not
/// timed.
Outcome run_facade(const std::string& ini_text, LayerProbe* probe = nullptr);

}  // namespace perfbench
