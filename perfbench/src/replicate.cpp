#include "replicate.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "core/engine.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "util/ini.hpp"

namespace perfbench {

using lsds::obs::Json;

double Outcome::value(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end()) throw std::runtime_error("outcome has no field '" + key + "'");
  return it->second;
}

std::string diff_results(const Outcome& a, const Outcome& b) {
  if (a.exit_code != b.exit_code) return "exit code";
  if (a.events != b.events) return "events executed";
  for (const auto* side : {&a, &b}) {
    const Outcome& other = side == &a ? b : a;
    for (const auto& [k, v] : side->values) {
      const auto it = other.values.find(k);
      // Bitwise equality: NaN == NaN, and -0 != +0 would not matter here.
      if (it == other.values.end() ||
          std::memcmp(&v, &it->second, sizeof v) != 0) {
        return k;
      }
    }
    for (const auto& [k, v] : side->text) {
      const auto it = other.text.find(k);
      if (it == other.text.end() || it->second != v) return k;
    }
  }
  return "";
}

namespace {

void flatten(const Json& j, const std::string& prefix, Outcome& out) {
  if (j.is_object()) {
    for (const auto& [k, v] : j.members()) flatten(v, prefix + "." + k, out);
  } else if (j.is_number()) {
    out.values[prefix] = j.as_double();
  } else if (j.kind() == Json::Kind::kBool) {
    out.values[prefix] = j.as_bool() ? 1 : 0;
  } else if (j.kind() == Json::Kind::kString) {
    out.text[prefix] = j.as_string();
  }
}

struct Tally {
  std::mutex mu;  // LP threads publish concurrently
  double bytes = 0;
  double done = 0;
  double last_t0_out = 0;
};

Tally& tally() {
  static Tally t;
  return t;
}

}  // namespace

void read_report(const lsds::obs::RunReport& report, Outcome& out) {
  for (const char* section : {"result", "dependability", "execution"}) {
    if (const Json* j = report.root().find(section)) flatten(*j, section, out);
  }
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void arm_flow_tally() {
  lsds::obs::SpanBus::global().subscribe([](const lsds::obs::Span& s) {
    if (std::strcmp(s.kind, "flow") != 0 || std::strcmp(s.status, "done") != 0) return;
    Tally& t = tally();
    std::lock_guard<std::mutex> lock(t.mu);
    t.bytes += s.quantity;
    t.done += 1;
    if (s.src == 0 && s.dst != 0) t.last_t0_out = std::max(t.last_t0_out, s.t1);
  });
}

void reset_flow_tally() {
  Tally& t = tally();
  std::lock_guard<std::mutex> lock(t.mu);
  t.bytes = t.done = t.last_t0_out = 0;
}

void read_flow_tally(Outcome& out) {
  Tally& t = tally();
  std::lock_guard<std::mutex> lock(t.mu);
  out.values["flows.bytes"] = t.bytes;
  out.values["flows.done"] = t.done;
  out.values["flows.last_t0_out"] = t.last_t0_out;
}

void LayerProbe::attach(lsds::core::Engine& engine) {
  engine_ = &engine;
  engine.set_probe(this);
}

void LayerProbe::detach() {
  if (!engine_) return;
  scheduled = engine_->stats().scheduled;
  cancelled = engine_->stats().cancelled;
  engine_->set_probe(nullptr);
  engine_ = nullptr;
}

void LayerProbe::on_event(lsds::core::SimTime, lsds::core::EventId) {
  if (!started_) {
    started_ = true;
    first_event_ = Clock::now();
  }
  ++events;
}

void LayerProbe::on_queue_push(std::uint64_t ns, std::size_t pending) {
  push_ns += ns;
  if (started_) run_queue_ns += ns;
  pending_peak = std::max(pending_peak, pending);
}

void LayerProbe::on_queue_pop(std::uint64_t ns) {
  pop_ns += ns;
  if (started_) run_queue_ns += ns;
}

Outcome run_facade(const std::string& ini_text, LayerProbe* probe) {
  namespace sim = lsds::sim;
  Outcome out;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  reset_flow_tally();

  const auto ini = lsds::util::IniConfig::parse(ini_text);
  const std::string facade = ini.get_string("scenario", "facade", "");
  sim::register_builtin_facades();
  const auto* entry = sim::FacadeRegistry::global().find(facade);
  if (!entry) throw std::runtime_error("unknown facade '" + facade + "'");
  sim::validate_scenario_keys(ini, *entry);

  lsds::core::Engine::Config ecfg;
  ecfg.seed = static_cast<std::uint64_t>(ini.get_int("scenario", "seed", 42));
  ecfg.queue = sim::facades::parse_queue(ini.get_string("scenario", "queue", "heap"));
  lsds::core::Engine engine(ecfg);
  bool started = false;
  Clock::time_point first_event{};
  if (probe) {
    probe->attach(engine);
  } else {
    engine.set_trace_hook([&](lsds::core::SimTime, lsds::core::EventId) {
      if (started) return;
      started = true;
      first_event = Clock::now();
    });
  }

  lsds::obs::RunReport report;
  out.exit_code = entry->run(engine, ini, report);
  if (probe) {
    probe->detach();
    started = probe->started();
    first_event = probe->first_event();
  }

  out.wall_s = seconds_between(t0, Clock::now());
  out.cpu_s = process_cpu_s() - cpu0;
  if (started) out.setup_s = seconds_between(t0, first_event);
  read_report(report, out);
  read_flow_tally(out);
  const auto ev = out.values.find("execution.events");
  out.events = ev != out.values.end() ? static_cast<std::uint64_t>(ev->second)
                                      : engine.stats().executed;
  return out;
}

}  // namespace perfbench
