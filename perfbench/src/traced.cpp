#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "core/process.hpp"
#include "hosts/site.hpp"
#include "net/routing.hpp"
#include "net/zone.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "p2p/chord.hpp"
#include "p2p/churn.hpp"
#include "scenarios.hpp"
#include "sim/common.hpp"
#include "sim/facades/common.hpp"
#include "sim/monarc/monarc.hpp"
#include "sim/parallel/tier_model.hpp"
#include "util/ini.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace core = lsds::core;
namespace hosts = lsds::hosts;
namespace net = lsds::net;
namespace monarc = lsds::sim::monarc;
namespace facades = lsds::sim::facades;
using lsds::util::IniConfig;
using lsds::util::strformat;

// --- Tracer -----------------------------------------------------------------

int Tracer::begin(const std::string& name, int parent, int replication) {
  const double now = seconds_between(origin_, Clock::now());
  spans_.push_back({name, parent, replication, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) { spans_[id].end_s = seconds_between(origin_, Clock::now()); }

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"replication\": %d, \"name\": %s, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, s.parent, s.replication, lsds::obs::Json::quote(s.name).c_str(), s.start_s,
                 s.end_s);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write spans to " + path);
}

namespace {

/// Times and counts the route queries a layer makes; forwards everything.
class TimedRoutes final : public net::RouteProvider {
 public:
  explicit TimedRoutes(net::RouteProvider& inner) : inner_(inner) {}

  const net::Route& route(net::NodeId src, net::NodeId dst) override {
    const auto t0 = Clock::now();
    const net::Route& r = inner_.route(src, dst);
    count(t0);
    return r;
  }
  double path_latency(net::NodeId src, net::NodeId dst) override {
    const auto t0 = Clock::now();
    const double v = inner_.path_latency(src, dst);
    count(t0);
    return v;
  }
  double bottleneck_bandwidth(net::NodeId src, net::NodeId dst) override {
    const auto t0 = Clock::now();
    const double v = inner_.bottleneck_bandwidth(src, dst);
    count(t0);
    return v;
  }
  std::size_t node_count() const override { return inner_.node_count(); }
  std::size_t link_count() const override { return inner_.link_count(); }
  double link_bandwidth(net::LinkId id) const override { return inner_.link_bandwidth(id); }
  double link_latency(net::LinkId id) const override { return inner_.link_latency(id); }

  double lookups = 0;
  double seconds = 0;

 private:
  void count(Clock::time_point t0) {
    seconds += seconds_between(t0, Clock::now());
    lookups += 1;
  }
  net::RouteProvider& inner_;
};

/// The spans of one traced replication.
struct Replication {
  Replication(Tracer& tracer, int number)
      : tracer(tracer), number(number), span(tracer.begin("replication", -1, number)) {}
  int child(const std::string& name) { return tracer.begin(name, span, number); }
  void close() { tracer.end(span); }

  Tracer& tracer;
  int number;
  int span;
};

/// Host measures of a composed run, from construction to finish().
struct Timed {
  Timed() { reset_flow_tally(); }
  /// The run's host measures, report fields and flow tally.
  void finish(Outcome& out, const lsds::obs::RunReport& report) const {
    out.wall_s = seconds_between(t0, Clock::now());
    out.cpu_s = process_cpu_s() - cpu0;
    read_report(report, out);
    read_flow_tally(out);
  }

  double cpu0 = process_cpu_s();
  Clock::time_point t0 = Clock::now();
};

void core_layers(const LayerProbe& p, const Outcome& out, Layers& l) {
  l["core.events"] = static_cast<double>(p.events);
  l["core.scheduled"] = static_cast<double>(p.scheduled);
  l["core.cancelled"] = static_cast<double>(p.cancelled);
  l["core.live_ratio"] =
      p.scheduled ? static_cast<double>(p.events) / static_cast<double>(p.scheduled) : 0;
  l["core.pending_peak"] = static_cast<double>(p.pending_peak);
  l["core.queue_push_s"] = static_cast<double>(p.push_ns) * 1e-9;
  l["core.queue_pop_s"] = static_cast<double>(p.pop_ns) * 1e-9;
  l["core.handler_s"] =
      std::max(0.0, out.wall_s - out.setup_s - static_cast<double>(p.run_queue_ns) * 1e-9);
}

/// The monarc facade's INI -> Config mapping (sim/facades/monarc_facade.cpp).
monarc::Config tier_config(const IniConfig& ini) {
  monarc::Config cfg;
  cfg.num_t1 = static_cast<std::size_t>(ini.get_int("monarc", "t1", 4));
  cfg.t0_t1_bandwidth = ini.get_rate("monarc", "link", lsds::util::gbps(2.5));
  cfg.num_files = static_cast<std::size_t>(ini.get_int("monarc", "files", 60));
  cfg.file_bytes = ini.get_size("monarc", "file_size", 20e9);
  cfg.production_interval = ini.get_duration("monarc", "interval", 40);
  cfg.run_analysis = ini.get_bool("monarc", "analysis", true);
  cfg.t2_per_t1 = static_cast<std::size_t>(ini.get_int("monarc", "t2_per_t1", 0));
  cfg.t2_fraction = ini.get_double("monarc", "t2_fraction", 0.3);
  cfg.archive_to_tape = ini.get_bool("monarc", "archive", false);
  cfg.failures = facades::parse_resume_failures(ini);
  cfg.network = facades::parse_network(ini);
  cfg.storage_sharing = facades::parse_storage(ini);
  return cfg;
}

// --- lhc_tier: the serial MONARC tier model, composed here ------------------
//
// A copy of lsds::sim::monarc::run(), step for step, built from the same
// public pieces (hosts::Grid, the transfer/compute awaitables) so that the
// benchmark can route the flow network through TimedRoutes and read
// FlowNetwork's solver counters, which the facade does not expose. It gives
// the net.* metrics only and must follow sim/monarc/monarc.cpp; the identity
// check against the facade run fails as soon as the two drift apart.

struct TierCtx {
  const monarc::Config* cfg = nullptr;
  hosts::Grid* grid = nullptr;
  monarc::Result* res = nullptr;
  double produced_bytes = 0;
  double delivered_bytes = 0;
  double production_end = 0;
  double last_delivery = 0;
  std::vector<std::map<std::size_t, double>> arrived;
  std::vector<std::unique_ptr<core::Condition>> arrival_cond;

  void record_backlog(core::Engine& eng) {
    const double b = produced_bytes - delivered_bytes;
    res->backlog.record(eng.now(), b);
    res->peak_backlog_bytes = std::max(res->peak_backlog_bytes, b);
  }
};

core::Process replica_to_t1(core::Engine& eng, TierCtx& ctx, std::size_t file, double produced_at,
                            std::size_t t1) {
  auto& t0 = ctx.grid->site(0);
  auto& dst = ctx.grid->site(static_cast<hosts::SiteId>(1 + t1));
  co_await lsds::sim::transfer(ctx.grid->net(), t0.node(), dst.node(), ctx.cfg->file_bytes);
  dst.disk().store(strformat("raw%05zu", file), ctx.cfg->file_bytes);
  ctx.delivered_bytes += ctx.cfg->file_bytes;
  ctx.last_delivery = eng.now();
  ++ctx.res->replicas_delivered;
  ctx.res->replication_lag.add(eng.now() - produced_at);
  ctx.record_backlog(eng);
  ctx.arrived[t1][file] = eng.now();
  ctx.arrival_cond[t1]->notify_all();
}

core::Process replicate_file(core::Engine& eng, TierCtx& ctx, std::size_t file,
                             double produced_at) {
  for (std::size_t t1 = 0; t1 < ctx.cfg->num_t1; ++t1) {
    replica_to_t1(eng, ctx, file, produced_at, t1);
  }
  co_return;
}

core::Process production(core::Engine& eng, TierCtx& ctx) {
  for (std::size_t i = 0; i < ctx.cfg->num_files; ++i) {
    co_await core::delay(eng, ctx.cfg->production_interval);
    ctx.grid->site(0).disk().store(strformat("raw%05zu", i), ctx.cfg->file_bytes, true);
    ++ctx.res->files_produced;
    ctx.produced_bytes += ctx.cfg->file_bytes * static_cast<double>(ctx.cfg->num_t1);
    ctx.record_backlog(eng);
    replicate_file(eng, ctx, i, eng.now());
    if (ctx.cfg->archive_to_tape) {
      const double produced_at = eng.now();
      ctx.grid->site(0).tape().write(
          strformat("tape-raw%05zu", i), ctx.cfg->file_bytes, [&ctx, produced_at] {
            ++ctx.res->files_archived;
            ctx.res->archive_lag.add(ctx.grid->engine().now() - produced_at);
          });
    }
  }
  ctx.production_end = eng.now();
  ctx.res->backlog_at_production_end = ctx.produced_bytes - ctx.delivered_bytes;
}

core::Process t2_analysis(core::Engine& eng, TierCtx& ctx, std::size_t t1, hosts::SiteId t2_site,
                          std::size_t file, double submit_at) {
  co_await core::delay(eng, submit_at - eng.now());
  const double t_submit = eng.now();
  while (!ctx.arrived[t1].count(file)) co_await ctx.arrival_cond[t1]->wait();
  auto& parent = ctx.grid->site(static_cast<hosts::SiteId>(1 + t1));
  auto& t2 = ctx.grid->site(t2_site);
  co_await lsds::sim::transfer(ctx.grid->net(), parent.node(), t2.node(), ctx.cfg->file_bytes);
  t2.disk().store(strformat("raw%05zu", file), ctx.cfg->file_bytes);
  const auto job_id = static_cast<hosts::JobId>(1000000 + t2_site * 100000 + file);
  co_await lsds::sim::compute(t2.cpu(), job_id,
                              eng.rng("monarc.t2").exponential(ctx.cfg->analysis_mean_ops));
  ctx.res->t2_delays.add(eng.now() - t_submit);
  ++ctx.res->t2_jobs;
  ctx.res->makespan = std::max(ctx.res->makespan, eng.now());
}

core::Process t1_analysis(core::Engine& eng, TierCtx& ctx, std::size_t t1, std::size_t file,
                          double submit_at) {
  co_await core::delay(eng, submit_at - eng.now());
  const double t_submit = eng.now();
  while (!ctx.arrived[t1].count(file)) co_await ctx.arrival_cond[t1]->wait();
  auto& site = ctx.grid->site(static_cast<hosts::SiteId>(1 + t1));
  const auto job_id = static_cast<hosts::JobId>(1 + t1 * ctx.cfg->num_files + file);
  co_await lsds::sim::compute(site.cpu(), job_id,
                              eng.rng("monarc.analysis").exponential(ctx.cfg->analysis_mean_ops));
  ctx.res->analysis_delays.add(eng.now() - t_submit);
  ++ctx.res->analysis_jobs;
  ctx.res->makespan = std::max(ctx.res->makespan, eng.now());
}

Outcome composed_tier(const IniConfig& ini, Replication& rep, Layers& layers) {
  const Timed timed;
  const monarc::Config cfg = tier_config(ini);
  core::Engine::Config ecfg;
  ecfg.seed = static_cast<std::uint64_t>(ini.get_int("scenario", "seed", 42));
  ecfg.queue = facades::parse_queue(ini.get_string("scenario", "queue", "heap"));
  core::Engine engine(ecfg);

  const int build_span = rep.child("sim.build");
  hosts::Grid grid(engine);
  hosts::SiteSpec t0;
  t0.name = "T0";
  t0.cores = 32;
  t0.cpu_speed = 2000;
  t0.disk_capacity = cfg.t0_disk;
  t0.has_mass_storage = true;
  t0.tape_bandwidth = cfg.tape_bandwidth;
  t0.tape_mount_latency = cfg.tape_mount_latency;
  t0.storage_sharing = cfg.storage_sharing;
  grid.add_site(t0);
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    hosts::SiteSpec s;
    s.name = strformat("T1_%zu", i);
    s.cores = cfg.t1_cores;
    s.cpu_speed = cfg.analysis_cpu_speed;
    s.disk_capacity = cfg.t1_disk;
    s.storage_sharing = cfg.storage_sharing;
    grid.add_site(s);
  }
  std::vector<std::vector<hosts::SiteId>> t2_sites(cfg.num_t1);
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (std::size_t j = 0; j < cfg.t2_per_t1; ++j) {
      hosts::SiteSpec s;
      s.name = strformat("T2_%zu_%zu", i, j);
      s.cores = cfg.t2_cores;
      s.cpu_speed = cfg.analysis_cpu_speed;
      s.disk_capacity = cfg.t2_disk;
      s.storage_sharing = cfg.storage_sharing;
      t2_sites[i].push_back(grid.add_site(s).id());
    }
  }
  auto& topo = grid.topology();
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    topo.add_link(grid.site(0).node(), grid.site(static_cast<hosts::SiteId>(1 + i)).node(),
                  cfg.t0_t1_bandwidth, cfg.t0_t1_latency, strformat("T0--T1_%zu", i));
  }
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (hosts::SiteId t2 : t2_sites[i]) {
      topo.add_link(grid.site(static_cast<hosts::SiteId>(1 + i)).node(), grid.site(t2).node(),
                    cfg.t1_t2_bandwidth, cfg.t1_t2_latency);
    }
  }
  net::Routing routing(grid.topology());
  TimedRoutes routes(routing);
  grid.finalize_with(routes, cfg.network);
  auto chaos = lsds::sim::inject_failures(grid, cfg.failures);
  grid.net().track_link(0);

  monarc::Result res;
  res.file_bytes = cfg.file_bytes;
  res.num_t1 = cfg.num_t1;
  TierCtx ctx;
  ctx.cfg = &cfg;
  ctx.grid = &grid;
  ctx.res = &res;
  ctx.arrived.resize(cfg.num_t1);
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    ctx.arrival_cond.push_back(std::make_unique<core::Condition>(engine));
  }
  production(engine, ctx);
  if (cfg.run_analysis) {
    auto& rng = engine.rng("monarc.submits");
    for (std::size_t t1 = 0; t1 < cfg.num_t1; ++t1) {
      for (std::size_t f = 0; f < cfg.num_files; ++f) {
        const double produced_at = cfg.production_interval * static_cast<double>(f + 1);
        t1_analysis(engine, ctx, t1, f, produced_at + rng.exponential(10.0));
      }
    }
    for (std::size_t t1 = 0; t1 < cfg.num_t1; ++t1) {
      for (hosts::SiteId t2 : t2_sites[t1]) {
        for (std::size_t f = 0; f < cfg.num_files; ++f) {
          if (!rng.bernoulli(cfg.t2_fraction)) continue;
          const double produced_at = cfg.production_interval * static_cast<double>(f + 1);
          t2_analysis(engine, ctx, t1, t2, f, produced_at + rng.exponential(20.0));
        }
      }
    }
  }
  rep.tracer.end(build_span);

  const int run_span = rep.child("core.run");
  if (cfg.horizon > 0) {
    engine.run_until(cfg.horizon);
  } else {
    engine.run();
  }
  rep.tracer.end(run_span);
  res.makespan = std::max(res.makespan, ctx.last_delivery);
  res.drain_time = std::max(0.0, ctx.last_delivery - ctx.production_end);
  if (ctx.last_delivery > 0) {
    res.link_utilization = grid.net().link_series(0).time_weighted_mean(ctx.last_delivery);
  }

  Outcome out;
  lsds::obs::RunReport report;
  res.to_report(report);
  timed.finish(out, report);
  out.events = engine.stats().executed;

  const auto& fnet = grid.net();
  layers["net.flow.completed"] = static_cast<double>(fnet.flows_completed());
  layers["net.flow.solves"] = static_cast<double>(fnet.solves());
  layers["net.flow.rerated_per_flow"] =
      fnet.flows_completed() ? static_cast<double>(fnet.flows_rerated()) /
                                   static_cast<double>(fnet.flows_completed())
                             : 0;
  layers["net.route.lookups"] = routes.lookups;
  layers["net.route.lookup_s"] = routes.seconds;
  return out;
}

// --- p2p_churn: the p2p facade's Chord composition, composed here -----------
//
// A copy of the p2p facade's Chord branch (sim/facades/p2p_facade.cpp) with
// TimedRoutes over its ZoneRouting, for the net.route.* metrics and
// p2p.build_s. It must follow the facade; the identity check against the
// facade run fails as soon as the two drift apart.

Outcome composed_p2p(const IniConfig& ini, Replication& rep, Layers& layers) {
  const Timed timed;
  core::Engine::Config ecfg;
  ecfg.seed = static_cast<std::uint64_t>(ini.get_int("scenario", "seed", 42));
  ecfg.queue = facades::parse_queue(ini.get_string("scenario", "queue", "heap"));
  core::Engine eng(ecfg);

  const int build_span = rep.child("p2p.build");
  const auto b0 = Clock::now();
  const auto peers = static_cast<std::size_t>(ini.get_int("p2p", "peers", 1024));
  auto sites = static_cast<std::size_t>(ini.get_int("p2p", "sites", 16));
  if (sites > peers) sites = peers;
  net::ZoneTree tree;
  const double bw = ini.get_double("p2p", "bandwidth", 1e8);
  const double lat = ini.get_double("p2p", "latency", 5e-3);
  const double bb_bw = ini.get_double("p2p", "backbone_bandwidth", 1e10);
  const double bb_lat = ini.get_double("p2p", "backbone_latency", 2e-2);
  for (std::size_t s = 0; s < sites; ++s) {
    net::ClusterSpec spec;
    spec.hosts = peers / sites + (s < peers % sites ? 1 : 0);
    spec.host_bandwidth = bw;
    spec.host_latency = lat;
    spec.backbone_bandwidth = bb_bw;
    spec.backbone_latency = bb_lat;
    tree.add_child(std::make_unique<net::ClusterZone>(spec), bb_bw, bb_lat);
  }
  net::ZoneRouting zone_routing(tree);
  TimedRoutes routes(zone_routing);
  const double horizon = ini.get_duration("p2p", "horizon", 60.0);

  // The workload's churn model; the facade also offers weibull and none.
  if (ini.get_string("p2p", "churn", "none") != "exponential") {
    throw std::runtime_error("the traced p2p composition models exponential churn only");
  }
  lsds::p2p::ChurnSpec churn;
  churn.lifetime_model = lsds::p2p::ChurnSpec::Lifetime::kExponential;
  churn.mean_lifetime = ini.get_duration("p2p", "mean_lifetime", 300.0);
  churn.mean_downtime = ini.get_duration("p2p", "mean_downtime", 30.0);
  churn.horizon = horizon;
  churn.validate();
  lsds::p2p::TrafficSpec traffic;
  traffic.rate = ini.get_double("p2p", "lookup_rate", 100.0);
  traffic.ttl = static_cast<std::size_t>(ini.get_int("p2p", "ttl", 6));
  traffic.horizon = horizon;
  traffic.validate();

  const auto m = static_cast<std::uint32_t>(ini.get_int("p2p", "m", 32));
  const bool protocol = ini.get_bool("p2p", "protocol", true);
  const double period = ini.get_duration("p2p", "stabilize_period", 5.0);
  lsds::p2p::ChordNetwork chord(eng, routes, m);
  chord.reserve(peers);
  for (std::size_t i = 0; i < peers; ++i) chord.add_peer(tree.host(i));
  chord.build();
  if (protocol) chord.enable_protocol_mode(period, horizon);
  lsds::p2p::ChordLookupTraffic gen(eng, chord, traffic);
  lsds::p2p::ChordChurn churner(eng, chord, churn);
  churner.start();
  gen.start();
  const double build_s = seconds_between(b0, Clock::now());
  rep.tracer.end(build_span);

  const int run_span = rep.child("core.run");
  eng.run();
  rep.tracer.end(run_span);

  // The facade's report fields (sim/facades/p2p_facade.cpp).
  lsds::obs::RunReport report;
  report.set_result_core(gen.succeeded(), eng.now(), 0.0);
  auto& res = report.result();
  res["overlay"] = std::string("chord");
  res["peers"] = std::uint64_t{peers};
  res["live_peers"] = std::uint64_t{chord.size()};
  res["lookups_issued"] = gen.issued();
  res["lookups_ok"] = gen.succeeded();
  res["lookups_failed"] = gen.failed();
  res["failure_rate"] = gen.failure_rate();
  res["mean_hops"] = gen.hops().mean();
  res["mean_latency"] = gen.latency().mean();
  res["messages"] = chord.messages_sent();
  res["stabilize_rounds"] = chord.stabilize_rounds();
  res["deaths"] = churner.deaths();
  res["rebirths"] = churner.rebirths();
  res["peak_pending"] = std::uint64_t{gen.peak_pending()};
  res["state_digest"] = strformat("%016llx", static_cast<unsigned long long>(chord.state_digest()));
  Outcome out;
  out.exit_code = gen.issued() > 0 && chord.size() > 0 ? 0 : 1;
  timed.finish(out, report);
  out.events = eng.stats().executed;

  layers["net.route.lookups"] = routes.lookups;
  layers["net.route.lookup_s"] = routes.seconds;
  layers["p2p.build_s"] = build_s;
  return out;
}

void p2p_layers(const Outcome& o, Layers& l) {
  const double issued = o.value("result.lookups_issued");
  l["p2p.messages_per_lookup"] = issued > 0 ? o.value("result.messages") / issued : 0;
  l["p2p.stabilize_rounds"] = o.value("result.stabilize_rounds");
}

void mw_layers(const Outcome& o, Layers& l) {
  const double jobs = o.value("dependability.jobs_completed") + o.value("dependability.jobs_lost");
  const double useful = o.value("dependability.useful_ops");
  const double all = useful + o.value("dependability.wasted_ops") +
                     o.value("dependability.overhead_ops");
  l["mw.attempts_per_job"] = o.value("dependability.mean_attempts");
  l["mw.dispatches"] = o.value("dependability.mean_attempts") * jobs;
  l["mw.kills"] = o.value("result.kills");
  l["mw.useful_ratio"] = all > 0 ? useful / all : 0;
}

void lp_layers(const Outcome& o, Layers& l) {
  const double windows = o.value("execution.windows");
  l["lp.windows"] = windows;
  l["lp.events_per_window"] = windows > 0 ? o.value("execution.events") / windows : 0;
  l["lp.cross_messages"] = o.value("execution.cross_messages");
  l["lp.imbalance"] = o.value("execution.imbalance");
  l["lp.window_us"] = windows > 0 ? o.wall_s / windows * 1e6 : 0;
}

}  // namespace

TierRun run_tier_direct(const std::string& ini_text, bool one_lp) {
  TierRun run;
  const Timed timed;
  const auto ini = IniConfig::parse(ini_text);
  hosts::ExecutionSpec exec = facades::parse_exec_spec(ini);
  if (one_lp) exec.parallel = false;
  const monarc::Config cfg = tier_config(ini);
  const auto res = monarc::run_parallel(cfg, exec);
  lsds::obs::RunReport report;
  res.to_report(report);
  timed.finish(run.outcome, report);
  run.outcome.events = res.exec.engine.events;
  run.trace = res.trace();
  run.lookahead_violations = static_cast<double>(res.exec.engine.lookahead_violations);
  run.past_clamped = static_cast<double>(res.exec.engine.past_clamped);
  for (const auto& t : res.transfers) {
    if (t.dst_site >= 1 && t.dst_site <= cfg.num_t1) {
      run.last_replica = std::max(run.last_replica, t.arrival);
    }
  }
  return run;
}

TracedRun run_traced(const std::string& workload, const std::string& ini_text, Tracer& tracer,
                     int replication) {
  Replication rep(tracer, replication);
  TracedRun run;
  // The core layer on the program's own path: the facade with the timed
  // probe attached.
  LayerProbe probe;
  int span = rep.child("sim.facade");
  const Outcome facade = run_facade(ini_text, &probe);
  tracer.end(span);
  run.outcomes.push_back(facade);
  core_layers(probe, facade, run.layers);

  const auto ini = IniConfig::parse(ini_text);
  if (workload == "lhc_tier") {
    run.outcomes.push_back(composed_tier(ini, rep, run.layers));
    // The LP layer, measured on the same input run on 4 LPs.
    span = rep.child("sim.run_parallel");
    run.references.push_back(run_tier_direct(on_lps(ini_text), false).outcome);
    tracer.end(span);
    lp_layers(run.references.back(), run.layers);
  } else if (workload == "p2p_churn") {
    run.outcomes.push_back(composed_p2p(ini, rep, run.layers));
    p2p_layers(facade, run.layers);
  } else if (workload == "chaos_bag") {
    mw_layers(facade, run.layers);
  } else {
    throw std::invalid_argument("no traced run for workload '" + workload + "'");
  }
  rep.close();
  return run;
}

}  // namespace perfbench
