#include "checks.hpp"

#include <stdexcept>

#include "hosts/site.hpp"
#include "util/ini.hpp"
#include "util/units.hpp"

namespace perfbench {

namespace {

/// Every `a_prefix` field equals its `b_prefix` twin, and there is one.
bool same_fields(const Outcome& o, const std::string& a_prefix, const std::string& b_prefix) {
  std::size_t n = 0;
  for (const auto& [k, v] : o.values) {
    if (k.rfind(a_prefix, 0) != 0) continue;
    const auto it = o.values.find(b_prefix + k.substr(a_prefix.size()));
    if (it == o.values.end() || it->second != v) return false;
    ++n;
  }
  for (const auto& [k, v] : o.text) {
    if (k.rfind(a_prefix, 0) != 0) continue;
    const auto it = o.text.find(b_prefix + k.substr(a_prefix.size()));
    if (it == o.text.end() || it->second != v) return false;
    ++n;
  }
  return n > 0;
}

double plus_one(double v) { return v + 1; }
double halve(double v) { return v / 2; }
double twice(double v) { return v * 2 + 1; }

std::vector<Check> tier_checks(const lsds::util::IniConfig& ini, bool lp) {
  const double files = static_cast<double>(ini.get_int("monarc", "files", 60));
  const double t1 = static_cast<double>(ini.get_int("monarc", "t1", 4));
  const double size = ini.get_size("monarc", "file_size", 20e9);
  const double link = ini.get_rate("monarc", "link", lsds::util::gbps(2.5));
  // monarc sites keep the default disk heads; every replica is read from T0.
  const double read_head = lsds::hosts::SiteSpec{}.disk_read_bw;

  std::vector<Check> c;
  c.push_back({"replicas delivered = files x T1s",
               [=](const Outcome& o) { return o.value("result.replicas_delivered") == files * t1; },
               "result.replicas_delivered", plus_one});
  c.push_back({"files archived = files",
               [=](const Outcome& o) { return o.value("result.files_archived") == files; },
               "result.files_archived", plus_one});
  // Bytes: the flow network's spans (plus, on LPs, the analytic cross-site
  // channels) against the model's own replica / T2-pull / archive counts.
  // Every T1 analyses every file, so T2 pulls = jobs_done - files x T1s.
  c.push_back({"moved bytes = (replicas + T2 pulls + archived) x file size",
               [=](const Outcome& o) {
                 const double pulls = o.value("result.jobs_done") - files * t1;
                 const double counted = (o.value("result.replicas_delivered") + pulls +
                                         o.value("result.files_archived")) * size;
                 const double moved =
                     o.value("flows.bytes") + (lp ? o.value("result.bytes_moved") : 0.0);
                 return moved == counted;
               },
               "flows.bytes", plus_one});
  if (!lp) {
    c.push_back({"last replica >= files x T1s x file size / T0 read-head bandwidth",
                 [=](const Outcome& o) {
                   return o.value("flows.last_t0_out") >= files * t1 * size / read_head;
                 },
                 "flows.last_t0_out", halve});
    return c;
  }
  // The LP tier moves replicas over one store-and-forward channel per
  // (T0, T1) pair: the T0 disk is not on that path, the link is.
  c.push_back({"last replica >= files x file size / T0-T1 link bandwidth",
               [=](const Outcome& o) { return o.value("lp4.last_replica") >= files * size / link; },
               "lp4.last_replica", halve});
  c.push_back({"facade result = direct 4-LP result",
               [](const Outcome& o) { return same_fields(o, "result.", "lp4.result."); },
               "lp4.result.makespan", plus_one});
  c.push_back({"4-LP result = 1-LP result",
               [](const Outcome& o) { return same_fields(o, "lp4.result.", "lp1.result."); },
               "lp1.result.mean_replication_lag_s", plus_one});
  c.push_back({"4-LP trace = 1-LP trace",
               [](const Outcome& o) { return o.text.at("lp4.trace") == o.text.at("lp1.trace"); },
               "lp1.trace", nullptr, true});
  c.push_back({"ran on 4 LPs",
               [](const Outcome& o) { return o.value("execution.lps") == 4; }, "execution.lps",
               plus_one});
  c.push_back({"zero lookahead violations",
               [](const Outcome& o) { return o.value("lp4.lookahead_violations") == 0; },
               "lp4.lookahead_violations", plus_one});
  c.push_back({"zero past clamps",
               [](const Outcome& o) {
                 return o.value("execution.past_clamped") == 0 && o.value("lp4.past_clamped") == 0;
               },
               "execution.past_clamped", plus_one});
  return c;
}

std::vector<Check> p2p_checks(const lsds::util::IniConfig& ini) {
  const double peers = static_cast<double>(ini.get_int("p2p", "peers", 1024));
  std::vector<Check> c;
  // A lookup that fails under churn is a simulated outcome; only the
  // accounting has to close.
  c.push_back({"ok + failed lookups = issued",
               [](const Outcome& o) {
                 return o.value("result.lookups_ok") + o.value("result.lookups_failed") ==
                        o.value("result.lookups_issued");
               },
               "result.lookups_failed", plus_one});
  c.push_back({"peers - live = deaths - rebirths",
               [=](const Outcome& o) {
                 return peers - o.value("result.live_peers") ==
                        o.value("result.deaths") - o.value("result.rebirths");
               },
               "result.rebirths", plus_one});
  c.push_back({"lookups issued",
               [](const Outcome& o) { return o.value("result.lookups_issued") > 0; },
               "result.lookups_issued", [](double) { return 0.0; }});
  c.push_back({"state digest identical on the heap queue",
               [](const Outcome& o) {
                 return o.text.at("result.state_digest") == o.text.at("heap.result.state_digest");
               },
               "heap.result.state_digest", nullptr, true});
  c.push_back({"results identical on the heap queue",
               [](const Outcome& o) { return same_fields(o, "result.", "heap.result."); },
               "heap.result.mean_hops", twice});
  return c;
}

std::vector<Check> chaos_checks(const lsds::util::IniConfig& ini) {
  const double jobs = static_cast<double>(ini.get_int("chaos", "jobs", 1000));
  const double capacity = static_cast<double>(ini.get_int("chaos", "hosts", 8)) *
                          static_cast<double>(ini.get_int("chaos", "cores", 1)) *
                          ini.get_double("chaos", "cpu_speed", 1000);
  std::vector<Check> c;
  c.push_back({"completed = jobs",
               [=](const Outcome& o) { return o.value("result.jobs_done") == jobs; },
               "result.jobs_done", plus_one});
  c.push_back({"lost = 0", [](const Outcome& o) { return o.value("result.jobs_lost") == 0; },
               "result.jobs_lost", plus_one});
  c.push_back({"makespan >= useful ops / (hosts x cores x speed)",
               [=](const Outcome& o) {
                 return o.value("result.makespan") >=
                        o.value("dependability.useful_ops") / capacity;
               },
               "result.makespan", [](double) { return 0.0; }});
  c.push_back({"goodput <= raw throughput",
               [](const Outcome& o) {
                 return o.value("dependability.goodput_ops_per_s") <=
                        o.value("dependability.raw_throughput_ops_per_s");
               },
               "dependability.goodput_ops_per_s", twice});
  return c;
}

}  // namespace

void merge_reference(Outcome& into, const Outcome& ref, const std::string& prefix) {
  for (const auto& [k, v] : ref.values) into.values[prefix + k] = v;
  for (const auto& [k, v] : ref.text) into.text[prefix + k] = v;
}

std::vector<Check> workload_checks(const std::string& workload, const std::string& ini_text) {
  const auto ini = lsds::util::IniConfig::parse(ini_text);
  if (workload == "lhc_tier") return tier_checks(ini, false);
  if (workload == "p2p_churn") return p2p_checks(ini);
  if (workload == "chaos_bag") return chaos_checks(ini);
  throw std::invalid_argument("no checks for workload '" + workload + "'");
}

std::vector<Check> lp_tier_checks(const std::string& lp_ini_text) {
  return tier_checks(lsds::util::IniConfig::parse(lp_ini_text), true);
}

std::vector<std::string> failing_checks(const std::vector<Check>& checks, const Outcome& checked) {
  std::vector<std::string> failed;
  for (const Check& c : checks) {
    bool ok = false;
    try {
      ok = c.holds(checked);
    } catch (const std::exception&) {
      ok = false;  // a missing field fails the check
    }
    if (!ok) failed.push_back(c.name);
  }
  return failed;
}

std::vector<std::string> self_test(const std::vector<Check>& checks, const Outcome& checked) {
  std::vector<std::string> missed;
  for (const Check& c : checks) {
    Outcome bad = checked;
    if (c.text) {
      bad.text[c.field] += "#";
    } else {
      bad.values[c.field] = c.perturb(checked.value(c.field));
    }
    if (failing_checks({c}, bad).empty()) missed.push_back(c.name);
  }
  return missed;
}

}  // namespace perfbench
