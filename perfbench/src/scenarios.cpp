#include "scenarios.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// 256 sites: 1 T0, 15 T1, 16 T2 under each T1. Under max-min storage every
// replica shares the T0 disk read head, so each completion re-rates one
// large solver component.
const char* kTier = R"([monarc]
t1 = 15
t2_per_t1 = 16
t2_fraction = 0.3
link = 2.5Gbps
file_size = 20GB
interval = 40s
analysis = yes
archive = yes

[storage]
sharing = maxmin
)";

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"lhc_tier", "p2p_churn", "chaos_bag"};
  return names;
}

std::string scenario_ini(const std::string& workload, std::uint64_t seed) {
  const auto scenario = [seed](const char* facade, const char* queue) {
    return std::string("[scenario]\nfacade = ") + facade +
           "\nseed = " + std::to_string(splitmix64(seed) & 0x7fffffffULL) + "\nqueue = " + queue +
           "\n\n";
  };
  if (workload == "lhc_tier") {
    return scenario("monarc", "heap") + kTier + "\n[monarc]\nfiles = 30\n";
  }
  if (workload == "p2p_churn") {
    return scenario("p2p", "ladder") + R"([p2p]
overlay = chord
peers = 25000
sites = 16
m = 32
protocol = true
stabilize_period = 5s
horizon = 60s
churn = exponential
mean_lifetime = 120s
mean_downtime = 15s
lookup_rate = 2000
)";
  }
  if (workload == "chaos_bag") {
    return scenario("chaos", "heap") + R"([chaos]
hosts = 64
cores = 1
cpu_speed = 1000
jobs = 10000
mean_ops = 2000
heuristic = sjf

[failures]
semantics = stop
mtbf = 3s
mttr = 1s
policy = checkpoint
checkpoint_interval_ops = 500
checkpoint_overhead_ops = 25
)";
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::string on_lps(const std::string& ini) {
  // The partition, and with it the results, depend on the LP count only.
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::string s = with_key(ini, "execution", "mode", "parallel");
  s = with_key(s, "execution", "lps", "4");
  return with_key(s, "execution", "threads", std::to_string(threads));
}

std::string with_key(const std::string& ini, const std::string& section, const std::string& key,
                     const std::string& value) {
  return ini + "\n[" + section + "]\n" + key + " = " + value + "\n";
}

}  // namespace perfbench
