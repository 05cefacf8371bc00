// Generated benchmark inputs: one INI scenario per workload, derived from
// the benchmark seed. The seed only picks the simulation's RNG seed; the
// sizes are fixed so that every seed does the same amount of work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The workload names, in the order the README documents them.
const std::vector<std::string>& workload_names();

/// INI text of `workload` for benchmark seed `seed`. Throws
/// std::invalid_argument on an unknown workload.
std::string scenario_ini(const std::string& workload, std::uint64_t seed);

/// The same scenario run on the LP tier: `[execution] mode = parallel` with
/// 4 LPs, on as many threads as the host has CPUs, up to 4.
std::string on_lps(const std::string& ini);

/// The same scenario with `[section] key` replaced by `value`.
std::string with_key(const std::string& ini, const std::string& section, const std::string& key,
                     const std::string& value);

}  // namespace perfbench
