// Output checks: what a correct run of each workload must have simulated.
// Each check names the outcome field its self-test perturbs; the self-test
// feeds the check that perturbed copy and expects it to fail.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "replicate.hpp"

namespace perfbench {

struct Check {
  std::string name;
  std::function<bool(const Outcome&)> holds;
  /// Self-test perturbation: the field to change (a key of Outcome::values,
  /// or of Outcome::text when `text` is set) and the change to make.
  std::string field;
  std::function<double(double)> perturb;
  bool text = false;
};

/// The checks of `workload` on `checked`: the first replication's outcome
/// merged with its reference runs (see main.cpp), for scenario `ini_text`.
std::vector<Check> workload_checks(const std::string& workload, const std::string& ini_text);

/// The checks of the tier run on 4 LPs (`on_lps` of an lhc_tier scenario):
/// the first field set is the facade's, "lp4." the direct 4-LP run's and
/// "lp1." the 1-LP reference's.
std::vector<Check> lp_tier_checks(const std::string& lp_ini_text);

/// Copy every field of `ref` into `into` under `prefix` ("lp1." ...).
void merge_reference(Outcome& into, const Outcome& ref, const std::string& prefix);

/// Run the checks; returns the names of those that fail.
std::vector<std::string> failing_checks(const std::vector<Check>& checks, const Outcome& checked);

/// Perturb `checked` once per check and expect that check to fail; returns
/// the names of checks that still passed on their perturbed input.
std::vector<std::string> self_test(const std::vector<Check>& checks, const Outcome& checked);

}  // namespace perfbench
