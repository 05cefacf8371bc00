// The host-speed reference: a fixed piece of work, independent of the
// simulator, that the benchmark times between replications.
//
// On a shared host the same replication runs up to 2x slower for minutes
// at a time, in CPU time as well as wall time (co-tenants on the same
// cores, caches and memory). Timing this reference next to each
// replication and scaling the replication by the reference's speed at that
// moment cancels that slowdown; a change to the simulator still moves the
// scaled time by its full amount, since the reference does not change.
#pragma once

namespace perfbench {

/// One timing of the reference work.
struct CalibSample {
  double wall_s = 0;
  double cpu_s = 0;
};

/// The scale of scaled times: seconds on a host where the reference takes
/// this long (on the host of README.md's figures its median per run was
/// 0.051-0.067 s in spot checks).
constexpr double kCalibNominalS = 0.060;

/// Run the reference work once and time it. The first call allocates and
/// warms its memory untimed.
CalibSample run_calibration();

}  // namespace perfbench
