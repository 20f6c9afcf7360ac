// The benchmark's workloads (see README.md for why each exists).
#pragma once

#include "common.h"

namespace perfbench {

// sweep-cold (`cold` = true) and sweep-tier1 at --preset=internet2026 scale.
Result RunSweep(const Options& options, bool cold);

// Writes the snapshot serve-skewed serves, plus a sidecar with the time the
// topology took to generate. Input preparation, not part of any metric.
// Returns a process exit code.
int PrepareServe(const Options& options);

// serve-skewed: the default reactor front end over loopback.
Result RunServe(const Options& options);

}  // namespace perfbench
