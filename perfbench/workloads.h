#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// ci-short-tcp or cv-live-mix.
bool known_workload(const std::string& name);

/// Builds the seeded corpus, sets the workload's deployment up, runs the
/// timed window and the correctness gates, and returns the end-to-end
/// metrics (untraced) or the per-layer metrics (traced).
Result run_workload(const Args& args);

}  // namespace perfbench
