// run_verification: the top-level driver behind `kmatch verify`
// (docs/VERIFY.md).
//
// Seeds [base_seed, base_seed + seeds) are drawn per requested shape
// (InstanceGen), pushed through the differential battery (DiffRunner), and
// every mismatch is emitted as a single-line JSON record to the report
// stream. The first mismatching instance is additionally delta-debugged
// (Shrinker) and the minimal repro written to repro_dir in the ordinary
// instance format, so a red CI run hands the developer a file
// that replays with `kmatch <cmd> --load=<repro>` instead of a seed hunt.
//
// Work and outcomes flow through the observability substrate: one
// SolveTelemetry record per run_verification call (engine "verify") plus the
// verify.* counters, so `kmatch verify --stats-json` reports the sweep the
// same way the solvers report theirs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "observability/telemetry.hpp"
#include "verify/diff_runner.hpp"
#include "verify/instance_gen.hpp"

namespace kstable::verify {

struct VerifyOptions {
  /// Shapes to sweep; empty = all three.
  std::vector<Shape> shapes{Shape::bipartite, Shape::kpartite,
                            Shape::roommates};
  std::int64_t seeds = 100;       ///< seeds per shape
  std::uint64_t base_seed = 1;    ///< first seed of the sweep
  GenOptions gen;                 ///< size/distribution knobs (shape is
                                  ///< overridden per sweep entry)
  Sabotage sabotage = Sabotage::none;  ///< self-test corruption
  /// Workers for the parallel-GS leg; 0 = skip that comparison.
  std::size_t pool_threads = 0;
  /// Preference-churn steps per instance (DiffOptions::churn_steps): each
  /// step mutates the instance and asserts the incremental rematch pipeline
  /// agrees with a cold solve bitwise. 0 = skip the churn legs.
  std::int32_t churn_steps = 0;
  /// Where the first mismatching instance's minimal repro is saved.
  std::string repro_dir = ".";
  /// Mismatch JSON lines are written here when non-null (one per mismatch).
  std::ostream* report = nullptr;
};

struct VerifySummary {
  std::int64_t seeds_run = 0;        ///< instances swept (shapes × seeds)
  std::int64_t checks = 0;           ///< agreement relations evaluated
  std::int64_t mismatch_count = 0;
  /// First few mismatches, for direct inspection (capped; the report stream
  /// gets all of them).
  std::vector<Mismatch> mismatches;
  /// Minimal repro files written (aligned with the first mismatching seeds).
  std::vector<std::string> repro_paths;
  double wall_ms = 0.0;
  /// The sweep's engine="verify" record (already folded into the registry).
  obs::SolveTelemetry telemetry;

  [[nodiscard]] bool clean() const noexcept { return mismatch_count == 0; }
};

/// Runs the sweep. Throws only on environmental failure (unwritable repro
/// dir); detected divergence is DATA, returned in the summary.
VerifySummary run_verification(const VerifyOptions& options = {});

}  // namespace kstable::verify
