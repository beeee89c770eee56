// The campaign command line: one flag table and one artifact writer shared
// by every front-end that runs the paper's benchmark procedure
// (bench/table5_campaign, bench/fig5_comparison, `gfbench campaign`).
//
// Flags parse straight into RunnerOptions; the artifact paths and the store
// flags live next to it in CampaignFlags. The artifact flags are the rows of
// the artifact table (depbench/campaign_report.h). Whether a campaign
// collects obs bundles, activation traces or profiles is derived from which
// artifacts were requested, never set on its own, so two front-ends given
// the same command line run the same campaign and write the same bytes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "depbench/runner.h"
#include "obs/progress.h"
#include "store/store.h"

namespace gf::depbench {

struct CampaignFlags {
  /// Parsed into directly. The caller sets its defaults before parsing;
  /// `trace`, `obs` and `profile` are derived from the artifact paths.
  RunnerOptions opt;

  /// Requested artifacts: artifact-table flag (without "--") -> file path.
  std::map<std::string, std::string> artifacts;
  bool activation_report = false;  ///< print the per-type x function table

  // Result store (src/store). --no-cache parses into opt.store_read.
  std::string store_dir;   ///< empty = no store
  bool resume = false;     ///< the store must already exist
  /// Test hook: SIGKILL the process after the Nth store commit (0 = off),
  /// to exercise torn-tail recovery and resume.
  std::uint64_t crash_after_puts = 0;

  /// Rate-limited live progress on stderr. Display only.
  bool progress = false;

  /// Values of the caller's own flags (named in parse_campaign_flags'
  /// `extra_flags`), keyed by name without the leading dashes.
  std::map<std::string, std::string> extra;
};

/// Parses `args` (flags only, no program name) over the defaults already in
/// `flags`. Returns an empty string on success, otherwise a one-line
/// diagnostic naming the offending flag: an unknown flag, a missing value,
/// a non-numeric value, an out-of-range one, or a flag that would change
/// nothing (a store flag without --store, --profile-stride without a
/// profile artifact). Never throws. `extra_flags` names value flags the
/// caller handles itself; they land in flags.extra.
std::string parse_campaign_flags(
    const std::vector<std::string>& args, CampaignFlags& flags,
    const std::vector<std::string>& extra_flags = {});

/// Bench entry point: parses argv[1..]; on error prints the diagnostic and
/// the usage line and exits with status 2.
void parse_campaign_flags_or_exit(int argc, char** argv, CampaignFlags& flags);

/// The flag synopsis ("[--quick] [--full] [--scale S] ..."), wrapped with
/// `indent` at the start of every continuation line.
std::string campaign_flags_usage(const std::string& indent);

/// One campaign run from parsed flags. Owns the result store and the
/// progress reporter the runner borrows, so it is neither copied nor moved.
class CampaignSession {
 public:
  explicit CampaignSession(CampaignFlags flags) : flags_(std::move(flags)) {}
  CampaignSession(const CampaignSession&) = delete;
  CampaignSession& operator=(const CampaignSession&) = delete;

  /// Opens the store, then runs every cell. Returns false with a diagnostic
  /// on stderr when --resume names a directory that holds no store or the
  /// store cannot be opened.
  bool run();

  const std::vector<ExperimentCell>& cells() const noexcept { return cells_; }

  /// Writes every requested artifact and prints the activation report.
  /// Returns false with a diagnostic on stderr when a file cannot be
  /// written. Call after run().
  bool write_artifacts() const;

 private:
  CampaignFlags flags_;
  std::unique_ptr<store::CampaignStore> store_;
  obs::ProgressReporter progress_;
  std::unique_ptr<CampaignRunner> runner_;
  std::vector<ExperimentCell> cells_;
};

}  // namespace gf::depbench
