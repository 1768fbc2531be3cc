// Minimal command-line flag parsing for the CLI tool and examples.
//
// Supports `--flag value`, `--flag=value`, boolean `--flag`, and declared
// single-character aliases (`-j 8`, `-j8`); collects positional arguments
// in order. No external dependencies, strict by default (unknown flags are
// errors).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hetscale {

class ArgParser {
 public:
  /// Declare a flag. `def` is the rendered default for --help.
  ArgParser& add_flag(const std::string& name, const std::string& help,
                      std::optional<std::string> def = std::nullopt);

  /// Declare a boolean flag (present = true).
  ArgParser& add_bool(const std::string& name, const std::string& help);

  /// Declare a single-character alias for an already-declared flag, so
  /// `-j 8` and `-j8` both mean `--jobs 8`. A leading `-<other>` token
  /// without a declared alias stays positional (e.g. negative numbers).
  ArgParser& add_short(char alias, const std::string& name);

  /// Parse argv (excluding argv[0]). Throws PreconditionError on unknown
  /// flags or a missing value.
  void parse(int argc, const char* const* argv);
  void parse(const std::vector<std::string>& args);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;           ///< throws if absent
  std::string get_or(const std::string& name, const std::string& def) const;
  /// The flag's whole value as a finite decimal number (no leading space
  /// or '+', no hex, nan or inf, no overflow or underflow to zero), or
  /// `def` when the flag was not given.
  double get_double(const std::string& name, double def) const;
  /// The flag's whole value as an integer in [min, max] (see parse_int),
  /// or `def` when the flag was not given.
  std::int64_t get_int(
      const std::string& name, std::int64_t def,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Rendered usage text.
  std::string help(const std::string& program) const;

 private:
  struct Spec {
    std::string help;
    bool boolean = false;
    std::optional<std::string> def;
  };
  std::map<std::string, Spec> specs_;
  std::map<char, std::string> shorts_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Parse all of `text` as a base-10 integer in [min, max]. Throws
/// PreconditionError naming `what` and the reason — empty, not a whole
/// integer, or out of range — otherwise; nothing wraps or saturates.
std::int64_t parse_int(
    std::string_view text, const std::string& what,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// Split "a,b,c" into trimmed pieces (empty pieces dropped).
std::vector<std::string> split(const std::string& text, char sep);

/// The most worker lanes a run::Runner accepts. Each lane is an OS thread
/// started up front, so a larger request is rejected before any starts.
inline constexpr int kMaxJobs = 1024;

/// Map a requested worker count to an effective one: 0 means "use the
/// hardware concurrency" (at least 1, at most kMaxJobs), positive values up
/// to kMaxJobs pass through, and anything else throws. This is the single
/// definition of what `0` means — --jobs and Runner(0) both funnel through
/// it, so the two spellings can never drift apart.
int normalize_jobs(std::int64_t jobs);

/// Declare the conventional `--jobs N` flag with its `-j` alias.
ArgParser& add_jobs_flag(ArgParser& args);

/// The parsed --jobs/-j value (must be >= 0; 0 picks the hardware
/// concurrency), or the hardware concurrency when the flag was not given.
int resolve_jobs(const ArgParser& args);

/// Map a requested simulation-thread count to an effective one: 0 means
/// "use the hardware concurrency" (at least 1, at most kMaxJobs), positive
/// values up to kMaxJobs pass through, anything else throws. A machine runs
/// one OS thread per partition, so the bound is the worker pool's. Mirrors
/// normalize_jobs() so --sim-threads and set_global_sim_threads() agree on
/// what 0 means.
int normalize_sim_threads(std::int64_t threads);

/// Declare the conventional `--sim-threads N` flag.
ArgParser& add_sim_threads_flag(ArgParser& args);

/// The parsed --sim-threads value (must be >= 0; 0 picks the hardware
/// concurrency), or 1 — the classic sequential scheduler, which every
/// golden artifact was recorded with — when the flag was not given.
int resolve_sim_threads(const ArgParser& args);

/// The process-wide sim-thread count new machines inherit:
/// set_global_sim_threads() when called, otherwise 1. A process global —
/// exactly like the --jobs convention — so Machine construction sites need
/// no per-call plumbing; CLI entry points call
/// set_global_sim_threads(resolve_sim_threads(args)) once after parsing.
int global_sim_threads();
void set_global_sim_threads(int threads);

/// Declare the conventional `--seed N` flag shared by the CLI and the
/// scenario launchers.
ArgParser& add_seed_flag(ArgParser& args);

/// The parsed --seed value (must be >= 0), or 0 when the flag was not
/// given.
std::uint64_t resolve_seed(const ArgParser& args);

}  // namespace hetscale
