// Minimal command-line option parsing for bench and example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--flag`. Unknown
// options are an error so typos fail fast instead of silently running the
// default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hpccsim {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declare options before parse(); `help` appears in usage().
  void add_flag(std::string name, std::string help);
  void add_option(std::string name, std::string help,
                  std::string default_value);

  /// Declare the standard `--jobs N` option (0 = use HPCCSIM_JOBS env
  /// var, else all hardware threads). Read it back with jobs().
  void add_jobs_option();

  /// Declare the standard `--json <path>` option every bench carries:
  /// write machine-readable metrics (obs::BenchMetrics schema, see
  /// docs/METRICS.md) to <path>. Read it back with json_path().
  void add_json_option();
  std::string json_path() const { return str("json"); }

  /// Declare the standard `--trace <path>` option: write a Chrome
  /// trace-event file of the run (obs::TraceWriter) to <path>.
  void add_trace_option();
  std::string trace_path() const { return str("trace"); }

  /// Resolved worker count for parallel_for: --jobs if given, else the
  /// HPCCSIM_JOBS environment variable, else hardware concurrency.
  int jobs() const;

  /// Parses argv; throws std::invalid_argument on unknown/malformed input.
  void parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  std::string str(const std::string& name) const;
  /// integer(), real() and int_list() throw std::invalid_argument naming
  /// the option when a value is not a number or has trailing characters.
  std::int64_t integer(const std::string& name) const;
  double real(const std::string& name) const;

  /// Comma-separated list of integers ("1000,2000,4000").
  std::vector<std::int64_t> int_list(const std::string& name) const;

  std::string usage() const;

 private:
  struct Opt {
    std::string help;
    std::string value;   // current (default or parsed) value
    bool is_flag = false;
    bool set = false;
  };
  const Opt& get(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Opt> opts_;
};

}  // namespace hpccsim
