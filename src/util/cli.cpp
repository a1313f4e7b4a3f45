#include "util/cli.hpp"

#include <sstream>
#include <stdexcept>

#include "util/parallel.hpp"

namespace hpccsim {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  add_flag("help", "print this help and exit");
}

void ArgParser::add_flag(std::string name, std::string help) {
  opts_[std::move(name)] = Opt{std::move(help), "false", /*is_flag=*/true,
                               /*set=*/false};
}

void ArgParser::add_option(std::string name, std::string help,
                           std::string default_value) {
  opts_[std::move(name)] =
      Opt{std::move(help), std::move(default_value), /*is_flag=*/false,
          /*set=*/false};
}

void ArgParser::add_jobs_option() {
  add_option("jobs",
             "worker threads for the sweep (0 = HPCCSIM_JOBS env var, "
             "else all hardware threads)",
             "0");
}

int ArgParser::jobs() const { return resolve_jobs(integer("jobs")); }

void ArgParser::add_json_option() {
  add_option("json", "write bench metrics JSON to this path (see "
                     "docs/METRICS.md for the schema)",
             "");
}

void ArgParser::add_trace_option() {
  add_option("trace", "write a Chrome trace-event JSON file to this path "
                      "(open in chrome://tracing or ui.perfetto.dev)",
             "");
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected positional argument: " + arg);
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    auto it = opts_.find(arg);
    if (it == opts_.end())
      throw std::invalid_argument("unknown option --" + arg + "\n" + usage());
    Opt& opt = it->second;
    if (opt.is_flag) {
      if (has_value)
        throw std::invalid_argument("flag --" + arg + " takes no value");
      opt.value = "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc)
          throw std::invalid_argument("option --" + arg + " needs a value");
        value = argv[++i];
      }
      opt.value = value;
    }
    opt.set = true;
  }
}

const ArgParser::Opt& ArgParser::get(const std::string& name) const {
  auto it = opts_.find(name);
  if (it == opts_.end())
    throw std::invalid_argument("option not declared: --" + name);
  return it->second;
}

bool ArgParser::flag(const std::string& name) const {
  return get(name).value == "true";
}

std::string ArgParser::str(const std::string& name) const {
  return get(name).value;
}

namespace {

// `convert` (std::stoll or std::stod) must consume all of `text`; a
// non-numeric, out-of-range or trailing-garbage value names the option.
template <class Convert>
auto parse_number(const std::string& name, const std::string& text,
                  const char* kind, Convert convert) {
  std::size_t used = 0;
  try {
    const auto value = convert(text, &used);
    if (used == text.size()) return value;
  } catch (const std::logic_error&) {
  }
  throw std::invalid_argument("option --" + name + ": '" + text +
                              "' is not " + kind);
}

std::int64_t to_integer(const std::string& s, std::size_t* used) {
  return std::stoll(s, used);
}

double to_real(const std::string& s, std::size_t* used) {
  return std::stod(s, used);
}

}  // namespace

std::int64_t ArgParser::integer(const std::string& name) const {
  return parse_number(name, get(name).value, "an integer", to_integer);
}

double ArgParser::real(const std::string& name) const {
  return parse_number(name, get(name).value, "a number", to_real);
}

std::vector<std::int64_t> ArgParser::int_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  std::stringstream ss(get(name).value);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty())
      out.push_back(parse_number(name, tok, "an integer", to_integer));
  }
  return out;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& [name, opt] : opts_) {
    os << "  --" << name;
    if (!opt.is_flag) os << " <value> (default: " << opt.value << ")";
    os << "\n      " << opt.help << "\n";
  }
  return os.str();
}

}  // namespace hpccsim
