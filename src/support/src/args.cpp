#include "hetscale/support/args.hpp"

#include <atomic>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <system_error>
#include <thread>

#include "hetscale/support/error.hpp"

namespace hetscale {

ArgParser& ArgParser::add_flag(const std::string& name,
                               const std::string& help,
                               std::optional<std::string> def) {
  HETSCALE_REQUIRE(!name.empty() && name[0] != '-',
                   "flag name must be given without dashes");
  specs_[name] = Spec{help, false, std::move(def)};
  return *this;
}

ArgParser& ArgParser::add_bool(const std::string& name,
                               const std::string& help) {
  HETSCALE_REQUIRE(!name.empty() && name[0] != '-',
                   "flag name must be given without dashes");
  specs_[name] = Spec{help, true, std::nullopt};
  return *this;
}

ArgParser& ArgParser::add_short(char alias, const std::string& name) {
  HETSCALE_REQUIRE(specs_.count(name) > 0,
                   "short alias refers to undeclared flag --" + name);
  HETSCALE_REQUIRE(alias != '-', "short alias must not be '-'");
  shorts_[alias] = name;
  return *this;
}

void ArgParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      // `-j ...` / `-j8` for a declared alias; anything else is positional.
      if (arg.size() >= 2 && arg[0] == '-' && shorts_.count(arg[1]) > 0) {
        const std::string& name = shorts_.at(arg[1]);
        const Spec& spec = specs_.at(name);
        if (spec.boolean) {
          HETSCALE_REQUIRE(arg.size() == 2, "boolean flag -" +
                                                std::string(1, arg[1]) +
                                                " takes no value");
          values_[name] = "true";
        } else if (arg.size() > 2) {
          values_[name] = arg.substr(arg[2] == '=' ? 3 : 2);
        } else {
          HETSCALE_REQUIRE(i + 1 < args.size(),
                           "flag -" + std::string(1, arg[1]) +
                               " needs a value");
          values_[name] = args[++i];
        }
        continue;
      }
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline_value = true;
    }
    const auto it = specs_.find(name);
    HETSCALE_REQUIRE(it != specs_.end(), "unknown flag: --" + name);
    if (it->second.boolean) {
      HETSCALE_REQUIRE(!has_inline_value,
                       "boolean flag --" + name + " takes no value");
      values_[name] = "true";
      continue;
    }
    if (!has_inline_value) {
      HETSCALE_REQUIRE(i + 1 < args.size(),
                       "flag --" + name + " needs a value");
      value = args[++i];
    }
    values_[name] = value;
  }
}

bool ArgParser::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  const auto spec = specs_.find(name);
  if (spec != specs_.end() && spec->second.def.has_value()) {
    return *spec->second.def;
  }
  throw PreconditionError("required flag --" + name + " was not provided");
}

std::string ArgParser::get_or(const std::string& name,
                              const std::string& def) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : def;
}

double ArgParser::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  HETSCALE_REQUIRE(end != nullptr && *end == '\0',
                   "flag --" + name + " is not a number: " + it->second);
  return value;
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t def,
                                std::int64_t min, std::int64_t max) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return parse_int(it->second, "flag --" + name, min, max);
}

std::string ArgParser::help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.boolean) os << " <value>";
    os << "  " << spec.help;
    if (spec.def) os << " (default: " << *spec.def << ")";
    os << '\n';
  }
  return os.str();
}

std::int64_t parse_int(std::string_view text, const std::string& what,
                       std::int64_t min, std::int64_t max) {
  const std::string quoted = "'" + std::string(text) + "'";
  std::int64_t value = 0;
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  HETSCALE_REQUIRE(!text.empty(), what + " needs an integer, got ''");
  HETSCALE_REQUIRE(error != std::errc::result_out_of_range,
                   what + " is out of range: " + quoted);
  HETSCALE_REQUIRE(error == std::errc{} && end == last,
                   what + " is not an integer: " + quoted);
  HETSCALE_REQUIRE(value >= min && value <= max,
                   what + " must be in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "], got " + quoted);
  return value;
}

int normalize_jobs(std::int64_t jobs) {
  HETSCALE_REQUIRE(jobs >= 0,
                   "jobs must be >= 0 (0 means hardware concurrency)");
  HETSCALE_REQUIRE(jobs <= INT_MAX, "jobs must be <= " +
                                        std::to_string(INT_MAX));
  if (jobs > 0) return static_cast<int>(jobs);
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware >= 1 ? static_cast<int>(hardware) : 1;
}

int default_jobs() {
  if (const char* env = std::getenv("HETSCALE_JOBS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 0) {
      return normalize_jobs(value);
    }
  }
  return normalize_jobs(0);
}

ArgParser& add_jobs_flag(ArgParser& args) {
  args.add_flag("jobs",
                "worker threads for batch runs; 0 = hardware concurrency "
                "(default: HETSCALE_JOBS or hardware concurrency)");
  args.add_short('j', "jobs");
  return args;
}

int resolve_jobs(const ArgParser& args) {
  if (!args.has("jobs")) return default_jobs();
  const auto jobs = args.get_int("jobs", 0);
  HETSCALE_REQUIRE(jobs >= 0,
                   "--jobs must be >= 0 (0 means hardware concurrency)");
  return normalize_jobs(jobs);
}

int normalize_sim_threads(std::int64_t threads) {
  HETSCALE_REQUIRE(threads >= 0,
                   "sim-threads must be >= 0 (0 means hardware concurrency)");
  HETSCALE_REQUIRE(threads <= INT_MAX, "sim-threads must be <= " +
                                           std::to_string(INT_MAX));
  if (threads > 0) return static_cast<int>(threads);
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware >= 1 ? static_cast<int>(hardware) : 1;
}

int default_sim_threads() {
  if (const char* env = std::getenv("HETSCALE_SIM_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 0) {
      return normalize_sim_threads(value);
    }
  }
  return 1;
}

ArgParser& add_sim_threads_flag(ArgParser& args) {
  args.add_flag("sim-threads",
                "OS threads per simulated machine; 0 = hardware concurrency, "
                "1 = sequential (default: HETSCALE_SIM_THREADS or 1)");
  return args;
}

int resolve_sim_threads(const ArgParser& args) {
  if (!args.has("sim-threads")) return default_sim_threads();
  const auto threads = args.get_int("sim-threads", 1);
  HETSCALE_REQUIRE(
      threads >= 0,
      "--sim-threads must be >= 0 (0 means hardware concurrency)");
  return normalize_sim_threads(threads);
}

namespace {
/// 0 = unset: fall through to the HETSCALE_SIM_THREADS/1 default. Relaxed
/// atomics suffice — this is a configuration knob read at Machine
/// construction, not a synchronization point.
std::atomic<int> g_sim_threads{0};
}  // namespace

int global_sim_threads() {
  const int value = g_sim_threads.load(std::memory_order_relaxed);
  return value > 0 ? value : default_sim_threads();
}

void set_global_sim_threads(int threads) {
  HETSCALE_REQUIRE(threads >= 1, "sim-threads must be >= 1");
  g_sim_threads.store(threads, std::memory_order_relaxed);
}

std::uint64_t default_seed() {
  if (const char* env = std::getenv("HETSCALE_SEED")) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') {
      return static_cast<std::uint64_t>(value);
    }
  }
  return 0;
}

ArgParser& add_seed_flag(ArgParser& args) {
  args.add_flag("seed",
                "fault/experiment seed (default: HETSCALE_SEED or 0)");
  return args;
}

std::uint64_t resolve_seed(const ArgParser& args) {
  if (!args.has("seed")) return default_seed();
  const auto seed = args.get_int("seed", 0);
  HETSCALE_REQUIRE(seed >= 0, "--seed must be >= 0");
  return static_cast<std::uint64_t>(seed);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string piece;
  std::istringstream is(text);
  while (std::getline(is, piece, sep)) {
    // Trim spaces.
    const auto begin = piece.find_first_not_of(' ');
    const auto end = piece.find_last_not_of(' ');
    if (begin == std::string::npos) continue;
    out.push_back(piece.substr(begin, end - begin + 1));
  }
  return out;
}

}  // namespace hetscale
