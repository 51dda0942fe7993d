#include "service/fault_injector.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace tsunami {

namespace {

/// splitmix64 finalizer: the standard 64-bit avalanche mix. Statistical
/// quality is far beyond what a fault coin-flip needs; what matters is that
/// distinct (seed, salt, event, tick) tuples decorrelate completely.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Parse a nonnegative double in [0,1] or throw with the knob's name.
double parse_probability(const char* name, const std::string& s) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != s.size() || !(v >= 0.0) || v > 1.0)
    throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                " must be a probability in [0,1], got '" + s +
                                "'");
  return v;
}

/// Parse a nonnegative integer: decimal digits only (no sign, no
/// whitespace) that fit a std::size_t, or throw with the knob's name.
std::size_t parse_index(const char* name, const std::string& s) {
  std::size_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size())
    throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                ": bad index '" + s + "'");
  return v;
}

/// One "s@t" or "s@t-r" clause of TSUNAMI_FAULT_DROP_SENSOR.
SensorFault parse_sensor_fault(const std::string& clause) {
  const std::size_t at = clause.find('@');
  if (at == std::string::npos)
    throw std::invalid_argument(
        "FaultPlan: TSUNAMI_FAULT_DROP_SENSOR clause '" + clause +
        "' is not channel@tick[-restore_tick]");
  SensorFault f;
  f.sensor = parse_index("TSUNAMI_FAULT_DROP_SENSOR", clause.substr(0, at));
  const std::string ticks = clause.substr(at + 1);
  const std::size_t dash = ticks.find('-');
  if (dash == std::string::npos) {
    f.drop_tick = parse_index("TSUNAMI_FAULT_DROP_SENSOR", ticks);
  } else {
    f.drop_tick =
        parse_index("TSUNAMI_FAULT_DROP_SENSOR", ticks.substr(0, dash));
    f.restore_tick =
        parse_index("TSUNAMI_FAULT_DROP_SENSOR", ticks.substr(dash + 1));
    if (f.restore_tick <= f.drop_tick)
      throw std::invalid_argument(
          "FaultPlan: TSUNAMI_FAULT_DROP_SENSOR clause '" + clause +
          "': restore tick must follow drop tick");
  }
  return f;
}

}  // namespace

FaultPlan FaultPlan::from_env() {
  FaultPlan plan;
  if (const char* s = std::getenv("TSUNAMI_FAULT_SEED"))
    plan.seed = static_cast<std::uint64_t>(
        parse_index("TSUNAMI_FAULT_SEED", std::string(s)));
  if (const char* s = std::getenv("TSUNAMI_FAULT_PACKET_LOSS"))
    plan.packet_loss =
        parse_probability("TSUNAMI_FAULT_PACKET_LOSS", std::string(s));
  if (const char* s = std::getenv("TSUNAMI_FAULT_CORRUPT"))
    plan.corrupt = parse_probability("TSUNAMI_FAULT_CORRUPT", std::string(s));
  if (const char* s = std::getenv("TSUNAMI_FAULT_DROP_SENSOR")) {
    std::string list(s);
    std::size_t begin = 0;
    while (begin <= list.size()) {
      std::size_t comma = list.find(',', begin);
      if (comma == std::string::npos) comma = list.size();
      const std::string clause = list.substr(begin, comma - begin);
      if (!clause.empty())
        plan.sensor_faults.push_back(parse_sensor_fault(clause));
      begin = comma + 1;
    }
  }
  return plan;
}

double FaultInjector::uniform(std::uint64_t salt, std::uint64_t event,
                              std::size_t tick) const {
  std::uint64_t h = mix64(plan_.seed ^ salt);
  h = mix64(h ^ event);
  h = mix64(h ^ static_cast<std::uint64_t>(tick));
  // Top 53 bits -> [0,1): the full double-precision lattice.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::lose_block(std::uint64_t event, std::size_t tick) const {
  return plan_.packet_loss > 0.0 &&
         uniform(0x6c6f7373ULL /* "loss" */, event, tick) < plan_.packet_loss;
}

bool FaultInjector::corrupt_block(std::uint64_t event,
                                  std::size_t tick) const {
  return plan_.corrupt > 0.0 &&
         uniform(0x636f7272ULL /* "corr" */, event, tick) < plan_.corrupt;
}

std::vector<std::pair<std::size_t, bool>> FaultInjector::sensor_ops_at(
    std::size_t tick) const {
  std::vector<std::pair<std::size_t, bool>> ops;
  for (const SensorFault& f : plan_.sensor_faults)
    if (f.drop_tick == tick) ops.emplace_back(f.sensor, false);
  for (const SensorFault& f : plan_.sensor_faults)
    if (f.restore_tick == tick) ops.emplace_back(f.sensor, true);
  return ops;
}

}  // namespace tsunami
