#include "base/metrics.h"

#include <ostream>
#include <sstream>

namespace satpg {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}

void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

namespace {

// Constant-initialized, so a thread that never registers reads the foreign
// sentinel without ever running a dynamic thread_local initializer.
thread_local unsigned t_telemetry_index = kForeignThreadIndex;

std::atomic<unsigned> g_next_worker_index{1};

// Dynamic initializers run on the main thread before main(), so this
// claims index 0 for it before any worker thread can exist.
[[maybe_unused]] const bool g_main_thread_claimed = [] {
  t_telemetry_index = kMainThreadIndex;
  return true;
}();

}  // namespace

unsigned telemetry_thread_index() { return t_telemetry_index; }

unsigned telemetry_register_worker() {
  if (t_telemetry_index == kForeignThreadIndex)
    t_telemetry_index =
        g_next_worker_index.fetch_add(1, std::memory_order_relaxed);
  return t_telemetry_index;
}

// ---- Counter ----------------------------------------------------------------

std::uint64_t MetricsRegistry::Counter::total() const {
  std::uint64_t t = 0;
  for (const auto& s : shards_) t += s.v.load(std::memory_order_relaxed);
  return t;
}

void MetricsRegistry::Counter::reset() {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

// ---- registry ---------------------------------------------------------------

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
}

void MetricsRegistry::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad1 = pad + "  ";
  const std::string pad2 = pad1 + "  ";
  std::lock_guard<std::mutex> lock(mu_);

  os << "{\n" << pad1 << "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << pad2 << '"' << name
       << "\": " << c->total();
    first = false;
  }
  os << (first ? "" : "\n" + pad1) << "}\n" << pad << "}";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* const registry = new MetricsRegistry;  // immortal
  return *registry;
}

}  // namespace satpg
