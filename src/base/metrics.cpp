#include "base/metrics.h"

#include <ostream>
#include <sstream>

#include "base/strutil.h"

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

// ---- Histogram --------------------------------------------------------------

void MetricsRegistry::Histogram::record_always(std::uint64_t v) {
  Shard& s = shards_[telemetry_thread_index() % kShards];
  s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = s.min.load(std::memory_order_relaxed);
  while (v < cur &&
         !s.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t MetricsRegistry::Histogram::count() const {
  std::uint64_t t = 0;
  for (const auto& s : shards_) t += s.count.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t MetricsRegistry::Histogram::sum() const {
  std::uint64_t t = 0;
  for (const auto& s : shards_) t += s.sum.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t MetricsRegistry::Histogram::min() const {
  std::uint64_t m = UINT64_MAX;
  for (const auto& s : shards_) {
    const std::uint64_t v = s.min.load(std::memory_order_relaxed);
    if (v < m) m = v;
  }
  return m == UINT64_MAX ? 0 : m;
}

std::uint64_t MetricsRegistry::Histogram::max() const {
  std::uint64_t m = 0;
  for (const auto& s : shards_) {
    const std::uint64_t v = s.max.load(std::memory_order_relaxed);
    if (v > m) m = v;
  }
  return m;
}

std::uint64_t MetricsRegistry::Histogram::bucket(std::size_t b) const {
  std::uint64_t t = 0;
  for (const auto& s : shards_)
    t += s.buckets[b].load(std::memory_order_relaxed);
  return t;
}

void MetricsRegistry::Histogram::reset() {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(UINT64_MAX, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

// ---- registry ---------------------------------------------------------------

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

MetricsRegistry::Histogram& MetricsRegistry::histogram(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
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
  os << (first ? "" : "\n" + pad1) << "},\n";

  os << pad1 << "\"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << pad2 << '"' << name << "\": "
       << strprintf("%.17g", g->value());
    first = false;
  }
  os << (first ? "" : "\n" + pad1) << "},\n";

  os << pad1 << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << pad2 << '"' << name << "\": {"
       << "\"count\": " << h->count() << ", \"sum\": " << h->sum()
       << ", \"min\": " << h->min() << ", \"max\": " << h->max()
       << ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t n = h->bucket(b);
      if (n == 0) continue;
      os << (bfirst ? "" : ", ") << '[' << b << ", " << n << ']';
      bfirst = false;
    }
    os << "]}";
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
