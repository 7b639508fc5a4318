#include "observability/metrics.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace kstable::obs {

// The registry body lives behind an atomic pointer so MetricsRegistry itself
// is constexpr-constructible-cheap and the global() instance never runs a
// destructor race at exit (the Impl is intentionally leaked for the global,
// released for locally constructed registries).
struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // Deques: stable addresses across growth, required by the macro-cached
  // references.
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  struct Entry {
    Sample::Kind kind;
    std::size_t index;
  };
  std::map<std::string, Entry, std::less<>> names;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  Impl* existing = impl_.load(std::memory_order_acquire);
  if (existing != nullptr) return *existing;
  auto* fresh = new Impl();
  if (impl_.compare_exchange_strong(existing, fresh,
                                    std::memory_order_acq_rel)) {
    return *fresh;
  }
  delete fresh;  // lost the race; another thread installed its Impl
  return *existing;
}

MetricsRegistry::~MetricsRegistry() {
  // The global registry is never destroyed (static storage, leaked Impl would
  // only matter at process exit); locally built registries clean up.
  delete impl_.load(std::memory_order_acquire);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked on exit
  return *registry;
}

namespace {

template <typename Deque>
auto& find_or_create(MetricsRegistry::Impl& impl, std::string_view name,
                     MetricsRegistry::Sample::Kind kind, Deque& storage) {
  std::lock_guard<std::mutex> lock(impl.mutex);
  auto it = impl.names.find(name);
  if (it == impl.names.end()) {
    storage.emplace_back();
    impl.names.emplace(std::string(name),
                       MetricsRegistry::Impl::Entry{kind, storage.size() - 1});
    return storage.back();
  }
  KSTABLE_REQUIRE(it->second.kind == kind,
                  "metric '" << std::string(name)
                             << "' already registered as a different kind");
  return storage[it->second.index];
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  auto& i = impl();
  return find_or_create(i, name, Sample::Kind::counter, i.counters);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto& i = impl();
  return find_or_create(i, name, Sample::Kind::gauge, i.gauges);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto& i = impl();
  return find_or_create(i, name, Sample::Kind::histogram, i.histograms);
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  auto& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  std::vector<Sample> out;
  out.reserve(i.names.size());
  for (const auto& [name, entry] : i.names) {  // map iterates name-sorted
    Sample s;
    s.name = name;
    s.kind = entry.kind;
    switch (entry.kind) {
      case Sample::Kind::counter:
        s.value = i.counters[entry.index].value();
        break;
      case Sample::Kind::gauge:
        s.value = i.gauges[entry.index].value();
        break;
      case Sample::Kind::histogram: {
        const Histogram& h = i.histograms[entry.index];
        s.value = h.sum();
        s.count = h.count();
        s.buckets.resize(Histogram::kBuckets);
        for (int b = 0; b < Histogram::kBuckets; ++b) s.buckets[b] = h.bucket(b);
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

/// Prometheus metric name: kstable_ prefix, [a-zA-Z0-9_] body.
std::string prometheus_name(std::string_view name) {
  std::string out = "kstable_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  os << '{';
  bool first = true;
  for (const Sample& s : snapshot()) {
    if (!first) os << ',';
    first = false;
    util::write_json_string(os, s.name);
    os << ':';
    if (s.kind == Sample::Kind::histogram) {
      os << "{\"count\":" << s.count << ",\"sum\":" << s.value
         << ",\"buckets\":[";
      // Trailing empty buckets are truncated to keep the line short; the
      // schema fixes bucket b's range as [2^(b-1), 2^b).
      int last = static_cast<int>(s.buckets.size()) - 1;
      while (last > 0 && s.buckets[static_cast<std::size_t>(last)] == 0) --last;
      for (int b = 0; b <= last; ++b) {
        if (b != 0) os << ',';
        os << s.buckets[static_cast<std::size_t>(b)];
      }
      os << "]}";
    } else {
      os << s.value;
    }
  }
  os << '}';
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  for (const Sample& s : snapshot()) {
    const std::string name = prometheus_name(s.name);
    switch (s.kind) {
      case Sample::Kind::counter:
        os << "# TYPE " << name << "_total counter\n"
           << name << "_total " << s.value << '\n';
        break;
      case Sample::Kind::gauge:
        os << "# TYPE " << name << " gauge\n" << name << ' ' << s.value << '\n';
        break;
      case Sample::Kind::histogram: {
        os << "# TYPE " << name << " histogram\n";
        std::int64_t cumulative = 0;
        for (std::size_t b = 0; b < s.buckets.size(); ++b) {
          cumulative += s.buckets[b];
          os << name << "_bucket{le=\""
             << Histogram::bucket_bound(static_cast<int>(b)) << "\"} "
             << cumulative << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << s.count << '\n'
           << name << "_sum " << s.value << '\n'
           << name << "_count " << s.count << '\n';
        break;
      }
    }
  }
}

void MetricsRegistry::reset() {
  auto& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  for (auto& c : i.counters) c.reset();
  for (auto& g : i.gauges) g.reset();
  for (auto& h : i.histograms) h.reset();
}

std::size_t MetricsRegistry::size() const {
  auto& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return i.names.size();
}

}  // namespace kstable::obs
