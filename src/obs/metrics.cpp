#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "obs/json.h"

namespace gf::obs {

std::size_t Histogram::bucket_of(std::uint64_t v) noexcept {
  const auto w = static_cast<std::size_t>(std::bit_width(v));
  return w < kBuckets ? w : kBuckets - 1;
}

void Histogram::observe(std::uint64_t v) noexcept {
  ++count;
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
  ++buckets[bucket_of(v)];
}

void Histogram::merge(const Histogram& other) noexcept {
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
}

void Registry::gauge(const std::string& name, std::uint64_t value) {
  auto [it, inserted] = gauges_.emplace(name, value);
  if (!inserted) it->second = std::max(it->second, value);
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauge(name, v);
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

std::string Registry::to_json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [kind, map] :
       {std::pair{"counters", &counters_}, std::pair{"gauges", &gauges_}}) {
    out += "  \"" + std::string(kind) + "\": {";
    first = true;
    for (const auto& [name, v] : *map) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + json::escape(name) + "\": " + std::to_string(v);
    }
    out += first ? "},\n" : "\n  },\n";
  }
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::escape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"min\": " + std::to_string(h.count > 0 ? h.min : 0) +
           ", \"max\": " + std::to_string(h.max) + ", \"buckets\": [";
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Registry Registry::from_json(const json::Field& f) {
  f.keys({"counters", "gauges", "histograms"});
  Registry r;
  for (const auto& [name, v] : f["counters"].entries()) r.add(name, v.count());
  for (const auto& [name, v] : f["gauges"].entries()) r.gauge(name, v.count());
  for (const auto& [name, v] : f["histograms"].entries()) {
    v.keys({"count", "sum", "min", "max", "buckets"});
    auto& h = r.histogram(name);
    h.count = v["count"].count();
    h.sum = v["sum"].count();
    const auto min = v["min"].count();
    if (h.count > 0) h.min = min;  // an empty histogram renders min as 0
    h.max = v["max"].count();
    const auto buckets = v["buckets"].items();
    if (buckets.size() != Histogram::kBuckets) {
      v["buckets"].fail("expected " + std::to_string(Histogram::kBuckets) +
                        " buckets");
    }
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      h.buckets[i] = buckets[i].count();
    }
  }
  return r;
}

void ApiMetrics::record(const std::string& name, std::uint64_t cycles, bool ok,
                        bool crashed, bool hung) {
  auto& fn = functions[name];
  ++fn.calls;
  if (crashed) ++fn.crashes;
  else if (hung) ++fn.hangs;
  else if (!ok) ++fn.errors;
  fn.cycles.observe(cycles);
}

void ApiMetrics::merge(const ApiMetrics& other) {
  for (const auto& [name, fn] : other.functions) {
    auto& mine = functions[name];
    mine.calls += fn.calls;
    mine.errors += fn.errors;
    mine.crashes += fn.crashes;
    mine.hangs += fn.hangs;
    mine.cycles.merge(fn.cycles);
  }
}

void ApiMetrics::export_into(Registry& r) const {
  for (const auto& [name, fn] : functions) {
    const std::string base = "api." + name;
    r.add(base + ".calls", fn.calls);
    if (fn.errors > 0) r.add(base + ".errors", fn.errors);
    if (fn.crashes > 0) r.add(base + ".crashes", fn.crashes);
    if (fn.hangs > 0) r.add(base + ".hangs", fn.hangs);
    r.histogram(base + ".cycles").merge(fn.cycles);
  }
}

}  // namespace gf::obs
