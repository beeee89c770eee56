#include "obs/profile.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"

namespace gf::obs {

namespace {

using FD = FunctionDelta;
// The shares are not rendered: a decoded delta carries them as 0.
const json::Member<FD> kDelta[] = {{"function", &FD::name},
                                   {"base", &FD::base_samples},
                                   {"fault", &FD::fault_samples},
                                   {"delta", &FD::delta}};

}  // namespace

void Profile::add(const std::string& fn, std::uint64_t n) {
  if (n == 0) return;
  functions[fn] += n;
  total += n;
}

void Profile::merge(const Profile& other) {
  if (stride == 0) stride = other.stride;
  for (const auto& [name, n] : other.functions) {
    functions[name] += n;
  }
  total += other.total;
}

double Profile::share(const std::string& fn) const noexcept {
  if (total == 0) return 0;
  const auto it = functions.find(fn);
  if (it == functions.end()) return 0;
  return static_cast<double>(it->second) / static_cast<double>(total);
}

std::string Profile::to_json() const {
  std::string out = "{\"stride\": " + std::to_string(stride) +
                    ", \"total\": " + std::to_string(total) +
                    ", \"functions\": {";
  bool first = true;
  for (const auto& [name, n] : functions) {  // std::map: sorted keys
    out += first ? "" : ", ";
    first = false;
    out += "\"" + json::escape(name) + "\": " + std::to_string(n);
  }
  out += "}}";
  return out;
}

Profile Profile::from_json(const json::Field& f) {
  f.keys({"stride", "total", "functions"});
  Profile p;
  p.stride = f["stride"].count();
  p.total = f["total"].count();
  std::uint64_t sum = 0;
  for (const auto& [name, n] : f["functions"].entries()) {
    sum += p.functions[name] = n.count();
  }
  if (sum != p.total) f["total"].fail("not the sum of the function counts");
  return p;
}

Divergence profile_divergence(const Profile& base, const Profile& fault,
                              std::size_t top_n) {
  Divergence d;
  // Union of both function sets, via the sorted maps.
  std::map<std::string, FunctionDelta> union_;
  for (const auto& [name, n] : base.functions) {
    auto& fd = union_[name];
    fd.name = name;
    fd.base_samples = n;
  }
  for (const auto& [name, n] : fault.functions) {
    auto& fd = union_[name];
    fd.name = name;
    fd.fault_samples = n;
  }
  double l1 = 0;
  for (auto& [name, fd] : union_) {
    fd.base_share = base.total == 0 ? 0
                                    : static_cast<double>(fd.base_samples) /
                                          static_cast<double>(base.total);
    fd.fault_share = fault.total == 0 ? 0
                                      : static_cast<double>(fd.fault_samples) /
                                            static_cast<double>(fault.total);
    fd.delta = fd.fault_share - fd.base_share;
    l1 += std::abs(fd.delta);
    d.deltas.push_back(fd);
  }
  d.score = 0.5 * l1;
  std::sort(d.deltas.begin(), d.deltas.end(),
            [](const FunctionDelta& a, const FunctionDelta& b) {
              const double ma = std::abs(a.delta), mb = std::abs(b.delta);
              if (ma != mb) return ma > mb;
              return a.name < b.name;
            });
  if (top_n > 0 && d.deltas.size() > top_n) d.deltas.resize(top_n);
  return d;
}

std::string Divergence::to_json() const {
  std::string out = "{\"score\": " + json::number(score) + ", \"deltas\": [";
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += json::object_json(deltas[i], kDelta);
  }
  out += "]}";
  return out;
}

Divergence Divergence::from_json(const json::Field& f) {
  f.keys({"score", "deltas"});
  Divergence d;
  d.score = f["score"].number();
  if (!(d.score >= 0 && d.score <= 1)) f["score"].fail("out of [0, 1]");
  for (const auto& e : f["deltas"].items()) {
    d.deltas.push_back(json::read_members(e, kDelta));
  }
  return d;
}

void append_collapsed(std::string& out, const std::string& prefix,
                      const Profile& p) {
  for (const auto& [name, n] : p.functions) {
    out += prefix;
    out += ';';
    out += name;
    out += ' ';
    out += std::to_string(n);
    out += '\n';
  }
}

}  // namespace gf::obs
