#include "depbench/campaign_diff.h"

#include <cmath>
#include <cstdio>

#include "depbench/campaign_report.h"
#include "obs/json.h"

namespace gf::depbench {

namespace {

using obs::json::escape;
using obs::json::Field;
using obs::json::Member;
using obs::json::number;
using obs::json::read_members;

// The derived §3.2 metrics gated per cell, in report order.
constexpr std::pair<const char*, double DependabilityMetrics::*> kDerived[] = {
    {"spcf", &DependabilityMetrics::spcf},
    {"thrf", &DependabilityMetrics::thrf},
    {"rtmf", &DependabilityMetrics::rtmf},
    {"erf_pct", &DependabilityMetrics::erf_pct},
    {"admf", &DependabilityMetrics::admf},
    {"spc_rel", &DependabilityMetrics::spc_rel},
    {"thr_rel", &DependabilityMetrics::thr_rel}};

// Counters summed over iterations, in report order, and whether they gate:
// faults_injected is campaign shape, not a dependability outcome.
struct CounterKey {
  const char* name;
  int CampaignCounters::*field;
  bool gated;
};
constexpr CounterKey kCounters[] = {
    {"mis", &CampaignCounters::mis, true},
    {"kns", &CampaignCounters::kns, true},
    {"kcp", &CampaignCounters::kcp, true},
    {"self_restarts", &CampaignCounters::self_restarts, true},
    {"faults_injected", &CampaignCounters::faults_injected, false}};

using MD = MetricDrift;
const Member<MD> kMetricDrift[] = {{"metric", &MD::metric},
                                   {"old", &MD::old_value},
                                   {"new", &MD::new_value},
                                   {"drift_pct", &MD::drift_pct},
                                   {"breach", &MD::breach}};

using CD = CounterDrift;
const Member<CD> kCounterDrift[] = {{"counter", &CD::counter},
                                    {"old", &CD::old_value},
                                    {"new", &CD::new_value},
                                    {"breach", &CD::breach}};

/// `[{...}, {...}]` on one line.
template <class S, std::size_t N>
std::string list_json(const std::vector<S>& items,
                      const Member<S> (&members)[N]) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + obs::json::object_json(items[i], members);
  }
  return out + "]";
}

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// Relative drift in percent. Both zero = 0; a value appearing from (or
/// collapsing to) zero is unbounded drift, clamped for display but always
/// beyond any threshold.
double drift_pct(double oldv, double newv) {
  if (oldv == newv) return 0;
  const double denom = std::abs(oldv);
  if (denom < 1e-12) return 1e9;
  return 100.0 * std::abs(newv - oldv) / denom;
}

std::uint64_t counter_sum(const ManifestCell& cell,
                          int CampaignCounters::*field) {
  std::uint64_t sum = 0;
  for (const auto& it : cell.iterations) {
    sum += static_cast<std::uint64_t>(it.counters.*field);
  }
  return sum;
}

std::string cell_name(const ExperimentCell& c) {
  return c.os_name + "/" + c.server_name;
}

const ManifestCell* find_cell(const CampaignManifest& m,
                              const std::string& name) {
  for (const auto& c : m.cells) {
    if (cell_name(c) == name) return &c;
  }
  return nullptr;
}

const CellProfile* find_profile(const CampaignManifest& m,
                                const std::string& name) {
  for (const auto& p : m.profiles) {
    if (p.cell == name) return &p;
  }
  return nullptr;
}

// Walks OLD's cell order (canonical) and reports NEW-only cells separately.
// A vanished or added cell is itself a breach: the matrix changed shape.
DiffReport compare(const CampaignManifest& oldm, const CampaignManifest& newm,
                   const DiffOptions& opt) {
  DiffReport r;
  r.threshold_pct = opt.threshold_pct;
  for (const auto& c : oldm.cells) {
    if (!find_cell(newm, cell_name(c))) r.missing_cells.push_back(cell_name(c));
  }
  for (const auto& c : newm.cells) {
    if (!find_cell(oldm, cell_name(c))) r.added_cells.push_back(cell_name(c));
  }
  r.breached = !r.missing_cells.empty() || !r.added_cells.empty();

  for (const auto& oc : oldm.cells) {
    const auto* nc = find_cell(newm, cell_name(oc));
    if (nc == nullptr) continue;
    CellDrift cd;
    cd.cell = cell_name(oc);
    for (const auto& [key, field] : kDerived) {
      const double ov = oc.derived.*field;
      const double nv = nc->derived.*field;
      const double drift = drift_pct(ov, nv);
      cd.derived.push_back({key, ov, nv, drift, drift > opt.threshold_pct});
    }
    for (const auto& k : kCounters) {
      const auto ov = counter_sum(oc, k.field);
      const auto nv = counter_sum(*nc, k.field);
      const bool breach =
          k.gated && drift_pct(static_cast<double>(ov),
                               static_cast<double>(nv)) > opt.threshold_pct;
      cd.counters.push_back({k.name, ov, nv, breach});
    }
    for (const auto& m : cd.derived) r.breached = r.breached || m.breach;
    for (const auto& c : cd.counters) r.breached = r.breached || c.breach;
    const auto* op = find_profile(oldm, cd.cell);
    const auto* np = find_profile(newm, cd.cell);
    if (op != nullptr && np != nullptr) {
      cd.profile_divergence =
          obs::profile_divergence(op->faults, np->faults, opt.top_n);
    }
    r.cells.push_back(std::move(cd));
  }
  return r;
}

std::string names_json(const std::vector<std::string>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + escape(names[i]) + "\"";
  }
  return out + "]";
}

std::vector<std::string> names_from(const Field& f) {
  std::vector<std::string> out;
  for (const auto& e : f.items()) out.push_back(e.string());
  return out;
}

}  // namespace

std::string DiffReport::to_json() const {
  std::string js = "{\n\"schema\": \"genfault-diff/1\",\n";
  js += "\"threshold_pct\": " + number(threshold_pct) + ",\n";
  js += "\"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    js += i == 0 ? "\n" : ",\n";
    js += "{\"cell\": \"" + escape(c.cell) + "\",\n";
    js += " \"derived\": " + list_json(c.derived, kMetricDrift) + ",\n";
    js += " \"counters\": " + list_json(c.counters, kCounterDrift) + ",\n";
    js += " \"profile_divergence\": ";
    js += c.profile_divergence ? c.profile_divergence->to_json() : "null";
    js += "}";
  }
  js += cells.empty() ? "],\n" : "\n],\n";
  js += "\"missing_cells\": " + names_json(missing_cells) + ",\n";
  js += "\"added_cells\": " + names_json(added_cells) + ",\n";
  js += "\"breached\": " + obs::json::value_json(breached) + "\n}\n";
  return js;
}

std::string DiffReport::text() const {
  std::string txt;
  for (const auto& c : cells) {
    std::string cell_txt;
    for (const auto& m : c.derived) {
      if (m.drift_pct > 0) {
        cell_txt += "  " + m.metric + ": " + fmt2(m.old_value) + " -> " +
                    fmt2(m.new_value) + " (" + fmt2(m.drift_pct) + "% drift" +
                    (m.breach ? ", BREACH)\n" : ")\n");
      }
    }
    for (const auto& n : c.counters) {
      if (n.old_value != n.new_value) {
        cell_txt += "  " + n.counter + ": " +
                    fmt2(static_cast<double>(n.old_value)) + " -> " +
                    fmt2(static_cast<double>(n.new_value)) +
                    (n.breach ? " (BREACH)\n" : "\n");
      }
    }
    if (c.profile_divergence && c.profile_divergence->score > 0) {
      const auto& div = *c.profile_divergence;
      cell_txt += "  profile divergence: " + fmt2(div.score);
      if (!div.deltas.empty()) {
        cell_txt += " (top: " + div.deltas.front().name + " " +
                    fmt2(div.deltas.front().delta * 100) + "pp)";
      }
      cell_txt += "\n";
    }
    if (!cell_txt.empty()) txt += c.cell + "\n" + cell_txt;
  }
  for (const auto& name : missing_cells) txt += "missing cell: " + name + "\n";
  for (const auto& name : added_cells) txt += "added cell: " + name + "\n";
  return txt.empty() ? "no drift\n" : txt;
}

DiffReport DiffReport::from_json(const Field& f) {
  f.keys({"schema", "threshold_pct", "cells", "missing_cells", "added_cells",
          "breached"});
  f["schema"].expect("genfault-diff/1");
  DiffReport r;
  r.threshold_pct = f["threshold_pct"].number();
  for (const auto& c : f["cells"].items()) {
    c.keys({"cell", "derived", "counters", "profile_divergence"});
    CellDrift cd;
    cd.cell = c["cell"].string();
    for (const auto& m : c["derived"].items()) {
      cd.derived.push_back(read_members(m, kMetricDrift));
    }
    for (const auto& n : c["counters"].items()) {
      cd.counters.push_back(read_members(n, kCounterDrift));
    }
    if (const auto pd = c["profile_divergence"]; !pd.is_null()) {
      cd.profile_divergence = obs::Divergence::from_json(pd);
    }
    r.cells.push_back(std::move(cd));
  }
  r.missing_cells = names_from(f["missing_cells"]);
  r.added_cells = names_from(f["added_cells"]);
  r.breached = f["breached"].boolean();
  return r;
}

CampaignDiff diff_campaigns(const std::string& old_manifest,
                            const std::string& new_manifest,
                            const DiffOptions& opt) {
  CampaignDiff d;
  CampaignManifest oldm, newm;
  try {
    oldm = obs::json::decode<CampaignManifest>(old_manifest);
  } catch (const obs::json::DecodeError& e) {
    d.error = std::string("OLD: ") + e.what();
    return d;
  }
  try {
    newm = obs::json::decode<CampaignManifest>(new_manifest);
  } catch (const obs::json::DecodeError& e) {
    d.error = std::string("NEW: ") + e.what();
    return d;
  }
  const auto report = compare(oldm, newm, opt);
  d.ok = true;
  d.breached = report.breached;
  d.text = report.text();
  d.json = report.to_json();
  return d;
}

}  // namespace gf::depbench
