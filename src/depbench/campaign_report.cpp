#include "depbench/campaign_report.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/chrome_trace.h"
#include "obs/json.h"

namespace gf::depbench {

namespace {

using obs::json::escape;
using obs::json::Field;
using obs::json::number;
using obs::json::Member;
using obs::json::object_json;
using obs::json::read_members;

using W = spec::WindowMetrics;
const Member<W> kWindow[] = {
    {"duration_ms", &W::duration_ms}, {"ops", &W::ops},
    {"errors", &W::errors},           {"bytes", &W::bytes},
    {"thr", &W::thr},                 {"rtm_ms", &W::rtm_ms},
    {"er_pct", &W::er_pct},           {"spc", &W::spc},
    {"cc_pct", &W::cc_pct}};

using C = CampaignCounters;
const Member<C> kCounters[] = {{"mis", &C::mis},
                               {"kns", &C::kns},
                               {"kcp", &C::kcp},
                               {"faults_injected", &C::faults_injected},
                               {"self_restarts", &C::self_restarts}};

using D = DependabilityMetrics;
const Member<D> kDerived[] = {
    {"spcf", &D::spcf},       {"thrf", &D::thrf},
    {"rtmf", &D::rtmf},       {"erf_pct", &D::erf_pct},
    {"admf", &D::admf},       {"spc_rel", &D::spc_rel},
    {"thr_rel", &D::thr_rel}};

using O = RunnerOptions;
const Member<O> kOptions[] = {
    {"iterations", &O::iterations},
    {"stride", &O::stride},
    {"time_scale", &O::time_scale},
    {"baseline_window_ms", &O::baseline_window_ms},
    {"seed", &O::seed},
    {"warm_boot", &O::warm_boot},
    {"trace", &O::trace},
    {"profile_stride", &O::profile_stride}};

CampaignManifest build_manifest(const std::vector<ExperimentCell>& cells,
                                const RunnerOptions& opt,
                                const CampaignObs* obs) {
  CampaignManifest m{opt, {}, {}, {}};
  if (!opt.profile) m.options.profile_stride = 0;
  for (const auto& cell : cells) {
    ManifestCell mc{{cell.os_name, cell.server_name, cell.baseline, {}},
                    derive_metrics(cell)};
    for (const auto& it : cell.iterations) {
      mc.iterations.push_back({it.metrics, it.counters, {}});
    }
    m.cells.push_back(std::move(mc));
  }
  if (obs != nullptr) {
    for (auto& c : collect_profiles(*obs)) {
      c.divergence = profile_divergence(c.baseline, c.faults, 10);
      m.profiles.push_back(std::move(c));  // without the runs
    }
    m.metrics = obs->metrics;
  }
  return m;
}

/// The members of a CellProfile (the caller checks the object's key set).
/// Decoders assign member by member: a DecodeError thrown inside a braced
/// aggregate initializer can destroy the members built so far twice (GCC 12).
CellProfile cell_profile_from(const Field& f) {
  CellProfile p;
  p.cell = f["cell"].string();
  p.baseline = obs::Profile::from_json(f["baseline"]);
  p.faults = obs::Profile::from_json(f["faults"]);
  p.divergence = obs::Divergence::from_json(f["divergence"]);
  return p;
}

// Minimal HTML escaping for the few strings we interpolate.
std::string html(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

const std::vector<CampaignArtifact>& campaign_artifacts() {
  using R = const CampaignResults&;
  static const std::vector<CampaignArtifact> table = {
      {"metrics-json", "manifest.json", "campaign manifest", kNeedObs,
       kNeedObs, true,
       [](R r) { return campaign_manifest_json(r.cells, r.opt, r.obs); }},
      {"html-report", "report.html", "html report", kNeedObs, 0, true,
       [](R r) { return campaign_html_report(r.cells, r.opt, r.obs); }},
      {"journal-out", "journal.jsonl", "event journal", kNeedObs, 0, true,
       [](R r) {
         std::ostringstream out;
         write_campaign_journal(out, *r.obs);
         return out.str();
       }},
      {"chrome-trace", "chrome_trace.json", "chrome trace", kNeedObs, 0, false,
       [](R r) { return campaign_chrome_trace(*r.obs); }},
      {"profile-json", "profile.json", "cycle profile",
       kNeedObs | kNeedProfile, 0, true,
       [](R r) { return campaign_profile_json(r.cells, r.opt, *r.obs); }},
      {"flame-out", "flame.txt", "flamegraph", kNeedObs | kNeedProfile, 0,
       true, [](R r) { return campaign_flamegraph(*r.obs); }},
      {"store-json", "store.json", "store telemetry", kNeedStore, 0, false,
       [](R r) { return r.store->to_json(); }},
      {"sched-json", "sched.json", "scheduler telemetry", 0, 0, false,
       [](R r) { return r.sched->to_json(); }},
      {"trace-out", "activations.jsonl", "activation event log", kNeedTrace, 0,
       true,
       [](R r) {
         std::ostringstream out;
         for (const auto& cell : r.cells) {
           for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
             trace::write_jsonl(out,
                                cell.os_name + "/" + cell.server_name +
                                    "/iter" + std::to_string(it),
                                cell.iterations[it].activations);
           }
         }
         return out.str();
       }},
      {"activation-json", "activation_summary.json", "activation summary",
       kNeedTrace, 0, true,
       [](R r) {
         return trace::activation_summary_json(
             campaign_activation_stats(r.cells));
       }},
  };
  return table;
}

bool renders(const CampaignArtifact& artifact, const CampaignResults& results) {
  unsigned have = 0;
  if (results.obs != nullptr) have |= kNeedObs;
  if (results.opt.trace) have |= kNeedTrace;
  if (results.opt.profile) have |= kNeedProfile;
  if (results.store != nullptr) have |= kNeedStore;
  return (artifact.need & ~artifact.optional & ~have) == 0;
}

std::vector<std::pair<std::string, std::string>> render_campaign_artifacts(
    const CampaignResults& results) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& artifact : campaign_artifacts()) {
    if (artifact.deterministic && renders(artifact, results)) {
      files.emplace_back(artifact.file, artifact.render(results));
    }
  }
  return files;
}

trace::ActivationStats campaign_activation_stats(
    const std::vector<ExperimentCell>& cells) {
  trace::ActivationStats stats;
  for (const auto& cell : cells) {
    stats.merge(trace::aggregate(collect_activations(cell)));
  }
  return stats;
}

std::string CampaignManifest::to_json() const {
  std::string out = "{\n\"schema\": \"genfault-campaign/1\",\n";
  out += "\"options\": " + object_json(options, kOptions) + ",\n";
  out += "\"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = cells[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"os\": \"" + escape(cell.os_name) + "\", \"server\": \"" +
           escape(cell.server_name) + "\",\n";
    out += " \"baseline\": " + object_json(cell.baseline, kWindow) + ",\n";
    out += " \"iterations\": [";
    for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
      const auto& run = cell.iterations[it];
      out += it == 0 ? "\n" : ",\n";
      out += "  {\"metrics\": " + object_json(run.metrics, kWindow) +
             ", \"counters\": " + object_json(run.counters, kCounters) + "}";
    }
    out += "],\n";
    out += " \"derived\": " + object_json(cell.derived, kDerived) + "}";
  }
  out += "\n],\n";
  out += "\"profiles\": ";
  if (profiles.empty()) {
    out += "null,\n";
  } else {
    out += "[";
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const auto& p = profiles[i];
      out += i == 0 ? "\n" : ",\n";
      out += "{\"cell\": \"" + escape(p.cell) +
             "\", \"baseline\": " + p.baseline.to_json() +
             ", \"faults\": " + p.faults.to_json() +
             ", \"divergence\": " + p.divergence.to_json() + "}";
    }
    out += "\n],\n";
  }
  out += "\"metrics\": ";
  out += metrics ? metrics->to_json() : std::string("null\n");
  out += "}\n";
  return out;
}

CampaignManifest CampaignManifest::from_json(const Field& f) {
  f.keys({"schema", "options", "cells", "profiles", "metrics"});
  f["schema"].expect("genfault-campaign/1");
  CampaignManifest m;
  m.options = read_members(f["options"], kOptions);
  for (const auto& c : f["cells"].items()) {
    c.keys({"os", "server", "baseline", "iterations", "derived"});
    auto& cell = m.cells.emplace_back();
    cell.os_name = c["os"].string();
    cell.server_name = c["server"].string();
    cell.baseline = read_members(c["baseline"], kWindow);
    for (const auto& it : c["iterations"].items()) {
      it.keys({"metrics", "counters"});
      auto& run = cell.iterations.emplace_back();
      run.metrics = read_members(it["metrics"], kWindow);
      run.counters = read_members(it["counters"], kCounters);
    }
    cell.derived = read_members(c["derived"], kDerived);
  }
  if (const auto profiles = f["profiles"]; !profiles.is_null()) {
    for (const auto& p : profiles.items()) {
      p.keys({"cell", "baseline", "faults", "divergence"});
      m.profiles.push_back(cell_profile_from(p));
    }
    if (m.profiles.empty()) profiles.fail("expected null or a non-empty array");
  }
  if (const auto metrics = f["metrics"]; !metrics.is_null()) {
    m.metrics = obs::Registry::from_json(metrics);
  }
  return m;
}

std::string campaign_manifest_json(const std::vector<ExperimentCell>& cells,
                                   const RunnerOptions& opt,
                                   const CampaignObs* obs) {
  return build_manifest(cells, opt, obs).to_json();
}

std::string campaign_html_report(const std::vector<ExperimentCell>& cells,
                                 const RunnerOptions& opt,
                                 const CampaignObs* obs) {
  std::string out =
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
      "<title>genfault campaign report</title>\n"
      "<style>\n"
      "body{font:14px/1.4 system-ui,sans-serif;margin:2em;max-width:70em}\n"
      "table{border-collapse:collapse;margin:0.5em 0}\n"
      "td,th{border:1px solid #bbb;padding:0.25em 0.6em;text-align:right}\n"
      "th{background:#eee}td.l,th.l{text-align:left}\n"
      "details{margin:0.5em 0}summary{cursor:pointer;font-weight:600}\n"
      ".bar{background:#4a7;display:inline-block;height:0.8em}\n"
      "</style></head><body>\n"
      "<h1>Dependability benchmark report</h1>\n";
  // Scheduling knobs (jobs/chunk/steal) are omitted: the report must be
  // byte-identical for any decomposition of the same campaign.
  out += "<p>iterations=" + std::to_string(opt.iterations) +
         " stride=" + std::to_string(opt.stride) +
         " seed=" + std::to_string(opt.seed) +
         " time_scale=" + number(opt.time_scale) + "</p>\n";

  // Table 5: one row per cell, drill-down into iterations per cell.
  out +=
      "<h2>Results (Table 5)</h2>\n<table>\n"
      "<tr><th class=l>cell</th><th>SPCf</th><th>THRf</th><th>RTMf ms</th>"
      "<th>ERf %</th><th>ADMf</th><th>SPC rel</th><th>THR rel</th></tr>\n";
  for (const auto& cell : cells) {
    const auto d = derive_metrics(cell);
    out += "<tr><td class=l>" + html(cell.server_name) + " on " +
           html(cell.os_name) + "</td><td>" + fmt2(d.spcf) + "</td><td>" +
           fmt2(d.thrf) + "</td><td>" + fmt2(d.rtmf) + "</td><td>" +
           fmt2(d.erf_pct) + "</td><td>" + fmt2(d.admf) + "</td><td>" +
           fmt2(d.spc_rel) + "</td><td>" + fmt2(d.thr_rel) + "</td></tr>\n";
  }
  out += "</table>\n";

  // Fig 5: relative performance retention bars.
  out += "<h2>Relative performance under faults (Fig 5)</h2>\n";
  for (const auto& cell : cells) {
    const auto d = derive_metrics(cell);
    const int w = static_cast<int>(d.thr_rel * 300);
    out += "<div>" + html(cell.server_name) + " on " + html(cell.os_name) +
           ": <span class=bar style=\"width:" + std::to_string(w) +
           "px\"></span> " + fmt2(d.thr_rel * 100) + "%</div>\n";
  }

  // Per-cell drill-down.
  out += "<h2>Per-cell detail</h2>\n";
  for (const auto& cell : cells) {
    out += "<details><summary>" + html(cell.server_name) + " on " +
           html(cell.os_name) + "</summary>\n<table>\n"
           "<tr><th class=l>run</th><th>ops</th><th>THR</th><th>RTM ms</th>"
           "<th>ER %</th><th>SPC</th><th>MIS</th><th>KNS</th><th>KCP</th>"
           "<th>self-restarts</th><th>faults</th></tr>\n";
    auto row = [&](const std::string& name, const spec::WindowMetrics& m,
                   const CampaignCounters* c) {
      out += "<tr><td class=l>" + html(name) + "</td><td>" +
             std::to_string(m.ops) + "</td><td>" + fmt2(m.thr) + "</td><td>" +
             fmt2(m.rtm_ms) + "</td><td>" + fmt2(m.er_pct) + "</td><td>" +
             std::to_string(m.spc) + "</td>";
      if (c != nullptr) {
        out += "<td>" + std::to_string(c->mis) + "</td><td>" +
               std::to_string(c->kns) + "</td><td>" + std::to_string(c->kcp) +
               "</td><td>" + std::to_string(c->self_restarts) + "</td><td>" +
               std::to_string(c->faults_injected) + "</td>";
      } else {
        out += "<td>-</td><td>-</td><td>-</td><td>-</td><td>-</td>";
      }
      out += "</tr>\n";
    };
    row("baseline", cell.baseline, nullptr);
    for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
      row("iteration " + std::to_string(it), cell.iterations[it].metrics,
          &cell.iterations[it].counters);
    }
    out += "</table>\n</details>\n";
  }

  // Cycle attribution: where each cell's execution went under faults vs its
  // baseline (top-10 share deltas of the differential profile), plus an
  // inline flame bar per function scaled to the faulty-run share.
  if (obs != nullptr) {
    const auto profiles = collect_profiles(*obs);
    if (!profiles.empty()) {
      out += "<h2>Cycle profiles (fault vs baseline)</h2>\n";
      for (const auto& cp : profiles) {
        const auto div = profile_divergence(cp.baseline, cp.faults);
        out += "<details><summary>" + html(cp.cell) + " &mdash; divergence " +
               fmt2(div.score) + "</summary>\n<table>\n"
               "<tr><th class=l>function</th><th>baseline %</th>"
               "<th>faulty %</th><th>&Delta; pp</th><th class=l></th></tr>\n";
        const std::size_t top = std::min<std::size_t>(10, div.deltas.size());
        for (std::size_t i = 0; i < top; ++i) {
          const auto& fd = div.deltas[i];
          const int w = static_cast<int>(fd.fault_share * 200);
          out += "<tr><td class=l>" + html(fd.name) + "</td><td>" +
                 fmt2(fd.base_share * 100) + "</td><td>" +
                 fmt2(fd.fault_share * 100) + "</td><td>" +
                 fmt2(fd.delta * 100) + "</td><td class=l><span class=bar "
                 "style=\"width:" + std::to_string(w) +
                 "px\"></span></td></tr>\n";
        }
        out += "</table>\n</details>\n";
      }
    }
  }

  // Merged metrics drill-down (counters only; histograms live in the JSON).
  if (obs != nullptr) {
    out += "<h2>Campaign metrics</h2>\n<details><summary>" +
           std::to_string(obs->metrics.counters().size()) +
           " counters</summary>\n<table>\n"
           "<tr><th class=l>counter</th><th>value</th></tr>\n";
    for (const auto& [name, v] : obs->metrics.counters()) {
      out += "<tr><td class=l>" + html(name) + "</td><td>" +
             std::to_string(v) + "</td></tr>\n";
    }
    out += "</table>\n</details>\n";
    out += "<details><summary>" +
           std::to_string(obs->metrics.histograms().size()) +
           " histograms</summary>\n<table>\n"
           "<tr><th class=l>histogram</th><th>count</th><th>mean</th>"
           "<th>min</th><th>max</th></tr>\n";
    for (const auto& [name, h] : obs->metrics.histograms()) {
      out += "<tr><td class=l>" + html(name) + "</td><td>" +
             std::to_string(h.count) + "</td><td>" + fmt2(h.mean()) +
             "</td><td>" + std::to_string(h.count > 0 ? h.min : 0) +
             "</td><td>" + std::to_string(h.max) + "</td></tr>\n";
    }
    out += "</table>\n</details>\n";
  }

  out += "</body></html>\n";
  return out;
}

std::vector<ProfileCell> collect_profiles(const CampaignObs& obs) {
  std::vector<ProfileCell> out;
  for (const auto& slot : obs.tasks) {
    if (slot.obs.profile.stride == 0) continue;  // profiling off / empty slot
    if (out.empty() || out.back().cell != slot.cell) {
      out.emplace_back().cell = slot.cell;
    }
    auto& cp = out.back();
    if (slot.label == "baseline") {
      cp.baseline.merge(slot.obs.profile);
    } else {
      cp.faults.merge(slot.obs.profile);
      cp.runs.push_back({slot.label, slot.obs.profile, {}});
    }
  }
  return out;
}

std::string ProfileDocument::to_json() const {
  std::string out = "{\n\"schema\": \"genfault-profile/1\",\n";
  out += "\"stride\": " + std::to_string(stride) + ",\n";
  out += "\"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"cell\": \"" + escape(c.cell) + "\",\n";
    out += " \"baseline\": " + c.baseline.to_json() + ",\n";
    out += " \"faults\": " + c.faults.to_json() + ",\n";
    out += " \"divergence\": " + c.divergence.to_json() + ",\n";
    out += " \"runs\": [";
    for (std::size_t k = 0; k < c.runs.size(); ++k) {
      const auto& r = c.runs[k];
      out += k == 0 ? "\n" : ",\n";
      out += "  {\"label\": \"" + escape(r.label) +
             "\", \"profile\": " + r.profile.to_json() +
             ", \"divergence\": " + r.divergence.to_json() + "}";
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

ProfileDocument ProfileDocument::from_json(const Field& f) {
  f.keys({"schema", "stride", "cells"});
  f["schema"].expect("genfault-profile/1");
  ProfileDocument d;
  d.stride = f["stride"].count();
  for (const auto& c : f["cells"].items()) {
    c.keys({"cell", "baseline", "faults", "divergence", "runs"});
    auto& cell = d.cells.emplace_back();
    static_cast<CellProfile&>(cell) = cell_profile_from(c);
    for (const auto& r : c["runs"].items()) {
      r.keys({"label", "profile", "divergence"});
      auto& run = cell.runs.emplace_back();
      run.label = r["label"].string();
      run.profile = obs::Profile::from_json(r["profile"]);
      run.divergence = obs::Divergence::from_json(r["divergence"]);
    }
  }
  return d;
}

std::string campaign_profile_json(const std::vector<ExperimentCell>& cells,
                                  const RunnerOptions& opt,
                                  const CampaignObs& obs) {
  (void)cells;
  ProfileDocument d{opt.profile ? opt.profile_stride : 0,
                    collect_profiles(obs)};
  for (auto& c : d.cells) {
    c.divergence = profile_divergence(c.baseline, c.faults);
    for (auto& r : c.runs) {
      r.divergence = profile_divergence(c.baseline, r.profile, 10);
    }
  }
  return d.to_json();
}

std::string campaign_flamegraph(const CampaignObs& obs) {
  std::string out;
  for (const auto& slot : obs.tasks) {
    if (slot.obs.profile.stride == 0) continue;
    obs::append_collapsed(out, slot.cell + ";" + slot.label, slot.obs.profile);
  }
  return out;
}

void write_campaign_journal(std::ostream& os, const CampaignObs& obs) {
  for (const auto& slot : obs.tasks) {
    obs::write_jsonl(os, slot.cell + "/" + slot.label, slot.obs.journal);
  }
}

std::string campaign_chrome_trace(const CampaignObs& obs) {
  std::vector<obs::TaskTrack> tracks;
  tracks.reserve(obs.tasks.size());
  for (std::size_t i = 0; i < obs.tasks.size(); ++i) {
    const auto& slot = obs.tasks[i];
    obs::TaskTrack t;
    t.cell = slot.cell;
    t.label = slot.label;
    t.tid = static_cast<std::uint32_t>(i + 1);
    t.wall_start_us = slot.obs.wall_start_us;
    t.wall_end_us = slot.obs.wall_end_us;
    t.journal = &slot.obs.journal;
    tracks.push_back(std::move(t));
  }
  return obs::chrome_trace_json(tracks);
}

}  // namespace gf::depbench
