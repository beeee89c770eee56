#include "depbench/profiler.h"

#include "web/server.h"

namespace gf::depbench {

std::vector<std::string> ApiProfile::relevant_functions(double min_avg_pct) const {
  std::vector<std::string> out;
  for (const auto& fn : os::api_functions()) {
    bool used_by_all = !columns.empty();
    for (const auto& col : columns) {
      const auto it = col.pct.find(fn.name);
      if (it == col.pct.end() || it->second <= 0.0) {
        used_by_all = false;
        break;
      }
    }
    if (used_by_all && average_pct(fn.name) >= min_avg_pct) {
      out.emplace_back(fn.name);
    }
  }
  return out;
}

double ApiProfile::average_pct(const std::string& fn) const {
  if (columns.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& col : columns) {
    const auto it = col.pct.find(fn);
    if (it != col.pct.end()) sum += it->second;
  }
  return sum / static_cast<double>(columns.size());
}

double ApiProfile::total_coverage(double min_avg_pct) const {
  double sum = 0.0;
  for (const auto& fn : relevant_functions(min_avg_pct)) sum += average_pct(fn);
  return sum;
}

ApiProfile Profiler::profile(os::OsVersion version,
                             const std::vector<std::string>& server_names) const {
  ApiProfile profile;
  for (const auto& name : server_names) {
    os::Kernel kernel(version);
    os::OsApi api(kernel);
    spec::Fileset fileset(kernel.disk());
    spec::WorkloadGenerator gen(fileset, cfg_.seed);

    obs::ApiMetrics metrics;
    api.set_metrics(&metrics);

    auto server = web::make_server(name, api);
    if (!server->start()) continue;

    spec::ClientConfig ccfg;
    ccfg.connections = cfg_.connections;
    spec::SpecClient client(ccfg);
    client.run_window(*server, gen, 0, cfg_.window_ms);
    server->stop();

    std::uint64_t total = 0;
    for (const auto& [fn, m] : metrics.functions) total += m.calls;
    ProfileColumn col;
    col.server = name;
    col.total_calls = total;
    if (total > 0) {
      for (const auto& [fn, m] : metrics.functions) {
        col.pct[fn] =
            100.0 * static_cast<double>(m.calls) / static_cast<double>(total);
      }
    }
    profile.columns.push_back(std::move(col));
  }
  return profile;
}

}  // namespace gf::depbench
