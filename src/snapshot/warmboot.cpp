#include "snapshot/warmboot.h"

#include <stdexcept>

#include "os/api.h"
#include "spec/client.h"

namespace gf::snapshot {

void bring_up(os::Kernel& kernel, web::WebServer& server,
              const spec::Fileset& files) {
  kernel.reboot();
  if (!server.start()) {
    throw std::runtime_error("server failed to start on a healthy OS");
  }
  // Bring-up ends with the server *warmed*, not merely started: every run —
  // baseline, profile, or a single-fault exposure — measures a SUB in its
  // steady serving state, the state the paper's long sequential slots put
  // it in before most injections.
  spec::warm_server(server, files);
}

std::shared_ptr<const WarmSnapshot> capture_warm_boot(
    os::OsVersion version, const std::string& server_name,
    const spec::FilesetConfig& fileset) {
  // A cold Controller's path to its first run: constructor (kernel boot,
  // file-set population, server construction), then bring_up at run entry.
  // Any other guest activity here would shift the restored cycle/tick
  // counters away from a cold run's and break the bit-identity guarantee
  // (guarded by tests/test_snapshot.cpp).
  os::Kernel kernel(version);
  os::OsApi api(kernel);
  spec::Fileset files(kernel.disk(), fileset);
  auto server = web::make_server(server_name, api);
  bring_up(kernel, *server, files);

  auto snap = std::make_shared<WarmSnapshot>();
  snap->kernel = kernel.snapshot();
  snap->server = server->save_process();
  snap->server_name = server_name;
  snap->fileset = fileset;
  snap->capture_cycles = kernel.machine().total_cycles();
  return snap;
}

}  // namespace gf::snapshot
