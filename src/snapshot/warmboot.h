// Warm-boot snapshots for campaign runs.
//
// A campaign run's bring-up — compile the OS image, boot the kernel, build
// the SPECWeb file set, start the server — is identical for every run of a
// (OS version, server) cell. Following ZOFI's clone-the-warmed-process
// model, this subsystem performs the bring-up ONCE per cell, captures the
// complete machine + kernel state and a copy of the server object right
// after server start and the deterministic warm-up serve
// (spec::warm_server), and lets every run reconstruct its private SUB from
// the shared snapshot in O(memory copy): no MiniC compilation, no boot
// execution, no file-set regeneration (disk content is copy-on-write, so
// runs share file bytes until they write).
//
// Bit-identity: the capture builds the SUB exactly as a cold Controller's
// constructor does and then calls bring_up(), the same function a cold
// Controller calls at run entry, so the restored machine resumes at the
// exact cycle/tick counters a cold run would have — campaign results are
// bit-identical with snapshots on or off (tests/test_snapshot.cpp).
#pragma once

#include <memory>
#include <string>

#include "os/kernel.h"
#include "spec/fileset.h"
#include "web/server.h"

namespace gf::snapshot {

/// Everything a campaign run needs to reconstruct a warmed SUB: kernel
/// state (machine memory, images, boot replay, disk, ticks), a copy of the
/// warmed server bound to no OS (web::WebServer::image) and the file set's
/// metadata. Read-only after capture — shared across worker threads via
/// shared_ptr<const>.
struct WarmSnapshot {
  os::KernelSnapshot kernel;
  std::shared_ptr<const web::WebServer> server;
  spec::Fileset fileset;
  /// Guest cycles the captured bring-up consumed (boot + server start) —
  /// what every warm run *avoids* re-executing; exported as the
  /// snapshot.bringup_cycles gauge.
  std::uint64_t capture_cycles = 0;
};

/// The SUB bring-up, run by a cold Controller at run entry and by
/// capture_warm_boot: OS reboot, server start (throws when the server does
/// not start on the healthy OS), then the deterministic warm-up serve.
void bring_up(os::Kernel& kernel, web::WebServer& server,
              const spec::Fileset& files);

/// Builds one cold SUB cell (kernel of `version`, populated file set,
/// server `server_name`), runs bring_up() and captures the warmed state.
/// Throws when the server fails to start on the pristine OS.
std::shared_ptr<const WarmSnapshot> capture_warm_boot(
    os::OsVersion version, const std::string& server_name);

}  // namespace gf::snapshot
