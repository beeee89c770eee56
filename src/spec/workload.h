// SPECWeb99-style workload generator: the operation mix (static GET /
// dynamic GET / POST) over the file set, with Zipf-like directory
// popularity. Deterministic in its seed — required for repeatable
// benchmark runs.
#pragma once

#include <cstdint>

#include "spec/fileset.h"
#include "util/rng.h"
#include "web/http.h"

namespace gf::spec {

struct WorkloadMix {
  double static_get = 70.0;
  double dynamic_get = 25.0;
  double post = 5.0;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(const Fileset& fs, std::uint64_t seed,
                    WorkloadMix mix = {});

  web::Request next();

  /// Expected size (bytes) of the file referenced by a request for `path`,
  /// reconstructed from the fileset (used by the client for validation).
  std::size_t size_of(const std::string& path) const;

 private:
  const Fileset& fs_;
  util::Rng rng_;
  WorkloadMix mix_;
  util::Zipf dir_zipf_;
};

}  // namespace gf::spec
