#include "swfit/faultload.h"

#include <cstdio>
#include <sstream>

namespace gf::swfit {

std::array<int, kNumFaultTypes> Faultload::counts_by_type() const {
  std::array<int, kNumFaultTypes> counts{};
  for (const auto& f : faults) ++counts[static_cast<std::size_t>(f.type)];
  return counts;
}

namespace {

std::string hex_instr(const isa::Instr& in) {
  std::uint8_t buf[isa::kInstrSize];
  isa::encode(in, buf);
  char out[2 * isa::kInstrSize + 1];
  for (std::size_t i = 0; i < isa::kInstrSize; ++i) {
    std::snprintf(out + 2 * i, 3, "%02x", buf[i]);
  }
  return out;
}

isa::Instr parse_instr(const std::string& hex) {
  if (hex.size() != 2 * isa::kInstrSize) {
    throw FaultloadError("bad instruction encoding: " + hex);
  }
  std::uint8_t buf[isa::kInstrSize];
  for (std::size_t i = 0; i < isa::kInstrSize; ++i) {
    const auto byte = hex.substr(2 * i, 2);
    try {
      buf[i] = static_cast<std::uint8_t>(std::stoul(byte, nullptr, 16));
    } catch (const std::exception&) {
      throw FaultloadError("bad instruction encoding: " + hex);
    }
  }
  const auto in = isa::decode(buf);
  if (!in) throw FaultloadError("undecodable instruction: " + hex);
  return *in;
}

}  // namespace

std::string Faultload::serialize() const {
  std::ostringstream out;
  out << "faultload v1\n";
  out << "target " << target << "\n";
  char dig[32];
  std::snprintf(dig, sizeof dig, "%016llx", static_cast<unsigned long long>(digest));
  out << "digest " << dig << "\n";
  out << "count " << faults.size() << "\n";
  for (const auto& f : faults) {
    out << "fault " << fault_type_name(f.type) << " " << f.function << " "
        << f.addr << " " << f.window();
    for (const auto& in : f.original) out << " " << hex_instr(in);
    for (const auto& in : f.mutated) out << " " << hex_instr(in);
    out << "\n";
  }
  return out.str();
}

Faultload Faultload::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  Faultload fl;
  if (!std::getline(in, line) || line != "faultload v1") {
    throw FaultloadError("bad header");
  }
  std::size_t expected = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "target") {
      ls >> fl.target;
    } else if (key == "digest") {
      std::string hex;
      ls >> hex;
      try {
        fl.digest = std::stoull(hex, nullptr, 16);
      } catch (const std::exception&) {
        throw FaultloadError("bad digest: " + hex);
      }
    } else if (key == "count") {
      ls >> expected;
    } else if (key == "fault") {
      FaultLocation f;
      std::string type_name;
      std::size_t window = 0;
      ls >> type_name >> f.function >> f.addr >> window;
      const auto t = parse_fault_type(type_name);
      if (!t) throw FaultloadError("unknown fault type: " + type_name);
      f.type = *t;
      if (window == 0 || window > 16) throw FaultloadError("bad window size");
      std::string hex;
      for (std::size_t i = 0; i < window; ++i) {
        if (!(ls >> hex)) throw FaultloadError("truncated fault line");
        f.original.push_back(parse_instr(hex));
      }
      for (std::size_t i = 0; i < window; ++i) {
        if (!(ls >> hex)) throw FaultloadError("truncated fault line");
        f.mutated.push_back(parse_instr(hex));
      }
      fl.faults.push_back(std::move(f));
    } else {
      throw FaultloadError("unknown directive: " + key);
    }
  }
  if (fl.faults.size() != expected) {
    throw FaultloadError("fault count mismatch");
  }
  return fl;
}

bool Faultload::matches(const isa::Image& img) const {
  return matches(img.code_digest(), img.name());
}

bool Faultload::matches(std::uint64_t code_digest,
                        const std::string& image_name) const {
  return digest == code_digest && target == image_name;
}

}  // namespace gf::swfit
