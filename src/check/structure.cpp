// Engine 3: the structure fuzzer — persistence and text formats under
// corruption.
//
// Three sub-fuzzers per case:
//
//   store — commits a random batch of records, then damages the on-disk
//       state the way crashes and disk faults do (torn tails via the store's
//       own fault-injection hook, plus external truncations and bit flips on
//       segment/WAL), and re-opens. The oracle: opening never crashes (a
//       StoreError diagnostic is the only legal rejection), verify() reports
//       a clean index, and every record the recovered store serves is
//       byte-identical to SOME version actually committed under that key —
//       torn state may lose suffixes, never invent or corrupt payloads. An
//       undamaged close/reopen must serve every key's LAST version exactly.
//
//   isa — instruction encode/decode and assembler/disassembler round-trips:
//       compiled instructions survive encode∘decode byte-exactly and their
//       disassembly is an assembler fixpoint; random 8-byte mutations either
//       fail to decode or round-trip byte-exactly (fixed-width encoding has
//       no junk bits), with the disassembly fixpoint holding for whatever
//       decodes.
//
//   faultload — serialize/parse fixpoint on a real scanner faultload, then
//       random text corruption: parse() either throws FaultloadError (the
//       only legal rejection) or yields a structurally valid faultload
//       (windows in [1,16], original/mutated the same width).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/internal.h"
#include "check/progen.h"
#include "isa/assembler.h"
#include "isa/disassembler.h"
#include "isa/isa.h"
#include "minic/compiler.h"
#include "store/store.h"
#include "swfit/faultload.h"
#include "swfit/scanner.h"
#include "util/rng.h"

namespace gf::check {
namespace {

namespace fs = std::filesystem;
using internal::expect;
using internal::expect_same;
using internal::hex64;

// --- store fuzz --------------------------------------------------------------

using Payload = std::vector<std::uint8_t>;
using Versions = std::map<store::ResultKey, std::vector<Payload>>;

store::ResultKey random_key(util::Rng& rng) {
  return {rng.next(), rng.next()};
}

Payload random_payload(util::Rng& rng) {
  Payload p(rng.bounded(1501));
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.bounded(256));
  return p;
}

/// Commits 1..8 records (30% key reuse) and records every version.
Versions commit_batch(store::CampaignStore& store, util::Rng& rng) {
  Versions versions;
  std::vector<store::ResultKey> keys;
  const std::size_t n = 1 + rng.bounded(8);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = (!keys.empty() && rng.chance(0.3))
                         ? keys[rng.bounded(keys.size())]
                         : random_key(rng);
    if (versions.find(key) == versions.end()) keys.push_back(key);
    auto payload = random_payload(rng);
    store.put(key, payload);
    versions[key].push_back(std::move(payload));
  }
  return versions;
}

/// The recovered-store oracle: clean verify, every served payload matches a
/// committed version of its key, record count never exceeds commits.
void check_recovered(store::CampaignStore& store, const Versions& versions,
                     const std::string& what, CheckReport& report) {
  expect(store.verify() == 0, what + ": verify() found corrupt records",
         report);
  std::size_t commits = 0;
  for (const auto& [key, vers] : versions) {
    commits += vers.size();
    Payload got;
    if (!store.get(key, got)) continue;  // losing a tail record is legal
    const bool known =
        std::any_of(vers.begin(), vers.end(),
                    [&got](const Payload& v) { return v == got; });
    expect(known,
           what + ": key " + key.hex() + " served a payload (" +
               std::to_string(got.size()) + "B) matching no committed version",
           report);
  }
  expect(store.list().size() <= commits,
         what + ": more live records than commits", report);
}

void corrupt_file(const fs::path& path, util::Rng& rng, bool truncate) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return;
  if (truncate) {
    fs::resize_file(path, rng.bounded(size + 1), ec);
    return;
  }
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  const auto at = static_cast<std::streamoff>(rng.bounded(size));
  f.seekg(at);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ (1u << rng.bounded(8)));
  f.seekp(at);
  f.write(&byte, 1);
}

void store_fuzz(std::uint64_t cs, const fs::path& scratch, util::Rng& rng,
                CheckReport& report) {
  const fs::path dir = scratch / ("store_" + hex64(cs));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir.parent_path(), ec);

  if (rng.chance(0.5)) {
    // In-process torn tail via the store's fault-injection hook; the store
    // must stay open and usable afterwards.
    store::CampaignStore store(dir.string());
    const auto versions = commit_batch(store, rng);
    store.tear_tail_for_test(rng.bounded(41), rng.bounded(41));
    check_recovered(store, versions, "torn tail", report);
    const auto probe_key = random_key(rng);
    const auto probe = random_payload(rng);
    store.put(probe_key, probe);
    Payload back;
    expect(store.get(probe_key, back) && back == probe,
           "store unusable after tear_tail_for_test", report);
  } else {
    // External damage between process lifetimes.
    Versions versions;
    {
      store::CampaignStore store(dir.string());
      versions = commit_batch(store, rng);
    }
    const bool damage = rng.chance(0.75);
    if (damage) {
      const auto mode = rng.bounded(5);
      const fs::path seg = dir / "segment.gfs";
      const fs::path wal = dir / "wal.gfj";
      if (mode == 0) corrupt_file(wal, rng, /*truncate=*/true);
      if (mode == 1) corrupt_file(seg, rng, /*truncate=*/true);
      if (mode == 2) corrupt_file(wal, rng, /*truncate=*/false);
      if (mode == 3) corrupt_file(seg, rng, /*truncate=*/false);
      if (mode == 4) {
        corrupt_file(wal, rng, /*truncate=*/false);
        corrupt_file(seg, rng, /*truncate=*/false);
      }
    }
    try {
      store::CampaignStore store(dir.string());
      check_recovered(store, versions, damage ? "damaged reopen" : "reopen",
                      report);
      if (!damage) {
        // Undamaged close/reopen: every key serves its LAST version.
        for (const auto& [key, vers] : versions) {
          Payload got;
          expect(store.get(key, got) && got == vers.back(),
                 "clean reopen lost or changed key " + key.hex(), report);
        }
      }
    } catch (const store::StoreError&) {
      // Rejecting damaged state with a diagnostic is legal; crashing or
      // serving wrong bytes is not.
      expect(damage, "clean reopen threw StoreError", report);
    }
  }
  fs::remove_all(dir, ec);
}

// --- instruction / assembler fuzz -------------------------------------------

/// disassemble -> assemble -> disassemble must be a fixpoint (fields the
/// textual form does not carry are canonically zero on the way back).
void check_text_fixpoint(const isa::Instr& in, const std::string& context,
                         CheckReport& report) {
  const auto text = isa::disassemble(in);
  try {
    const auto img = isa::assemble(text, "roundtrip", 0x1000);
    const auto back = img.at(0x1000);
    if (!expect(back.has_value(),
                context + ": reassembled '" + text + "' undecodable", report)) {
      return;
    }
    expect_same(context + ": disassembly fixpoint of '" + text + "'", text,
                isa::disassemble(*back), report);
  } catch (const isa::AsmError& e) {
    expect(false,
           context + ": disassembly '" + text + "' does not assemble: " +
               e.what(),
           report);
  }
}

void isa_fuzz(util::Rng& rng, const isa::Image& img, CheckReport& report) {
  // Every compiled instruction: encode∘decode byte-identity + text fixpoint.
  for (std::uint64_t addr = img.base(); addr < img.end();
       addr += isa::kInstrSize) {
    const auto in = img.at(addr);
    if (!expect(in.has_value(), "compiled instruction undecodable", report)) {
      continue;
    }
    std::uint8_t bytes[isa::kInstrSize];
    isa::encode(*in, bytes);
    const auto again = isa::decode(bytes);
    expect(again.has_value() && *again == *in,
           "encode/decode round-trip broke at " + hex64(addr), report);
    check_text_fixpoint(*in, "compiled @" + hex64(addr), report);
  }

  // Random mutations of valid encodings: either decode rejects, or the
  // accepted instruction re-encodes byte-exactly and its text is a fixpoint.
  const std::uint64_t nslots = (img.end() - img.base()) / isa::kInstrSize;
  for (int m = 0; m < 32; ++m) {
    const auto addr = img.base() + rng.bounded(nslots) * isa::kInstrSize;
    std::uint8_t bytes[isa::kInstrSize];
    isa::encode(*img.at(addr), bytes);
    const int flips = 1 + static_cast<int>(rng.bounded(8));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.bounded(isa::kInstrSize)] ^=
          static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    const auto decoded = isa::decode(bytes);
    isa::Instr via_into;
    const bool into_ok = isa::decode_into(bytes, via_into);
    expect(into_ok == decoded.has_value(),
           "decode and decode_into disagree on mutated bytes", report);
    if (!decoded) continue;
    expect(!into_ok || via_into == *decoded,
           "decode and decode_into produced different instructions", report);
    std::uint8_t re[isa::kInstrSize];
    isa::encode(*decoded, re);
    expect(std::equal(bytes, bytes + isa::kInstrSize, re),
           "mutated bytes decoded but did not re-encode identically", report);
    check_text_fixpoint(*decoded, "mutated", report);
  }
}

// --- faultload text fuzz -----------------------------------------------------

void faultload_fuzz(util::Rng& rng, const isa::Image& img,
                    CheckReport& report) {
  const auto fl = swfit::Scanner{}.scan_all(img);
  const auto text = fl.serialize();
  try {
    expect_same("faultload serialize/parse fixpoint", text,
                swfit::Faultload::parse(text).serialize(), report);
  } catch (const swfit::FaultloadError& e) {
    expect(false, std::string("pristine faultload failed to parse: ") +
                      e.what(),
           report);
  }

  for (int m = 0; m < 8; ++m) {
    std::string corrupt = text;
    const auto mode = rng.bounded(4);
    if (mode == 0 && !corrupt.empty()) {
      corrupt.resize(rng.bounded(corrupt.size() + 1));  // truncate
    } else if (mode == 1 && !corrupt.empty()) {
      corrupt[rng.bounded(corrupt.size())] =
          static_cast<char>(32 + rng.bounded(95));  // flip to printable
    } else if (mode == 2 && !corrupt.empty()) {
      corrupt.erase(rng.bounded(corrupt.size()), 1);  // delete a char
    } else {
      corrupt.insert(rng.bounded(corrupt.size() + 1), 1,
                     static_cast<char>(32 + rng.bounded(95)));  // insert
    }
    try {
      const auto parsed = swfit::Faultload::parse(corrupt);
      for (const auto& f : parsed.faults) {
        expect(f.window() >= 1 && f.window() <= 16 &&
                   f.original.size() == f.mutated.size(),
               "corrupted text parsed into a structurally invalid faultload",
               report);
      }
    } catch (const swfit::FaultloadError&) {
      // The one legal rejection path.
    }
    // Any other exception escapes to run_cases and is reported as a crash.
  }
}

void run_case(std::uint64_t cs, const fs::path& scratch, CheckReport& report) {
  util::Rng rng(cs);
  store_fuzz(cs, scratch, rng, report);

  ProgramGen gen(rng);
  const auto img = minic::compile(gen.generate(), "p", 0x1000);
  isa_fuzz(rng, img, report);
  faultload_fuzz(rng, img, report);
}

}  // namespace

CheckReport run_structure_engine(const CheckOptions& opt) {
  const internal::ScratchRoot scratch(opt);
  return internal::run_cases(opt, "structure",
                             [&scratch](std::uint64_t cs, CheckReport& report) {
                               run_case(cs, scratch.path(), report);
                             });
}

}  // namespace gf::check
