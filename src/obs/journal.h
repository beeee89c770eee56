// Cycle-stamped event journal: per-task append-only ring of spans/instants.
//
// Each campaign run owns a private journal; the controller stamps
// every event with the deterministic simulated-time clock (ms) and the VM's
// lifetime cycle counter — never host wall time — so the flushed JSONL is a
// pure function of (seed, cell, task) and byte-identical for any --jobs.
// The ring bound keeps memory flat on full-length campaigns: once capacity
// is hit the oldest events are overwritten (the recent tail is what failure
// forensics needs) and `dropped()` records how many were lost — bounded
// instrumentation must degrade loudly, never grow without bound.
//
// append_jsonl renders a journal in one pass over the ring, in place, into
// a caller's string; write_jsonl and the campaign journal writer stream one
// track at a time through it, so a campaign's journal (megabytes on a full
// re-run) is never formatted through an ostream or held twice.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gf::obs {

/// Chrome-trace-compatible phases: B/E spans must nest per track; instants
/// stand alone.
enum class Phase : std::uint8_t { kInstant, kBegin, kEnd };

char phase_letter(Phase p) noexcept;

struct Event {
  Phase phase = Phase::kInstant;
  std::string name;
  double sim_ms = 0;        ///< simulated clock (deterministic)
  std::uint64_t cycle = 0;  ///< vm::Machine::total_cycles() at the event
  /// Optional pre-rendered JSON *object* ("{...}") attached as "args".
  std::string args;
};

class Journal {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit Journal(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  void instant(std::string name, double sim_ms, std::uint64_t cycle,
               std::string args = {}) {
    push({Phase::kInstant, std::move(name), sim_ms, cycle, std::move(args)});
  }
  void begin(std::string name, double sim_ms, std::uint64_t cycle,
             std::string args = {}) {
    push({Phase::kBegin, std::move(name), sim_ms, cycle, std::move(args)});
  }
  void end(std::string name, double sim_ms, std::uint64_t cycle) {
    push({Phase::kEnd, std::move(name), sim_ms, cycle, {}});
  }

  /// Calls `f(const Event&)` on each event in chronological (append)
  /// order, oldest surviving entry first, in place.
  template <class F>
  void for_each(F&& f) const {
    // Before wrap next_ is 0; after, it points at the oldest entry.
    for (std::size_t i = next_; i < ring_.size(); ++i) f(ring_[i]);
    for (std::size_t i = 0; i < next_; ++i) f(ring_[i]);
  }

  /// Events in chronological (append) order, oldest surviving entry first.
  std::vector<Event> events() const;

  /// Reconstructs a journal from persisted state (campaign-store resume):
  /// `events` must be in chronological order and `dropped` restores the
  /// seq-gap accounting of a ring that overflowed, so the rendered JSONL of
  /// a restored journal is byte-identical to the original's.
  static Journal restore(std::size_t capacity, std::uint64_t dropped,
                         std::vector<Event> events);

  std::size_t size() const noexcept {
    return ring_.size() < capacity_ ? ring_.size() : capacity_;
  }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  void push(Event e);

  std::size_t capacity_;
  std::size_t next_ = 0;  ///< ring write index once full
  std::uint64_t dropped_ = 0;
  std::vector<Event> ring_;
};

/// One canonical JSON object per event:
///   {"track":"...","seq":N,"ph":"B","name":"...","ms":...,"cycle":...}
/// `track` labels the owning task (e.g. "VOS-2000/apex/iter0.f12"); seq
/// numbers restart per journal and count dropped events so gaps are visible.
/// A wrapped ring first gets a {"track":"...","truncated":N} head line.
/// Appended to `out` in one pass over the ring: the track is escaped once,
/// `ms` is json::append_number's %.10g.
void append_jsonl(std::string& out, std::string_view track, const Journal& j);

/// append_jsonl for one journal, written to `os`.
void write_jsonl(std::ostream& os, const std::string& track, const Journal& j);

}  // namespace gf::obs
