#include "obs/journal.h"

#include <charconv>
#include <ostream>

#include "obs/json.h"

namespace gf::obs {

char phase_letter(Phase p) noexcept {
  switch (p) {
    case Phase::kInstant: return 'i';
    case Phase::kBegin: return 'B';
    case Phase::kEnd: return 'E';
  }
  return '?';
}

void Journal::push(Event e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[next_] = std::move(e);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<Event> Journal::events() const {
  std::vector<Event> out;
  out.reserve(size());
  for_each([&out](const Event& e) { out.push_back(e); });
  return out;
}

Journal Journal::restore(std::size_t capacity, std::uint64_t dropped,
                         std::vector<Event> events) {
  Journal j(capacity);
  // The ring is handed over in chronological order with next_ = 0, which
  // events() walks back out unchanged; dropped_ restores the seq offset.
  if (events.size() > j.capacity_) events.resize(j.capacity_);
  j.ring_ = std::move(events);
  j.dropped_ = dropped;
  return j;
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void append_jsonl(std::string& out, std::string_view track, const Journal& j) {
  std::string head = "{\"track\": \"";
  json::append_escaped(head, track);
  head += "\", ";
  if (j.dropped() > 0) {
    // Head record: the ring wrapped and the oldest N events are gone. The
    // per-event seq still starts at N, so the gap is visible either way;
    // this makes it explicit for consumers that don't count.
    out += head;
    out += "\"truncated\": ";
    append_u64(out, j.dropped());
    out += "}\n";
  }
  std::uint64_t seq = j.dropped();  // dropped events leave a visible gap
  j.for_each([&](const Event& e) {
    out += head;
    out += "\"seq\": ";
    append_u64(out, seq++);
    out += ", \"ph\": \"";
    out += phase_letter(e.phase);
    out += "\", \"name\": \"";
    json::append_escaped(out, e.name);
    out += "\", \"ms\": ";
    json::append_number(out, e.sim_ms);
    out += ", \"cycle\": ";
    append_u64(out, e.cycle);
    if (!e.args.empty()) {
      out += ", \"args\": ";
      out += e.args;
    }
    out += "}\n";
  });
}

void write_jsonl(std::ostream& os, const std::string& track, const Journal& j) {
  std::string out;
  append_jsonl(out, track, j);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

}  // namespace gf::obs
