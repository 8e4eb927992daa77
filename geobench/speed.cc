// Machine-speed reference for the simulator-speed metric.
//
// The simulator is single-threaded and CPU-bound, so its wall-clock rate
// moves with whatever else shares the machine's cores, caches and memory
// bandwidth. The benchmark times this fixed loop next to each slice of the
// measured window and scales the slice's rate by how much slower than
// nominal the loop ran at that moment. The loop uses only the standard
// library (a heap of std::function events carrying strings, an ordered map
// of strings), the same kinds of work the simulator does, and none of the
// repository's code, so a change to the program cannot move it.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "bench.h"

namespace geobench {

double ReferenceLoopSeconds() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 88172645463325252ULL;  // xorshift64: same work on every call
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  struct Event {
    uint64_t time;
    std::function<uint64_t()> fn;
    bool operator>(const Event& other) const { return time > other.time; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::map<uint64_t, std::string> table;
  uint64_t sink = 0;
  for (int i = 0; i < 8000; ++i) {
    table[next() % 100000] = std::string(40 + next() % 80, 'a');
  }
  for (int round = 0; round < 40000; ++round) {
    std::string payload(32 + next() % 200, 'x');
    const uint64_t key = next() % 100000;
    events.push({next() % 1000000,
                 [payload, key] { return payload.size() + key; }});
    if (events.size() > 4000) {
      sink += events.top().fn();
      events.pop();
    }
    auto it = table.lower_bound(key);
    if (it != table.end()) {
      sink += it->second.size();
      if ((round & 7) == 1) table.erase(it);
    }
    if ((round & 3) == 0) table[key] = std::move(payload);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Consume `sink` so the loop cannot be optimised away.
  return sink == 0 ? seconds + 1e-12 : seconds;
}

}  // namespace geobench
