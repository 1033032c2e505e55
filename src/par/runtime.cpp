#include "par/runtime.hpp"

#include <exception>
#include <thread>

namespace alps::par {

CommStats run(int nranks, const std::function<void(Comm&)>& body) {
  World world(nranks);
  // Fresh per-rank observability slots for this world: spans, counters
  // and histograms (phase time included) recorded by the rank threads
  // stay readable (obs::events, obs::aggregate_phases, ...) until the
  // next run.
  obs::world_begin(nranks);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &body, &errors, r] {
      obs::rank_bind(r);
      Comm comm(world, r);
      try {
        body(comm);
      } catch (...) {
        // Store and exit the rank. If the failure is deterministic every
        // rank reaches it and the first exception is rethrown below; a
        // single-rank failure while peers wait on it would deadlock, so
        // rank bodies are written to fail uniformly.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
      obs::rank_unbind();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  return snapshot(world.stats());
}

}  // namespace alps::par
