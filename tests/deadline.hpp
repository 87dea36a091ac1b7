// Watchdog for tests of blocking hand-offs: a lost wake-up must fail the
// test, not hang the suite. The body runs on its own thread; when it has not
// returned by the deadline the process aborts with a message — a thread
// blocked for good can be neither joined nor cancelled, so reporting the
// failure in-process would hang at exit anyway.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <utility>

namespace iguard {

template <typename Body>
void run_within_deadline(std::chrono::seconds limit, const char* what, Body&& body) {
  std::packaged_task<void()> task(std::forward<Body>(body));
  std::future<void> done = task.get_future();
  std::thread runner(std::move(task));
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "%s: not finished after %lld s (lost wake-up?)\n", what,
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::abort();
  }
  runner.join();
  done.get();  // rethrows an exception the body raised
}

}  // namespace iguard
