// Test-side adapter for the simulator's callable path. An event's
// payload holds at most 8 bytes, so `Simulator::schedule_at` takes only
// small trivially copyable callables. Tests that want a larger lambda
// hand it to a `Deferred`, which keeps it alive (a deque never moves
// its elements) and returns an 8-byte callable that runs it.
#pragma once

#include <deque>
#include <functional>
#include <utility>

namespace brb::testutil {

class Deferred {
 public:
  template <typename F>
  auto operator()(F fn) {
    std::function<void()>& kept = kept_.emplace_back(std::move(fn));
    return [p = &kept] { (*p)(); };
  }

 private:
  std::deque<std::function<void()>> kept_;
};

}  // namespace brb::testutil
