#pragma once

// Internal to lapx_graph: the epoch-stamped BFS scratch that girth(),
// ball() and ball_frontier() run on.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lapx/graph/graph.hpp"

namespace lapx::graph::detail {

// Epoch-stamped BFS scratch: bulk callers (ordered-ball typing, OI
// simulations, girth) run one BFS per vertex, and a fresh O(n) dist vector
// per BFS made those sweeps quadratic.  A bumped epoch invalidates every
// mark at once; the arrays are only ever grown.
struct BallScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<int> dist;
  std::vector<Vertex> queue;
  std::uint32_t epoch = 0;

  void begin(std::size_t n) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      dist.resize(n, 0);
    }
    if (++epoch == 0) {  // wrapped: every stale stamp looks fresh again
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    queue.clear();
  }
};

// This thread's scratch, shared by ball() and ball_frontier(): neither
// runs inside the other.
BallScratch& thread_ball_scratch();

}  // namespace lapx::graph::detail
