#pragma once
// Seeded request streams for the three workloads.
//
// A workload is a pure function of (name, seed, seconds): the same
// arguments give byte-identical request lines, which is what lets the
// socket run, the in-process reference and the traced replay be compared
// response by response.  Each connection owns a disjoint set of session
// names (reads of shared resident sessions aside), so every connection's
// transcript is deterministic whatever the interleaving.
//
// Runs are sized by request count, not wall time: `seconds` scales the
// count by a fixed per-workload rate, so a faster commit does the same
// work (and serves the same distinct graphs) as a slower one.

#include <cstdint>
#include <string>
#include <vector>

namespace lapxbench {

enum class OpClass : std::uint8_t { kQuery, kWrite, kOther };

struct Req {
  std::string line;  ///< request line, no '\n'
  OpClass cls = OpClass::kOther;
};

struct Workload {
  std::string name;
  int connections = 1;
  /// Per connection, pipelined before timing (creates resident sessions).
  std::vector<std::vector<Req>> setup;
  /// Connection 0, pipelined after set-up, untimed: fills the cache.
  std::vector<Req> warmup;
  /// Per connection, replayed closed-loop and timed.
  std::vector<std::vector<Req>> timed;
  /// Phasing of the closed loops (runs.hpp, Phaser).  Every `epoch` timed
  /// requests the connections meet at a barrier and restart staggered
  /// over one loop of `loop_requests` requests.  Left alone, the loops'
  /// relative phases random-walk (each loop's length jitters by
  /// milliseconds), so whether two connections' writes meet on the
  /// store's mutation lock, or their queries on the executors, would be a
  /// property of the run rather than of the code.  epoch == 0: no barrier
  /// and no stagger.
  std::size_t epoch = 0;
  std::size_t loop_requests = 1;
  /// Fresh sessions outside the stream (traced run only): the steady-state
  /// interner growth per session of each generated family.
  std::vector<std::vector<Req>> probe_lift;
  std::vector<std::vector<Req>> probe_regular;

  std::size_t timed_requests() const;
  std::size_t total_requests() const;  ///< setup + warmup + timed
};

/// Throws std::invalid_argument for an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       int seconds);

/// The daemon's command-line flags (after `lapx_cli serve --socket PATH`).
inline const char* const kDaemonFlags[] = {"--executors", "2", "--threads",
                                           "2"};
inline constexpr int kDaemonExecutors = 2;
inline constexpr int kDaemonThreads = 2;

/// The op class of a request line's "op" field.
OpClass classify_op(const std::string& op);

}  // namespace lapxbench
