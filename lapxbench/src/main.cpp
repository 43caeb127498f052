// lapx_loadgen: the benchmark's load generator.  run.py calls it once per
// mode; each call prints one JSON line on stdout.
//
//   lapx_loadgen baseline --workload W --seed S --seconds N --transcript OUT
//   lapx_loadgen socket   --workload W --seed S --seconds N --transcript REF
//                         --cli LAPX_CLI --socket PATH --log PATH
//                         [--pings P]
//   lapx_loadgen traced   --workload W --seed S --seconds N --transcript REF
//                         [--spans OUT]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "runs.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lapx_loadgen baseline|socket|traced|describe --workload W --seed S "
               "--seconds N [--transcript PATH] [--cli PATH --socket PATH --log PATH "
               "--pings P] [--spans PATH]\n");
  return 2;
}

long long to_int(const std::string& s, const char* what) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || v < 0) throw std::invalid_argument(std::string("bad ") + what + ": " + s);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if ((argc - 2) % 2 != 0 || !flags.count("--workload") || !flags.count("--seed") ||
      !flags.count("--seconds"))
    return usage();
  try {
    const int seconds = static_cast<int>(to_int(flags["--seconds"], "--seconds"));
    if (seconds < 1 || seconds > 600) throw std::invalid_argument("--seconds must be in [1, 600]");
    const lapxbench::Workload w = lapxbench::make_workload(
        flags["--workload"], static_cast<std::uint64_t>(to_int(flags["--seed"], "--seed")), seconds);
    if (mode == "describe") {
      // Request counts only: no daemon, no compute.
      std::size_t setup = 0, queries = 0, writes = 0;
      for (const auto& s : w.setup) setup += s.size();
      for (const auto& t : w.timed)
        for (const auto& r : t) (r.cls == lapxbench::OpClass::kQuery ? queries : writes) += 1;
      using lapx::service::Json;
      Json out = Json::object();
      out.set("mode", Json::string("describe"));
      out.set("connections", Json::integer(w.connections));
      out.set("setup_requests", Json::integer(static_cast<std::int64_t>(setup)));
      out.set("warmup_requests", Json::integer(static_cast<std::int64_t>(w.warmup.size())));
      out.set("timed_requests", Json::integer(static_cast<std::int64_t>(w.timed_requests())));
      out.set("timed_queries", Json::integer(static_cast<std::int64_t>(queries)));
      out.set("timed_writes", Json::integer(static_cast<std::int64_t>(writes)));
      std::printf("%s\n", out.dump().c_str());
      return 0;
    }
    // In-process modes run in the daemon's scheduling class (runs.hpp).
    if ((mode == "baseline" || mode == "traced") && !lapxbench::enter_batch_scheduling())
      std::fprintf(stderr, "lapx_loadgen: SCHED_BATCH refused; running SCHED_OTHER\n");
    if (mode == "baseline") return lapxbench::run_baseline(w, flags.at("--transcript"));
    const lapxbench::Transcript ref = lapxbench::read_transcript(flags.at("--transcript"));
    if (mode == "socket") {
      lapxbench::SocketOptions opt;
      opt.cli = flags.at("--cli");
      opt.socket_path = flags.at("--socket");
      opt.log_path = flags.at("--log");
      if (flags.count("--pings")) opt.pings = static_cast<int>(to_int(flags["--pings"], "--pings"));
      return lapxbench::run_socket(w, ref, opt);
    }
    if (mode == "traced") return lapxbench::run_traced(w, ref, flags.count("--spans") ? flags["--spans"] : "");
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lapx_loadgen: %s\n", e.what());
    return 1;
  }
}
