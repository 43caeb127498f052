// lapx command-line tool.
//
//   lapx_cli generate <family> [args...]     print a graph as an edge list
//   lapx_cli analyze                         structural report (stdin)
//   lapx_cli homogeneity [r]                 ordered-homogeneity report
//   lapx_cli optimum <problem>               exact optimum (n <= 64)
//   lapx_cli run <algorithm> [r]             run a local algorithm
//   lapx_cli fractional                      nu, nu_f, tau_f, tau report
//   lapx_cli dot                             Graphviz DOT of stdin graph
//   lapx_cli graph-convert <out> [opts]      write a graph as LAPXOOC1
//   lapx_cli serve [options]                 run the lapxd query service
//   lapx_cli call <endpoint> [json]          send request(s) to lapxd
//
// The five stdin queries (analyze ... fractional) are lapxd's query ops:
// each builds the request the daemon would receive, answers it with the
// daemon's own handler (service::handle_query) and prints the `result`
// object as one JSON line -- the bytes lapxd answers under "result" after
// an `upload` of the same edge list.  So the CLI inherits the daemon's
// bounds: radii lie in [0, 8], and `generate` and `graph-convert --family`
// build through lapxd's `generate` family table and size caps.
//
// Graphs are read from stdin in the edge-list format of lapx/graph/io.hpp.
// Families: cycle N | path N | complete N | torus A B | hypercube D |
//           petersen | gp N K | grid R C | regular N D [SEED] |
//           lift A B LAYERS [SEED]  (random LAYERS-lift of torus A B)
// Problems: vc | ec | mm | is | ds | eds
// Algorithms: eds-mark-first | edge-cover | take-all-ds (PO),
//             local-min-is | vc-non-min | eds-greedy (OI),
//             even-min-is | ds-even-pref (ID)
//
// Exit codes: 0 success, 1 runtime failure (a query answered too_large or
// internal), 2 usage (missing/unknown subcommand), 3 bad argument or
// malformed input, a bad_request included (prints the usage block),
// 4 service error (`call` reached the daemon but at least one response
// line had "ok":false).  Malformed LAPXD_* environment values never abort:
// they warn on stderr and fall back to the documented default.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "lapx/graph/io.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/ooc.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/service/client.hpp"
#include "lapx/service/handlers.hpp"
#include "lapx/service/server.hpp"
#include "lapx/service/service.hpp"

namespace {

using namespace lapx;
using service::Json;

constexpr int kExitRuntime = 1;       // failures while computing
constexpr int kExitUsage = 2;         // missing/unknown subcommand
constexpr int kExitBadArg = 3;        // bad argument values / malformed input
constexpr int kExitServiceError = 4;  // daemon answered with "ok":false

int usage() {
  std::fprintf(
      stderr,
      "usage: lapx_cli generate <family> [args] | analyze | dot |\n"
      "       homogeneity [r] | optimum <problem> | run <alg> [r] |\n"
      "       fractional |\n"
      "       graph-convert <out.lapxooc> [--family <fam> <args...>]\n"
      "             [--lift L] [--seed S] [--no-verify] (default: stdin\n"
      "             edge list; writes the mmap-able LAPXOOC1 CSR format)\n"
      "       serve [--socket PATH | --tcp PORT] [--threads N]\n"
      "             [--executors N] [--cache-entries N] [--cache-bytes N]\n"
      "             [--cache-dir DIR] [--queue-depth N] [--max-graphs N] |\n"
      "       call [--pipeline] <endpoint> [json-request]\n"
      "stdin queries run lapxd's handlers and print the daemon's result\n"
      "object as one JSON line; r in [0, 8], optimum needs n <= 64\n"
      "problems: vc | ec | mm | is | ds | eds\n"
      "algorithms: eds-mark-first | edge-cover | take-all-ds | local-min-is |\n"
      "            vc-non-min | eds-greedy | even-min-is | ds-even-pref\n"
      "families (lapxd's generate, same size caps): cycle N | path N |\n"
      "          complete N | torus A B | hypercube D | petersen | gp N K |\n"
      "          grid R C | regular N D [SEED] | lift A B LAYERS [SEED]\n"
      "endpoints: unix:PATH | tcp:PORT | a /path | a bare port\n"
      "wire ops: ping | generate | upload | open | mutate | drop | list |\n"
      "          session_info | stats | cache_save | cache_info |\n"
      "          shutdown | analyze | homogeneity | views | optimum |\n"
      "          run | fractional\n"
      "          (mutate edits a stored graph in place: {\"op\":\"mutate\",\n"
      "           \"name\":N, \"edits\":[{\"op\":\"add|remove\",\"u\":U,\"v\":V}]}\n"
      "           -> new epoch; queries re-refine only the edit frontier;\n"
      "           open binds a LAPXOOC1 file: {\"op\":\"open\",\"name\":N,\n"
      "           \"path\":P} -- queries stream over the mmap'd file)\n"
      "env: LAPXD_EXECUTORS sets the serve executor default,\n"
      "     LAPXD_CACHE_DIR the result-cache persistence dir\n");
  return kExitUsage;
}

// Checked numeric argv parsing: every number the CLI accepts goes through
// here (never raw std::stoi, whose exceptions carry no context -- and which
// the old code could even call on argv[i] PAST argc, dereferencing null).
// Malformed values throw invalid_argument; main() prints the message plus
// the usage block and exits kExitBadArg (3).
long long int_arg(const char* s, const std::string& what, long long lo,
                  long long hi) {
  long long v = 0;
  if (!runtime::detail::parse_env_int(s, lo, hi, &v))
    throw std::invalid_argument("bad " + what + ": \"" + s +
                                "\" (expected an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "])");
  return v;
}

// A number the daemon range-checks itself: any integer passes here, so an
// out-of-range value answers with lapxd's own bad_request message.
Json request_int(const char* s, const std::string& what) {
  long long v = 0;
  if (!runtime::detail::parse_env_int(s, std::numeric_limits<long long>::min(),
                                      std::numeric_limits<long long>::max(),
                                      &v))
    throw std::invalid_argument("bad " + what + ": \"" + s +
                                "\" (expected an integer)");
  return Json::integer(v);
}

// `family args...` as lapxd's `generate` request builds it.
graph::Graph generated(int argc, char** argv) {
  service::Request req;
  req.op = "generate";
  req.body = Json::object();
  req.body.set("family", Json::string(argv[0]));
  Json& args = req.body.set("args", Json::array());
  for (int i = 1; i < argc; ++i)
    args.push_back(request_int(
        argv[i], std::string(argv[0]) + " argument " + std::to_string(i)));
  return service::build_generated_graph(req);
}

// A stdin query: the `op` request with `fields`, answered by lapxd's handler
// on an entry built the way `upload` builds one.
int cmd_query(const std::string& op, Json fields) {
  const service::GraphEntry entry(graph::read_edge_list(std::cin),
                                  /*epoch=*/1);
  service::Request req;
  req.op = op;
  req.body = std::move(fields);
  Json result;
  try {
    result = service::handle_query(req, entry);
  } catch (const service::ServiceError&) {
    throw;
  } catch (const std::exception& e) {
    // lapxd answers a handler's untyped failure as `internal`.
    throw service::ServiceError(service::ErrorCode::kInternal, e.what());
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

// `lapx_cli graph-convert OUT [...]`: serialize a graph's step CSR in the
// mmap-able LAPXOOC1 on-disk format (lapx/graph/ooc.hpp).  The input comes
// from stdin (edge list) or --family; --lift L replaces it with its random
// L-lift first.  Unless --no-verify, the written file is reopened and
// checked against the in-memory graph arc for arc and step for step, so a
// 0 exit means the file round-trips exactly.
int cmd_graph_convert(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string out = argv[0];
  int lift = 0;
  std::uint64_t seed = 1;
  bool verify = true;
  std::vector<char*> family;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--no-verify") {
      verify = false;
    } else if (flag == "--lift") {
      if (i + 1 >= argc)
        throw std::invalid_argument("flag needs a value: --lift");
      lift = static_cast<int>(int_arg(argv[++i], "--lift", 1, 1 << 20));
    } else if (flag == "--seed") {
      if (i + 1 >= argc)
        throw std::invalid_argument("flag needs a value: --seed");
      seed = static_cast<std::uint64_t>(
          int_arg(argv[++i], "--seed", 0,
                  std::numeric_limits<long long>::max()));
    } else if (flag == "--family") {
      // The family spec runs to the next flag: `--family torus 3 3`.
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        family.push_back(argv[++i]);
      if (family.empty())
        throw std::invalid_argument("--family needs a family name");
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  graph::Graph g = family.empty() ? graph::read_edge_list(std::cin)
                                  : generated(static_cast<int>(family.size()),
                                              family.data());
  if (lift >= 1) {
    // Same composition as the service's "lift" generate family
    // (graph::lifted_torus): to_ldigraph -> random_lift -> underlying.
    // So `graph-convert --family torus A B --lift L --seed S` writes the
    // exact instance `{"op":"generate","family":"lift",...}` serves from
    // memory -- the byte-for-byte parity the CI smoke test diffs.
    std::mt19937_64 rng(seed);
    g = graph::random_lift(graph::to_ldigraph(g), lift, rng)
            .graph.underlying_graph();
  }
  const graph::LDigraph ld = graph::to_ldigraph(g);
  graph::write_ooc_graph(out, ld);
  const graph::OocGraph reopened(out);
  if (verify) {
    if (reopened.num_vertices() != ld.num_vertices() ||
        reopened.num_arcs() != ld.num_arcs() ||
        reopened.alphabet_size() != ld.alphabet_size())
      throw std::runtime_error("graph-convert: round-trip header mismatch");
    const graph::LDigraph back = reopened.materialize();
    for (graph::Vertex v = 0; v < ld.num_vertices(); ++v) {
      const auto a_out = ld.out_arcs(v), b_out = back.out_arcs(v);
      const auto a_in = ld.in_arcs(v), b_in = back.in_arcs(v);
      if (!std::equal(a_out.begin(), a_out.end(), b_out.begin(),
                      b_out.end()) ||
          !std::equal(a_in.begin(), a_in.end(), b_in.begin(), b_in.end()))
        throw std::runtime_error(
            "graph-convert: round-trip adjacency mismatch at vertex " +
            std::to_string(v));
    }
    const graph::StepCsr steps = graph::build_step_csr(ld);
    auto span_eq = [](auto span, const auto& vec) {
      return span.size() == vec.size() &&
             std::equal(span.begin(), span.end(), vec.begin());
    };
    if (!span_eq(reopened.step_off(), steps.off) ||
        !span_eq(reopened.step_succ(), steps.succ) ||
        !span_eq(reopened.step_nbr(), steps.nbr) ||
        !span_eq(reopened.step_move_bits(), steps.move_bits))
      throw std::runtime_error("graph-convert: round-trip step-CSR mismatch");
  }
  std::fprintf(stderr,
               "graph-convert: wrote %s (n=%d m=%zu alphabet=%u "
               "checksum=%016llx)%s\n",
               out.c_str(), reopened.num_vertices(), reopened.num_arcs(),
               static_cast<unsigned>(reopened.alphabet_size()),
               static_cast<unsigned long long>(reopened.payload_checksum()),
               verify ? ", round-trip verified" : "");
  return 0;
}

// lapxd entry point: `lapx_cli serve` runs the service until a client
// sends {"op":"shutdown"}.
int cmd_serve(int argc, char** argv) {
  service::Service::Options sopt;
  service::Server::Options wopt;
  // LAPXD_* environment seeds.  atoi silently truncated junk ("8x" ran 8
  // executors, "banana" ran 0 and was ignored without a trace); malformed
  // values now warn on stderr and fall back to the documented default so a
  // typo'd deployment is visible in the service log instead of quietly
  // changing topology.  --executors overrides.
  auto env_int = [](const char* name, long long lo, long long hi,
                    long long* out) {
    const char* env = std::getenv(name);
    if (env == nullptr) return false;
    if (runtime::detail::parse_env_int(env, lo, hi, out)) return true;
    std::fprintf(stderr,
                 "lapxd: ignoring invalid %s=\"%s\" (expected an integer in "
                 "[%lld, %lld]); using the default\n",
                 name, env, lo, hi);
    return false;
  };
  long long env_v = 0;
  if (env_int("LAPXD_EXECUTORS", 1, 4096, &env_v))
    sopt.scheduler.executors = static_cast<int>(env_v);
  // LAPXD_CACHE_DIR seeds the persistence dir; --cache-dir overrides it.
  if (const char* env = std::getenv("LAPXD_CACHE_DIR")) sopt.cache_dir = env;
  auto int_flag = [&](const char* value) {
    return int_arg(value, "flag value", 0,
                   std::numeric_limits<long long>::max());
  };
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("flag needs a value: " + flag);
    const char* value = argv[++i];
    if (flag == "--socket") {
      wopt.endpoint.unix_path = value;
    } else if (flag == "--tcp") {
      wopt.endpoint.tcp_port = static_cast<int>(int_flag(value));
    } else if (flag == "--threads") {
      runtime::set_thread_count(static_cast<int>(int_flag(value)));
    } else if (flag == "--executors") {
      const long long v = int_flag(value);
      if (v < 1) throw std::invalid_argument("--executors must be >= 1");
      sopt.scheduler.executors = static_cast<int>(v);
    } else if (flag == "--cache-entries") {
      sopt.cache.max_entries = static_cast<std::size_t>(int_flag(value));
    } else if (flag == "--cache-bytes") {
      sopt.cache.max_bytes = static_cast<std::size_t>(int_flag(value));
    } else if (flag == "--cache-dir") {
      sopt.cache_dir = value;
    } else if (flag == "--queue-depth") {
      sopt.scheduler.queue_capacity = static_cast<std::size_t>(int_flag(value));
    } else if (flag == "--max-graphs") {
      sopt.store.max_graphs = static_cast<std::size_t>(int_flag(value));
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (wopt.endpoint.unix_path.empty() && wopt.endpoint.tcp_port == 0)
    wopt.endpoint.unix_path = "/tmp/lapxd.sock";
  service::Service svc(sopt);
  if (svc.persist() != nullptr) {
    const auto pi = svc.persist()->info();
    std::fprintf(stderr, "lapxd: cache dir %s (%llu entries loaded%s%s)\n",
                 pi.dir.c_str(),
                 static_cast<unsigned long long>(pi.loaded_entries),
                 pi.last_error.empty() ? "" : "; ",
                 pi.last_error.c_str());
  }
  service::Server server(svc, wopt);
  if (!wopt.endpoint.unix_path.empty())
    std::fprintf(stderr, "lapxd: listening on %s\n",
                 wopt.endpoint.unix_path.c_str());
  else
    std::fprintf(stderr, "lapxd: listening on 127.0.0.1:%d\n",
                 server.bound_tcp_port());
  server.serve_forever();
  std::fprintf(stderr, "lapxd: shut down cleanly\n");
  return 0;
}

// `lapx_cli call [--pipeline] ENDPOINT [json]`: one request from argv, or
// (without a request argument) one request per stdin line.  Prints
// response lines; exits kExitServiceError (4) when any response has
// "ok":false -- distinct from transport failures (1), so scripts can tell
// "the daemon said no" from "the daemon is gone".  --pipeline
// sends stdin lines without waiting for responses (a bounded window keeps
// socket buffers safe); the server's ordering layer guarantees responses
// come back in submission order, so the printed transcript is identical
// to the sequential mode's.
int cmd_call(int argc, char** argv) {
  bool pipeline = false;
  if (argc >= 1 && std::strcmp(argv[0], "--pipeline") == 0) {
    pipeline = true;
    ++argv;
    --argc;
  }
  if (argc < 1) return usage();
  service::Client client = service::Client::connect(argv[0]);
  bool all_ok = true;
  auto print_response = [&](const std::string& response) {
    std::printf("%s\n", response.c_str());
    const service::Json parsed = service::Json::parse(response);
    const service::Json* ok = parsed.find("ok");
    all_ok = all_ok && ok != nullptr && ok->is_bool() && ok->as_bool();
  };
  if (argc >= 2) {
    print_response(client.call(argv[1]));
  } else if (pipeline) {
    constexpr std::size_t kWindow = 32;  // < the server's 64-deep pipeline
    std::size_t in_flight = 0;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      if (in_flight >= kWindow) {
        print_response(client.recv_line());
        --in_flight;
      }
      client.send(line);
      ++in_flight;
    }
    while (in_flight > 0) {
      print_response(client.recv_line());
      --in_flight;
    }
  } else {
    std::string line;
    while (std::getline(std::cin, line))
      if (!line.empty()) print_response(client.call(line));
  }
  return all_ok ? 0 : kExitServiceError;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const bool known =
      cmd == "generate" || cmd == "analyze" || cmd == "dot" ||
      cmd == "homogeneity" || cmd == "fractional" || cmd == "optimum" ||
      cmd == "run" || cmd == "serve" || cmd == "call" ||
      cmd == "graph-convert";
  if (!known) {
    std::fprintf(stderr, "error: unknown subcommand: %s\n", cmd.c_str());
    return usage();
  }
  try {
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (cmd == "call") return cmd_call(argc - 2, argv + 2);
    if (cmd == "graph-convert") return cmd_graph_convert(argc - 2, argv + 2);
    if (cmd == "generate") {
      if (argc < 3) return usage();
      graph::write_edge_list(std::cout, generated(argc - 2, argv + 2));
      return 0;
    }
    if (cmd == "dot") {
      std::cout << graph::to_dot(graph::read_edge_list(std::cin));
      return 0;
    }
    Json fields = Json::object();
    if (cmd == "optimum" || cmd == "run") {
      if (argc < 3) return usage();
      fields.set(cmd == "run" ? "algorithm" : "problem", Json::string(argv[2]));
    }
    const int radius_at = cmd == "homogeneity" ? 2 : cmd == "run" ? 3 : argc;
    if (radius_at < argc)
      fields.set("radius", request_int(argv[radius_at], "radius"));
    return cmd_query(cmd, std::move(fields));
  } catch (const service::ServiceError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (e.code() != service::ErrorCode::kBadRequest) return kExitRuntime;
    usage();
    return kExitBadArg;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return kExitBadArg;
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return kExitBadArg;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitRuntime;
  }
}
