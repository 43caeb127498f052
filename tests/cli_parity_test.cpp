// lapx_cli's stdin queries against lapxd.  The CLI answers analyze,
// homogeneity, optimum, run and fractional through the daemon's own
// handlers, so for every graph and query its stdout must be, byte for
// byte, the `result` payload an in-process service::Service answers for an
// `upload` of the same edge list plus the same query.
//
// The binary path comes from the LAPX_CLI_PATH compile definition
// (tests/CMakeLists.txt points it at $<TARGET_FILE:lapx_cli>).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lapx/service/json.hpp"
#include "lapx/service/service.hpp"

namespace {

using lapx::service::Json;
using lapx::service::Service;

struct CliRun {
  int exit_code = -1;
  std::string out;
};

// Runs `lapx_cli args` with stdin from `input`, capturing stdout.
CliRun run_cli(const std::string& args, const std::string& input = "") {
  const std::string cmd = std::string(LAPX_CLI_PATH) + " " + args +
                          (input.empty() ? "" : " <" + input) + " 2>/dev/null";
  CliRun r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t k;
  while ((k = std::fread(buf, 1, sizeof buf, pipe)) > 0) r.out.append(buf, k);
  const int status = ::pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

struct GraphCase {
  const char* name;
  const char* generate;  ///< `lapx_cli generate` arguments, or nullptr
  const char* upload;    ///< the edge list itself when generate is nullptr
  /// lift 3 3 5 7 (n = 45) leaves out the five queries that compute an
  /// exact EDS optimum: today's EDS branch and bound takes about a minute
  /// per query there (ROADMAP item 4).  The other graphs cover them.
  bool exact_eds = true;
};

// One query: the CLI arguments and the lapxd request fields they stand for.
struct Query {
  std::string args;
  std::string fields;  ///< appended to {"op":...,"graph":"g"
  bool exact_eds = false;
};

std::vector<Query> queries() {
  std::vector<Query> out = {{"analyze", R"({"op":"analyze")"},
                            {"fractional", R"({"op":"fractional")"},
                            {"homogeneity", R"({"op":"homogeneity")"}};
  for (int r = 0; r <= 3; ++r)
    out.push_back({"homogeneity " + std::to_string(r),
                   R"({"op":"homogeneity","radius":)" + std::to_string(r)});
  for (const char* p : {"vc", "ec", "mm", "is", "ds", "eds"})
    out.push_back({std::string("optimum ") + p,
                   std::string(R"({"op":"optimum","problem":")") + p + "\"",
                   std::string(p) == "eds"});
  for (const char* a :
       {"eds-mark-first", "edge-cover", "take-all-ds", "local-min-is",
        "vc-non-min", "eds-greedy", "even-min-is", "ds-even-pref"}) {
    const std::string run =
        std::string(R"({"op":"run","algorithm":")") + a + "\"";
    const bool eds = std::string(a).rfind("eds-", 0) == 0;
    out.push_back({std::string("run ") + a, run, eds});
    out.push_back(
        {std::string("run ") + a + " 3", run + R"(,"radius":3)", eds});
  }
  return out;
}

class CliParity : public ::testing::TestWithParam<GraphCase> {};

TEST_P(CliParity, StdoutIsTheServiceResultPayload) {
  const GraphCase& gc = GetParam();
  std::string text = gc.upload == nullptr ? "" : gc.upload;
  if (gc.generate != nullptr) {
    const CliRun gen = run_cli(std::string("generate ") + gc.generate);
    ASSERT_EQ(gen.exit_code, 0) << gc.generate;
    text = gen.out;
  }
  const std::string input =
      ::testing::TempDir() + "cli_parity_" + gc.name + ".txt";
  std::ofstream(input) << text;

  Service svc;
  Json up = Json::object();
  up.set("op", Json::string("upload"));
  up.set("name", Json::string("g"));
  up.set("edges", Json::string(text));
  ASSERT_NE(svc.handle(up.dump()).find("\"ok\":true"), std::string::npos);

  const std::string ok_prefix = R"({"ok":true,"result":)";
  int compared = 0;
  for (const Query& q : queries()) {
    if (q.exact_eds && !gc.exact_eds) continue;
    // {"op":..., fields..., "graph":"g"}: field order is free on the wire.
    const std::string response = svc.handle(q.fields + R"(,"graph":"g"})");
    ASSERT_EQ(response.rfind(ok_prefix, 0), 0u) << q.args << ": " << response;
    const std::string payload = response.substr(
        ok_prefix.size(), response.size() - ok_prefix.size() - 1);
    const CliRun cli = run_cli(q.args, input);
    EXPECT_EQ(cli.exit_code, 0) << gc.name << ": " << q.args;
    EXPECT_EQ(cli.out, payload + "\n") << gc.name << ": " << q.args;
    ++compared;
  }
  EXPECT_GE(compared, gc.exact_eds ? 29 : 24);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, CliParity,
    ::testing::Values(GraphCase{"cycle", "cycle 12", nullptr},
                      GraphCase{"path", "path 9", nullptr},
                      GraphCase{"petersen", "petersen", nullptr},
                      GraphCase{"torus", "torus 4 4", nullptr},
                      GraphCase{"lift", "lift 3 3 5 7", nullptr, false},
                      GraphCase{"regular", "regular 30 3 5", nullptr},
                      // A triangle, a path and two isolated vertices.
                      GraphCase{"isolated", nullptr,
                                "8 5\n0 1\n1 2\n0 2\n3 4\n4 5\n"}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
