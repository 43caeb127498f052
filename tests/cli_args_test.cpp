// Black-box argv/env fuzzing of the lapx_cli binary (satellites of the
// input-handling sweep): every malformed numeric argument must exit 3 with
// the usage block on stderr -- never terminate via an uncaught exception
// (exit 134 / SIGABRT) or crash on argv read past argc (SIGSEGV) -- and
// malformed LAPXD_*/LAPX_THREADS environment values must warn and fall
// back instead of silently truncating.
//
// The binary path comes from the LAPX_CLI_PATH compile definition
// (tests/CMakeLists.txt points it at $<TARGET_FILE:lapx_cli>).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string err;
};

// Runs `cmd` through the shell with stderr captured; stdout goes to
// /dev/null unless the caller redirects it inside cmd.
RunResult run(const std::string& cmd) {
  const std::string err_file =
      ::testing::TempDir() + "cli_args_stderr.txt";
  const std::string full =
      cmd + " >/dev/null 2>" + err_file;
  const int status = std::system(full.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  std::ifstream in(err_file);
  std::ostringstream buf;
  buf << in.rdbuf();
  r.err = buf.str();
  return r;
}

std::string cli() { return std::string(LAPX_CLI_PATH); }

// Bad numeric argv must exit kExitBadArg (3) and print both the specific
// error and the usage block.  A crash shows up as a negative signal code.
void expect_bad_arg(const std::string& args) {
  const RunResult r = run(cli() + " " + args + " </dev/null");
  EXPECT_EQ(r.exit_code, 3) << args << "\nstderr:\n" << r.err;
  EXPECT_NE(r.err.find("error:"), std::string::npos) << args;
  EXPECT_NE(r.err.find("usage:"), std::string::npos) << args;
}

TEST(CliArgs, GenerateMissingFamilyArguments) {
  // The old parser indexed argv past argc here (null char* -> stoi UB).
  expect_bad_arg("generate torus 3");
  expect_bad_arg("generate cycle");
  expect_bad_arg("generate gp 5");
  expect_bad_arg("generate regular 8");
  expect_bad_arg("generate lift 3 3");
}

TEST(CliArgs, GenerateMalformedNumbers) {
  expect_bad_arg("generate cycle 8x");
  expect_bad_arg("generate cycle banana");
  expect_bad_arg("generate cycle ''");
  expect_bad_arg("generate cycle -- -4");
  expect_bad_arg("generate torus 3 99999999999999999999");  // overflow
  expect_bad_arg("generate lift 3 3 2 1e9");  // seed must be plain digits
}

TEST(CliArgs, GenerateStillWorks) {
  const RunResult r = run(cli() + " generate cycle 10 </dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST(CliArgs, StdinCommandsRejectMalformedRadii) {
  // homogeneity/run parse their radius after reading the graph from stdin.
  const std::string graph_file = ::testing::TempDir() + "cli_args_g.txt";
  // Subshell: the inner redirect keeps stdout in graph_file even though
  // run() sends the (sub)shell's stdout to /dev/null.
  ASSERT_EQ(run("( " + cli() + " generate cycle 6 >" + graph_file + " )")
                .exit_code,
            0);
  const auto check = [&](const std::string& args) {
    const RunResult r = run(cli() + " " + args + " <" + graph_file);
    EXPECT_EQ(r.exit_code, 3) << args << "\nstderr:\n" << r.err;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << args;
  };
  check("homogeneity xyz");
  check("homogeneity 2.5");
  check("run local-min-is 2x");
}

TEST(CliArgs, RadiusAboveEightIsLapxdsBadRequest) {
  // The stdin queries answer through lapxd's handlers, so they inherit its
  // radius bound and its message, and a bad_request exits 3.
  const std::string graph_file = ::testing::TempDir() + "cli_args_r.txt";
  ASSERT_EQ(
      run("( " + cli() + " generate cycle 6 >" + graph_file + " )").exit_code,
      0);
  for (const char* args : {"homogeneity 9", "run eds-greedy 9"}) {
    const RunResult r = run(cli() + " " + args + " <" + graph_file);
    EXPECT_EQ(r.exit_code, 3) << args << "\nstderr:\n" << r.err;
    EXPECT_NE(r.err.find("error: field \"radius\" out of range [0, 8]"),
              std::string::npos)
        << args << "\nstderr:\n"
        << r.err;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << args;
  }
}

TEST(CliArgs, GraphConvertFlagValues) {
  expect_bad_arg("graph-convert /tmp/x.lapxooc --family cycle 4 --lift 0");
  expect_bad_arg("graph-convert /tmp/x.lapxooc --family cycle 4 --lift up");
  expect_bad_arg("graph-convert /tmp/x.lapxooc --family cycle 4 --seed -2");
}

TEST(CliArgs, ServeFlagValues) {
  // All of these fail during flag parsing, before any socket is bound.
  expect_bad_arg("serve --executors abc");
  expect_bad_arg("serve --tcp -1");
  expect_bad_arg("serve --shards 2");         // an unknown flag
  expect_bad_arg("serve --ooc-budget-mb 1");  // an unknown flag
}

TEST(CliArgs, MalformedServeEnvWarnsAndFallsBack) {
  // The env seed must not be silently truncated ("8x" used to run 8
  // executors).  The serve itself still fails (unbindable socket path),
  // but with the documented warning, not a changed topology.
  const RunResult r =
      run("LAPXD_EXECUTORS=8x " + cli() +
          " serve --socket /nonexistent-dir/lapxd.sock </dev/null");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("ignoring invalid LAPXD_EXECUTORS=\"8x\""),
            std::string::npos)
      << r.err;
}

TEST(CliArgs, MalformedThreadsEnvWarnsAndFallsBack) {
  // The pool (and so the LAPX_THREADS parse) is constructed lazily on the
  // first parallel loop, so drive a command that actually refines.
  const std::string graph_file = ::testing::TempDir() + "cli_args_h.txt";
  ASSERT_EQ(run("( " + cli() + " generate cycle 6 >" + graph_file + " )")
                .exit_code,
            0);
  const RunResult r = run("LAPX_THREADS=banana " + cli() +
                          " homogeneity 1 <" + graph_file);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("ignoring invalid LAPX_THREADS"), std::string::npos)
      << r.err;
}

}  // namespace
