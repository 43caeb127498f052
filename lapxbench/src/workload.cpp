#include "workload.hpp"

#include <cmath>
#include <stdexcept>

#include "lapx/graph/generators.hpp"
#include "lapx/graph/graph.hpp"
#include "lapx/graph/mutation.hpp"

namespace lapxbench {

namespace {

// Requests (hot_cache) or loop iterations (cold_sessions, mutate_requery)
// per connection per second of --seconds.  Fixed constants, not measured
// rates: they only size the run, identically on every commit.
constexpr double kHotRequestsPerConnSecond = 30000.0;
constexpr double kColdLoopsPerConnSecond = 3.0;
constexpr double kMutateLoopsPerConnSecond = 4.5;
// One hot_cache request in this many is a small `generate` (write path).
constexpr std::size_t kHotWriteEvery = 32;
constexpr int kProbeSessions = 4;  // per family; the first only warms up

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Deterministic stream of 64-bit draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return splitmix64(state_++); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

// A generator seed in [1, 2^31): small enough for every JSON/int path.
std::uint64_t graph_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return 1 + splitmix64(splitmix64(seed ^ (a << 40)) ^ b) % 0x7ffffffeull;
}

// Numbers request ids per connection; builds request lines.
class LineBuilder {
 public:
  Req make(const std::string& op, const std::string& fields) {
    std::string line = "{\"id\":" + std::to_string(next_id_++) + ",\"op\":\"" + op + "\"";
    if (!fields.empty()) line += "," + fields;
    line += "}";
    return Req{std::move(line), classify_op(op)};
  }

 private:
  std::int64_t next_id_ = 1;
};

std::string q(const std::string& s) { return "\"" + s + "\""; }

std::string generate_fields(const std::string& name, const std::string& family,
                            const std::string& args) {
  return "\"name\":" + q(name) + ",\"family\":" + q(family) + ",\"args\":[" + args + "]";
}

std::size_t scaled(double per_second, int seconds) {
  return static_cast<std::size_t>(std::ceil(per_second * seconds));
}

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

// One cold session's queries: views r=3 -> homogeneity r=1 -> run.
void cold_queries(LineBuilder& b, std::vector<Req>& out, const std::string& name) {
  out.push_back(b.make("views", "\"graph\":" + q(name) + ",\"radius\":3"));
  out.push_back(b.make("homogeneity", "\"graph\":" + q(name) + ",\"radius\":1"));
  out.push_back(b.make("run", "\"graph\":" + q(name) + ",\"algorithm\":\"eds-mark-first\""));
}

std::string cold_generate(const std::string& name, bool lift, std::uint64_t gseed) {
  const std::string s = std::to_string(gseed);
  return lift ? generate_fields(name, "lift", "3,3,1000," + s)
              : generate_fields(name, "regular", "1500,3," + s);
}

void add_probes(Workload& w, std::uint64_t seed) {
  for (int fam = 0; fam < 2; ++fam) {
    auto& probes = fam == 0 ? w.probe_lift : w.probe_regular;
    for (int i = 0; i < kProbeSessions; ++i) {
      LineBuilder b;
      const std::string name = "probe" + std::to_string(fam) + "-" + std::to_string(i);
      probes.emplace_back();
      probes.back().push_back(b.make(
          "generate", cold_generate(name, fam == 0, graph_seed(seed, 900 + fam, static_cast<std::uint64_t>(i)))));
      cold_queries(b, probes.back(), name);
      probes.back().push_back(b.make("drop", "\"name\":" + q(name)));
    }
  }
}

struct HotSession {
  std::string family;
  std::string args;
  int n;  // vertex count: gates optimum (exact search) and fractional
};

Workload hot_cache(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "hot_cache";
  w.connections = 2;
  auto s = [&](int i) { return std::to_string(graph_seed(seed, 1, static_cast<std::uint64_t>(i))); };
  // 24 resident sessions, all distinct content: 8 small (n <= 12, exact
  // optimum answers) and 16 medium (n > 64, so run skips exact search).
  const std::vector<HotSession> sessions = {
      {"cycle", "12", 12},           {"complete", "6", 6},
      {"petersen", "", 10},          {"hypercube", "3", 8},
      {"gp", "6,1", 12},             {"path", "10", 10},
      {"grid", "3,4", 12},           {"torus", "3,4", 12},
      {"cycle", "500", 500},         {"path", "300", 300},
      {"torus", "8,10", 80},         {"torus", "20,25", 500},
      {"hypercube", "8", 256},       {"gp", "200,7", 400},
      {"grid", "12,12", 144},        {"grid", "30,40", 1200},
      {"lift", "3,3,20," + s(0), 180}, {"lift", "3,4,40," + s(1), 480},
      {"lift", "4,4,60," + s(2), 960}, {"regular", "100,3," + s(3), 100},
      {"regular", "500,3," + s(4), 500}, {"regular", "1000,4," + s(5), 1000},
      {"regular", "300,5," + s(6), 300}, {"cycle", "1999", 1999},
  };
  std::vector<LineBuilder> builders(2);
  w.setup.resize(2);
  std::vector<std::pair<std::string, std::string>> queries;  // op, fields
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const HotSession& hs = sessions[i];
    const std::string name = "h" + std::to_string(i);
    w.setup[0].push_back(builders[0].make("generate", generate_fields(name, hs.family, hs.args)));
    const std::string g = "\"graph\":" + q(name);
    queries.emplace_back("analyze", g);
    for (int r = 1; r <= 6; ++r)
      queries.emplace_back("views", g + ",\"radius\":" + std::to_string(r));
    for (int r = 1; r <= 3; ++r)
      queries.emplace_back("homogeneity", g + ",\"radius\":" + std::to_string(r));
    for (const char* alg : {"eds-mark-first", "edge-cover", "take-all-ds", "local-min-is",
                            "vc-non-min", "even-min-is", "ds-even-pref"})
      queries.emplace_back("run", g + ",\"algorithm\":" + q(alg));
    queries.emplace_back("run", g + ",\"algorithm\":\"eds-greedy\",\"radius\":2");
    if (hs.n <= 2000) queries.emplace_back("fractional", g);
    if (hs.n <= 12)
      for (const char* p : {"vc", "ec", "mm", "is", "ds", "eds"})
        queries.emplace_back("optimum", g + ",\"problem\":" + q(p));
  }
  for (const auto& [op, fields] : queries) w.warmup.push_back(builders[0].make(op, fields));
  const std::size_t per_conn = scaled(kHotRequestsPerConnSecond, seconds);
  w.timed.resize(2);
  for (int c = 0; c < 2; ++c) {
    Rng rng(splitmix64(seed ^ 0x686f74ull) + static_cast<std::uint64_t>(c));
    const std::string scratch = "w" + std::to_string(c);
    for (std::size_t k = 0; k < per_conn; ++k) {
      if (k % kHotWriteEvery == kHotWriteEvery - 1) {
        // Overwrite this connection's scratch session with one of eight
        // small cycles: repeated content, so the daemon does not grow.
        const std::size_t size = 5 + (k / kHotWriteEvery) % 8;
        w.timed[c].push_back(builders[c].make(
            "generate", generate_fields(scratch, "cycle", std::to_string(size))));
      } else {
        const auto& [op, fields] = queries[rng.below(queries.size())];
        w.timed[c].push_back(builders[c].make(op, fields));
      }
    }
  }
  return w;
}

Workload cold_sessions(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "cold_sessions";
  w.connections = 4;
  // A loop is generate + 3 queries; 6 loops per epoch.
  w.loop_requests = 4;
  w.epoch = 6 * w.loop_requests;
  w.setup.resize(4);
  w.timed.resize(4);
  const std::size_t loops = round_up(scaled(kColdLoopsPerConnSecond, seconds), 6);
  for (int c = 0; c < 4; ++c) {
    // Each loop re-generates the connection's session with fresh content
    // (a new epoch of the same name; the store frees the previous graph),
    // so the writes are all generates: a 50/50 mix with drops put the
    // write median in the gap between two modes (10 ms and 1 ms).
    LineBuilder b;
    std::string name = "c";  // (appended: GCC 12 misreports "c" + to_string)
    name += std::to_string(c);
    for (std::size_t i = 0; i < loops; ++i) {
      // Two lifts, then one regular graph, offset per connection.  (With
      // 1:1 the write median fell in the gap between a lift's ~9 ms
      // generate and a regular graph's ~2 ms one, and moved with it.)
      const bool lift = (i + static_cast<std::size_t>(c)) % 3 != 2;
      w.timed[c].push_back(b.make(
          "generate", cold_generate(name, lift, graph_seed(seed, 2 + static_cast<std::uint64_t>(c), i))));
      cold_queries(b, w.timed[c], name);
    }
    w.timed[c].push_back(b.make("drop", "\"name\":" + q(name)));
  }
  return w;
}

// A degree-preserving 2-switch on `g`: remove (a,b), (c,d); add (a,c), (b,d).
// Keeping every degree keeps the port alphabet, so the delta stays local.
std::vector<lapx::graph::EdgeEdit> two_switch(const lapx::graph::Graph& g, Rng& rng) {
  using lapx::graph::EdgeEdit;
  const auto& edges = g.edges();
  for (;;) {
    auto [a, b] = edges[rng.below(edges.size())];
    auto [c, d] = edges[rng.below(edges.size())];
    if (rng.next() & 1) std::swap(a, b);
    if (rng.next() & 1) std::swap(c, d);
    if (a == c || a == d || b == c || b == d) continue;
    if (g.has_edge(a, c) || g.has_edge(b, d)) continue;
    return {{EdgeEdit::Kind::kRemove, a, b},
            {EdgeEdit::Kind::kRemove, c, d},
            {EdgeEdit::Kind::kAdd, a, c},
            {EdgeEdit::Kind::kAdd, b, d}};
  }
}

std::string edits_field(const std::vector<lapx::graph::EdgeEdit>& edits) {
  std::string out = "\"edits\":[";
  for (std::size_t i = 0; i < edits.size(); ++i) {
    if (i > 0) out += ",";
    const bool add = edits[i].kind == lapx::graph::EdgeEdit::Kind::kAdd;
    out += std::string("{\"op\":\"") + (add ? "add" : "remove") +
           "\",\"u\":" + std::to_string(edits[i].u) + ",\"v\":" + std::to_string(edits[i].v) + "}";
  }
  return out + "]";
}

Workload mutate_requery(std::uint64_t seed, int seconds) {
  Workload w;
  w.name = "mutate_requery";
  w.connections = 4;
  // A loop is mutate + 2 queries; 10 loops per epoch.
  w.loop_requests = 3;
  w.epoch = 10 * w.loop_requests;
  w.setup.resize(4);
  w.timed.resize(4);
  const std::size_t loops = round_up(scaled(kMutateLoopsPerConnSecond, seconds), 10);
  for (int c = 0; c < 4; ++c) {
    LineBuilder b;
    const std::string name = "m" + std::to_string(c);
    const std::uint64_t gseed = graph_seed(seed, 20, static_cast<std::uint64_t>(c));
    w.setup[c].push_back(
        b.make("generate", generate_fields(name, "lift", "3,3,1000," + std::to_string(gseed))));
    w.setup[c].push_back(b.make("views", "\"graph\":" + q(name) + ",\"radius\":3"));
    // The load generator's own copy of the session graph: edits are drawn from it
    // so every epoch is valid and brings new content.
    lapx::graph::Graph g = lapx::graph::lifted_torus(3, 3, 1000, gseed);
    Rng rng(splitmix64(seed ^ 0x6d7574ull) + static_cast<std::uint64_t>(c));
    for (std::size_t i = 0; i < loops; ++i) {
      const auto edits = two_switch(g, rng);
      lapx::graph::apply_edits(g, edits);
      w.timed[c].push_back(b.make("mutate", "\"name\":" + q(name) + "," + edits_field(edits)));
      w.timed[c].push_back(b.make("views", "\"graph\":" + q(name) + ",\"radius\":3"));
      w.timed[c].push_back(b.make("homogeneity", "\"graph\":" + q(name) + ",\"radius\":1"));
    }
  }
  return w;
}

}  // namespace

OpClass classify_op(const std::string& op) {
  if (op == "analyze" || op == "homogeneity" || op == "views" || op == "optimum" ||
      op == "run" || op == "fractional")
    return OpClass::kQuery;
  if (op == "generate" || op == "mutate" || op == "drop") return OpClass::kWrite;
  return OpClass::kOther;
}

std::size_t Workload::timed_requests() const {
  std::size_t n = 0;
  for (const auto& t : timed) n += t.size();
  return n;
}

std::size_t Workload::total_requests() const {
  std::size_t n = timed_requests() + warmup.size();
  for (const auto& s : setup) n += s.size();
  return n;
}

Workload make_workload(const std::string& name, std::uint64_t seed, int seconds) {
  Workload w;
  if (name == "hot_cache") {
    w = hot_cache(seed, seconds);
  } else if (name == "cold_sessions") {
    w = cold_sessions(seed, seconds);
  } else if (name == "mutate_requery") {
    w = mutate_requery(seed, seconds);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  add_probes(w, seed);
  return w;
}

}  // namespace lapxbench
