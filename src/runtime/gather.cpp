#include "lapx/runtime/gather.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "lapx/graph/port_numbering.hpp"
#include "lapx/runtime/parallel.hpp"

namespace lapx::runtime {

namespace {

char peek(std::string_view data, std::size_t pos) {
  if (pos >= data.size()) throw std::invalid_argument("truncated");
  return data[pos];
}

char take(std::string_view data, std::size_t& pos) {
  const char c = peek(data, pos);
  ++pos;
  return c;
}

void expect(std::string_view data, std::size_t& pos, char c) {
  if (take(data, pos) != c) throw std::invalid_argument("unexpected character");
}

int parse_int(std::string_view data, std::size_t& pos) {
  bool negative = false;
  if (peek(data, pos) == '-') {
    negative = true;
    ++pos;
  }
  int value = 0;
  bool any = false;
  while (pos < data.size() &&
         std::isdigit(static_cast<unsigned char>(data[pos]))) {
    const int digit = take(data, pos) - '0';
    if (value > (std::numeric_limits<int>::max() - digit) / 10)
      throw std::invalid_argument("integer overflow");
    value = value * 10 + digit;
    any = true;
  }
  if (!any) throw std::invalid_argument("expected integer");
  return negative ? -value : value;
}

}  // namespace

Knowledge Knowledge::initial(int degree, const std::vector<bool>& outgoing) {
  Knowledge k;
  k.nodes_.push_back(NodeRec{degree, 0});
  k.ports_.resize(static_cast<std::size_t>(degree));
  for (int p = 0; p < degree; ++p)
    k.ports_[static_cast<std::size_t>(p)].outgoing = outgoing[p] ? 1 : 0;
  return k;
}

std::int32_t Knowledge::graft(const Knowledge& other) {
  const auto node_off = static_cast<std::int32_t>(nodes_.size());
  const auto port_off = static_cast<std::int32_t>(ports_.size());
  for (const NodeRec& n : other.nodes_)
    nodes_.push_back(NodeRec{n.degree, n.first_port + port_off});
  for (const PortRec& p : other.ports_)
    ports_.push_back(
        PortRec{p.remote_port, p.child >= 0 ? p.child + node_off : -1,
                p.outgoing});
  return node_off;
}

void Knowledge::set_root_link(int port, int remote_port,
                              const Knowledge& neighbor) {
  const std::int32_t child = neighbor.empty() ? -1 : graft(neighbor);
  PortRec& rec = ports_[static_cast<std::size_t>(nodes_[0].first_port + port)];
  rec.remote_port = remote_port;
  rec.child = child;
}

void Knowledge::serialize_node(std::int32_t node, std::string& out) const {
  const NodeRec& n = nodes_[static_cast<std::size_t>(node)];
  out += '{';
  out += std::to_string(n.degree);
  out += ';';
  for (int p = 0; p < n.degree; ++p) {
    const PortRec& rec = ports_[static_cast<std::size_t>(n.first_port + p)];
    out += rec.outgoing ? '+' : '-';
    out += std::to_string(rec.remote_port);
    out += ';';
    if (rec.child >= 0) {
      out += '(';
      serialize_node(rec.child, out);
      out += ')';
    } else {
      out += '_';
    }
    out += ';';
  }
  out += '}';
}

std::string Knowledge::serialize() const {
  std::string out;
  serialize_node(0, out);
  return out;
}

std::int32_t Knowledge::parse_node(std::string_view data, std::size_t& pos,
                                   int depth) {
  if (depth > kMaxParseDepth)
    throw std::invalid_argument("knowledge nesting too deep");
  expect(data, pos, '{');
  const int degree = parse_int(data, pos);
  expect(data, pos, ';');
  if (degree < 0) throw std::invalid_argument("negative degree");
  // Each port takes at least 5 bytes ("+0;_;"), so a larger degree cannot be
  // encoded by the remaining input -- reject before allocating for it.
  if (static_cast<std::size_t>(degree) > (data.size() - pos) / 5)
    throw std::invalid_argument("degree larger than message");
  const auto idx = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(
      NodeRec{degree, static_cast<std::int32_t>(ports_.size())});
  ports_.resize(ports_.size() + static_cast<std::size_t>(degree));
  for (int p = 0; p < degree; ++p) {
    const char dir = take(data, pos);
    if (dir != '+' && dir != '-') throw std::invalid_argument("bad dir");
    const int remote = parse_int(data, pos);
    expect(data, pos, ';');
    std::int32_t child = -1;
    if (peek(data, pos) == '(') {
      ++pos;
      child = parse_node(data, pos, depth + 1);
      expect(data, pos, ')');
    } else {
      expect(data, pos, '_');
    }
    expect(data, pos, ';');
    PortRec& rec = ports_[static_cast<std::size_t>(
        nodes_[static_cast<std::size_t>(idx)].first_port + p)];
    rec.outgoing = dir == '+' ? 1 : 0;
    rec.remote_port = remote;
    rec.child = child;
  }
  expect(data, pos, '}');
  return idx;
}

Knowledge Knowledge::parse(std::string_view data) {
  Knowledge k;
  std::size_t pos = 0;
  k.parse_node(data, pos, 0);
  if (pos != data.size()) throw std::invalid_argument("trailing data");
  return k;
}

void FullInfoProgram::init(const NodeEnv& env) {
  degree_ = env.degree;
  outgoing_ = env.port_outgoing;
  state_ = Knowledge::initial(degree_, outgoing_);
}

Message FullInfoProgram::message_for_port(int port) const {
  return std::to_string(port) + '#' + state_.serialize();
}

void FullInfoProgram::receive(const std::vector<Message>& inbox_by_port) {
  Knowledge next = Knowledge::initial(degree_, outgoing_);
  for (std::size_t p = 0; p < inbox_by_port.size(); ++p) {
    const std::string& msg = inbox_by_port[p];
    const auto hash = msg.find('#');
    if (hash == std::string::npos)
      throw std::invalid_argument("malformed message");
    const int remote = std::stoi(msg.substr(0, hash));
    next.set_root_link(static_cast<int>(p), remote,
                       Knowledge::parse(
                           std::string_view(msg).substr(hash + 1)));
  }
  state_ = std::move(next);
}

std::vector<Knowledge> gather_full_information(const graph::Graph& g,
                                               const graph::PortNumbering& pn,
                                               const graph::Orientation& orient,
                                               int rounds) {
  if (!pn.valid_for(g)) throw std::invalid_argument("invalid port numbering");
  const graph::Vertex n = g.num_vertices();
  // Port topology: for (v, p), the neighbour and its return port.
  std::vector<std::vector<std::pair<graph::Vertex, int>>> link(n);
  std::vector<std::vector<bool>> outgoing(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    link[v].resize(pn.ports[v].size());
    outgoing[v].resize(pn.ports[v].size());
    for (std::size_t p = 0; p < pn.ports[v].size(); ++p) {
      const graph::Vertex u = pn.ports[v][p];
      link[v][p] = {u, pn.port_of(u, v)};
      const auto [tail, head] = orient.directed(g, g.edge_id(v, u));
      outgoing[v][p] = (tail == v);
    }
  }
  std::vector<FullInfoProgram> programs(static_cast<std::size_t>(n));
  for (graph::Vertex v = 0; v < n; ++v) {
    NodeEnv env{g.degree(v), outgoing[v], 0};
    programs[v].init(env);
  }
  std::vector<std::vector<Message>> inbox(n);
  for (int round = 0; round < rounds; ++round) {
    for (graph::Vertex v = 0; v < n; ++v)
      inbox[v].assign(pn.ports[v].size(), Message{});
    // Each (v, p) writes the unique pre-sized slot inbox[u][q] of the edge
    // end opposite to it, so the sends of all nodes can run in parallel --
    // as can the receives, which only touch node-local state.
    runtime::parallel_for(n, [&](std::int64_t vi) {
      const auto v = static_cast<graph::Vertex>(vi);
      for (std::size_t p = 0; p < pn.ports[v].size(); ++p) {
        const auto [u, q] = link[v][p];
        inbox[u][q] = programs[v].message_for_port(static_cast<int>(p));
      }
    });
    runtime::parallel_for(n, [&](std::int64_t v) {
      programs[static_cast<std::size_t>(v)].receive(
          inbox[static_cast<std::size_t>(v)]);
    });
  }
  std::vector<Knowledge> result;
  result.reserve(static_cast<std::size_t>(n));
  for (graph::Vertex v = 0; v < n; ++v)
    result.push_back(programs[v].knowledge());
  return result;
}

namespace {

struct ChildEntry {
  bool outgoing;
  graph::Label label;
  int port;       // port on the parent leading to this child
  int back_port;  // port on the child leading back to us
};

std::vector<ChildEntry> sorted_children(const Knowledge::Node& k,
                                        int arrived_port, int delta) {
  std::vector<ChildEntry> children;
  for (int p = 0; p < k.degree(); ++p) {
    if (p == arrived_port) continue;
    if (k.remote_port(p) < 0)
      throw std::logic_error("knowledge too shallow for requested radius");
    ChildEntry entry;
    entry.outgoing = k.outgoing(p);
    entry.label =
        entry.outgoing
            ? graph::encode_port_label(p, k.remote_port(p), delta)
            : graph::encode_port_label(k.remote_port(p), p, delta);
    entry.port = p;
    entry.back_port = k.remote_port(p);
    children.push_back(entry);
  }
  std::sort(children.begin(), children.end(),
            [](const ChildEntry& a, const ChildEntry& b) {
              return std::pair(a.outgoing, a.label) <
                     std::pair(b.outgoing, b.label);
            });
  return children;
}

void view_serialize(const Knowledge::Node& k, int arrived_port, int depth_left,
                    int delta, std::string& out) {
  out += '(';
  if (depth_left <= 0) {
    out += ')';
    return;
  }
  for (const ChildEntry& c : sorted_children(k, arrived_port, delta)) {
    out += c.outgoing ? '+' : '-';
    out += std::to_string(c.label);
    if (depth_left == 1) {
      // Leaf level: the subtree is empty regardless of deeper knowledge.
      out += "()";
    } else {
      if (!k.has_neighbor(c.port))
        throw std::logic_error("knowledge too shallow for requested radius");
      view_serialize(k.neighbor(c.port), c.back_port, depth_left - 1, delta,
                     out);
    }
  }
  out += ')';
}

}  // namespace

std::string knowledge_view_type(const Knowledge& k, int radius, int delta) {
  std::string out = "r=" + std::to_string(radius) + ";";
  view_serialize(k.root(), -1, radius, delta, out);
  return out;
}

core::ViewTree knowledge_to_view(const Knowledge& k, int radius, int delta) {
  core::ViewTree t;
  t.alphabet = static_cast<graph::Label>(delta * delta);
  t.radius = radius;
  struct Frame {
    Knowledge::Node knowledge;
    int arrived_port;
    int node;
    int depth;
  };
  t.nodes.push_back(core::ViewTree::Node{-1, -1, core::Move{}, 0});
  t.children.emplace_back();
  std::vector<Frame> queue{Frame{k.root(), -1, 0, 0}};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Frame frame = queue[head];
    if (frame.depth == radius) continue;
    for (const ChildEntry& entry :
         sorted_children(frame.knowledge, frame.arrived_port, delta)) {
      const int child = static_cast<int>(t.nodes.size());
      t.nodes.push_back(core::ViewTree::Node{
          -1, frame.node, core::Move{entry.outgoing, entry.label},
          frame.depth + 1});
      t.children.emplace_back();
      t.children[frame.node].push_back(child);
      if (frame.depth + 1 < radius) {
        if (!frame.knowledge.has_neighbor(entry.port))
          throw std::logic_error("knowledge too shallow for requested radius");
        queue.push_back(Frame{frame.knowledge.neighbor(entry.port),
                              entry.back_port, child, frame.depth + 1});
      }
    }
  }
  return t;
}

namespace {

// Hash-conses the view encoded by a knowledge tree directly -- the same
// bottom-up tuple view_type_id builds from a ViewTree, so the TypeIds
// coincide with view_type_id(knowledge_to_view(...)) without materializing
// the tree.
core::TypeId intern_knowledge(const Knowledge::Node& k, int arrived_port,
                              int depth_left, int delta,
                              core::TypeInterner& interner) {
  if (depth_left <= 0)
    return interner.intern_node(core::type_tag::kViewNode, nullptr, 0);
  std::vector<core::TypeId> edges;
  for (const ChildEntry& c : sorted_children(k, arrived_port, delta)) {
    core::TypeId sub;
    if (depth_left == 1) {
      // Leaf level: the subtree is empty regardless of deeper knowledge.
      sub = interner.intern_node(core::type_tag::kViewNode, nullptr, 0);
    } else {
      if (!k.has_neighbor(c.port))
        throw std::logic_error("knowledge too shallow for requested radius");
      sub = intern_knowledge(k.neighbor(c.port), c.back_port, depth_left - 1,
                             delta, interner);
    }
    const std::uint64_t payload =
        (static_cast<std::uint64_t>(c.outgoing ? 1 : 0) << 32) |
        static_cast<std::uint32_t>(c.label);
    edges.push_back(
        interner.intern_node(core::type_tag::kViewEdge | payload, &sub, 1));
  }
  return interner.intern_node(core::type_tag::kViewNode, edges.data(),
                              edges.size());
}

}  // namespace

core::TypeId knowledge_view_type_id(const Knowledge& k, int radius, int delta,
                                    core::TypeInterner& interner) {
  const core::TypeId body =
      intern_knowledge(k.root(), -1, radius, delta, interner);
  return interner.intern_node(
      core::type_tag::kViewRoot | static_cast<std::uint32_t>(radius), &body,
      1);
}

std::vector<bool> run_po_via_messages(const graph::Graph& g,
                                      const graph::PortNumbering& pn,
                                      const graph::Orientation& orient,
                                      const core::VertexPoAlgorithm& algo,
                                      int r, int delta,
                                      core::TypeInterner& interner) {
  const auto knowledge = gather_full_information(g, pn, orient, r);
  const graph::Vertex n = g.num_vertices();
  // Classify every node by its (materialization-free) view type, then run
  // the algorithm once per class: the one place a ViewTree is still built
  // is the per-class witness handed to the algorithm.  Typing interns, so
  // it runs serially in vertex order: fresh ids then land in an order that
  // does not depend on the thread schedule.
  std::unordered_map<core::TypeId, std::size_t> index;
  std::vector<graph::Vertex> rep;
  std::vector<std::size_t> cls(static_cast<std::size_t>(n));
  for (graph::Vertex v = 0; v < n; ++v) {
    const auto [it, inserted] = index.try_emplace(
        knowledge_view_type_id(knowledge[static_cast<std::size_t>(v)], r,
                               delta, interner),
        rep.size());
    if (inserted) rep.push_back(v);
    cls[static_cast<std::size_t>(v)] = it->second;
  }
  std::vector<unsigned char> out(rep.size());
  runtime::parallel_for(static_cast<std::int64_t>(rep.size()),
                        [&](std::int64_t c) {
                          out[static_cast<std::size_t>(c)] =
                              algo(knowledge_to_view(
                                  knowledge[static_cast<std::size_t>(
                                      rep[static_cast<std::size_t>(c)])],
                                  r, delta)) != 0;
                        });
  std::vector<bool> result(static_cast<std::size_t>(n));
  for (graph::Vertex v = 0; v < n; ++v)
    result[static_cast<std::size_t>(v)] =
        out[cls[static_cast<std::size_t>(v)]] != 0;
  return result;
}

}  // namespace lapx::runtime
