#pragma once
// The full-information protocol: after r rounds of "send everything you
// know", a node's state determines exactly the truncated view tau(T(G, v))
// -- the operational justification for treating local PO-algorithms as
// functions of the view (Section 2.5).
//
// Messages carry (sender's port index, serialized knowledge).  Knowledge
// after round t is the node's degree and orientations plus, per port, the
// neighbour's knowledge after round t-1.  knowledge_to_view() rebuilds the
// truncated view from it, which core's encoders then type like any other
// view; experiment E11 checks that the string equals the one
// lapx::core::view_type produces from the graph directly, at every node.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lapx/core/model.hpp"
#include "lapx/runtime/engine.hpp"

namespace lapx::runtime {

/// What a node knows after t rounds of full-information exchange.
///
/// The knowledge tree is stored as a flat arena (one node record plus a
/// contiguous port range per tree node) instead of per-node heap
/// allocations, so copying a whole round's knowledge is two vector copies
/// and traversal is pointer-chase free.  Node 0 is the root; read the tree
/// through the Node cursor.  The serialized grammar is unchanged:
///   K := '{' degree ';' port* '}'
///   port := ('+' | '-') remote ';' ( '(' K ')' | '_' ) ';'
/// where remote is -1 while unknown and '_' marks absent deeper knowledge.
class Knowledge {
 private:
  struct NodeRec {
    std::int32_t degree = 0;
    std::int32_t first_port = 0;  ///< index of this node's range in ports_
  };
  struct PortRec {
    std::int32_t remote_port = -1;
    std::int32_t child = -1;  ///< arena index of deeper knowledge, -1 if none
    unsigned char outgoing = 0;
  };

 public:
  /// Lightweight cursor into the arena; valid as long as the Knowledge it
  /// was obtained from is alive and unmodified.
  class Node {
   public:
    int degree() const { return k_->nodes_[static_cast<std::size_t>(i_)].degree; }
    bool outgoing(int p) const { return port(p).outgoing != 0; }
    int remote_port(int p) const { return port(p).remote_port; }
    bool has_neighbor(int p) const { return port(p).child >= 0; }
    Node neighbor(int p) const { return Node(k_, port(p).child); }

   private:
    friend class Knowledge;
    Node(const Knowledge* k, std::int32_t i) : k_(k), i_(i) {}
    const PortRec& port(int p) const {
      return k_->ports_[static_cast<std::size_t>(
          k_->nodes_[static_cast<std::size_t>(i_)].first_port + p)];
    }
    const Knowledge* k_;
    std::int32_t i_;
  };

  Knowledge() = default;

  /// Round-0 knowledge: own degree and orientations, nothing else.
  static Knowledge initial(int degree, const std::vector<bool>& outgoing);

  /// Root cursor.  Undefined on a default-constructed (empty) Knowledge.
  Node root() const { return Node(this, 0); }

  bool empty() const { return nodes_.empty(); }

  /// Records what arrived through a root port: the neighbour's return port
  /// and its previous-round knowledge (grafted into this arena).
  void set_root_link(int port, int remote_port, const Knowledge& neighbor);

  std::string serialize() const;

  /// Parses the serialized grammar.  Rejects malformed input, integers that
  /// would overflow int, degrees larger than the remaining input could
  /// encode, and nesting deeper than kMaxParseDepth.
  static Knowledge parse(std::string_view data);

  /// Maximum nesting depth parse() accepts; deeper input (which a malicious
  /// peer could use to exhaust the stack) is rejected.
  static constexpr int kMaxParseDepth = 256;

 private:
  std::int32_t graft(const Knowledge& other);
  void serialize_node(std::int32_t node, std::string& out) const;
  std::int32_t parse_node(std::string_view data, std::size_t& pos, int depth);

  std::vector<NodeRec> nodes_;
  std::vector<PortRec> ports_;
};

/// The node program implementing the protocol.  output() is unused (0);
/// retrieve the final knowledge with FullInfoProgram::knowledge().
class FullInfoProgram : public NodeProgram {
 public:
  void init(const NodeEnv& env) override;
  Message message_for_port(int port) const override;
  void receive(const std::vector<Message>& inbox_by_port) override;
  std::int64_t output() const override { return 0; }

  const Knowledge& knowledge() const { return state_; }

 private:
  int degree_ = 0;
  std::vector<bool> outgoing_;
  Knowledge state_;
};

/// Runs the protocol for `rounds` rounds and returns each node's knowledge.
/// Throws std::invalid_argument("invalid port numbering") unless
/// pn.valid_for(g).
std::vector<Knowledge> gather_full_information(const graph::Graph& g,
                                               const graph::PortNumbering& pn,
                                               const graph::Orientation& orient,
                                               int rounds);

/// Reconstructs the actual ViewTree from gathered knowledge (images are
/// unknown to an anonymous node and are set to -1), each node's children
/// in (outgoing, label) order.  `delta` must match the one used to build
/// the L-digraph: the result is view(to_ldigraph(g, pn, orient, delta), v,
/// radius) up to images.
core::ViewTree knowledge_to_view(const Knowledge& k, int radius, int delta);

/// core::view_type(knowledge_to_view(k, radius, delta)): the canonical
/// truncated-view encoding, identical to core::view_type(view(
/// to_ldigraph(g, pn, orient, delta), v, radius)).
std::string knowledge_view_type(const Knowledge& k, int radius, int delta);

/// core::view_type_id(knowledge_to_view(k, radius, delta), interner):
/// equal TypeId <=> equal knowledge_view_type string.
core::TypeId knowledge_view_type_id(
    const Knowledge& k, int radius, int delta,
    core::TypeInterner& interner = core::TypeInterner::global());

/// Runs a PO vertex algorithm through genuine message passing: r rounds of
/// the full-information protocol, then the algorithm applied to each node's
/// reconstructed view.  Provably equal to core::run_po on the corresponding
/// L-digraph (tested as such) -- the operational semantics of Section 2.
/// Throws std::invalid_argument for an invalid port numbering, as
/// gather_full_information does.  Views are typed serially against
/// `interner`, so its id order does not depend on LAPX_THREADS, and the
/// algorithm runs once per view class.
std::vector<bool> run_po_via_messages(
    const graph::Graph& g, const graph::PortNumbering& pn,
    const graph::Orientation& orient, const core::VertexPoAlgorithm& algo,
    int r, int delta,
    core::TypeInterner& interner = core::TypeInterner::global());

}  // namespace lapx::runtime
