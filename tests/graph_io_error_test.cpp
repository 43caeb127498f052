// Error-path tests for the edge-list reader in lapx/graph/io.hpp.
//
// The reader is the upload surface of the lapxd service, so every
// malformed input must fail with a typed exception instead of silently
// producing a wrong graph -- in particular 64-bit vertex ids must not
// wrap into valid 32-bit vertices through the narrowing cast.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph_corpus.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/io.hpp"

namespace {

using namespace lapx::graph;

Graph parse(const std::string& text) { return graph_from_edge_list(text); }

TEST(EdgeListErrors, EmptyAndCommentOnlyInputs) {
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("   \n\t\n"), std::invalid_argument);
  EXPECT_THROW(parse("# just a comment\n# another\n"), std::invalid_argument);
}

TEST(EdgeListErrors, MalformedHeader) {
  EXPECT_THROW(parse("three 2\n"), std::invalid_argument);
  EXPECT_THROW(parse("3\n"), std::invalid_argument);
  EXPECT_THROW(parse("-3 2\n"), std::invalid_argument);
  EXPECT_THROW(parse("3 -2\n"), std::invalid_argument);
  EXPECT_THROW(parse("3 1 extra\n0 1\n"), std::invalid_argument);
}

TEST(EdgeListErrors, HeaderCommentIsAllowed) {
  const Graph g = parse("3 1  # n m\n0 1\n");
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeListErrors, ImpossibleEdgeCounts) {
  // More edges than a simple graph on n vertices admits.
  EXPECT_THROW(parse("3 4\n0 1\n0 2\n1 2\n1 2\n"), std::invalid_argument);
  // Edges on an empty vertex set.
  EXPECT_THROW(parse("0 1\n0 0\n"), std::invalid_argument);
  // Declared edges missing from the body.
  EXPECT_THROW(parse("3 2\n0 1\n"), std::invalid_argument);
}

TEST(EdgeListErrors, MalformedEdgeLines) {
  EXPECT_THROW(parse("3 1\n0\n"), std::invalid_argument);
  EXPECT_THROW(parse("3 1\na b\n"), std::invalid_argument);
  EXPECT_THROW(parse("3 1\n0 1 9\n"), std::invalid_argument);
}

TEST(EdgeListErrors, EdgeCommentIsAllowed) {
  const Graph g = parse("2 1\n0 1 # the only edge\n");
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(EdgeListErrors, OutOfRangeVertexIds) {
  EXPECT_THROW(parse("3 1\n0 3\n"), std::invalid_argument);
  EXPECT_THROW(parse("3 1\n-1 2\n"), std::invalid_argument);
  // A 64-bit id congruent to a valid vertex mod 2^32 must still be
  // rejected: 4294967296 == 0 (mod 2^32).
  EXPECT_THROW(parse("3 1\n4294967296 1\n"), std::invalid_argument);
  EXPECT_THROW(parse("3 1\n0 4294967297\n"), std::invalid_argument);
}

TEST(EdgeListErrors, SelfLoopsAndDuplicates) {
  EXPECT_THROW(parse("3 1\n1 1\n"), std::invalid_argument);
  EXPECT_THROW(parse("3 2\n0 1\n1 0\n"), std::invalid_argument);
  EXPECT_THROW(parse("3 2\n0 1\n0 1\n"), std::invalid_argument);
}

TEST(EdgeListErrors, AnEarlierInvalidEdgeBeatsALaterBadLine) {
  // The reader builds the graph in bulk after the last line, yet reports
  // as if each edge were inserted as it is read: an invalid edge wins over
  // any bad line after it, and a bad line over any invalid edge after it.
  auto message = [](const std::string& text) -> std::string {
    try {
      parse(text);
    } catch (const MutationError& e) {
      return std::string("MutationError: ") + e.what();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "parsed";
  };
  EXPECT_EQ(message("4 5\n0 1\n1 2\n1 0\n2 3\nx y\n"),
            "MutationError: parallel edge {1,0}");
  EXPECT_EQ(message("4 3\n2 2\n0 9\n0 1\n"),
            "MutationError: self-loop at 2");
  EXPECT_EQ(message("4 3\n0 1\n1 0\n"),
            "MutationError: parallel edge {1,0}");
  EXPECT_EQ(message("4 3\n0 1\n2 3 junk\n1 0\n"),
            "edge list: trailing garbage after edge: junk");
  EXPECT_EQ(message("4 3\n0 1\n0 4\n1 1\n"),
            "edge list: vertex out of range on edge 0 4");
}

TEST(EdgeListErrors, FieldsReadAsStreamExtractionReadsThem) {
  // Each field is read as `std::istream >> long long` reads one: leading
  // whitespace (any of " \t\v\f\r"), an optional sign, decimal digits,
  // and a failure on overflow; the token after the fields is the one the
  // trailing-garbage message quotes.  Both entry points agree.
  auto message = [](const std::string& text) -> std::string {
    std::string from_stream;
    try {
      std::istringstream is(text);
      read_edge_list(is);
      from_stream = "parsed";
    } catch (const std::invalid_argument& e) {
      from_stream = e.what();
    }
    try {
      parse(text);
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), from_stream) << text;
      return e.what();
    }
    EXPECT_EQ("parsed", from_stream) << text;
    return "parsed";
  };
  // Signs: '+' is taken before a digit, as is '-'; alone or doubled, not.
  EXPECT_EQ(message("+3 1\n+0 +1\n"), "parsed");
  EXPECT_EQ(parse("3 1\n-0 +02\n").edge(0), Edge(0, 2));
  EXPECT_EQ(message("+\n"), "edge list: bad header");
  EXPECT_EQ(message("3 1\n+-1 2\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\n--1 2\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\n+ 1 2\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\n0 -1\n"),
            "edge list: vertex out of range on edge 0 -1");
  // Overflow of a 64-bit field fails the line; the extremes still parse.
  EXPECT_EQ(message("99999999999999999999 1\n"), "edge list: bad header");
  EXPECT_EQ(message("3 1\n0 99999999999999999999\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\n-9223372036854775809 1\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\n9223372036854775807 1\n"),
            "edge list: vertex out of range on edge 9223372036854775807 1");
  // Garbage glued to a field is the next token; a glued comment is not.
  EXPECT_EQ(message("3 1 2x # c\n0 1\n"),
            "edge list: trailing garbage after header: 2x");
  EXPECT_EQ(message("3 1\n0 1x\n"),
            "edge list: trailing garbage after edge: x");
  EXPECT_EQ(message("3 1\n0x1 2\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\n1.5 2\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\n0 1#c\n"), "parsed");
  // Missing fields, and a line of whitespace that blank-line skipping
  // does not treat as blank.
  EXPECT_EQ(message("3 1\n\n0\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\n\v\n"), "edge list: bad edge");
  EXPECT_EQ(message("3 1\r\n0\t1\v\f\r\n"), "parsed");
  EXPECT_EQ(message("3 2\n0 1"), "edge list: missing edges");
}

TEST(EdgeListErrors, LimitsAreEnforced) {
  EdgeListLimits tight;
  tight.max_vertices = 4;
  tight.max_edges = 2;
  std::istringstream big_n("5 0\n");
  EXPECT_THROW(read_edge_list(big_n, tight), std::invalid_argument);
  std::istringstream big_m("4 3\n0 1\n1 2\n2 3\n");
  EXPECT_THROW(read_edge_list(big_m, tight), std::invalid_argument);
  std::istringstream ok("4 2\n0 1\n2 3\n");
  EXPECT_EQ(read_edge_list(ok, tight).num_edges(), 2u);
}

TEST(EdgeListErrors, RoundTripStillWorks) {
  const Graph g = petersen();
  const Graph h = parse(to_edge_list(g));
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (const auto& [u, v] : g.edges()) EXPECT_TRUE(h.has_edge(u, v));
}

TEST(EdgeList, TextMatchesReferenceFormatter) {
  // to_edge_list formats with to_chars into one buffer; a stream writer is
  // its byte-for-byte oracle, and the text parses back to the same graph,
  // edge ids included.
  for (const Graph& g : corpus::builder_graphs(11, 50)) {
    std::ostringstream os;
    os << g.num_vertices() << " " << g.num_edges() << "\n";
    for (const auto& [u, v] : g.edges()) os << u << " " << v << "\n";
    const std::string text = to_edge_list(g);
    ASSERT_EQ(text, os.str()) << g.summary();
    EXPECT_TRUE(parse(text) == g) << g.summary();
  }
}

}  // namespace
