#pragma once
// Out-of-core graphs: a binary, mmap-able on-disk format ("LAPXOOC1",
// version 2) holding an LDigraph's flat step CSR and nothing else, a
// validated, read-only mapping of it, and the StepCsr itself, which
// core::RefineState also builds in RAM.
//
// Layout (little-endian, 128-byte header, 8-byte-aligned segments):
//
//   [ 0)  char[8]  magic "LAPXOOC1"
//   [ 8)  u32      version (2)
//   [12)  u32      header_bytes (128)
//   [16)  u64      n      -- vertices
//   [24)  u64      m      -- arcs
//   [32)  u32      alphabet size
//   [36)  u32      endian tag (0x0a0b0c0d)
//   [40)  u64      steps  -- non-backtracking steps, always 2m
//   [48)  u64      payload_bytes
//   [56)  u64      payload checksum (FNV-1a 64 over the payload)
//   [64)  u64      header checksum (FNV-1a 64 over bytes [0, 64))
//   [72)  zeros to 128
//
// The payload is the StepCsr below, each segment padded to 8 bytes:
//
//   u32 step_off[n+1]
//   u32 step_succ[steps]   step_nbr[steps]   step_move[steps]
//
// A vertex's out-steps are its out-arcs, so the step CSR is the graph.
//
// The writer streams segments through one FNV pass into a temp file,
// fsyncs, and renames into place -- a crash never leaves a torn file under
// the target name.  The reader validates magic, version, both checksums,
// the claimed sizes against the real file size (a short mmap fails closed,
// never faults), and every invariant of the step CSR before handing out
// spans.  The mapping is read-only MAP_PRIVATE, so its pages are clean
// page-cache pages: the kernel faults them in on first touch and reclaims
// them under memory pressure, whether mapped or not.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "lapx/graph/digraph.hpp"

namespace lapx::graph {

/// Any failure opening, validating, or writing an ooc file.
class OocError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The FNV-1a 64 seed this repo uses: 1469598103934665603
/// (0x14650fb0739d0383), not the reference offset basis
/// 14695981039346656037 (0xcbf29ce484222325) it drops a digit of.  Every
/// LAPXOOC1 checksum depends on it, so it stays.  (An out-of-core
/// session's content id is a BLAKE2b of the payload, not this checksum.)
inline constexpr std::uint64_t kFnv1a64Seed = 1469598103934665603ull;

/// FNV-1a 64 with the reference prime, the LAPXOOC1 checksum; `seed`
/// continues a chain.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = kFnv1a64Seed);

/// The flat non-backtracking step CSR of an LDigraph: per vertex, in-arc
/// steps in label order then out-arc steps in label order (the order
/// view() emits children in); move_bits = (outgoing ? 0x80000000 : 0) |
/// label, so the moves of a span strictly increase; nbr is the vertex a
/// step reaches, and succ indexes the inverse step there, whose own
/// neighbour is the step's owner.  core::RefineState owns one (filled in
/// parallel, refilled at the dirty vertices of a delta) and
/// write_ooc_graph persists one, so both share this layout and fill.
struct StepCsr {
  std::vector<std::uint32_t> off;        // n + 1
  std::vector<std::uint32_t> succ;       // steps
  std::vector<std::uint32_t> nbr;        // steps
  std::vector<std::uint32_t> move_bits;  // steps

  /// Sets off from g's degrees and sizes every step array to their total;
  /// the spans' contents are fill's to write.  Throws OocError past 2^32
  /// steps.
  void layout(const LDigraph& g);

  /// Writes v's span; off must be laid out for g.  Spans are disjoint, so
  /// distinct vertices may be filled concurrently.
  void fill(const LDigraph& g, Vertex v);

  /// Index of the step (v, move{outgoing, label}) inside v's span.
  std::uint32_t step_index_of(const LDigraph& g, Vertex v, bool outgoing,
                              Label label) const;
};

/// layout(g), then fill of every vertex in order: what the writer persists.
StepCsr build_step_csr(const LDigraph& g);

/// Serializes `g`'s step CSR to `path`: writes to a temp file in the same
/// directory, fsyncs, renames over `path`, fsyncs the directory.  Throws
/// OocError on any I/O failure or when the graph exceeds the format's
/// 2^32-step bound.
void write_ooc_graph(const std::string& path, const LDigraph& g);

/// A validated, memory-mapped LAPXOOC1 file.  All accessors are const
/// and thread-safe: the mapping is read-only and never changes.
class OocGraph {
 public:
  /// Opens and fully validates `path`; throws OocError on any mismatch
  /// (missing file, not a regular file -- a FIFO is refused, never waited
  /// on -- bad magic/version/endian tag, checksum mismatch, file shorter
  /// than the header claims, or a step CSR that build_step_csr derives
  /// from no LDigraph).  An opened file therefore always materializes.
  explicit OocGraph(const std::string& path);
  ~OocGraph();
  OocGraph(const OocGraph&) = delete;
  OocGraph& operator=(const OocGraph&) = delete;

  Vertex num_vertices() const { return static_cast<Vertex>(n_); }
  std::size_t num_arcs() const { return static_cast<std::size_t>(m_); }
  Label alphabet_size() const { return static_cast<Label>(alphabet_); }
  std::size_t num_steps() const { return static_cast<std::size_t>(steps_); }
  const std::string& path() const { return path_; }

  /// The payload FNV, the file's integrity checksum (verified at open).
  std::uint64_t payload_checksum() const { return payload_checksum_; }

  /// The payload bytes: every segment, padding included -- what the
  /// service digests into an ooc session's content id.
  std::span<const unsigned char> payload() const;

  // The step CSR, mmap'd.
  std::span<const std::uint32_t> step_off() const {
    return {step_off_, n_ + 1};
  }
  std::span<const std::uint32_t> step_succ() const {
    return {step_succ_, steps_};
  }
  std::span<const std::uint32_t> step_nbr() const {
    return {step_nbr_, steps_};
  }
  std::span<const std::uint32_t> step_move_bits() const {
    return {step_move_, steps_};
  }

  /// Reconstructs the LDigraph from each vertex's out-steps (round-trip
  /// verification and under-cap service materialization).
  LDigraph materialize() const;

 private:
  /// Why the mapped step CSR is not build_step_csr of some LDigraph, or
  /// nullptr.  Checked step by step, never materializing.
  const char* structure_error() const;

  std::string path_;
  int fd_ = -1;
  unsigned char* map_ = nullptr;  // whole file
  std::size_t map_bytes_ = 0;
  std::size_t n_ = 0, m_ = 0, steps_ = 0;
  std::uint32_t alphabet_ = 0;
  std::uint64_t payload_checksum_ = 0;

  const std::uint32_t* step_off_ = nullptr;
  const std::uint32_t* step_succ_ = nullptr;
  const std::uint32_t* step_nbr_ = nullptr;
  const std::uint32_t* step_move_ = nullptr;
};

}  // namespace lapx::graph
