#include "lapx/graph/ooc.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <limits>
#include <utility>

namespace lapx::graph {

namespace {

constexpr char kMagic[8] = {'L', 'A', 'P', 'X', 'O', 'O', 'C', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kHeaderBytes = 128;
constexpr std::uint32_t kEndianTag = 0x0a0b0c0d;

struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t header_bytes;
  std::uint64_t n;
  std::uint64_t m;
  std::uint32_t alphabet;
  std::uint32_t endian_tag;
  std::uint64_t steps;
  std::uint64_t payload_bytes;
  std::uint64_t payload_checksum;
  std::uint64_t header_checksum;  // over bytes [0, 64) of the header
  unsigned char reserved[56];
};
static_assert(sizeof(Header) == kHeaderBytes, "LAPXOOC1 header is 128 bytes");
static_assert(offsetof(Header, header_checksum) == 64,
              "header checksum covers the first 64 bytes");

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw OocError(path + ": " + why);
}

[[noreturn]] void fail_errno(const std::string& path, const std::string& op) {
  fail(path, op + " failed: " + std::strerror(errno));
}

std::size_t pad8(std::size_t bytes) { return (bytes + 7) & ~std::size_t{7}; }

void full_write(int fd, const void* data, std::size_t bytes,
                const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t w = ::write(fd, p, bytes);
    if (w < 0) {
      if (errno == EINTR) continue;
      fail_errno(path, "write");
    }
    p += w;
    bytes -= static_cast<std::size_t>(w);
  }
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void StepCsr::layout(const LDigraph& g) {
  const Vertex n = g.num_vertices();
  off.assign(static_cast<std::size_t>(n) + 1, 0);
  std::uint64_t total = 0;
  for (Vertex v = 0; v < n; ++v) {
    total += static_cast<std::uint64_t>(g.degree(v));
    if (total > std::numeric_limits<std::uint32_t>::max())
      throw OocError("graph exceeds the 2^32-step bound of the step CSR");
    off[static_cast<std::size_t>(v) + 1] = static_cast<std::uint32_t>(total);
  }
  const auto steps = static_cast<std::size_t>(total);
  vertex.resize(steps);
  succ.resize(steps);
  nbr.resize(steps);
  move_bits.resize(steps);
  tag.resize(steps);
}

std::uint32_t StepCsr::step_index_of(const LDigraph& g, Vertex v, bool outgoing,
                                     Label label) const {
  const auto arcs = outgoing ? g.out_arcs(v) : g.in_arcs(v);
  const auto it = std::lower_bound(
      arcs.begin(), arcs.end(), label,
      [](const std::pair<Label, Vertex>& a, Label l) { return a.first < l; });
  const auto pos = static_cast<std::uint32_t>(it - arcs.begin());
  return off[static_cast<std::size_t>(v)] +
         (outgoing ? static_cast<std::uint32_t>(g.in_degree(v)) : 0u) + pos;
}

void StepCsr::fill(const LDigraph& g, Vertex v) {
  std::uint32_t s = off[static_cast<std::size_t>(v)];
  for (const auto& [l, w] : g.in_arcs(v)) {
    vertex[s] = static_cast<std::uint32_t>(v);
    // Following the in-arc backwards arrives at w via move {false, l};
    // the state it realizes excludes the inverse step {true, l} at w.
    succ[s] = step_index_of(g, w, true, l);
    nbr[s] = static_cast<std::uint32_t>(w);
    tag[s] = kOocViewEdgeTag | static_cast<std::uint32_t>(l);
    move_bits[s] = static_cast<std::uint32_t>(l);
    ++s;
  }
  for (const auto& [l, w] : g.out_arcs(v)) {
    vertex[s] = static_cast<std::uint32_t>(v);
    succ[s] = step_index_of(g, w, false, l);
    nbr[s] = static_cast<std::uint32_t>(w);
    tag[s] = kOocViewEdgeTag | (std::uint64_t{1} << 32) |
             static_cast<std::uint32_t>(l);
    move_bits[s] = 0x80000000u | static_cast<std::uint32_t>(l);
    ++s;
  }
}

StepCsr build_step_csr(const LDigraph& g) {
  StepCsr csr;
  csr.layout(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) csr.fill(g, v);
  return csr;
}

void write_ooc_graph(const std::string& path, const LDigraph& g) {
  const StepCsr csr = build_step_csr(g);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const std::size_t m = g.num_arcs();
  const std::size_t steps = csr.tag.size();

  // Adjacency segments: 64-bit offsets, packed (label << 32 | endpoint).
  std::vector<std::uint64_t> out_off(n + 1, 0), in_off(n + 1, 0);
  std::vector<std::uint64_t> out_arcs, in_arcs;
  out_arcs.reserve(m);
  in_arcs.reserve(m);
  for (std::size_t v = 0; v < n; ++v) {
    const auto vv = static_cast<Vertex>(v);
    for (const auto& [l, w] : g.out_arcs(vv))
      out_arcs.push_back((static_cast<std::uint64_t>(l) << 32) |
                         static_cast<std::uint32_t>(w));
    for (const auto& [l, w] : g.in_arcs(vv))
      in_arcs.push_back((static_cast<std::uint64_t>(l) << 32) |
                        static_cast<std::uint32_t>(w));
    out_off[v + 1] = out_arcs.size();
    in_off[v + 1] = in_arcs.size();
  }

  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) fail_errno(tmp, "open");
  Header hdr{};
  std::uint64_t checksum = 1469598103934665603ull;
  std::uint64_t payload_bytes = 0;
  try {
    full_write(fd, &hdr, sizeof(hdr), tmp);  // placeholder, rewritten below
    const auto emit = [&](const void* data, std::size_t bytes) {
      checksum = fnv1a64(data, bytes, checksum);
      full_write(fd, data, bytes, tmp);
      payload_bytes += bytes;
    };
    const auto emit_padded = [&](const void* data, std::size_t bytes) {
      emit(data, bytes);
      const std::uint64_t zero = 0;
      if (pad8(bytes) != bytes) emit(&zero, pad8(bytes) - bytes);
    };
    emit(out_off.data(), out_off.size() * 8);
    emit(in_off.data(), in_off.size() * 8);
    emit(out_arcs.data(), out_arcs.size() * 8);
    emit(in_arcs.data(), in_arcs.size() * 8);
    emit(csr.tag.data(), csr.tag.size() * 8);
    emit_padded(csr.off.data(), csr.off.size() * 4);
    emit_padded(csr.vertex.data(), csr.vertex.size() * 4);
    emit_padded(csr.succ.data(), csr.succ.size() * 4);
    emit_padded(csr.nbr.data(), csr.nbr.size() * 4);
    emit_padded(csr.move_bits.data(), csr.move_bits.size() * 4);

    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kVersion;
    hdr.header_bytes = kHeaderBytes;
    hdr.n = n;
    hdr.m = m;
    hdr.alphabet = static_cast<std::uint32_t>(g.alphabet_size());
    hdr.endian_tag = kEndianTag;
    hdr.steps = steps;
    hdr.payload_bytes = payload_bytes;
    hdr.payload_checksum = checksum;
    hdr.header_checksum = fnv1a64(&hdr, 64);
    if (::lseek(fd, 0, SEEK_SET) < 0) fail_errno(tmp, "lseek");
    full_write(fd, &hdr, sizeof(hdr), tmp);
    if (::fsync(fd) != 0) fail_errno(tmp, "fsync");
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) fail_errno(tmp, "close");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail_errno(path, "rename");
  }
  // Durability of the rename itself: fsync the containing directory.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

OocGraph::OocGraph(const std::string& path) : path_(path) {
  // O_NONBLOCK: a FIFO must be refused below, not waited on until some
  // writer opens it.  It changes nothing for a regular file.
  fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  if (fd_ < 0) fail_errno(path, "open");
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fail_errno(path, "fstat");
  }
  const auto file_bytes = static_cast<std::size_t>(st.st_size);
  const auto cleanup_fail = [&](const std::string& why) {
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    ::close(fd_);
    fd_ = -1;
    map_ = nullptr;
    fail(path, why);
  };
  if (!S_ISREG(st.st_mode)) cleanup_fail("not a regular file");
  if (file_bytes < kHeaderBytes) cleanup_fail("file shorter than the header");
  map_bytes_ = file_bytes;
  void* map = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (map == MAP_FAILED) {
    map_ = nullptr;
    cleanup_fail(std::string("mmap failed: ") + std::strerror(errno));
  }
  map_ = static_cast<unsigned char*>(map);

  Header hdr{};
  std::memcpy(&hdr, map_, sizeof(hdr));
  if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
    cleanup_fail("bad magic (not a LAPXOOC1 file)");
  if (hdr.header_checksum != fnv1a64(&hdr, 64))
    cleanup_fail("header checksum mismatch");
  if (hdr.version != kVersion)
    cleanup_fail("unsupported version " + std::to_string(hdr.version));
  if (hdr.header_bytes != kHeaderBytes)
    cleanup_fail("unexpected header size");
  if (hdr.endian_tag != kEndianTag)
    cleanup_fail("endianness mismatch (file written on a foreign byte order)");
  // Size sanity before any segment arithmetic: every count must fit the
  // in-memory representation, steps must be exactly 2m, and the payload
  // must both match the segment arithmetic and actually be present on
  // disk -- a truncated file fails here instead of faulting later.
  constexpr std::uint64_t kMaxVertices =
      std::numeric_limits<std::int32_t>::max();
  if (hdr.n > kMaxVertices || hdr.m > kMaxVertices)
    cleanup_fail("vertex/arc count out of range");
  if (hdr.steps != 2 * hdr.m ||
      hdr.steps > std::numeric_limits<std::uint32_t>::max())
    cleanup_fail("step count inconsistent with arc count");
  n_ = static_cast<std::size_t>(hdr.n);
  m_ = static_cast<std::size_t>(hdr.m);
  steps_ = static_cast<std::size_t>(hdr.steps);
  alphabet_ = hdr.alphabet;
  payload_checksum_ = hdr.payload_checksum;
  const std::size_t expected_payload =
      (n_ + 1) * 8 * 2 + m_ * 8 * 2 + steps_ * 8 + pad8((n_ + 1) * 4) +
      4 * pad8(steps_ * 4);
  if (hdr.payload_bytes != expected_payload)
    cleanup_fail("payload size inconsistent with the header counts");
  if (file_bytes < kHeaderBytes ||
      file_bytes - kHeaderBytes != hdr.payload_bytes)
    cleanup_fail("file size does not match the header (truncated or padded)");
  if (fnv1a64(map_ + kHeaderBytes, hdr.payload_bytes) != hdr.payload_checksum)
    cleanup_fail("payload checksum mismatch");

  const unsigned char* p = map_ + kHeaderBytes;
  const auto take64 = [&](std::size_t count) {
    const auto* out = reinterpret_cast<const std::uint64_t*>(p);
    p += count * 8;
    return out;
  };
  const auto take32 = [&](std::size_t count) {
    const auto* out = reinterpret_cast<const std::uint32_t*>(p);
    p += pad8(count * 4);
    return out;
  };
  out_off_ = take64(n_ + 1);
  in_off_ = take64(n_ + 1);
  out_arcs_ = take64(m_);
  in_arcs_ = take64(m_);
  step_tag_ = take64(steps_);
  step_off_ = take32(n_ + 1);
  step_vertex_ = take32(steps_);
  step_succ_ = take32(steps_);
  step_nbr_ = take32(steps_);
  step_move_ = take32(steps_);

  // Structural invariants: monotone offsets ending at the claimed totals,
  // every index within range, and (structure_error) exactly the segments
  // write_ooc_graph emits for some LDigraph.  The checksum already rules
  // out bit rot; this pass rules out a well-checksummed but crafted or
  // corrupt writer, so the span accessors never read out of bounds and
  // materialize() never throws.
  if (alphabet_ > static_cast<std::uint32_t>(std::numeric_limits<Label>::max()))
    cleanup_fail("alphabet size out of range");
  if (out_off_[0] != 0 || in_off_[0] != 0 || step_off_[0] != 0)
    cleanup_fail("segment offsets do not start at zero");
  for (std::size_t v = 0; v < n_; ++v) {
    if (out_off_[v + 1] < out_off_[v] || in_off_[v + 1] < in_off_[v] ||
        step_off_[v + 1] < step_off_[v])
      cleanup_fail("non-monotone CSR offsets");
    if (step_off_[v + 1] - step_off_[v] !=
        (out_off_[v + 1] - out_off_[v]) + (in_off_[v + 1] - in_off_[v]))
      cleanup_fail("step span disagrees with the adjacency degrees");
  }
  if (out_off_[n_] != m_ || in_off_[n_] != m_ || step_off_[n_] != steps_)
    cleanup_fail("CSR offsets do not cover the claimed totals");
  for (std::size_t a = 0; a < m_; ++a) {
    if ((out_arcs_[a] & 0xffffffffu) >= n_ || (out_arcs_[a] >> 32) >= alphabet_ ||
        (in_arcs_[a] & 0xffffffffu) >= n_ || (in_arcs_[a] >> 32) >= alphabet_)
      cleanup_fail("arc endpoint or label out of range");
  }
  if (const char* why = structure_error()) cleanup_fail(why);
}

const char* OocGraph::structure_error() const {
  // A vertex's arc run, packed label << 32 | endpoint.  With strictly
  // increasing labels the packed words are sorted too, so a label's
  // position is one lower_bound on label << 32.
  const auto run = [](const std::uint64_t* off, const std::uint64_t* arcs,
                      std::size_t v) {
    return std::span<const std::uint64_t>(arcs + off[v], arcs + off[v + 1]);
  };
  const auto label_pos = [](std::span<const std::uint64_t> r,
                            std::uint64_t label) {
    return static_cast<std::uint64_t>(
        std::lower_bound(r.begin(), r.end(), label << 32) - r.begin());
  };
  // What LDigraph::from_arcs rejects: a repeated label on either side of a
  // vertex, a self-loop, or two arcs to the same target.
  std::vector<std::uint64_t> targets;
  for (std::size_t v = 0; v < n_; ++v) {
    for (const auto r :
         {run(out_off_, out_arcs_, v), run(in_off_, in_arcs_, v)}) {
      for (std::size_t i = 1; i < r.size(); ++i)
        if ((r[i] >> 32) <= (r[i - 1] >> 32))
          return "arc labels of a vertex repeat or are unsorted";
    }
    targets.clear();
    for (const std::uint64_t a : run(out_off_, out_arcs_, v)) {
      if ((a & 0xffffffffu) == v) return "self-loop";
      targets.push_back(a & 0xffffffffu);
    }
    std::sort(targets.begin(), targets.end());
    if (std::adjacent_find(targets.begin(), targets.end()) != targets.end())
      return "parallel arcs";
  }
  // in_arcs must be the transpose of out_arcs: every arc v -> w labelled l
  // appears as (l, v) in w's in-run.  The map is injective (labels are
  // unique per run) and both sides hold m arcs, so it is a bijection.
  for (std::size_t v = 0; v < n_; ++v)
    for (const std::uint64_t a : run(out_off_, out_arcs_, v)) {
      const auto r = run(in_off_, in_arcs_, a & 0xffffffffu);
      if (!std::binary_search(r.begin(), r.end(), (a >> 32 << 32) | v))
        return "in_arcs is not the transpose of out_arcs";
    }
  // The step segments must be exactly what build_step_csr derives from
  // the adjacency: per vertex, in-arc steps then out-arc steps, each
  // leading to the inverse move's step in the neighbour's span (whose
  // out-steps follow its in-steps).
  for (std::size_t v = 0; v < n_; ++v) {
    std::uint32_t s = step_off_[v];
    for (const bool out : {false, true}) {
      for (const std::uint64_t a :
           out ? run(out_off_, out_arcs_, v) : run(in_off_, in_arcs_, v)) {
        const std::uint64_t label = a >> 32;
        const auto w = static_cast<std::uint32_t>(a);
        const auto back =
            out ? run(in_off_, in_arcs_, w) : run(out_off_, out_arcs_, w);
        const std::uint64_t skip = out ? 0 : in_off_[w + 1] - in_off_[w];
        const std::uint64_t succ = step_off_[w] + skip + label_pos(back, label);
        const std::uint64_t tag =
            kOocViewEdgeTag | (std::uint64_t{out} << 32) | label;
        const std::uint64_t move = (out ? 0x80000000u : 0u) | label;
        if (step_vertex_[s] != v || step_nbr_[s] != w ||
            step_succ_[s] != succ || step_tag_[s] != tag ||
            step_move_[s] != move)
          return "step segments disagree with the adjacency";
        ++s;
      }
    }
  }
  return nullptr;
}

OocGraph::~OocGraph() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  if (fd_ >= 0) ::close(fd_);
}

LDigraph OocGraph::materialize() const {
  std::vector<Arc> arcs;
  arcs.reserve(m_);
  for (std::size_t v = 0; v < n_; ++v)
    for (std::uint64_t a = out_off_[v]; a < out_off_[v + 1]; ++a)
      arcs.push_back({static_cast<Vertex>(v),
                      static_cast<Vertex>(out_arcs_[a] & 0xffffffffu),
                      static_cast<Label>(out_arcs_[a] >> 32)});
  return LDigraph::from_arcs(static_cast<Vertex>(n_),
                             static_cast<Label>(alphabet_), std::move(arcs));
}

}  // namespace lapx::graph
