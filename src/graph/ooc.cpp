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
constexpr std::uint32_t kVersion = 2;
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
  succ.resize(steps);
  nbr.resize(steps);
  move_bits.resize(steps);
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
    // Following the in-arc backwards arrives at w via move {false, l};
    // the state it realizes excludes the inverse step {true, l} at w.
    succ[s] = step_index_of(g, w, true, l);
    nbr[s] = static_cast<std::uint32_t>(w);
    move_bits[s] = static_cast<std::uint32_t>(l);
    ++s;
  }
  for (const auto& [l, w] : g.out_arcs(v)) {
    succ[s] = step_index_of(g, w, false, l);
    nbr[s] = static_cast<std::uint32_t>(w);
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

  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) fail_errno(tmp, "open");
  Header hdr{};
  std::uint64_t checksum = kFnv1a64Seed;
  std::uint64_t payload_bytes = 0;
  try {
    full_write(fd, &hdr, sizeof(hdr), tmp);  // placeholder, rewritten below
    const auto emit = [&](const void* data, std::size_t bytes) {
      checksum = fnv1a64(data, bytes, checksum);
      full_write(fd, data, bytes, tmp);
      payload_bytes += bytes;
    };
    // Each segment is a u32 array, zero-padded to 8 bytes.
    const std::uint64_t zero = 0;
    for (const auto* seg : {&csr.off, &csr.succ, &csr.nbr, &csr.move_bits}) {
      const std::size_t bytes = seg->size() * 4;
      emit(seg->data(), bytes);
      emit(&zero, pad8(bytes) - bytes);
    }

    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kVersion;
    hdr.header_bytes = kHeaderBytes;
    hdr.n = static_cast<std::uint64_t>(g.num_vertices());
    hdr.m = g.num_arcs();
    hdr.alphabet = static_cast<std::uint32_t>(g.alphabet_size());
    hdr.endian_tag = kEndianTag;
    hdr.steps = csr.succ.size();
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
      pad8((n_ + 1) * 4) + 3 * pad8(steps_ * 4);
  if (hdr.payload_bytes != expected_payload)
    cleanup_fail("payload size inconsistent with the header counts");
  if (file_bytes - kHeaderBytes != hdr.payload_bytes)
    cleanup_fail("file size does not match the header (truncated or padded)");
  if (fnv1a64(map_ + kHeaderBytes, hdr.payload_bytes) != hdr.payload_checksum)
    cleanup_fail("payload checksum mismatch");

  const unsigned char* p = map_ + kHeaderBytes;
  const auto take32 = [&](std::size_t count) {
    const auto* out = reinterpret_cast<const std::uint32_t*>(p);
    p += pad8(count * 4);
    return out;
  };
  step_off_ = take32(n_ + 1);
  step_succ_ = take32(steps_);
  step_nbr_ = take32(steps_);
  step_move_ = take32(steps_);

  // The checksum already rules out bit rot; structure_error rules out a
  // well-checksummed but crafted or corrupt writer, so the span accessors
  // never read out of bounds and materialize() never throws.
  if (alphabet_ > static_cast<std::uint32_t>(std::numeric_limits<Label>::max()))
    cleanup_fail("alphabet size out of range");
  if (const char* why = structure_error()) cleanup_fail(why);
}

const char* OocGraph::structure_error() const {
  // Bounds first, so the checks below may index by any stored value.
  if (step_off_[0] != 0) return "step offsets do not start at zero";
  for (std::size_t v = 0; v < n_; ++v)
    if (step_off_[v + 1] < step_off_[v]) return "non-monotone step offsets";
  if (step_off_[n_] != steps_)
    return "step offsets do not cover the claimed steps";
  for (std::size_t s = 0; s < steps_; ++s)
    if ((step_move_[s] & 0x7fffffffu) >= alphabet_ || step_nbr_[s] >= n_)
      return "step label or neighbour out of range";
  // What build_step_csr derives from some LDigraph that from_arcs accepts.
  // Strictly increasing moves put the in-steps first and make each label
  // unique per side.  succ[s] must be the inverse step: inside nbr[s]'s
  // span (so below the step count), with the inverse move, and with
  // succ[succ[s]] == s, which lies in v's span, so that step's own check
  // makes nbr[succ[s]] == v.  The in-steps are then exactly the transpose
  // of the out-steps, which alone describe the graph.
  std::vector<std::uint32_t> targets;
  for (std::size_t v = 0; v < n_; ++v) {
    targets.clear();
    for (std::uint32_t s = step_off_[v]; s < step_off_[v + 1]; ++s) {
      if (s > step_off_[v] && step_move_[s] <= step_move_[s - 1])
        return "step moves of a vertex repeat or are unsorted";
      const std::uint32_t w = step_nbr_[s], t = step_succ_[s];
      if (w == v) return "self-loop";
      if (step_move_[s] & 0x80000000u) targets.push_back(w);
      if (t < step_off_[w] || t >= step_off_[w + 1] ||
          step_move_[t] != (step_move_[s] ^ 0x80000000u) ||
          step_succ_[t] != s)
        return "step successor is not the inverse step";
    }
    std::sort(targets.begin(), targets.end());
    if (std::adjacent_find(targets.begin(), targets.end()) != targets.end())
      return "parallel arcs";
  }
  return nullptr;
}

std::span<const unsigned char> OocGraph::payload() const {
  return {map_ + kHeaderBytes, map_bytes_ - kHeaderBytes};
}

OocGraph::~OocGraph() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  if (fd_ >= 0) ::close(fd_);
}

LDigraph OocGraph::materialize() const {
  std::vector<Arc> arcs;
  arcs.reserve(m_);
  for (std::size_t v = 0; v < n_; ++v)
    for (std::uint32_t s = step_off_[v]; s < step_off_[v + 1]; ++s)
      if (step_move_[s] & 0x80000000u)
        arcs.push_back({static_cast<Vertex>(v),
                        static_cast<Vertex>(step_nbr_[s]),
                        static_cast<Label>(step_move_[s] & 0x7fffffffu)});
  return LDigraph::from_arcs(static_cast<Vertex>(n_),
                             static_cast<Label>(alphabet_), std::move(arcs));
}

}  // namespace lapx::graph
