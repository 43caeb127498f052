#include "lapx/service/persist.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace lapx::service {

namespace {

constexpr char kSnapshotMagic[9] = "LAPXC004";
constexpr char kJournalMagic[9] = "LAPXJ004";
constexpr std::size_t kMagicLen = 8;
constexpr char kEntryRecord = 'E';
// A record body is a key + a payload, both protocol-capped at 16 MiB; a
// larger length field can only be a torn or corrupt record.
constexpr std::uint32_t kMaxRecordBody = (1u << 25) + 64;

std::uint32_t crc32(const char* data, std::size_t n,
                    std::uint32_t seed = 0xFFFFFFFFu) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

/// One framed record: u32 body_len | u8 type | body | u32 crc(type+body).
std::string frame_record(char type, const std::string& body) {
  std::string out;
  out.reserve(body.size() + 9);
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  out.push_back(type);
  out += body;
  std::string checked;
  checked.reserve(body.size() + 1);
  checked.push_back(type);
  checked += body;
  put_u32(out, crc32(checked.data(), checked.size()));
  return out;
}

bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t k = ::write(fd, data + off, n - off);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(k);
  }
  return true;
}

/// Reads a whole file; returns false when it does not exist or cannot be
/// read (distinguished by `exists`).
bool read_file(const std::string& path, std::string& out, bool& exists) {
  exists = false;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  exists = true;
  out.clear();
  char buf[1 << 16];
  while (true) {
    const ssize_t k = ::read(fd, buf, sizeof buf);
    if (k < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (k == 0) break;
    out.append(buf, static_cast<std::size_t>(k));
  }
  ::close(fd);
  return true;
}

}  // namespace

CachePersist::CachePersist(std::string dir, core::TypeInterner& interner)
    : dir_(std::move(dir)), interner_(interner) {
  if (dir_.empty()) throw std::runtime_error("cache dir must be non-empty");
  struct stat st{};
  if (::stat(dir_.c_str(), &st) != 0) {
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
      throw std::runtime_error("cannot create cache dir " + dir_ + ": " +
                               std::strerror(errno));
  } else if (!S_ISDIR(st.st_mode)) {
    throw std::runtime_error("cache dir is not a directory: " + dir_);
  }
  info_.dir = dir_;
}

CachePersist::~CachePersist() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

std::string CachePersist::snapshot_path() const {
  return dir_ + "/snapshot.lapxc";
}

std::string CachePersist::journal_path() const {
  return dir_ + "/journal.lapxj";
}

void CachePersist::note_error_locked(const std::string& what) {
  info_.last_error = what;
}

std::string CachePersist::entry_record(core::TypeId fingerprint,
                                       const std::string& payload) const {
  const std::string_view key = interner_.spelling(fingerprint);
  std::string body;
  body.reserve(4 + key.size() + payload.size());
  put_u32(body, static_cast<std::uint32_t>(key.size()));
  body += key;
  body += payload;
  return frame_record(kEntryRecord, body);
}

void CachePersist::replay_file_locked(
    const std::string& path, const char* magic, bool repair_tail,
    std::vector<std::pair<core::TypeId, std::string>>& entries) {
  std::string bytes;
  bool exists = false;
  if (!read_file(path, bytes, exists)) {
    if (exists) note_error_locked("cannot read " + path);
    return;
  }
  std::size_t pos = kMagicLen;
  if (bytes.size() < kMagicLen ||
      bytes.compare(0, kMagicLen, magic, kMagicLen) != 0) {
    note_error_locked(path + ": bad magic, file ignored");
    info_.discarded_bytes += bytes.size();
    pos = bytes.size();  // discard everything; repair below rewrites magic
    if (repair_tail) {
      const int fd =
          ::open(path.c_str(), O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
      if (fd >= 0) {
        write_all(fd, magic, kMagicLen);
        ::close(fd);
      }
    }
    return;
  }
  while (pos < bytes.size()) {
    // Framing: any short read, oversized length, or checksum mismatch is
    // a torn tail -- keep everything before it, drop the rest.
    if (bytes.size() - pos < 9) break;
    const std::uint32_t body_len = get_u32(bytes.data() + pos);
    if (body_len > kMaxRecordBody || bytes.size() - pos - 9 < body_len) break;
    const char* typed = bytes.data() + pos + 4;  // type byte + body
    const std::uint32_t stored_crc = get_u32(typed + 1 + body_len);
    if (crc32(typed, body_len + 1) != stored_crc) break;
    const char* body = typed + 1;
    const std::uint32_t key_len = body_len >= 4 ? get_u32(body) : 0;
    if (typed[0] != kEntryRecord || body_len < 4 || key_len > body_len - 4) {
      ++info_.dropped_records;
      note_error_locked(path + ": undecodable record");
    } else {
      const std::string_view key(body + 4, key_len);
      entries.emplace_back(interner_.intern(key),
                           std::string(body + 4 + key_len,
                                       body_len - 4 - key_len));
      ++info_.loaded_entries;
    }
    pos += 9 + body_len;
  }
  if (pos < bytes.size()) {
    info_.discarded_bytes += bytes.size() - pos;
    note_error_locked(path + ": discarded " +
                      std::to_string(bytes.size() - pos) +
                      " bytes of torn/corrupt tail");
    if (repair_tail)
      if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0)
        note_error_locked(path + ": tail truncation failed: " +
                          std::strerror(errno));
  }
}

std::vector<std::pair<core::TypeId, std::string>> CachePersist::load() {
  std::lock_guard<std::mutex> lock(mu_);
  // File order throughout, so first-writer-wins replay keeps the oldest
  // bytes.
  std::vector<std::pair<core::TypeId, std::string>> entries;
  replay_file_locked(snapshot_path(), kSnapshotMagic, /*repair_tail=*/false,
                     entries);
  replay_file_locked(journal_path(), kJournalMagic, /*repair_tail=*/true,
                     entries);
  return entries;
}

bool CachePersist::write_journal_locked(const std::string& bytes) {
  if (journal_bad_) return false;
  if (journal_fd_ < 0) {
    journal_fd_ = ::open(journal_path().c_str(),
                         O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (journal_fd_ < 0) {
      journal_bad_ = true;
      note_error_locked("cannot open journal: " +
                        std::string(std::strerror(errno)));
      return false;
    }
    struct stat st{};
    if (::fstat(journal_fd_, &st) == 0 && st.st_size == 0)
      if (!write_all(journal_fd_, kJournalMagic, kMagicLen)) {
        journal_bad_ = true;
        note_error_locked("cannot write journal magic");
        return false;
      }
  }
  if (!write_all(journal_fd_, bytes.data(), bytes.size())) {
    // A half-written record is exactly the torn tail replay tolerates.
    journal_bad_ = true;
    note_error_locked("journal append failed: " +
                      std::string(std::strerror(errno)));
    return false;
  }
  return true;
}

void CachePersist::append_fill(core::TypeId fingerprint,
                               const std::string& payload) {
  const std::string record = entry_record(fingerprint, payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (write_journal_locked(record)) ++info_.journal_appends;
}

bool CachePersist::save_snapshot(
    const std::vector<std::pair<core::TypeId, std::string>>& entries) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out(kSnapshotMagic, kMagicLen);
  for (const auto& [fingerprint, payload] : entries)
    out += entry_record(fingerprint, payload);
  const std::string tmp = snapshot_path() + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    note_error_locked("cannot open " + tmp + ": " + std::strerror(errno));
    return false;
  }
  const bool ok = write_all(fd, out.data(), out.size()) && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    note_error_locked("snapshot write failed: " +
                      std::string(std::strerror(errno)));
    ::unlink(tmp.c_str());
    return false;
  }
  ++info_.snapshots_written;
  // Everything resident is now in the snapshot; restart the journal.  An
  // executor blocked on mu_ right now already put() its entry, so it is
  // either in `entries` or will land in the fresh journal -- never lost.
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  const int jfd = ::open(journal_path().c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (jfd < 0) {
    note_error_locked("cannot truncate journal: " +
                      std::string(std::strerror(errno)));
    return false;
  }
  write_all(jfd, kJournalMagic, kMagicLen);
  ::close(jfd);
  journal_bad_ = false;
  return true;
}

CachePersist::Info CachePersist::info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return info_;
}

}  // namespace lapx::service
