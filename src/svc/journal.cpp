#include "svc/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "io/bytes.hpp"

namespace bfvr::svc {

namespace {

constexpr std::uint32_t kJournalMagic = 0x4A564642u;  // "BFVJ" little-endian

std::string errnoText(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Write all of `n` bytes to a plain file descriptor, retrying EINTR and
/// short writes.
void writeAllFd(int fd, const std::uint8_t* p, std::size_t n,
                const std::string& path) {
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw Error(errnoText("journal: write " + path));
    }
    p += static_cast<std::size_t>(k);
    n -= static_cast<std::size_t>(k);
  }
}

void fsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw Error(errnoText("journal: fsync " + path));
}

/// fsync the directory so a fresh file / rename is itself durable.
void fsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best-effort: not all filesystems allow it
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

FsyncPolicy parseFsyncPolicy(const std::string& s) {
  if (s == "never") return FsyncPolicy::kNever;
  if (s == "batch") return FsyncPolicy::kBatch;
  if (s == "always") return FsyncPolicy::kAlways;
  throw Error("journal: expected fsync policy never|batch|always, got '" + s +
              "'");
}

const char* to_string(FsyncPolicy p) noexcept {
  switch (p) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "?";
}

const char* to_string(JournalEvent e) noexcept {
  switch (e) {
    case JournalEvent::kAccepted:
      return "accepted";
    case JournalEvent::kDispatched:
      return "dispatched";
    case JournalEvent::kCheckpointed:
      return "checkpointed";
    case JournalEvent::kDone:
      return "done";
  }
  return "?";
}

std::vector<std::uint8_t> Journal::encodeRecord(const JournalRecord& rec) {
  Writer w;
  io::writeFields(w, rec);
  if (w.buf.size() > kMaxFramePayload) {
    throw Error("journal: record payload too large");
  }
  return io::encodeRecord(kJournalMagic, kJournalVersion,
                          static_cast<std::uint8_t>(rec.event), w.buf);
}

std::size_t Journal::decodeRecord(const std::uint8_t* p, std::size_t n,
                                  JournalRecord* out) {
  // Any fault ends the valid prefix: a bad header, an unknown event, a
  // record torn mid-payload, a CRC mismatch.
  io::RecordHeader h;
  if (n < kJournalHeaderBytes ||
      io::decodeRecordHeader(p, kJournalMagic, kJournalVersion, &h) !=
          io::HeaderFault::kNone ||
      h.type < static_cast<std::uint8_t>(JournalEvent::kAccepted) ||
      h.type > static_cast<std::uint8_t>(JournalEvent::kDone) ||
      n - kJournalHeaderBytes < h.length) {
    return 0;
  }
  const std::uint8_t* payload = p + kJournalHeaderBytes;
  if (io::crc32(payload, h.length) != h.crc) return 0;
  try {
    Reader r(payload, h.length);
    JournalRecord rec;
    rec.event = static_cast<JournalEvent>(h.type);
    io::readFields(r, rec);
    if (out != nullptr) *out = std::move(rec);
  } catch (const Error&) {
    return 0;  // CRC-valid but structurally wrong: treat as end of log
  }
  return kJournalHeaderBytes + h.length;
}

Journal::Journal(std::string dir, FsyncPolicy policy)
    : dir_(std::move(dir)), policy_(policy) {
  if (dir_.empty()) throw Error("journal: empty directory");
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    throw Error(errnoText("journal: mkdir " + dir_));
  }
  path_ = dir_ + "/journal.bin";
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw Error(errnoText("journal: open " + path_));
  replayAndTruncate();
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::replayAndTruncate() {
  // Slurp the whole file: journals are small (a handful of records per
  // job) and the scan needs random access for the record framing anyway.
  std::vector<std::uint8_t> bytes;
  {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      throw Error(errnoText("journal: stat " + path_));
    }
    bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < bytes.size()) {
      const ssize_t k = ::pread(fd_, bytes.data() + got, bytes.size() - got,
                                static_cast<off_t>(got));
      if (k < 0) {
        if (errno == EINTR) continue;
        throw Error(errnoText("journal: read " + path_));
      }
      if (k == 0) break;  // raced a concurrent truncate; scan what we have
      got += static_cast<std::size_t>(k);
    }
    bytes.resize(got);
  }
  std::size_t pos = 0;
  for (;;) {
    JournalRecord rec;
    const std::size_t used =
        decodeRecord(bytes.data() + pos, bytes.size() - pos, &rec);
    if (used == 0) break;
    replayed_.push_back(std::move(rec));
    pos += used;
  }
  stats_.replayed_records = replayed_.size();
  if (pos < bytes.size()) {
    // Torn tail from a crash mid-append: drop it so the next append starts
    // at a record boundary.
    stats_.torn_bytes = bytes.size() - pos;
    if (::ftruncate(fd_, static_cast<off_t>(pos)) != 0) {
      throw Error(errnoText("journal: truncate " + path_));
    }
  }
}

void Journal::append(const JournalRecord& rec) {
  const std::vector<std::uint8_t> bytes = encodeRecord(rec);
  const std::lock_guard<std::mutex> lock(mu_);
  writeAllFd(fd_, bytes.data(), bytes.size(), path_);
  stats_.appended += 1;
  const bool flush =
      policy_ == FsyncPolicy::kAlways ||
      (policy_ == FsyncPolicy::kBatch &&
       (rec.event == JournalEvent::kAccepted ||
        rec.event == JournalEvent::kDone));
  if (flush) {
    fsyncFd(fd_, path_);
    stats_.fsyncs += 1;
  }
}

void Journal::compact(const std::vector<JournalRecord>& keep) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw Error(errnoText("journal: open " + tmp));
  try {
    for (const JournalRecord& rec : keep) {
      const std::vector<std::uint8_t> bytes = encodeRecord(rec);
      writeAllFd(fd, bytes.data(), bytes.size(), tmp);
    }
    fsyncFd(fd, tmp);
  } catch (...) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(errnoText("journal: rename " + tmp));
  }
  fsyncDir(dir_);
  // Swap the append fd onto the fresh file.
  const int nfd = ::open(path_.c_str(), O_RDWR | O_APPEND, 0644);
  if (nfd < 0) throw Error(errnoText("journal: reopen " + path_));
  ::close(fd_);
  fd_ = nfd;
  stats_.compactions += 1;
  stats_.fsyncs += 1;
}

JournalStats Journal::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace bfvr::svc
