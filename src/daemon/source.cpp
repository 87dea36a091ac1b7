#include "daemon/source.hpp"

#include <cerrno>
#include <unistd.h>

#include "trafficgen/pcap_io.hpp"

namespace iguard::daemon {

namespace {

std::uint32_t le32(const std::string& s, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[at])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[at + 1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[at + 2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[at + 3])) << 24;
}

}  // namespace

FileTail::~FileTail() {
  if (f_ != nullptr) std::fclose(f_);
}

bool FileTail::open(const std::string& path) {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
  f_ = std::fopen(path.c_str(), "rb");
  if (f_ == nullptr) {
    error_ = "cannot open " + path;
    return false;
  }
  error_.clear();
  return true;
}

std::string_view FileTail::read_chunk(std::size_t max_bytes) {
  if (f_ == nullptr || max_bytes == 0) return {};
  // The EOF flag on a FILE* is sticky; clear it so follow mode picks up
  // bytes appended after a previous short read.
  std::clearerr(f_);
  if (chunk_.size() < max_bytes) chunk_.resize(max_bytes);
  return {chunk_.data(), std::fread(chunk_.data(), 1, max_bytes, f_)};
}

std::size_t FileTail::read_some(std::string& out, std::size_t max_bytes) {
  const std::string_view got = read_chunk(max_bytes);
  out.append(got);
  return got.size();
}

void FileTail::rewind() {
  if (f_ != nullptr) {
    std::fseek(f_, 0, SEEK_SET);
    std::clearerr(f_);
  }
}

std::string_view FdSource::read_chunk(std::size_t max_bytes) {
  if (fd_ < 0 || eof_ || max_bytes == 0) return {};
  if (chunk_.size() < max_bytes) chunk_.resize(max_bytes);
  const ssize_t n = ::read(fd_, chunk_.data(), max_bytes);
  if (n > 0) return {chunk_.data(), static_cast<std::size_t>(n)};
  if (n == 0) {
    eof_ = true;  // peer closed / end of stdin
  } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
    eof_ = true;  // hard read error ends the source; the framer flushes
  }
  return {};
}

std::size_t FdSource::read_some(std::string& out, std::size_t max_bytes) {
  const std::string_view got = read_chunk(max_bytes);
  out.append(got);
  return got.size();
}

void RecordFramer::feed(std::string_view bytes) { pending_.append(bytes); }

bool RecordFramer::detect() {
  if (wire_ != Wire::kUnknown) return true;
  if (pending_.size() < 4) return false;
  if (le32(pending_, 0) == traffic::kPcapMagicLE) {
    if (pending_.size() < traffic::kPcapGlobalHeaderLen) return false;
    wire_ = Wire::kPcap;
    header_.assign(pending_, 0, traffic::kPcapGlobalHeaderLen);
    cursor_ = traffic::kPcapGlobalHeaderLen;
    return true;
  }
  // Anything without the little-endian pcap magic frames as CSV — the same
  // fallback TraceReader's auto-detection applies, so a genuinely damaged
  // container reaches the reader and is accounted there, not guessed at
  // here. The header is the first complete line.
  const std::size_t eol = pending_.find('\n');
  if (eol == std::string::npos) return false;
  wire_ = Wire::kCsv;
  header_.assign(pending_, 0, eol + 1);
  cursor_ = eol + 1;
  return true;
}

void RecordFramer::compact() {
  if (cursor_ > (1u << 16) && cursor_ * 2 > pending_.size()) {
    pending_.erase(0, cursor_);
    cursor_ = 0;
  }
}

std::size_t RecordFramer::take_batch(std::string& out, std::size_t max_records) {
  out.clear();
  if (fatal_ || !detect()) return 0;
  std::size_t n = 0;
  std::size_t end = cursor_;
  if (wire_ == Wire::kCsv) {
    while (n < max_records) {
      const std::size_t eol = pending_.find('\n', end);
      if (eol == std::string::npos) break;
      end = eol + 1;
      ++n;
    }
  } else {
    while (n < max_records) {
      if (pending_.size() - end < traffic::kPcapRecordHeaderLen) break;
      const std::uint32_t incl = le32(pending_, end + 8);
      if (incl > max_record_bytes_) {
        // An untrusted length beyond the ingest limit: advancing by it
        // would desynchronise every later record boundary. Stop framing;
        // take_tail() hands the residue to the reader for accounting.
        fatal_ = true;
        break;
      }
      const std::size_t total = traffic::kPcapRecordHeaderLen + incl;
      if (pending_.size() - end < total) break;
      end += total;
      ++n;
    }
  }
  if (n == 0) return 0;
  out.reserve(header_.size() + (end - cursor_));
  out.append(header_);
  out.append(pending_, cursor_, end - cursor_);
  cursor_ = end;
  compact();
  return n;
}

std::size_t RecordFramer::take_tail(std::string& out) {
  out.clear();
  const std::size_t rest = pending_.size() - cursor_;
  if (rest > 0) {
    if (wire_ != Wire::kUnknown) out.append(header_);
    out.append(pending_, cursor_, rest);
  }
  pending_.clear();
  cursor_ = 0;
  return out.size();
}

void RecordFramer::reset() {
  wire_ = Wire::kUnknown;
  fatal_ = false;
  header_.clear();
  pending_.clear();
  cursor_ = 0;
}

}  // namespace iguard::daemon
