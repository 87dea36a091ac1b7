// Streaming byte sources for the serving daemon (DESIGN.md §4i). A source
// hands the daemon raw bytes in chunks; the RecordFramer cuts the byte
// stream into *complete* records so every batch handed to the strict
// TraceReader is a well-formed sub-container (stream header + whole
// records) — a record split across two reads must never reach the reader as
// two half-records, or the quarantine accounting would charge the source
// with corruption it did not commit.
//
// Trust boundary: the framer parses only what framing requires (the CSV
// line separator; the pcap global header length and each record's incl_len
// field). Everything else — field validation, schema bounds, timestamp
// sanitising — stays in io::TraceReader. An unframeable stream (a pcap
// record claiming an absurd length) is a *fatal* source error: the framer
// stops, the residue is flushed to the reader (which quarantines it), and
// the daemon raises a container alert instead of guessing at record
// boundaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace iguard::daemon {

/// Incremental reader over a growing (or static) file: read_some() appends
/// the next chunk after the last read offset, so follow mode sees bytes
/// appended by another process. rewind() restarts the pass (looped replay).
class FileTail {
 public:
  FileTail() = default;
  ~FileTail();
  FileTail(const FileTail&) = delete;
  FileTail& operator=(const FileTail&) = delete;

  /// False when the file cannot be opened (error(), not an exception).
  bool open(const std::string& path);
  /// Read up to `max_bytes` into a buffer the source owns and return the
  /// bytes read; empty = at EOF for now (more may appear later in follow
  /// mode). The view is valid until the next read. The buffer is sized by
  /// the largest `max_bytes` seen and never zero-filled per read.
  std::string_view read_chunk(std::size_t max_bytes);
  /// read_chunk() appended to `out`; returns the byte count.
  std::size_t read_some(std::string& out, std::size_t max_bytes);
  /// Restart the pass from offset 0 (looped replay of a finite file).
  void rewind();
  bool is_open() const { return f_ != nullptr; }
  const std::string& error() const { return error_; }

 private:
  std::FILE* f_ = nullptr;
  std::string error_;
  std::vector<char> chunk_;  // read buffer; grows only with max_bytes
};

/// Chunked reader over an existing descriptor (stdin, a connected replay
/// socket). The fd is borrowed, not owned; EOF is sticky (a closed peer or
/// stdin end-of-stream finishes the source — there is no rewind).
class FdSource {
 public:
  FdSource() = default;
  explicit FdSource(int fd) : fd_(fd) {}

  /// As FileTail::read_chunk. Empty with eof() false means "nothing right
  /// now" (interrupted read, empty non-blocking descriptor); empty with
  /// eof() true is the end.
  std::string_view read_chunk(std::size_t max_bytes);
  /// read_chunk() appended to `out`; returns the byte count.
  std::size_t read_some(std::string& out, std::size_t max_bytes);
  bool eof() const { return eof_; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  bool eof_ = false;
  std::vector<char> chunk_;  // read buffer; grows only with max_bytes
};

/// Cuts a byte stream into reader-ready batches. Wire format is detected
/// from the first bytes (pcap magic vs CSV, mirroring TraceReader's
/// auto-detection); each take_batch() output is `stream header + complete
/// records`, so the reader can parse it stand-alone.
class RecordFramer {
 public:
  enum class Wire : std::uint8_t { kUnknown = 0, kCsv, kPcap };

  /// `max_record_bytes` mirrors IngestLimits::max_record_bytes: a pcap
  /// record header claiming more than this is unframeable (fatal).
  explicit RecordFramer(std::size_t max_record_bytes) : max_record_bytes_(max_record_bytes) {}

  void feed(std::string_view bytes);

  /// Move up to `max_records` complete records — prefixed with the stream
  /// header — into `out` (cleared first). Returns the record count; 0 means
  /// nothing complete yet (out left empty).
  std::size_t take_batch(std::string& out, std::size_t max_records);

  /// End-of-stream flush: whatever is pending (header fragments, a partial
  /// record) goes to `out` verbatim for the reader to account. Returns the
  /// byte count.
  std::size_t take_tail(std::string& out);

  /// Start a new pass (looped replay): wire re-detection, header expected
  /// again. Pending bytes are discarded — call take_tail() first.
  void reset();

  Wire wire() const { return wire_; }
  /// Set when the stream cannot be framed further (oversized pcap record).
  bool fatal() const { return fatal_; }
  std::size_t pending_bytes() const { return pending_.size() - cursor_; }

 private:
  bool detect();       // fix wire_ + capture header once enough bytes arrived
  void compact();      // drop consumed prefix when it dominates the buffer

  std::size_t max_record_bytes_;
  Wire wire_ = Wire::kUnknown;
  bool fatal_ = false;
  std::string header_;   // CSV header line (with '\n') or 24-byte pcap header
  std::string pending_;  // undelivered bytes; consumed prefix tracked by cursor_
  std::size_t cursor_ = 0;
};

}  // namespace iguard::daemon
