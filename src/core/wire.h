// Binary wire format for the GroupCast protocol messages.
//
// The simulated Transport moves C++ objects, but a deployment moves bytes;
// this module defines the (little-endian, fixed-width, tag-prefixed)
// encoding of every protocol message, with bounds-checked decoding.  The
// Transport uses encoded_size() for bandwidth accounting, so message-load
// results can be read in bytes as well as counts — and the encode/decode
// pair is the seam a socket-backed transport would use as-is.
//
// Layout: [1-byte tag][the message's `fields`, in list order], where the
// tag is the message's MessageBody alternative index + 1 and the field
// lists are declared with the structs in core/transport.h.  One codec
// walks every list, with one rule per field type: u32/PeerId as 4 bytes,
// u64 and the int64 chunk deadline as 8, a bool as one canonical byte
// (0 or 1; anything else is rejected), and a lease-record log as a u32
// count (bounded by kMaxLeaseRecords) followed by each record's fields.
// ChunkMsg alone ends with a zero-padded body of `payload_bytes` bytes
// (bounded by kMaxChunkBytes).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/transport.h"

namespace groupcast::core {

/// Thrown on malformed input: truncated buffer, unknown tag, or trailing
/// garbage.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decode-side bound on ChunkMsg::payload_bytes (the kMaxLeaseRecords
/// idiom): live-streaming chunks are tens of KiB, so anything past 16 MiB
/// is a corrupt frame, rejected before the reader skips its body.
inline constexpr std::uint32_t kMaxChunkBytes = 16u << 20;

/// Serializes a protocol message.
std::vector<std::uint8_t> encode_message(const MessageBody& body);

/// Parses a buffer produced by encode_message.  Throws WireError on any
/// malformed input; never reads out of bounds.
MessageBody decode_message(std::span<const std::uint8_t> buffer);

/// Size in bytes encode_message would produce (without encoding).
std::size_t encoded_size(const MessageBody& body);

namespace wire {

/// Bounds-checked little-endian primitive writer.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}
  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Appends `n` zero bytes (a chunk's padded body).
  void zeros(std::size_t n);

 private:
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked little-endian primitive reader.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> buffer) : buffer_(buffer) {}
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Skips `n` opaque body bytes (chunk payloads); throws on truncation.
  void skip(std::size_t n);
  bool exhausted() const { return at_ == buffer_.size(); }
  std::size_t remaining() const { return buffer_.size() - at_; }

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> buffer_;
  std::size_t at_ = 0;
};

}  // namespace wire
}  // namespace groupcast::core
