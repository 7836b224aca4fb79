#include "core/wire.h"

#include <tuple>
#include <type_traits>
#include <utility>

namespace groupcast::core {

namespace wire {

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::zeros(std::size_t n) { out_->insert(out_->end(), n, 0); }

void Reader::need(std::size_t n) const {
  if (buffer_.size() - at_ < n) throw WireError("truncated message");
}

std::uint8_t Reader::u8() {
  need(1);
  return buffer_[at_++];
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buffer_[at_++]) << (8 * i);
  }
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buffer_[at_++]) << (8 * i);
  }
  return v;
}

void Reader::skip(std::size_t n) {
  need(n);
  at_ += n;
}

}  // namespace wire

namespace {

// A replication log grows by one record per committed handoff, so any
// real log is tiny; the decode bound only protects against corrupt or
// hostile frames claiming absurd lengths.
constexpr std::uint32_t kMaxLeaseRecords = 1024;

template <typename Msg>
constexpr bool kHasPaddedBody = requires { Msg::padded_body; };

// A field list (a tuple of references, from some `fields`) on the wire.
template <typename Fields>
std::size_t fields_size(const Fields& fields);
template <typename Fields>
void put_fields(wire::Writer& w, const Fields& fields);
template <typename Fields>
void get_fields(wire::Reader& r, const Fields& fields);

// Field-type rules: every type a `fields` list may hold.
template <typename F>
std::size_t field_size(const F& field) {
  if constexpr (std::is_same_v<F, bool>) {
    return 1;
  } else if constexpr (std::is_same_v<F, std::uint32_t>) {
    return 4;
  } else if constexpr (std::is_same_v<F, std::uint64_t> ||
                       std::is_same_v<F, std::int64_t>) {
    return 8;
  } else {
    static_assert(std::is_same_v<F, std::vector<LeaseRecord>>);
    std::size_t size = 4;  // record count
    for (const auto& record : field) {
      size += fields_size(LeaseRecord::fields(record));
    }
    return size;
  }
}

template <typename F>
void put(wire::Writer& w, const F& field) {
  if constexpr (std::is_same_v<F, bool>) {
    w.u8(field ? 1 : 0);
  } else if constexpr (std::is_same_v<F, std::uint32_t>) {
    w.u32(field);
  } else if constexpr (std::is_same_v<F, std::uint64_t> ||
                       std::is_same_v<F, std::int64_t>) {
    w.u64(static_cast<std::uint64_t>(field));
  } else {
    w.u32(static_cast<std::uint32_t>(field.size()));
    for (const auto& record : field) {
      put_fields(w, LeaseRecord::fields(record));
    }
  }
}

template <typename F>
void get(wire::Reader& r, F& field) {
  if constexpr (std::is_same_v<F, bool>) {
    // Canonical bool: only 0/1 re-encode byte-identically, so anything
    // else is a corrupt frame, not a truthy value.
    const std::uint8_t v = r.u8();
    if (v > 1) throw WireError("non-canonical bool");
    field = v == 1;
  } else if constexpr (std::is_same_v<F, std::uint32_t>) {
    field = r.u32();
  } else if constexpr (std::is_same_v<F, std::uint64_t> ||
                       std::is_same_v<F, std::int64_t>) {
    field = static_cast<F>(r.u64());
  } else {
    const std::uint32_t count = r.u32();
    if (count > kMaxLeaseRecords) throw WireError("oversized lease log");
    field.resize(count);
    for (auto& record : field) get_fields(r, LeaseRecord::fields(record));
  }
}

template <typename Fields>
std::size_t fields_size(const Fields& fields) {
  return std::apply(
      [](const auto&... f) { return (std::size_t{0} + ... + field_size(f)); },
      fields);
}

template <typename Fields>
void put_fields(wire::Writer& w, const Fields& fields) {
  std::apply([&w](const auto&... f) { (put(w, f), ...); }, fields);
}

template <typename Fields>
void get_fields(wire::Reader& r, const Fields& fields) {
  std::apply([&r](auto&... f) { (get(r, f), ...); }, fields);
}

template <typename Msg>
std::size_t size_of(const Msg& msg) {
  std::size_t size = 1 + fields_size(Msg::fields(msg));  // tag + fields
  if constexpr (kHasPaddedBody<Msg>) size += msg.*Msg::padded_body;
  return size;
}

template <typename Msg>
MessageBody decode_as(wire::Reader& r) {
  Msg msg;
  get_fields(r, Msg::fields(msg));
  if constexpr (kHasPaddedBody<Msg>) {
    const std::uint32_t body_bytes = msg.*Msg::padded_body;
    if (body_bytes > kMaxChunkBytes) throw WireError("oversized chunk body");
    r.skip(body_bytes);
  }
  return msg;
}

/// Decodes the body of alternative `index` (the frame's tag - 1).
template <std::size_t... I>
MessageBody decode_alternative(std::size_t index, wire::Reader& r,
                               std::index_sequence<I...>) {
  using Decoder = MessageBody (*)(wire::Reader&);
  static constexpr Decoder kDecoders[] = {
      &decode_as<std::variant_alternative_t<I, MessageBody>>...};
  return kDecoders[index](r);
}

}  // namespace

std::vector<std::uint8_t> encode_message(const MessageBody& body) {
  std::vector<std::uint8_t> out;
  out.reserve(encoded_size(body));
  wire::Writer w(out);
  w.u8(static_cast<std::uint8_t>(body.index() + 1));
  std::visit(
      [&w](const auto& msg) {
        using Msg = std::decay_t<decltype(msg)>;
        put_fields(w, Msg::fields(msg));
        // The chunk body: the simulation carries no application bytes, so
        // the frame pads with zeros — what matters is that the frame's
        // length (and encoded_size) include them, which is how bandwidth
        // pacing sees the stream as bytes/sec.
        if constexpr (kHasPaddedBody<Msg>) w.zeros(msg.*Msg::padded_body);
      },
      body);
  return out;
}

std::size_t encoded_size(const MessageBody& body) {
  return std::visit([](const auto& msg) { return size_of(msg); }, body);
}

MessageBody decode_message(std::span<const std::uint8_t> buffer) {
  wire::Reader r(buffer);
  const std::size_t tag = r.u8();
  if (tag == 0 || tag > std::variant_size_v<MessageBody>) {
    throw WireError("unknown message tag");
  }
  MessageBody body = decode_alternative(
      tag - 1, r,
      std::make_index_sequence<std::variant_size_v<MessageBody>>{});
  if (!r.exhausted()) throw WireError("trailing bytes after message");
  return body;
}

}  // namespace groupcast::core
