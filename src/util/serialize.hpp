// Canonical wire serialization: a Writer that appends to an owned buffer and
// a Reader that consumes a byte span. Variable-length integers use Bitcoin's
// CompactSize encoding so sizes match the real system's on-disk/on-wire cost.
#pragma once

#include <cstdint>
#include <string>

#include "util/endian.hpp"
#include "util/result.hpp"
#include "util/span.hpp"

namespace ebv::util {

class Writer {
public:
    Writer() = default;
    explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /// Bitcoin CompactSize: 1, 3, 5, or 9 bytes depending on magnitude.
    void compact_size(std::uint64_t v);

    void bytes(ByteSpan data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

    /// CompactSize length prefix followed by the raw bytes.
    void var_bytes(ByteSpan data);

    [[nodiscard]] const Bytes& data() const { return buf_; }
    [[nodiscard]] Bytes take() { return std::move(buf_); }
    [[nodiscard]] std::size_t size() const { return buf_.size(); }

private:
    Bytes buf_;
};

/// Encoded length of Writer::compact_size(v): lets types compute analytic
/// serialized sizes without a throwaway serialization pass.
[[nodiscard]] constexpr std::size_t compact_size_length(std::uint64_t v) {
    if (v < 0xfd) return 1;
    if (v <= 0xffff) return 3;
    if (v <= 0xffffffff) return 5;
    return 9;
}

enum class DecodeError {
    kTruncated,       ///< input ended before the field completed
    kOversizedField,  ///< a length prefix exceeds the sanity limit
    kNonCanonical,    ///< a CompactSize used more bytes than needed
    kMalformed,       ///< a structural constraint of the type was violated
};

[[nodiscard]] std::string to_string(DecodeError e);

class Reader {
public:
    explicit Reader(ByteSpan data) : data_(data) {}

    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
    [[nodiscard]] bool empty() const { return remaining() == 0; }
    [[nodiscard]] std::size_t position() const { return pos_; }

    Result<std::uint8_t, DecodeError> u8();
    Result<std::uint16_t, DecodeError> u16();
    Result<std::uint32_t, DecodeError> u32();
    Result<std::uint64_t, DecodeError> u64();
    Result<std::int64_t, DecodeError> i64();
    Result<std::uint64_t, DecodeError> compact_size();

    /// Read exactly n raw bytes.
    Result<Bytes, DecodeError> bytes(std::size_t n);

    /// Read a CompactSize length prefix then that many bytes. The limit
    /// guards against hostile length prefixes allocating unbounded memory.
    Result<Bytes, DecodeError> var_bytes(std::size_t limit = 1u << 22);

private:
    [[nodiscard]] bool can_read(std::size_t n) const { return remaining() >= n; }
    const std::uint8_t* cursor() const { return data_.data() + pos_; }

    ByteSpan data_;
    std::size_t pos_ = 0;
};

/// The whole file at `path`. kTruncated when it cannot be opened or read
/// to its end (a directory, an I/O error) — never a partial buffer.
[[nodiscard]] Result<Bytes, DecodeError> read_file(const std::string& path);

/// Replaces the file at `path` with `data` atomically: writes `path.tmp`,
/// flushes and fsyncs it, renames it over `path` and fsyncs the directory.
/// Returns false on any failure. Up to the rename, a failure removes the
/// temp file and leaves the previous file at `path` untouched; after it,
/// only the directory fsync can fail, and the new file is then in place
/// but not known to be durable.
[[nodiscard]] bool write_file_atomic(const std::string& path, ByteSpan data);

}  // namespace ebv::util
