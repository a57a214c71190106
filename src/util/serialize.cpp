#include "util/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

namespace ebv::util {

void Writer::u16(std::uint16_t v) {
    std::uint8_t tmp[2];
    store_le16(tmp, v);
    bytes({tmp, 2});
}

void Writer::u32(std::uint32_t v) {
    std::uint8_t tmp[4];
    store_le32(tmp, v);
    bytes({tmp, 4});
}

void Writer::u64(std::uint64_t v) {
    std::uint8_t tmp[8];
    store_le64(tmp, v);
    bytes({tmp, 8});
}

void Writer::compact_size(std::uint64_t v) {
    if (v < 0xfd) {
        u8(static_cast<std::uint8_t>(v));
    } else if (v <= 0xffff) {
        u8(0xfd);
        u16(static_cast<std::uint16_t>(v));
    } else if (v <= 0xffffffff) {
        u8(0xfe);
        u32(static_cast<std::uint32_t>(v));
    } else {
        u8(0xff);
        u64(v);
    }
}

void Writer::var_bytes(ByteSpan data) {
    compact_size(data.size());
    bytes(data);
}

std::string to_string(DecodeError e) {
    switch (e) {
        case DecodeError::kTruncated: return "truncated input";
        case DecodeError::kOversizedField: return "oversized field";
        case DecodeError::kNonCanonical: return "non-canonical compact size";
        case DecodeError::kMalformed: return "malformed structure";
    }
    return "unknown decode error";
}

Result<std::uint8_t, DecodeError> Reader::u8() {
    if (!can_read(1)) return Unexpected{DecodeError::kTruncated};
    return data_[pos_++];
}

Result<std::uint16_t, DecodeError> Reader::u16() {
    if (!can_read(2)) return Unexpected{DecodeError::kTruncated};
    const auto v = load_le16(cursor());
    pos_ += 2;
    return v;
}

Result<std::uint32_t, DecodeError> Reader::u32() {
    if (!can_read(4)) return Unexpected{DecodeError::kTruncated};
    const auto v = load_le32(cursor());
    pos_ += 4;
    return v;
}

Result<std::uint64_t, DecodeError> Reader::u64() {
    if (!can_read(8)) return Unexpected{DecodeError::kTruncated};
    const auto v = load_le64(cursor());
    pos_ += 8;
    return v;
}

Result<std::int64_t, DecodeError> Reader::i64() {
    auto v = u64();
    if (!v) return Unexpected{v.error()};
    return static_cast<std::int64_t>(*v);
}

Result<std::uint64_t, DecodeError> Reader::compact_size() {
    auto first = u8();
    if (!first) return Unexpected{first.error()};
    if (*first < 0xfd) return static_cast<std::uint64_t>(*first);
    if (*first == 0xfd) {
        auto v = u16();
        if (!v) return Unexpected{v.error()};
        if (*v < 0xfd) return Unexpected{DecodeError::kNonCanonical};
        return static_cast<std::uint64_t>(*v);
    }
    if (*first == 0xfe) {
        auto v = u32();
        if (!v) return Unexpected{v.error()};
        if (*v <= 0xffff) return Unexpected{DecodeError::kNonCanonical};
        return static_cast<std::uint64_t>(*v);
    }
    auto v = u64();
    if (!v) return Unexpected{v.error()};
    if (*v <= 0xffffffff) return Unexpected{DecodeError::kNonCanonical};
    return *v;
}

Result<Bytes, DecodeError> Reader::bytes(std::size_t n) {
    if (!can_read(n)) return Unexpected{DecodeError::kTruncated};
    Bytes out(cursor(), cursor() + n);
    pos_ += n;
    return out;
}

Result<Bytes, DecodeError> Reader::var_bytes(std::size_t limit) {
    auto n = compact_size();
    if (!n) return Unexpected{n.error()};
    if (*n > limit) return Unexpected{DecodeError::kOversizedField};
    return bytes(static_cast<std::size_t>(*n));
}

Result<Bytes, DecodeError> read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Unexpected{DecodeError::kTruncated};
    // Read to EOF rather than trusting fseek/ftell for the size: ftell
    // fails with -1 on a pipe and reports LONG_MAX for a directory, and
    // either, cast to size_t, would be a hostile allocation.
    Bytes data;
    std::uint8_t chunk[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        data.insert(data.end(), chunk, chunk + n);
    const bool read_ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!read_ok) return Unexpected{DecodeError::kTruncated};
    return data;
}

bool write_file_atomic(const std::string& path, ByteSpan data) {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return false;  // nothing of ours to remove
    bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
    ok = std::fflush(f) == 0 && ok;
    ok = ::fsync(::fileno(f)) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    // The rename itself is durable only once the directory entry is.
    const std::size_t slash = path.rfind('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd < 0) return false;
    const bool synced = ::fsync(dir_fd) == 0;
    ::close(dir_fd);
    return synced;
}

}  // namespace ebv::util
