// Append-only flat-file record store with an in-memory offset index — the
// blk*.dat equivalent, generic over the record type (Bitcoin blocks and EBV
// blocks use different serializations).
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/endian.hpp"
#include "util/serialize.hpp"

namespace ebv::storage {

template <typename Record>
class FlatStore {
public:
    /// Opens (creating if needed) the store file; replays the index.
    explicit FlatStore(const std::string& path) : path_(path) {
        fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
        EBV_ENSURES(fd_ >= 0);

        struct stat st{};
        EBV_ASSERT(::fstat(fd_, &st) == 0);
        const auto file_size = static_cast<std::uint64_t>(st.st_size);

        std::uint64_t offset = 0;
        std::uint8_t frame[8];
        while (offset + 8 <= file_size) {
            EBV_ASSERT(::pread(fd_, frame, 8, static_cast<off_t>(offset)) == 8);
            const std::uint32_t magic = util::load_le32(frame);
            const std::uint32_t length = util::load_le32(frame + 4);
            if (magic != kRecordMagic || offset + 8 + length > file_size) break;
            offsets_.push_back(offset);
            offset += 8 + length;
        }
        end_offset_ = offset;
    }

    ~FlatStore() {
        if (fd_ >= 0) ::close(fd_);
    }

    FlatStore(const FlatStore&) = delete;
    FlatStore& operator=(const FlatStore&) = delete;

    /// Append a record; returns its sequential index.
    std::uint32_t append(const Record& record) {
        util::Writer w;
        record.serialize(w);
        const util::Bytes& body = w.data();

        std::uint8_t frame[8];
        util::store_le32(frame, kRecordMagic);
        util::store_le32(frame + 4, static_cast<std::uint32_t>(body.size()));

        EBV_ASSERT(::pwrite(fd_, frame, 8, static_cast<off_t>(end_offset_)) == 8);
        EBV_ASSERT(::pwrite(fd_, body.data(), body.size(),
                            static_cast<off_t>(end_offset_ + 8)) ==
                   static_cast<ssize_t>(body.size()));

        offsets_.push_back(end_offset_);
        end_offset_ += 8 + body.size();
        return static_cast<std::uint32_t>(offsets_.size() - 1);
    }

    /// Load the record at `index`; nullopt past the end or on corruption.
    [[nodiscard]] std::optional<Record> load(std::uint32_t index) const {
        if (index >= offsets_.size()) return std::nullopt;
        const std::uint64_t offset = offsets_[index];

        std::uint8_t frame[8];
        EBV_ASSERT(::pread(fd_, frame, 8, static_cast<off_t>(offset)) == 8);
        EBV_ASSERT(util::load_le32(frame) == kRecordMagic);
        const std::uint32_t length = util::load_le32(frame + 4);

        util::Bytes body(length);
        EBV_ASSERT(::pread(fd_, body.data(), length, static_cast<off_t>(offset + 8)) ==
                   static_cast<ssize_t>(length));

        util::Reader r(body);
        auto record = Record::deserialize(r);
        if (!record) return std::nullopt;
        return std::move(*record);
    }

    [[nodiscard]] std::uint32_t count() const {
        return static_cast<std::uint32_t>(offsets_.size());
    }

    void sync() { ::fsync(fd_); }

private:
    static constexpr std::uint32_t kRecordMagic = 0xEB5B10C4;

    std::string path_;
    int fd_ = -1;
    std::vector<std::uint64_t> offsets_;
    std::uint64_t end_offset_ = 0;
};

}  // namespace ebv::storage
