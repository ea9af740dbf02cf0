/**
 * @file
 * Bit-granular writer/reader used to serialize RelaxReplay logs in the
 * uncompressed packed format whose size Figure 11 reports.
 */

#ifndef RR_RNR_BITSTREAM_HH
#define RR_RNR_BITSTREAM_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace rr::rnr
{

class BitWriter
{
  public:
    /** Append the low @p width bits of @p value. */
    void
    write(std::uint64_t value, std::uint32_t width)
    {
        RR_ASSERT(width >= 1 && width <= 64, "bad field width %u", width);
        RR_ASSERT(width == 64 || value < (1ULL << width),
                  "value does not fit in %u bits", width);
        for (std::uint32_t i = 0; i < width; ++i) {
            const std::size_t byte = bitCount_ / 8;
            if (byte >= bytes_.size())
                bytes_.push_back(0);
            if ((value >> i) & 1)
                bytes_[byte] |= static_cast<std::uint8_t>(
                    1u << (bitCount_ % 8));
            ++bitCount_;
        }
    }

    std::uint64_t bitCount() const { return bitCount_; }
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    std::uint64_t bitCount_ = 0;
};

/**
 * LSB-first bit reader over a borrowed byte range (a chunk payload) —
 * the reader never copies or owns it.
 * On little-endian hosts a field is extracted with one unaligned
 * 8-byte load (the LSB-first stream *is* the little-endian integer
 * representation), which is what makes chunk decode memory-bound
 * instead of shift-bound.
 */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::uint64_t bit_count)
        : data_(data), bitCount_(bit_count),
          byteCount_((bit_count + 7) / 8)
    {
    }

    explicit BitReader(const std::vector<std::uint8_t> &bytes,
                       std::uint64_t bit_count)
        : BitReader(bytes.data(), bit_count)
    {
        RR_ASSERT((bit_count + 7) / 8 <= bytes.size(),
                  "bit count overruns the byte buffer");
    }

    std::uint64_t
    read(std::uint32_t width)
    {
        RR_ASSERT(width >= 1 && width <= 64, "bad field width %u", width);
        RR_ASSERT(pos_ + width <= bitCount_, "bitstream underrun");
        const std::uint64_t byte = pos_ / 8;
        const std::uint32_t shift = pos_ % 8;
        std::uint64_t v;
        if constexpr (std::endian::native == std::endian::little) {
            if (byte + 8 <= byteCount_) {
                std::memcpy(&v, data_ + byte, 8);
                v >>= shift;
                // A field starting mid-byte can spill into a 9th byte;
                // pos_ + width <= bitCount_ proves it is in bounds.
                if (shift != 0 && shift + width > 64)
                    v |= static_cast<std::uint64_t>(data_[byte + 8])
                         << (64 - shift);
            } else {
                v = 0;
                for (std::uint64_t b = byte; b < byteCount_; ++b)
                    v |= static_cast<std::uint64_t>(data_[b])
                         << (8 * (b - byte));
                v >>= shift;
            }
            if (width < 64)
                v &= (1ULL << width) - 1;
        } else {
            v = 0;
            for (std::uint32_t i = 0; i < width; ++i) {
                const std::uint64_t p = pos_ + i;
                if ((data_[p / 8] >> (p % 8)) & 1)
                    v |= 1ULL << i;
            }
        }
        pos_ += width;
        return v;
    }

    bool atEnd() const { return pos_ >= bitCount_; }
    std::uint64_t position() const { return pos_; }

  private:
    const std::uint8_t *data_;
    std::uint64_t bitCount_;
    std::uint64_t byteCount_;
    std::uint64_t pos_ = 0;
};

} // namespace rr::rnr

#endif // RR_RNR_BITSTREAM_HH
