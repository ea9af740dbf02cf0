#include "mem/backing_store.hh"

#include "sim/logging.hh"

namespace rr::mem
{

StoreOutsideImage::StoreOutsideImage(sim::Addr addr,
                                     std::uint64_t image_bytes)
    : std::out_of_range(sim::strfmt(
          "store to 0x%llx, outside the %llu-byte memory image",
          static_cast<unsigned long long>(addr),
          static_cast<unsigned long long>(image_bytes))),
      addr_(addr), imageBytes_(image_bytes)
{
}

BackingStore::BackingStore(std::uint64_t bytes)
    : words_((bytes + sim::kWordBytes - 1) / sim::kWordBytes)
{
}

BackingStore::BackingStore(const isa::Program &prog)
    : BackingStore(prog.memoryBytes)
{
    for (const auto &[addr, value] : prog.initialData)
        write64(addr, value);
}

std::uint64_t
BackingStore::fingerprint() const
{
    // Combine per-word hashes with addition so that the value does not
    // depend on the order words are visited in.
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        const std::uint64_t v = words_[i];
        if (v == 0)
            continue;
        std::uint64_t h = i * sim::kWordBytes;
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 0x2545f4914f6cdd1dULL;
        acc += h;
    }
    return acc;
}

} // namespace rr::mem
