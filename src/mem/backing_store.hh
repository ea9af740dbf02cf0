/**
 * @file
 * Flat 64-bit physical memory image: one zero-initialised word array
 * over [0, Program::memoryBytes), the program's footprint.
 *
 * The memory system applies store values and samples load values at each
 * access's global serialization point, so a single flat image is the
 * value authority for the whole machine; caches track MESI state and
 * timing only. This is exactly the write-atomicity property RelaxReplay
 * requires (Observation 1 in the paper), enforced by construction.
 *
 * The replay engine runs on one such image too, on either order; a
 * fanned-out replay's workers store into distinct words of it, ordered
 * by the dependency DAG (rnr/replayer.hh). The image never grows: a
 * read outside it returns 0, and a store outside it throws
 * StoreOutsideImage, which replay reports as a divergence.
 */

#ifndef RR_MEM_BACKING_STORE_HH
#define RR_MEM_BACKING_STORE_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "isa/program.hh"
#include "sim/types.hh"

namespace rr::mem
{

/** A store to a word outside the image. */
class StoreOutsideImage : public std::out_of_range
{
  public:
    StoreOutsideImage(sim::Addr addr, std::uint64_t image_bytes);

    /** The word address stored to. */
    sim::Addr addr() const { return addr_; }
    /** The size of the image, in bytes. */
    std::uint64_t imageBytes() const { return imageBytes_; }

  private:
    sim::Addr addr_;
    std::uint64_t imageBytes_;
};

class BackingStore final : public isa::MemoryIf
{
  public:
    /** An empty image: every read returns 0, every store throws. */
    BackingStore() = default;
    /** A zero image of @p bytes, rounded up to whole words. */
    explicit BackingStore(std::uint64_t bytes);
    /** @p prog's initial image: its footprint, filled from initialData. */
    explicit BackingStore(const isa::Program &prog);

    std::uint64_t
    read64(sim::Addr a) override
    {
        return peek(a);
    }

    /** Throws StoreOutsideImage when @p a lies outside the image. */
    void
    write64(sim::Addr a, std::uint64_t v) override
    {
        const sim::Addr i = a / sim::kWordBytes;
        if (i >= words_.size())
            throw StoreOutsideImage(sim::wordAddr(a), bytes());
        words_[i] = v;
    }

    /** Const read (read64 is non-const only because MemoryIf is). */
    std::uint64_t
    peek(sim::Addr a) const
    {
        const sim::Addr i = a / sim::kWordBytes;
        return i < words_.size() ? words_[i] : 0;
    }

    /** Size of the image in bytes. */
    std::uint64_t bytes() const { return words_.size() * sim::kWordBytes; }

    /**
     * Order-independent FNV-style hash of all nonzero words; used by the
     * determinism tests to compare recorded and replayed final states.
     */
    std::uint64_t fingerprint() const;

    /** Copy the full image. */
    BackingStore clone() const { return *this; }

  private:
    std::vector<std::uint64_t> words_;
};

} // namespace rr::mem

#endif // RR_MEM_BACKING_STORE_HH
