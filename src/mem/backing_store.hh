/**
 * @file
 * Sparse 64-bit physical memory image.
 *
 * The memory system applies store values and samples load values at each
 * access's global serialization point, so a single flat image is the
 * value authority for the whole machine; caches track MESI state and
 * timing only. This is exactly the write-atomicity property RelaxReplay
 * requires (Observation 1 in the paper), enforced by construction.
 */

#ifndef RR_MEM_BACKING_STORE_HH
#define RR_MEM_BACKING_STORE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "sim/types.hh"

namespace rr::mem
{

class BackingStore : public isa::MemoryIf
{
  public:
    static constexpr std::uint32_t kPageBytes = 4096;
    static constexpr std::size_t kWordsPerPage =
        kPageBytes / sim::kWordBytes;

    std::uint64_t
    read64(sim::Addr a) override
    {
        return peek(a);
    }

    void
    write64(sim::Addr a, std::uint64_t v) override
    {
        a = sim::wordAddr(a);
        createPage(a / kPageBytes)[wordIndex(a)] = v;
    }

    /** Const read (read64 is non-const only because MemoryIf is). */
    std::uint64_t
    peek(sim::Addr a) const
    {
        a = sim::wordAddr(a);
        const auto it = pages_.find(a / kPageBytes);
        return it == pages_.end() ? 0 : it->second.words[wordIndex(a)];
    }

    /**
     * The kWordsPerPage words of page @p page_index, or nullptr when it
     * was never materialized. Page pointers are stable: pages are never
     * erased, and the page table keeps its nodes in place as it grows,
     * so a pointer stays valid for the store's lifetime. The parallel
     * replayer relies on that to read and write words through cached
     * pointers while other threads add pages.
     */
    std::uint64_t *
    findPage(std::uint64_t page_index)
    {
        const auto it = pages_.find(page_index);
        return it == pages_.end() ? nullptr : it->second.words;
    }

    /** Like findPage, but materializes the (zero) page when absent. */
    std::uint64_t *
    createPage(std::uint64_t page_index)
    {
        return pages_[page_index].words;
    }

    /** Number of pages materialized so far. */
    std::size_t numPages() const { return pages_.size(); }

    /**
     * Order-independent FNV-style hash of all nonzero words; used by the
     * determinism tests to compare recorded and replayed final states.
     */
    std::uint64_t fingerprint() const;

    /** Copy the full image (cheap: pages are sparse). */
    BackingStore clone() const { return *this; }

  private:
    struct Page
    {
        std::uint64_t words[kPageBytes / sim::kWordBytes] = {};
    };

    static std::size_t
    wordIndex(sim::Addr a)
    {
        return static_cast<std::size_t>((a % kPageBytes) / sim::kWordBytes);
    }

    std::unordered_map<std::uint64_t, Page> pages_;
};

} // namespace rr::mem

#endif // RR_MEM_BACKING_STORE_HH
