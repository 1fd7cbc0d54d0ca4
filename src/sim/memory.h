// Sparse paged memory for the functional model.
//
// Backs the entire 32-bit simulated address space with 4 KiB pages allocated
// on demand. Word accesses must be 4-byte aligned (the compiler and
// assembler only generate aligned accesses; unaligned traffic indicates a
// simulated-program bug and throws SimError).
//
// Layout: a two-level radix table (1024 lazily-allocated mid nodes of 1024
// page slots each) instead of a std::map, so a page lookup is two indexed
// loads with no tree walk — this is the hot path of every cache-module
// serve. Node and page pointers are installed with release stores and read
// with acquire loads, giving the following thread-safety contract:
//   - exactly ONE writer thread may call the mutating operations;
//   - any number of reader threads may concurrently call readWord/readByte,
//     and always observe either a fully-zeroed or fully-installed page;
//   - a racing read to a *byte* the writer is concurrently changing is a
//     data race in the simulated program, not in the simulator: accesses go
//     through per-byte-disjoint memcpy of word granularity, and programs the
//     toolchain admits (race-lint clean, spawn discipline) never do this.
// snapshot()/restore() require quiescence (no concurrent readers).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace xmt {

class SparseMemory {
 public:
  static constexpr std::uint32_t kPageBits = 12;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;

  SparseMemory() = default;
  SparseMemory(const SparseMemory&) = delete;
  SparseMemory& operator=(const SparseMemory&) = delete;

  std::uint32_t readWord(std::uint32_t addr) const;
  void writeWord(std::uint32_t addr, std::uint32_t value);
  std::uint8_t readByte(std::uint32_t addr) const;
  void writeByte(std::uint32_t addr, std::uint8_t value);

  /// Atomic fetch-and-add on a word; returns the previous value. This is the
  /// psm primitive as executed by a shared cache module.
  std::uint32_t fetchAdd(std::uint32_t addr, std::uint32_t delta);

  /// Bulk copy-in (program loading, memory maps).
  void writeBlock(std::uint32_t addr, const std::uint8_t* src,
                  std::size_t len);

  /// Number of resident pages (for tests and checkpoint sizing).
  std::size_t residentPages() const { return resident_; }

  /// Deterministic serialization for checkpoints: (pageIndex, bytes) pairs
  /// in ascending page order.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> snapshot()
      const;
  void restore(
      const std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>&
          pages);

 private:
  // 32-bit space = 20 page-index bits, split 10 (top) + 10 (mid).
  static constexpr std::uint32_t kMidBits = 10;
  static constexpr std::uint32_t kMidSize = 1u << kMidBits;
  static constexpr std::uint32_t kTopSize = 1u << (32 - kPageBits - kMidBits);

  struct Mid {
    std::array<std::atomic<std::uint8_t*>, kMidSize> slots{};
  };

  std::uint8_t* page(std::uint32_t addr);            // writer: creates
  const std::uint8_t* findPage(std::uint32_t addr) const;  // reader: or null

  std::array<std::atomic<Mid*>, kTopSize> top_{};
  std::vector<std::unique_ptr<Mid>> midStore_;
  std::vector<std::unique_ptr<std::uint8_t[]>> pageStore_;
  std::size_t resident_ = 0;
};

}  // namespace xmt
