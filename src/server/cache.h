// Persistent content-addressed result cache for xmtserved.
//
// The unit of caching is the spec-independent RunPayload of one
// (config point, workload, simulation mode): any sweep, submitted by any
// client, that covers the same point is a hit — across daemon restarts,
// because entries live on disk. The key is content-addressed:
//
//   key = hex64(config-point digest) . hex64(workload digest)
//       . hex64(toolchain-version digest)
//
// where the config-point digest covers the canonical XmtConfig text plus
// the simulation mode, the workload digest covers the instance key *and*
// the generated XMTC source (so a generator change re-keys even at the
// same parameters), and the version digest pins the toolchain build that
// produced the numbers. Entries are sharded into 256 directories by the
// leading key byte to keep directory scans flat at millions of entries.
//
// Two tiers:
//   hot   — payload bytes and headline numbers in memory, bounded by
//           kHotShare of the size bound. An insert publishes here at once;
//           a disk read promotes its entry once. A hot hit is a hash
//           lookup and a copy: no file I/O, no parse, no dump.
//   disk  — one file per entry, bounded by `maxBytes`. Eviction walks an
//           LRU list ordered by last use; the hot tier evicts the same way.
//
// Durability (write-behind): insert() hands the entry file to one writer
// thread, which writes a temporary file, fsyncs it and renames it into
// place, up to 64 entries at a time (all writes, then all fsyncs, then
// all renames). A caller never waits for an fsync, only for room in the
// write queue, which holds at most 1024 entries. An entry is served from memory until it is on
// disk. A SIGKILL can lose entries not yet renamed into place (they
// re-simulate) but never leaves a torn entry, and a restart sweeps the
// leftover temporary files. flush() and the destructor drain the queue.
//
// Recency survives restarts via file mtimes. Hits only mark their entry;
// the writer thread refreshes the marked files' mtimes in batches (every
// 1024 marks, a second after the first unwritten mark, or at flush), in
// last-use order.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/campaign/runner.h"
#include "src/campaign/spec.h"

namespace xmt::server {

struct CacheStats {
  std::uint64_t hits = 0;      // hot and disk hits
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes = 0;     // on-disk footprint, pending writes included
  std::uint64_t entries = 0;   // current entry count
  std::uint64_t hotHits = 0;   // hits served without touching the disk
  std::uint64_t hotBytes = 0;  // payload bytes held in memory
  std::uint64_t hotEntries = 0;
};

class ResultCache {
 public:
  /// The share of `maxBytes` the hot tier may hold (1/kHotShare).
  static constexpr std::uint64_t kHotShare = 8;

  /// Opens (creating if needed) the cache rooted at `root`, scanning any
  /// entries a previous daemon left behind. `maxBytes` bounds the total
  /// on-disk footprint (a single oversized entry is kept regardless, so
  /// the newest result is never thrown away by its own insert).
  ResultCache(std::string root, std::uint64_t maxBytes);
  /// Drains pending writes and recency, then stops the writer thread.
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Thread-safe. On hit fills *out (ok=true payload with its headline
  /// numbers) and marks the entry used. A corrupt entry file (torn by an
  /// unclean shutdown predating atomic renames, or bit-rotted) is
  /// deleted and reported as a miss — it re-simulates instead of
  /// poisoning results.
  bool lookup(const std::string& key, campaign::RunPayload* out);

  /// Thread-safe. Publishes a successful payload under `key` to the hot
  /// tier and queues its entry file for the writer (failed payloads are
  /// never cached — they re-run, matching the result store's retry
  /// semantics). Evicts LRU entries beyond the size bound. `payload.json`
  /// must be canonical Json::dump() text, as simulatePoint() makes it.
  void insert(const std::string& key, const campaign::RunPayload& payload);

  /// Blocks until every insert made so far is on disk and every marked
  /// entry's recency is written.
  void flush();

  CacheStats stats() const;
  const std::string& root() const { return root_; }

  /// Content-addressed key of a resolved campaign point under a given
  /// toolchain version (defaults to the running toolchain's).
  static std::string keyFor(const campaign::CampaignPoint& point);
  static std::string keyFor(const campaign::CampaignPoint& point,
                            const std::string& version);

 private:
  struct Entry {
    std::uint64_t size = 0;     // entry file bytes
    std::uint64_t lastUse = 0;  // logical clock; higher = more recent
    std::uint64_t gen = 0;      // insert that made this entry
    bool durable = true;        // entry file renamed into place
    bool marked = false;        // in marked_, recency not yet written
    std::shared_ptr<const campaign::RunPayload> hot;  // null: disk only
    std::list<std::string>::iterator lru;     // position in lru_
    std::list<std::string>::iterator hotLru;  // position in hotLru_
  };
  using Index = std::unordered_map<std::string, Entry>;

  struct Write {
    std::string key;
    std::uint64_t gen = 0;
    std::string text;
  };

  std::string pathFor(const std::string& key) const;
  void scanExisting();
  void touchLocked(Entry& e, const std::string& key);
  void makeHotLocked(Entry& e, const std::string& key,
                     std::shared_ptr<const campaign::RunPayload> payload);
  void dropHotLocked(Entry& e);
  void eraseLocked(Index::iterator it);
  void evictOverflowLocked(const std::string& keep);
  void trimHotLocked();
  void writerLoop();
  void writeRecency(std::unique_lock<std::mutex>& lock);

  std::string root_;
  std::uint64_t maxBytes_;
  std::uint64_t hotMaxBytes_;
  mutable std::mutex mu_;
  Index entries_;
  std::list<std::string> lru_;     // every entry, most recent first
  std::list<std::string> hotLru_;  // hot entries, most recent first
  std::uint64_t bytes_ = 0;
  std::uint64_t hotBytes_ = 0;
  std::uint64_t useClock_ = 0;
  std::uint64_t genClock_ = 0;
  CacheStats stats_;

  // Write-behind state, guarded by mu_.
  std::deque<Write> writes_;
  std::vector<std::string> marked_;  // keys whose recency is not on disk
  std::chrono::steady_clock::time_point recencyDue_;  // marked_ written by
  std::uint64_t flushRequested_ = 0;  // flush() tickets handed out
  std::uint64_t flushServed_ = 0;     // tickets the writer has drained
  bool stopping_ = false;
  std::condition_variable writerCv_;  // wakes the writer
  std::condition_variable roomCv_;    // queue room / drained, for callers
  std::thread writer_;
};

/// In-flight request coalescing: when several jobs need the same cache
/// key concurrently, exactly one caller (the leader) simulates; the rest
/// block until the leader finishes and then share its payload. This is
/// what turns "two clients submit overlapping grids at the same moment"
/// into one simulation per distinct point rather than two.
class Coalescer {
 public:
  /// Returns true: the caller is the leader for `key` and MUST call
  /// finish() exactly once (even on failure). Returns false: a leader was
  /// already running; the call blocked until it finished and *out now
  /// holds the leader's payload.
  bool lead(const std::string& key, campaign::RunPayload* out);

  /// Publishes the leader's payload and releases all waiters.
  void finish(const std::string& key, campaign::RunPayload payload);

  /// Total requests that were resolved by waiting on another's run.
  std::uint64_t coalescedCount() const;

 private:
  struct Pending {
    bool done = false;
    campaign::RunPayload payload;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::shared_ptr<Pending>> inflight_;
  std::uint64_t coalesced_ = 0;
};

}  // namespace xmt::server
