#include "src/server/cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "src/common/digest.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/version.h"
#include "src/sim/statsjson.h"
#include "src/workloads/registry.h"

namespace xmt::server {

namespace fs = std::filesystem;

namespace {

// Inserts beyond this many pending writes wait for the writer, which
// lands up to kWriteBatch of them at a time.
constexpr std::size_t kMaxPendingWrites = 1024;
constexpr std::size_t kWriteBatch = 64;
// Recency marks are written once this many accumulate, or kRecencyDelay
// after the first of them, whichever comes first.
constexpr std::size_t kRecencyBatch = 1024;
constexpr auto kRecencyDelay = std::chrono::seconds(1);

bool isHexKeyFile(const std::string& name) {
  // <48 hex chars>.json
  if (name.size() != 48 + 5 || name.compare(48, 5, ".json") != 0) return false;
  return name.find_first_not_of("0123456789abcdef") == 48;
}

// One entry file of a write batch.
struct FileWrite {
  std::string path;
  const std::string* content = nullptr;
  bool ok = false;  // renamed into place
};

// Write-then-fsync-then-rename, for a batch: every temporary file is
// written first, then each is fsync'd, then each is renamed into place.
// A destination path either holds the old content or the complete new
// content, never a torn entry, and one journal commit can carry several
// entries. Temp names are uniquified so two caches over one root cannot
// interleave writes into one temp file.
void writeAtomically(std::vector<FileWrite>& files) {
  static std::atomic<std::uint64_t> seq{0};
  std::vector<std::string> tmps(files.size());
  std::vector<int> fds(files.size(), -1);
  for (std::size_t i = 0; i < files.size(); ++i) {
    tmps[i] = files[i].path + ".tmp" +
              std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
    int fd = ::open(tmps[i].c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) continue;
    const std::string& content = *files[i].content;
    std::size_t off = 0;
    while (off < content.size()) {
      ssize_t n = ::write(fd, content.data() + off, content.size() - off);
      if (n < 0) break;
      off += static_cast<std::size_t>(n);
    }
    if (off == content.size()) {
      fds[i] = fd;
    } else {
      ::close(fd);
      ::unlink(tmps[i].c_str());
    }
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (fds[i] < 0) continue;
    bool synced = ::fsync(fds[i]) == 0;
    ::close(fds[i]);
    if (synced && std::rename(tmps[i].c_str(), files[i].path.c_str()) == 0)
      files[i].ok = true;
    else
      ::unlink(tmps[i].c_str());
  }
}

bool readFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st;
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    out->resize(static_cast<std::size_t>(st.st_size));
    std::size_t off = 0;
    while (ok && off < out->size()) {
      ssize_t n = ::read(fd, out->data() + off, out->size() - off);
      if (n <= 0) ok = false;
      else off += static_cast<std::size_t>(n);
    }
  }
  ::close(fd);
  return ok;
}

// Parses an entry file into *out; false when it is torn, foreign or
// otherwise unusable.
bool parseEntry(const std::string& text, const std::string& key,
                campaign::RunPayload* out) {
  try {
    Json j = Json::parse(text);
    if (j.at("key").asString() != key) return false;
    const Json& payload = j.at("payload");
    out->ok = true;
    out->error.clear();
    out->json = payload.dump();
    out->instructions = out->cycles = out->simTimePs = 0;
    if (const Json* stats = payload.find("stats")) {
      out->instructions =
          static_cast<std::uint64_t>(stats->at("instructions").asInt());
      out->cycles = static_cast<std::uint64_t>(stats->at("cycles").asInt());
      out->simTimePs =
          static_cast<std::uint64_t>(stats->at("sim_time_ps").asInt());
    }
    return true;
  } catch (const Error&) {
    return false;
  }
}

// The entry file: {"key","version","payload"} plus a newline, spliced
// around the canonical payload text instead of re-parsing it.
std::string entryText(const std::string& key, const std::string& payload) {
  static const std::string version = Json::str(kToolchainVersion).dump();
  std::string text;
  text.reserve(payload.size() + key.size() + version.size() + 40);
  text += "{\"key\":\"";
  text += key;
  text += "\",\"version\":";
  text += version;
  text += ",\"payload\":";
  text += payload;
  text += "}\n";
  return text;
}

}  // namespace

ResultCache::ResultCache(std::string root, std::uint64_t maxBytes)
    : root_(std::move(root)),
      maxBytes_(maxBytes),
      hotMaxBytes_(maxBytes / kHotShare) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec)
    throw ConfigError("cannot create cache directory '" + root_ +
                      "': " + ec.message());
  scanExisting();
  writer_ = std::thread([this] { writerLoop(); });
}

ResultCache::~ResultCache() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  writerCv_.notify_one();
  writer_.join();
}

std::string ResultCache::pathFor(const std::string& key) const {
  return root_ + "/" + key.substr(0, 2) + "/" + key + ".json";
}

void ResultCache::scanExisting() {
  // Rebuild the index from disk; order recency by mtime so LRU decisions
  // survive a daemon restart. Leftover .tmp files from a kill mid-insert
  // are swept here.
  struct Found {
    fs::file_time_type mtime;
    std::string key;
    std::uint64_t size;
  };
  std::vector<Found> found;
  std::error_code ec;
  for (const auto& shard : fs::directory_iterator(root_, ec)) {
    if (!shard.is_directory(ec)) continue;
    for (const auto& entry : fs::directory_iterator(shard.path(), ec)) {
      std::string name = entry.path().filename().string();
      if (!isHexKeyFile(name)) {
        if (name.find(".tmp") != std::string::npos)
          fs::remove(entry.path(), ec);
        continue;
      }
      Found f;
      f.key = name.substr(0, 48);
      f.size = static_cast<std::uint64_t>(entry.file_size(ec));
      f.mtime = entry.last_write_time(ec);
      found.push_back(std::move(f));
    }
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.mtime < b.mtime;
  });
  for (const auto& f : found) {
    Entry& e = entries_[f.key];
    e.size = f.size;
    e.lastUse = ++useClock_;
    lru_.push_front(f.key);
    e.lru = lru_.begin();
    bytes_ += f.size;
  }
}

void ResultCache::touchLocked(Entry& e, const std::string& key) {
  e.lastUse = ++useClock_;
  lru_.splice(lru_.begin(), lru_, e.lru);
  if (e.hot) hotLru_.splice(hotLru_.begin(), hotLru_, e.hotLru);
  if (!e.marked) {
    e.marked = true;
    if (marked_.empty()) {
      recencyDue_ = std::chrono::steady_clock::now() + kRecencyDelay;
      writerCv_.notify_one();  // the writer starts waiting for the deadline
    }
    marked_.push_back(key);
    if (marked_.size() == kRecencyBatch) writerCv_.notify_one();
  }
}

void ResultCache::makeHotLocked(
    Entry& e, const std::string& key,
    std::shared_ptr<const campaign::RunPayload> payload) {
  hotBytes_ += payload->json.size();
  e.hot = std::move(payload);
  hotLru_.push_front(key);
  e.hotLru = hotLru_.begin();
}

void ResultCache::dropHotLocked(Entry& e) {
  if (!e.hot) return;
  hotBytes_ -= e.hot->json.size();
  hotLru_.erase(e.hotLru);
  e.hot.reset();
}

// Forgets an entry; its file, if any, is the caller's business.
void ResultCache::eraseLocked(Index::iterator it) {
  Entry& e = it->second;
  dropHotLocked(e);
  lru_.erase(e.lru);
  bytes_ -= std::min(bytes_, e.size);
  entries_.erase(it);
}

bool ResultCache::lookup(const std::string& key, campaign::RunPayload* out) {
  std::uint64_t gen;
  std::shared_ptr<const campaign::RunPayload> hot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return false;
    }
    Entry& e = it->second;
    touchLocked(e, key);
    if (e.hot) {
      ++stats_.hits;
      ++stats_.hotHits;
      hot = e.hot;
    }
    gen = e.gen;
  }
  if (hot) {
    *out = *hot;
    return true;
  }

  // A disk-only entry is durable, so its file is complete unless it rotted.
  std::string path = pathFor(key);
  std::string text;
  auto payload = std::make_shared<campaign::RunPayload>();
  bool good = readFile(path, &text) && parseEntry(text, key, payload.get());
  if (good) *out = *payload;

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  bool current = it != entries_.end() && it->second.gen == gen;
  if (!good) {
    // Corrupt or vanished entry: drop it and report a miss so the point
    // simply re-simulates.
    if (current) {
      eraseLocked(it);
      std::error_code ec;
      fs::remove(path, ec);
    }
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  if (current && !it->second.hot) {
    makeHotLocked(it->second, key, std::move(payload));
    trimHotLocked();
  }
  return true;
}

void ResultCache::insert(const std::string& key,
                         const campaign::RunPayload& payload) {
  if (!payload.ok) return;
  std::string text = entryText(key, payload.json);
  auto hot = std::make_shared<const campaign::RunPayload>(payload);

  std::unique_lock<std::mutex> lock(mu_);
  roomCv_.wait(lock, [this] { return writes_.size() < kMaxPendingWrites; });
  auto old = entries_.find(key);
  if (old != entries_.end()) eraseLocked(old);  // its pending write is void
  Entry& e = entries_[key];
  e.size = text.size();
  e.lastUse = ++useClock_;
  e.gen = ++genClock_;
  e.durable = false;  // pinned hot until the writer lands the file
  lru_.push_front(key);
  e.lru = lru_.begin();
  makeHotLocked(e, key, std::move(hot));
  bytes_ += e.size;
  ++stats_.inserts;
  writes_.push_back(Write{key, e.gen, std::move(text)});
  writerCv_.notify_one();
  evictOverflowLocked(key);
  trimHotLocked();
}

void ResultCache::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t ticket = ++flushRequested_;
  writerCv_.notify_one();
  roomCv_.wait(lock, [&] { return flushServed_ >= ticket; });
}

void ResultCache::evictOverflowLocked(const std::string& keep) {
  while (bytes_ > maxBytes_ && entries_.size() > 1) {
    auto victim = std::prev(lru_.end());
    if (*victim == keep) --victim;  // keep is never the only entry here
    auto it = entries_.find(*victim);
    // A pending write of this entry is skipped, or undone by the writer.
    if (it->second.durable) {
      std::error_code ec;
      fs::remove(pathFor(it->first), ec);
    }
    eraseLocked(it);
    ++stats_.evictions;
  }
}

void ResultCache::trimHotLocked() {
  auto pos = hotLru_.end();
  while (hotBytes_ > hotMaxBytes_ && pos != hotLru_.begin()) {
    auto victim = std::prev(pos);
    Entry& e = entries_.at(*victim);
    if (!e.durable) {
      pos = victim;  // pinned: the only copy until its write lands
      continue;
    }
    dropHotLocked(e);  // erases victim; pos stays valid
  }
}

void ResultCache::writerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!marked_.empty() && (marked_.size() >= kRecencyBatch ||
                             std::chrono::steady_clock::now() >= recencyDue_)) {
      writeRecency(lock);
      continue;
    }
    if (!writes_.empty()) {
      // Take what is queued, up to a batch, skipping writes whose entry was
      // evicted or re-inserted before it reached the disk.
      std::vector<Write> batch;
      while (!writes_.empty() && batch.size() < kWriteBatch) {
        Write w = std::move(writes_.front());
        writes_.pop_front();
        auto it = entries_.find(w.key);
        if (it != entries_.end() && it->second.gen == w.gen)
          batch.push_back(std::move(w));
      }
      roomCv_.notify_all();
      std::vector<FileWrite> files(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        files[i].path = pathFor(batch[i].key);
        files[i].content = &batch[i].text;
      }
      lock.unlock();
      for (const Write& w : batch)
        ::mkdir((root_ + "/" + w.key.substr(0, 2)).c_str(), 0755);
      writeAtomically(files);
      lock.lock();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        auto it = entries_.find(batch[i].key);
        if (it == entries_.end()) {
          // Evicted while being written.
          if (files[i].ok) ::unlink(files[i].path.c_str());
        } else if (it->second.gen == batch[i].gen) {
          if (files[i].ok)
            it->second.durable = true;
          else
            eraseLocked(it);  // disk trouble: the point stays a miss
        }
      }
      trimHotLocked();
      continue;
    }
    if (stopping_ || flushServed_ < flushRequested_) {
      // Every write queued before the ticket has landed.
      std::uint64_t ticket = flushRequested_;
      writeRecency(lock);
      flushServed_ = ticket;
      roomCv_.notify_all();
      if (stopping_ && writes_.empty()) return;
      continue;
    }
    if (marked_.empty())
      writerCv_.wait(lock);
    else
      writerCv_.wait_until(lock, recencyDue_);
  }
}

// Writes the marked entries' mtimes in last-use order, so that a restart's
// mtime scan rebuilds the same LRU order.
void ResultCache::writeRecency(std::unique_lock<std::mutex>& lock) {
  std::vector<std::pair<std::uint64_t, std::string>> batch;
  batch.reserve(marked_.size());
  for (std::string& key : marked_) {
    auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.marked) continue;
    it->second.marked = false;
    // A pending write stamps its own mtime when it lands.
    if (it->second.durable) batch.emplace_back(it->second.lastUse, std::move(key));
  }
  marked_.clear();
  if (batch.empty()) return;
  lock.unlock();
  std::sort(batch.begin(), batch.end());
  auto now = fs::file_time_type::clock::now();
  std::error_code ec;
  for (std::size_t i = 0; i < batch.size(); ++i)
    fs::last_write_time(pathFor(batch[i].second),
                        now + std::chrono::microseconds(i), ec);
  lock.lock();
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = stats_;
  s.bytes = bytes_;
  s.entries = entries_.size();
  s.hotBytes = hotBytes_;
  s.hotEntries = hotLru_.size();
  return s;
}

std::string ResultCache::keyFor(const campaign::CampaignPoint& point) {
  return keyFor(point, kToolchainVersion);
}

std::string ResultCache::keyFor(const campaign::CampaignPoint& point,
                                const std::string& version) {
  // The config text is most of a key's cost, and a worker sees the same
  // config point over and over. Equal configs print equal text; the one
  // exception, a signed-zero jitter, is told apart by its sign bit.
  struct LastConfig {
    bool valid = false;
    XmtConfig config;
    SimMode mode = SimMode::kCycleAccurate;
    std::uint64_t digest = 0;
  };
  thread_local LastConfig last;
  if (!last.valid || last.mode != point.mode || !(last.config == point.config) ||
      std::signbit(last.config.icnAsyncJitter) !=
          std::signbit(point.config.icnAsyncJitter)) {
    last.digest = fnv1a64(point.config.toConfigMap().toText() + "\nmode=" +
                          simModeName(point.mode));
    last.config = point.config;
    last.mode = point.mode;
    last.valid = true;
  }
  std::uint64_t wl = fnv1a64(point.workload.key() + "\n" +
                             workloads::instanceSource(point.workload));
  return hex64(last.digest) + hex64(wl) + hex64(fnv1a64(version));
}

bool Coalescer::lead(const std::string& key, campaign::RunPayload* out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = inflight_.find(key);
  if (it == inflight_.end()) {
    inflight_[key] = std::make_shared<Pending>();
    return true;
  }
  std::shared_ptr<Pending> p = it->second;  // keep alive past erase
  ++coalesced_;
  cv_.wait(lock, [&] { return p->done; });
  *out = p->payload;
  return false;
}

void Coalescer::finish(const std::string& key, campaign::RunPayload payload) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  it->second->payload = std::move(payload);
  it->second->done = true;
  inflight_.erase(it);
  cv_.notify_all();
}

std::uint64_t Coalescer::coalescedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_;
}

}  // namespace xmt::server
