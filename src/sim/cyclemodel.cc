#include "src/sim/cyclemodel.h"

#include <map>
#include <set>

#include "src/common/error.h"
#include "src/desim/port.h"
#include "src/desim/ticking_actor.h"
#include "src/memsys/cache.h"
#include "src/memsys/hashing.h"
#include "src/memsys/package.h"
#include "src/sim/semantics.h"

namespace xmt {
namespace detail {

// Prefix-sum unit traffic (dedicated network, separate from the ICN).
struct PsReq {
  std::int16_t cluster = 0;
  std::int16_t tcu = 0;
  std::uint8_t destReg = 0;
  std::uint8_t gr = 0;
  std::uint32_t inc = 0;
  bool isDispatch = false;  // virtual-thread ID allocation (join/chkid path)
};

struct PsResp {
  std::int16_t cluster = 0;
  std::int16_t tcu = 0;
  std::uint8_t destReg = 0;
  std::uint32_t value = 0;
  bool isDispatch = false;
  // Dispatch verdict, decided *at the PS unit* (id > $high at serve time)
  // and shipped with the response, so clusters never read the global
  // register file and the join is detected where the IDs are handed out.
  bool park = false;
};

enum class WaitKind : std::uint8_t {
  kNone,
  kLoad,      // blocking load (lw/lbu) waiting for data
  kStoreAck,  // blocking store waiting for acknowledgement
  kPsm,       // prefix-sum-to-memory round trip
  kPbFill,    // load hit a pending prefetch-buffer entry
  kRoFill,    // read-only cache miss fill
  kFence,     // fence waiting for non-blocking stores to drain
  kPs,        // ps round trip to the global PS unit
  kDispatch,  // waiting for a virtual-thread ID grant
};

inline bool isMemWait(WaitKind k) {
  return k == WaitKind::kLoad || k == WaitKind::kStoreAck ||
         k == WaitKind::kPsm || k == WaitKind::kPbFill ||
         k == WaitKind::kRoFill || k == WaitKind::kFence;
}

// ---------------------------------------------------------------------------
// ReturnPort: the per-destination return tree of the synchronous
// mesh-of-trees. Replaces the former central IcnActor: each destination
// (cluster or master) owns its port and *replays* the ICN-edge rate metering
// locally when it ticks. The delivered sequence is a pure function of the
// (readyTime-ordered) contents, not of the order packages were pushed.
// ---------------------------------------------------------------------------

struct ModelCore;

struct ReturnPort {
  TimedQueue<Package> q;
  SimTime cursor = 0;  // earliest ICN edge whose rate budget is still unspent

  /// Replays per-ICN-edge metering up to `now`: moves packages whose
  /// delivery edge has arrived into `inbox` (stamped with that edge).
  /// Returns the next ICN edge at which more work becomes deliverable,
  /// or -1 when the port is empty.
  SimTime drain(SimTime now, ModelCore& m, TimedQueue<Package>& inbox);
};

// ---------------------------------------------------------------------------
// ModelCore: shared state + wiring between all component actors.
// ---------------------------------------------------------------------------

struct ModelCore {
  ModelCore(FuncModel& funcModel, const XmtConfig& config, Stats& statsRef);

  FuncModel& fm;
  XmtConfig cfg;
  Stats& stats;

  Scheduler sched;

  ClockDomain masterClk;
  ClockDomain icnClk;
  ClockDomain cacheClk;
  ClockDomain dramClk;
  std::vector<std::unique_ptr<ClockDomain>> clusterClk;

  std::vector<std::unique_ptr<ClusterActor>> clusters;
  std::unique_ptr<MasterActor> master;
  std::unique_ptr<CacheActor> caches;
  std::unique_ptr<DramActor> dram;
  std::unique_ptr<PsUnitActor> psUnit;
  std::unique_ptr<SpawnStarter> spawnStarter;
  std::unique_ptr<SpawnJoiner> spawnJoiner;
  std::vector<std::unique_ptr<SamplerActor>> samplers;

  SimObserver* observer = nullptr;  // null when the run is unobserved

  // Spawn hardware state (clusters read spawnStart/spawnEnd only while a
  // spawn is active).
  bool spawnActive = false;
  std::uint32_t spawnStart = 0;
  std::uint32_t spawnEnd = 0;
  int parkedCount = 0;          // maintained at the PS unit
  SimTime parkLastTime = -1;    // latest park-consumption edge this spawn

  bool halted = false;
  std::int32_t haltCode = 0;
  std::uint64_t inFlight = 0;  // outstanding packages + ps requests
  std::uint64_t pkgSeq = 0;
  bool started = false;
  bool masterRestored = false;  // checkpoint resume: keep the restored ctx

  bool checkpointRequested = false;
  std::uint64_t checkpointMinCycles = 0;
  bool checkpointTaken = false;

  // Wiring helpers (defined after the actor classes).
  void commit(int cluster, int tcu, const Instruction& in, std::uint32_t pc,
              std::uint32_t addr, SimTime now);
  void tracePkg(const char* stage, const Package& pkg, SimTime now);
  void sendPackage(Package pkg, SimTime now);
  void sendResponse(const Package& pkg, SimTime readyAt);
  void deliverResponse(const Package& pkg, SimTime now);
  void routeReturn(const Package& pkg, SimTime ready);
  void sendPsRequest(const PsReq& req, SimTime now);
  void deliverPsResponse(const PsResp& resp, SimTime readyAt);
  void dramRequest(int module, std::uint64_t line, SimTime now);
  SimTime asyncIcnLatency(std::uint64_t pkgId, int meanCycles);
  void scheduleSpawnStart(SimTime when);
  void noteParked(int cluster, SimTime respReady);
  void doHalt(std::int32_t code);
  void syncCacheStats();
  bool quiescent() const;
};

// ---------------------------------------------------------------------------
// ClusterActor: macro-actor over one cluster's TCUs, shared MDU/FPU pools,
// the read-only cache, and the per-TCU prefetch buffers.
// ---------------------------------------------------------------------------

class ClusterActor : public TickingActor {
 public:
  ClusterActor(ModelCore& m, int id, Scheduler& sched, ClockDomain& clk)
      : TickingActor("cluster" + std::to_string(id), sched, clk),
        m_(m),
        id_(id),
        roCache_(m.cfg.roCacheLines, 1, m.cfg.cacheLineBytes),
        mduBusy_(static_cast<std::size_t>(m.cfg.mduPerCluster), 0),
        fpuBusy_(static_cast<std::size_t>(m.cfg.fpuPerCluster), 0) {
    tcus_.resize(static_cast<std::size_t>(m.cfg.tcusPerCluster));
    for (auto& t : tcus_)
      t.pb.resize(static_cast<std::size_t>(m.cfg.prefetchEntries));
  }

  TimedQueue<Package> pkgInbox;
  TimedQueue<PsResp> psInbox;
  ReturnPort retPort;

  /// Spawn onset: broadcast master registers, reset per-section caches,
  /// request virtual-thread IDs for every TCU.
  void beginSpawn(const Context& masterCtx, SimTime now) {
    roCache_.invalidateAll();
    for (std::size_t i = 0; i < tcus_.size(); ++i) {
      Tcu& t = tcus_[i];
      XMT_CHECK(t.outstandingStores == 0);
      t.ctx.regs = masterCtx.regs;
      t.phase = Phase::kBlocked;
      t.wait = WaitKind::kDispatch;
      t.waitStart = now;
      for (auto& e : t.pb) e = PbEntry{};
      PsReq req;
      req.cluster = static_cast<std::int16_t>(id_);
      req.tcu = static_cast<std::int16_t>(i);
      req.gr = kGrNextId;
      req.inc = 1;
      req.isDispatch = true;
      m_.sendPsRequest(req, now);
    }
  }

  std::uint64_t roHits() const { return roCache_.hits; }
  std::uint64_t roMisses() const { return roCache_.misses; }

 protected:
  SimTime tick(SimTime now) override {
    SimTime rpNext = retPort.drain(now, m_, pkgInbox);
    while (pkgInbox.ready(now)) {
      Package pkg = pkgInbox.pop(now);
      handleResponse(pkg, now);
    }
    while (psInbox.ready(now)) {
      PsResp r = psInbox.pop(now);
      handlePsResp(r, now);
    }

    int memSlots = m_.cfg.clusterInjectRate;
    bool anyIssued = false;
    const int n = static_cast<int>(tcus_.size());
    for (int i = 0; i < n; ++i) {
      Tcu& t = tcus_[static_cast<std::size_t>((rr_ + i) % n)];
      if (t.phase == Phase::kWaitUntil && now >= t.readyAt)
        t.phase = Phase::kRunning;
      if (t.phase != Phase::kRunning) continue;
      if (issueOne(t, (rr_ + i) % n, now, memSlots)) anyIssued = true;
    }
    rr_ = (rr_ + 1) % n;
    if (anyIssued)
      ++m_.stats.perCluster[static_cast<std::size_t>(id_)].activeCycles;

    // Next wanted time.
    SimTime next = -1;
    auto consider = [&](SimTime t) {
      if (t >= 0 && (next < 0 || t < next)) next = t;
    };
    for (const Tcu& t : tcus_) {
      if (t.phase == Phase::kRunning) consider(clock().nextEdge(now));
      else if (t.phase == Phase::kWaitUntil) consider(t.readyAt);
    }
    consider(pkgInbox.nextReadyTime());
    consider(psInbox.nextReadyTime());
    consider(rpNext);
    return next;
  }

 private:
  struct PbEntry {
    std::uint32_t addr = 0;
    std::uint32_t value = 0;
    bool valid = false;
    bool pending = false;
    std::uint64_t pkgId = 0;
    std::uint64_t lastUse = 0;   // for LRU replacement
    std::uint64_t allocSeq = 0;  // for FIFO replacement
  };

  enum class Phase : std::uint8_t {
    kIdle, kRunning, kWaitUntil, kBlocked, kParked
  };

  struct Tcu {
    Context ctx;
    Phase phase = Phase::kIdle;
    WaitKind wait = WaitKind::kNone;
    SimTime readyAt = 0;
    SimTime waitStart = 0;
    std::uint8_t waitReg = 0;
    std::uint64_t waitPkgId = 0;
    int outstandingStores = 0;
    bool joinPending = false;  // join waiting for the implicit store fence
    std::multiset<std::uint32_t> storeAddrs;  // word-aligned, in flight
    std::vector<PbEntry> pb;
  };

  void requestDispatch(Tcu& t, int tcuIdx, SimTime now) {
    PsReq req;
    req.cluster = static_cast<std::int16_t>(id_);
    req.tcu = static_cast<std::int16_t>(tcuIdx);
    req.gr = kGrNextId;
    req.inc = 1;
    req.isDispatch = true;
    m_.sendPsRequest(req, now);
    t.phase = Phase::kBlocked;
    t.wait = WaitKind::kDispatch;
    t.waitStart = now;
  }

  PbEntry* findPb(Tcu& t, std::uint32_t addr) {
    for (auto& e : t.pb)
      if ((e.valid || e.pending) && e.addr == addr) return &e;
    return nullptr;
  }

  // Allocates a prefetch-buffer entry; never evicts pending entries.
  PbEntry* allocPb(Tcu& t) {
    PbEntry* victim = nullptr;
    for (auto& e : t.pb) {
      if (e.pending) continue;
      if (!e.valid) return &e;
      if (victim == nullptr) {
        victim = &e;
        continue;
      }
      if (m_.cfg.prefetchPolicy == "lru") {
        if (e.lastUse < victim->lastUse) victim = &e;
      } else {  // fifo
        if (e.allocSeq < victim->allocSeq) victim = &e;
      }
    }
    return victim;
  }

  void resume(Tcu& t, SimTime now) {
    if (isMemWait(t.wait)) {
      SimTime waited = now - t.waitStart;
      m_.stats.memWaitCycles +=
          static_cast<std::uint64_t>(waited / clock().period());
    }
    t.wait = WaitKind::kNone;
    t.phase = Phase::kRunning;
  }

  Package makePkg(PkgKind kind, std::uint32_t addr, std::uint32_t value,
                  int tcuIdx, std::uint8_t destReg, SimTime now) {
    Package p;
    p.kind = kind;
    p.addr = addr;
    p.value = value;
    p.srcCluster = static_cast<std::int16_t>(id_);
    p.srcTcu = static_cast<std::int16_t>(tcuIdx);
    p.destReg = destReg;
    p.id = ++m_.pkgSeq;
    p.issueTime = now;
    return p;
  }

  // Issues one instruction for TCU `t`. Returns false on a structural
  // stall (retry next cycle, no architectural effect).
  bool issueOne(Tcu& t, int tcuIdx, SimTime now, int& memSlots) {
    const std::uint32_t pc = t.ctx.pc;
    if (pc < m_.spawnStart || pc >= m_.spawnEnd)
      throw SimError(
          "TCU fetched an instruction outside the broadcast spawn region "
          "(pc=0x" + std::to_string(pc) +
          "); mislaid basic block? (cf. paper Fig. 9)");
    const Instruction& in = m_.fm.fetch(pc);
    auto& act = m_.stats.perCluster[static_cast<std::size_t>(id_)];

    switch (FuncModel::classify(in)) {
      case FuncModel::StepClass::kSimple: {
        FuKind fu = opInfo(in.op).fu;
        if (fu == FuKind::kMdu || fu == FuKind::kFpu) {
          auto& busy = (fu == FuKind::kMdu) ? mduBusy_ : fpuBusy_;
          int lat = (fu == FuKind::kMdu) ? m_.cfg.mduLatency
                                         : m_.cfg.fpuLatency;
          std::size_t unit = busy.size();
          for (std::size_t u = 0; u < busy.size(); ++u)
            if (busy[u] <= now) { unit = u; break; }
          if (unit == busy.size()) return false;  // all shared units busy
          busy[unit] = now + clock().period();    // pipelined: 1-cycle issue
          m_.fm.execSimple(t.ctx, in);
          t.phase = Phase::kWaitUntil;
          t.readyAt = now + lat * clock().period();
          if (fu == FuKind::kMdu) ++act.mduOps; else ++act.fpuOps;
        } else {
          m_.fm.execSimple(t.ctx, in);
          ++act.aluOps;
        }
        m_.commit(id_, tcuIdx, in, pc, 0, now);
        return true;
      }

      case FuncModel::StepClass::kMemory:
        return issueMemory(t, tcuIdx, in, pc, now, memSlots);

      case FuncModel::StepClass::kPs: {
        PsReq req;
        req.cluster = static_cast<std::int16_t>(id_);
        req.tcu = static_cast<std::int16_t>(tcuIdx);
        req.destReg = in.rd;
        req.gr = in.rt;
        req.inc = t.ctx.reg(in.rd);
        m_.sendPsRequest(req, now);
        t.ctx.pc += 4;
        t.phase = Phase::kBlocked;
        t.wait = WaitKind::kPs;
        t.waitStart = now;
        m_.commit(id_, tcuIdx, in, pc, 0, now);
        return true;
      }

      case FuncModel::StepClass::kPsm: {
        if (memSlots == 0) return false;
        --memSlots;
        std::uint32_t addr = m_.fm.effectiveAddr(t.ctx, in);
        Package p = makePkg(PkgKind::kPsm, addr, t.ctx.reg(in.rt), tcuIdx,
                            in.rt, now);
        m_.sendPackage(p, now);
        ++m_.stats.psmRequests;
        t.ctx.pc += 4;
        t.phase = Phase::kBlocked;
        t.wait = WaitKind::kPsm;
        t.waitStart = now;
        ++act.memOps;
        m_.commit(id_, tcuIdx, in, pc, addr, now);
        return true;
      }

      case FuncModel::StepClass::kSpawn:
        throw SimError(
            "nested spawn reached the spawn hardware (the compiler must "
            "serialize nested spawns)");

      case FuncModel::StepClass::kJoin: {
        // Virtual thread complete. The end of a virtual thread orders
        // memory operations (XMT memory model), so join is an implicit
        // fence: outstanding non-blocking stores drain before the TCU's
        // dispatch hardware performs the ps + chkid sequence for the next
        // thread ID.
        m_.commit(id_, tcuIdx, in, pc, 0, now);
        if (t.outstandingStores != 0) {
          t.phase = Phase::kBlocked;
          t.wait = WaitKind::kFence;
          t.waitStart = now;
          t.joinPending = true;
          return true;
        }
        requestDispatch(t, tcuIdx, now);
        return true;
      }

      case FuncModel::StepClass::kHalt:
        throw SimError("halt executed inside a spawn block");
    }
    return false;
  }

  bool issueMemory(Tcu& t, int tcuIdx, const Instruction& in,
                   std::uint32_t pc, SimTime now, int& memSlots) {
    auto& act = m_.stats.perCluster[static_cast<std::size_t>(id_)];
    std::uint32_t addr = m_.fm.effectiveAddr(t.ctx, in);
    switch (in.op) {
      case Op::kFence:
        t.ctx.pc += 4;
        m_.commit(id_, tcuIdx, in, pc, 0, now);
        if (t.outstandingStores != 0) {
          t.phase = Phase::kBlocked;
          t.wait = WaitKind::kFence;
          t.waitStart = now;
        }
        return true;

      case Op::kPref: {
        if (t.pb.empty() || findPb(t, addr) != nullptr) {
          t.ctx.pc += 4;
          m_.commit(id_, tcuIdx, in, pc, addr, now);
          return true;
        }
        if (memSlots == 0) return false;
        PbEntry* e = allocPb(t);
        if (e == nullptr) {  // every entry pending: drop the prefetch
          t.ctx.pc += 4;
          m_.commit(id_, tcuIdx, in, pc, addr, now);
          return true;
        }
        --memSlots;
        Package p = makePkg(PkgKind::kPrefetch, addr, 0, tcuIdx, 0, now);
        *e = PbEntry{};
        e->addr = addr;
        e->pending = true;
        e->pkgId = p.id;
        e->allocSeq = ++pbSeq_;
        e->lastUse = pbSeq_;
        m_.sendPackage(p, now);
        t.ctx.pc += 4;
        ++act.memOps;
        m_.commit(id_, tcuIdx, in, pc, addr, now);
        return true;
      }

      case Op::kLw:
      case Op::kLbu: {
        // XMT memory-model rule 1: same-source same-address operations are
        // never reordered. A load that would overtake this TCU's own
        // in-flight non-blocking store to the same word stalls here.
        std::uint32_t key = addr & ~3u;
        if (t.storeAddrs.count(key) != 0) return false;
        if (in.op == Op::kLw) {
          PbEntry* e = findPb(t, addr);
          if (e != nullptr && e->valid) {
            t.ctx.setReg(in.rt, e->value);
            e->valid = false;  // consume on use
            e->addr = 0;
            ++m_.stats.prefetchBufferHits;
            t.ctx.pc += 4;
            m_.commit(id_, tcuIdx, in, pc, addr, now);
            return true;
          }
          if (e != nullptr && e->pending) {
            t.ctx.pc += 4;
            t.phase = Phase::kBlocked;
            t.wait = WaitKind::kPbFill;
            t.waitPkgId = e->pkgId;
            t.waitReg = in.rt;
            t.waitStart = now;
            m_.commit(id_, tcuIdx, in, pc, addr, now);
            return true;
          }
        }
        if (memSlots == 0) return false;
        --memSlots;
        Package p = makePkg(
            in.op == Op::kLw ? PkgKind::kLoadWord : PkgKind::kLoadByte, addr,
            0, tcuIdx, in.rt, now);
        m_.sendPackage(p, now);
        t.ctx.pc += 4;
        t.phase = Phase::kBlocked;
        t.wait = WaitKind::kLoad;
        t.waitStart = now;
        ++act.memOps;
        m_.commit(id_, tcuIdx, in, pc, addr, now);
        return true;
      }

      case Op::kRolw: {
        if (roCache_.contains(addr)) {
          roCache_.lookup(addr);  // count the hit, touch LRU
          t.ctx.setReg(in.rt, m_.fm.memory().readWord(addr));
          t.ctx.pc += 4;
          t.phase = Phase::kWaitUntil;
          t.readyAt = now + 2 * clock().period();
          m_.commit(id_, tcuIdx, in, pc, addr, now);
          return true;
        }
        if (memSlots == 0) return false;  // retry without a counted miss
        roCache_.lookup(addr);            // count the miss
        --memSlots;
        Package p =
            makePkg(PkgKind::kReadOnlyLoad, addr, 0, tcuIdx, in.rt, now);
        m_.sendPackage(p, now);
        t.ctx.pc += 4;
        t.phase = Phase::kBlocked;
        t.wait = WaitKind::kRoFill;
        t.waitPkgId = p.id;
        t.waitReg = in.rt;
        t.waitStart = now;
        ++act.memOps;
        m_.commit(id_, tcuIdx, in, pc, addr, now);
        return true;
      }

      case Op::kSw:
      case Op::kSb: {
        if (memSlots == 0) return false;
        --memSlots;
        Package p = makePkg(
            in.op == Op::kSw ? PkgKind::kStoreWord : PkgKind::kStoreByte,
            addr, t.ctx.reg(in.rt), tcuIdx, 0, now);
        m_.sendPackage(p, now);
        t.ctx.pc += 4;
        t.phase = Phase::kBlocked;
        t.wait = WaitKind::kStoreAck;
        t.waitStart = now;
        ++act.memOps;
        m_.commit(id_, tcuIdx, in, pc, addr, now);
        return true;
      }

      case Op::kSwnb: {
        if (memSlots == 0) return false;
        --memSlots;
        Package p = makePkg(PkgKind::kStoreNbWord, addr, t.ctx.reg(in.rt),
                            tcuIdx, 0, now);
        ++t.outstandingStores;
        t.storeAddrs.insert(addr & ~3u);
        ++m_.stats.nonBlockingStores;
        m_.sendPackage(p, now);
        t.ctx.pc += 4;
        ++act.memOps;
        m_.commit(id_, tcuIdx, in, pc, addr, now);
        return true;
      }

      default:
        throw InternalError("unhandled memory op in cluster issue");
    }
  }

  void handleResponse(const Package& pkg, SimTime now) {
    Tcu& t = tcus_[static_cast<std::size_t>(pkg.srcTcu)];
    switch (pkg.kind) {
      case PkgKind::kLoadWord:
      case PkgKind::kLoadByte:
        XMT_CHECK(t.phase == Phase::kBlocked && t.wait == WaitKind::kLoad);
        t.ctx.setReg(pkg.destReg, pkg.value);
        resume(t, now);
        break;
      case PkgKind::kStoreWord:
      case PkgKind::kStoreByte:
        XMT_CHECK(t.phase == Phase::kBlocked &&
                  t.wait == WaitKind::kStoreAck);
        resume(t, now);
        break;
      case PkgKind::kStoreNbWord: {
        XMT_CHECK(t.outstandingStores > 0);
        --t.outstandingStores;
        auto it = t.storeAddrs.find(pkg.addr & ~3u);
        XMT_CHECK(it != t.storeAddrs.end());
        t.storeAddrs.erase(it);
        if (t.phase == Phase::kBlocked && t.wait == WaitKind::kFence &&
            t.outstandingStores == 0) {
          if (t.joinPending) {
            t.joinPending = false;
            SimTime waited = now - t.waitStart;
            m_.stats.memWaitCycles +=
                static_cast<std::uint64_t>(waited / clock().period());
            requestDispatch(t, static_cast<int>(pkg.srcTcu), now);
          } else {
            resume(t, now);
          }
        }
        break;
      }
      case PkgKind::kPsm:
        XMT_CHECK(t.phase == Phase::kBlocked && t.wait == WaitKind::kPsm);
        t.ctx.setReg(pkg.destReg, pkg.value);
        resume(t, now);
        break;
      case PkgKind::kPrefetch: {
        for (auto& e : t.pb) {
          if (e.pending && e.pkgId == pkg.id) {
            e.pending = false;
            e.valid = true;
            e.value = pkg.value;
            break;
          }
        }
        if (t.phase == Phase::kBlocked && t.wait == WaitKind::kPbFill &&
            t.waitPkgId == pkg.id) {
          t.ctx.setReg(t.waitReg, pkg.value);
          // Consume the entry the blocked load was waiting on. Hitting a
          // pending entry is still a buffer hit — the prefetch absorbed
          // (part of) the latency.
          for (auto& e : t.pb)
            if (e.valid && e.pkgId == pkg.id) {
              e.valid = false;
              e.addr = 0;
            }
          ++m_.stats.prefetchBufferHits;
          resume(t, now);
        }
        break;
      }
      case PkgKind::kReadOnlyLoad:
        roCache_.install(pkg.addr);
        if (t.phase == Phase::kBlocked && t.wait == WaitKind::kRoFill &&
            t.waitPkgId == pkg.id) {
          t.ctx.setReg(t.waitReg, pkg.value);
          resume(t, now);
        }
        break;
    }
    XMT_CHECK(m_.inFlight > 0);
    --m_.inFlight;
  }

  void handlePsResp(const PsResp& r, SimTime now) {
    Tcu& t = tcus_[static_cast<std::size_t>(r.tcu)];
    XMT_CHECK(m_.inFlight > 0);
    --m_.inFlight;
    if (r.isDispatch) {
      XMT_CHECK(t.phase == Phase::kBlocked &&
                t.wait == WaitKind::kDispatch);
      if (!r.park) {
        t.ctx.setReg(kTid, r.value);
        t.ctx.pc = m_.spawnStart;
        t.phase = Phase::kRunning;
        t.wait = WaitKind::kNone;
        ++m_.stats.virtualThreads;
      } else {
        // The all-parked join condition is detected at the PS unit
        // (noteParked); the cluster only retires the TCU.
        t.phase = Phase::kParked;
        t.wait = WaitKind::kNone;
      }
    } else {
      XMT_CHECK(t.phase == Phase::kBlocked && t.wait == WaitKind::kPs);
      t.ctx.setReg(r.destReg, r.value);
      resume(t, now);
    }
  }

  ModelCore& m_;
  int id_;
  std::vector<Tcu> tcus_;
  TagCache roCache_;
  std::vector<SimTime> mduBusy_;
  std::vector<SimTime> fpuBusy_;
  int rr_ = 0;
  std::uint64_t pbSeq_ = 0;
};

// ---------------------------------------------------------------------------
// MasterActor: the serial Master TCU with its private (write-through) cache
// and dedicated functional units.
// ---------------------------------------------------------------------------

class MasterActor : public TickingActor {
 public:
  MasterActor(ModelCore& m, Scheduler& sched, ClockDomain& clk)
      : TickingActor("master", sched, clk),
        m_(m),
        cache_(m.cfg.masterCacheKB * 1024 / m.cfg.cacheLineBytes,
               m.cfg.cacheAssoc, m.cfg.cacheLineBytes) {}

  TimedQueue<Package> pkgInbox;
  ReturnPort retPort;

  Context ctx;

  void start() {
    if (!m_.masterRestored) {
      ctx.pc = m_.fm.program().entry;
      ctx.setReg(kSp, kStackTop);
    }
    phase_ = Phase::kRunning;
    wakeAt(scheduler().now() + 1);
  }

  void resumeFromSpawn(SimTime now) {
    XMT_CHECK(phase_ == Phase::kWaitSpawn);
    ctx.pc = m_.spawnEnd;
    cache_.invalidateAll();  // TCUs may have written anywhere
    phase_ = Phase::kWaitUntil;
    readyAt_ = now + clock().period();
    wakeAt(readyAt_);
  }

  bool runnable() const { return phase_ == Phase::kRunning; }
  int outstandingStores() const { return outstandingStores_; }
  std::uint64_t cacheHits() const { return cache_.hits; }
  std::uint64_t cacheMisses() const { return cache_.misses; }

 protected:
  SimTime tick(SimTime now) override {
    SimTime rpNext = retPort.drain(now, m_, pkgInbox);
    while (pkgInbox.ready(now)) {
      Package pkg = pkgInbox.pop(now);
      handleResponse(pkg, now);
    }
    if (phase_ == Phase::kWaitUntil && now >= readyAt_)
      phase_ = Phase::kRunning;
    if (phase_ == Phase::kRunning && !m_.halted) {
      if (m_.checkpointRequested && !m_.checkpointTaken && m_.quiescent() &&
          clock().cyclesAt(now) >=
              static_cast<std::int64_t>(m_.checkpointMinCycles)) {
        m_.checkpointTaken = true;
        scheduler().requestStop();
        return -1;
      }
      issue(now);
    }
    if (m_.halted) return -1;
    auto minPos = [](SimTime a, SimTime b) {
      if (a < 0) return b;
      if (b < 0) return a;
      return a < b ? a : b;
    };
    switch (phase_) {
      case Phase::kRunning:
        return clock().nextEdge(now);
      case Phase::kWaitUntil:
        return minPos(readyAt_, rpNext);
      default:
        return minPos(pkgInbox.nextReadyTime(), rpNext);
    }
  }

 private:
  enum class Phase : std::uint8_t {
    kRunning, kWaitUntil, kBlocked, kWaitSpawn
  };

  Package makePkg(PkgKind kind, std::uint32_t addr, std::uint32_t value,
                  std::uint8_t destReg, SimTime now) {
    Package p;
    p.kind = kind;
    p.addr = addr;
    p.value = value;
    p.srcCluster = kMasterCluster;
    p.srcTcu = 0;
    p.destReg = destReg;
    p.id = ++m_.pkgSeq;
    p.issueTime = now;
    return p;
  }

  void block(WaitKind k, SimTime now) {
    phase_ = Phase::kBlocked;
    wait_ = k;
    waitStart_ = now;
  }

  void resume(SimTime now) {
    if (isMemWait(wait_))
      m_.stats.memWaitCycles +=
          static_cast<std::uint64_t>((now - waitStart_) / clock().period());
    wait_ = WaitKind::kNone;
    phase_ = Phase::kRunning;
  }

  void issue(SimTime now) {
    const std::uint32_t pc = ctx.pc;
    const Instruction& in = m_.fm.fetch(pc);
    switch (FuncModel::classify(in)) {
      case FuncModel::StepClass::kSimple: {
        FuKind fu = opInfo(in.op).fu;
        m_.fm.execSimple(ctx, in);
        if (fu == FuKind::kMdu) {
          phase_ = Phase::kWaitUntil;
          readyAt_ = now + m_.cfg.mduLatency * clock().period();
        } else if (fu == FuKind::kFpu) {
          phase_ = Phase::kWaitUntil;
          readyAt_ = now + m_.cfg.fpuLatency * clock().period();
        }
        m_.commit(kMasterCluster, 0, in, pc, 0, now);
        return;
      }
      case FuncModel::StepClass::kPs: {
        // The master sits next to the global register file / PS unit.
        std::uint32_t old = m_.fm.psFetchAdd(in.rt, ctx.reg(in.rd));
        ctx.setReg(in.rd, old);
        ++m_.stats.psRequests;
        ctx.pc += 4;
        phase_ = Phase::kWaitUntil;
        readyAt_ = now + 2 * clock().period();
        m_.commit(kMasterCluster, 0, in, pc, 0, now);
        return;
      }
      case FuncModel::StepClass::kMemory:
        issueMemory(in, pc, now);
        return;
      case FuncModel::StepClass::kPsm: {
        std::uint32_t addr = m_.fm.effectiveAddr(ctx, in);
        Package p = makePkg(PkgKind::kPsm, addr, ctx.reg(in.rt), in.rt, now);
        m_.sendPackage(p, now);
        ++m_.stats.psmRequests;
        ctx.pc += 4;
        block(WaitKind::kPsm, now);
        m_.commit(kMasterCluster, 0, in, pc, addr, now);
        return;
      }
      case FuncModel::StepClass::kSpawn: {
        ++m_.stats.spawns;
        m_.spawnActive = true;
        m_.spawnStart = static_cast<std::uint32_t>(in.imm);
        m_.spawnEnd = static_cast<std::uint32_t>(in.imm2);
        m_.parkedCount = 0;
        m_.parkLastTime = -1;
        std::uint32_t blockInstrs = (m_.spawnEnd - m_.spawnStart) / 4;
        std::int64_t bcastCycles =
            m_.cfg.spawnBroadcastBase +
            (blockInstrs + static_cast<std::uint32_t>(
                               m_.cfg.broadcastInstrPerCycle) - 1) /
                static_cast<std::uint32_t>(m_.cfg.broadcastInstrPerCycle);
        phase_ = Phase::kWaitSpawn;
        m_.scheduleSpawnStart(now + bcastCycles * clock().period());
        m_.commit(kMasterCluster, 0, in, pc, 0, now);
        return;
      }
      case FuncModel::StepClass::kJoin:
        throw SimError("join executed in serial (master) mode");
      case FuncModel::StepClass::kHalt:
        // Halt implies a fence: outstanding non-blocking stores must reach
        // memory before the final memory dump.
        m_.commit(kMasterCluster, 0, in, pc, 0, now);
        if (outstandingStores_ != 0) {
          haltPending_ = true;
          block(WaitKind::kFence, now);
          return;
        }
        m_.doHalt(static_cast<std::int32_t>(ctx.reg(kV0)));
        return;
    }
  }

  void issueMemory(const Instruction& in, std::uint32_t pc, SimTime now) {
    std::uint32_t addr = m_.fm.effectiveAddr(ctx, in);
    switch (in.op) {
      case Op::kFence:
        ctx.pc += 4;
        m_.commit(kMasterCluster, 0, in, pc, 0, now);
        if (outstandingStores_ != 0) block(WaitKind::kFence, now);
        return;
      case Op::kPref:  // the master has no prefetch buffer
        ctx.pc += 4;
        m_.commit(kMasterCluster, 0, in, pc, addr, now);
        return;
      case Op::kLw:
      case Op::kLbu:
      case Op::kRolw: {
        std::uint32_t key = addr & ~3u;
        if (storeAddrs_.count(key) != 0) return;  // retry after drain
        if (cache_.lookup(addr)) {
          std::uint32_t v = (in.op == Op::kLbu)
                                ? m_.fm.memory().readByte(addr)
                                : m_.fm.memory().readWord(addr);
          ctx.setReg(in.rt, v);
          ctx.pc += 4;
          phase_ = Phase::kWaitUntil;
          readyAt_ = now + 2 * clock().period();
          m_.commit(kMasterCluster, 0, in, pc, addr, now);
          return;
        }
        Package p = makePkg(in.op == Op::kLbu ? PkgKind::kLoadByte
                                              : PkgKind::kLoadWord,
                            addr, 0, in.rt, now);
        m_.sendPackage(p, now);
        ctx.pc += 4;
        block(WaitKind::kLoad, now);
        m_.commit(kMasterCluster, 0, in, pc, addr, now);
        return;
      }
      case Op::kSw:
      case Op::kSb: {
        Package p = makePkg(
            in.op == Op::kSw ? PkgKind::kStoreWord : PkgKind::kStoreByte,
            addr, ctx.reg(in.rt), 0, now);
        m_.sendPackage(p, now);
        ctx.pc += 4;
        block(WaitKind::kStoreAck, now);
        m_.commit(kMasterCluster, 0, in, pc, addr, now);
        return;
      }
      case Op::kSwnb: {
        Package p =
            makePkg(PkgKind::kStoreNbWord, addr, ctx.reg(in.rt), 0, now);
        ++outstandingStores_;
        storeAddrs_.insert(addr & ~3u);
        ++m_.stats.nonBlockingStores;
        m_.sendPackage(p, now);
        ctx.pc += 4;
        m_.commit(kMasterCluster, 0, in, pc, addr, now);
        return;
      }
      default:
        throw InternalError("unhandled master memory op");
    }
  }

  void handleResponse(const Package& pkg, SimTime now) {
    switch (pkg.kind) {
      case PkgKind::kLoadWord:
      case PkgKind::kLoadByte:
        XMT_CHECK(phase_ == Phase::kBlocked && wait_ == WaitKind::kLoad);
        cache_.install(pkg.addr);
        ctx.setReg(pkg.destReg, pkg.value);
        resume(now);
        break;
      case PkgKind::kStoreWord:
      case PkgKind::kStoreByte:
        XMT_CHECK(phase_ == Phase::kBlocked &&
                  wait_ == WaitKind::kStoreAck);
        resume(now);
        break;
      case PkgKind::kStoreNbWord: {
        XMT_CHECK(outstandingStores_ > 0);
        --outstandingStores_;
        auto it = storeAddrs_.find(pkg.addr & ~3u);
        XMT_CHECK(it != storeAddrs_.end());
        storeAddrs_.erase(it);
        if (phase_ == Phase::kBlocked && wait_ == WaitKind::kFence &&
            outstandingStores_ == 0) {
          if (haltPending_) {
            haltPending_ = false;
            m_.doHalt(static_cast<std::int32_t>(ctx.reg(kV0)));
          } else {
            resume(now);
          }
        }
        break;
      }
      case PkgKind::kPsm:
        XMT_CHECK(phase_ == Phase::kBlocked && wait_ == WaitKind::kPsm);
        ctx.setReg(pkg.destReg, pkg.value);
        resume(now);
        break;
      default:
        throw InternalError("unexpected response kind at master");
    }
    XMT_CHECK(m_.inFlight > 0);
    --m_.inFlight;
  }

  ModelCore& m_;
  TagCache cache_;
  Phase phase_ = Phase::kRunning;
  WaitKind wait_ = WaitKind::kNone;
  SimTime readyAt_ = 0;
  SimTime waitStart_ = 0;
  int outstandingStores_ = 0;
  bool haltPending_ = false;
  std::multiset<std::uint32_t> storeAddrs_;
};

// ---------------------------------------------------------------------------
// PsUnitActor: the global prefix-sum unit. All requests to the same global
// register that are pending in the same cycle are combined and served
// together — the hardware property that makes thread dispatch O(1). The
// request inbox arbitrates in canonical (readyTime, cluster) order, so the
// service sequence — and with it the thread-ID assignment — depends only on
// simulated time and topology. Dispatch requests that overrun $high are
// detected *here* and feed the join logic (noteParked).
// ---------------------------------------------------------------------------

class PsUnitActor : public TickingActor {
 public:
  PsUnitActor(ModelCore& m, Scheduler& sched, ClockDomain& clk)
      : TickingActor("psunit", sched, clk), m_(m) {}

  ArbTimedQueue<PsReq> inbox;

 protected:
  SimTime tick(SimTime now) override {
    while (inbox.ready(now)) {
      PsReq req = inbox.pop(now);
      std::uint32_t old = m_.fm.psFetchAdd(req.gr, req.inc);
      if (!req.isDispatch) ++m_.stats.psRequests;
      PsResp resp;
      resp.cluster = req.cluster;
      resp.tcu = req.tcu;
      resp.destReg = req.destReg;
      resp.value = old;
      resp.isDispatch = req.isDispatch;
      SimTime ready = now + m_.cfg.psReturnLatency * clock().period();
      if (req.isDispatch) {
        auto id = static_cast<std::int32_t>(old);
        auto high = static_cast<std::int32_t>(m_.fm.globalRegs()[kGrHigh]);
        resp.park = id > high;
        if (resp.park) m_.noteParked(req.cluster, ready);
      }
      m_.deliverPsResponse(resp, ready);
    }
    return inbox.nextReadyTime();
  }

 private:
  ModelCore& m_;
};

// ---------------------------------------------------------------------------
// CacheActor: macro-actor over the shared L1 cache modules. Each module
// serves one request per cache cycle in canonical (readyTime, srcCluster)
// arrival order, with hit-under-miss across lines (MSHRs) and strict
// in-order service within a line — which preserves same-source same-address
// ordering end to end.
// ---------------------------------------------------------------------------

class CacheActor : public TickingActor {
 public:
  struct Fill {
    int module = 0;
    std::uint64_t line = 0;
  };

  CacheActor(ModelCore& m, Scheduler& sched, ClockDomain& clk)
      : TickingActor("caches", sched, clk), m_(m) {
    mods_.reserve(static_cast<std::size_t>(m.cfg.cacheModules));
    int lines = m.cfg.cacheModuleKB * 1024 / m.cfg.cacheLineBytes;
    for (int i = 0; i < m.cfg.cacheModules; ++i)
      mods_.push_back(std::make_unique<Module>(lines, m.cfg.cacheAssoc,
                                               m.cfg.cacheLineBytes));
  }

  void inject(const Package& pkg, SimTime readyAt, int module) {
    mods_[static_cast<std::size_t>(module)]->inq.push(readyAt,
                                                      pkg.srcCluster, pkg);
    wakeAt(readyAt);
  }

  void fill(int module, std::uint64_t line, SimTime readyAt) {
    fillq_.push(readyAt, Fill{module, line});
    wakeAt(readyAt);
  }

  std::uint64_t tagHits() const {
    std::uint64_t s = 0;
    for (const auto& mod : mods_) s += mod->tags.hits;
    return s;
  }
  std::uint64_t tagMisses() const {
    std::uint64_t s = 0;
    for (const auto& mod : mods_) s += mod->tags.misses;
    return s;
  }

 protected:
  SimTime tick(SimTime now) override {
    while (fillq_.ready(now)) {
      Fill f = fillq_.pop(now);
      Module& mod = *mods_[static_cast<std::size_t>(f.module)];
      mod.tags.install(
          static_cast<std::uint32_t>(f.line) *
          static_cast<std::uint32_t>(m_.cfg.cacheLineBytes));
      auto it = mod.mshr.find(f.line);
      XMT_CHECK(it != mod.mshr.end());
      for (const Package& waiter : it->second) serve(waiter, now);
      mod.mshr.erase(it);
    }
    SimTime next = -1;
    auto consider = [&](SimTime t) {
      if (t >= 0 && (next < 0 || t < next)) next = t;
    };
    for (std::size_t mi = 0; mi < mods_.size(); ++mi) {
      Module& mod = *mods_[mi];
      if (mod.inq.ready(now)) {
        Package pkg = mod.inq.pop(now);  // one request per module per cycle
        process(mod, static_cast<int>(mi), pkg, now);
      }
      if (mod.inq.ready(now))
        consider(clock().nextEdge(now));
      else
        consider(mod.inq.nextReadyTime());
    }
    consider(fillq_.nextReadyTime());
    return next;
  }

 private:
  struct Module {
    Module(int lines, int assoc, int lineBytes)
        : tags(lines, assoc, lineBytes) {}
    ArbTimedQueue<Package> inq;
    TagCache tags;
    std::map<std::uint64_t, std::vector<Package>> mshr;
  };

  void process(Module& mod, int moduleIdx, const Package& pkg, SimTime now) {
    std::uint64_t line = mod.tags.lineOf(pkg.addr);
    auto it = mod.mshr.find(line);
    if (it != mod.mshr.end()) {
      // A miss to this line is outstanding: queue behind it to preserve
      // same-line (and thus same-address) order.
      it->second.push_back(pkg);
      return;
    }
    if (pkg.isStore()) {
      // Write-through, no-allocate: performed at service time. DRAM
      // write-back traffic is not modelled (see DESIGN.md).
      serve(pkg, now);
      return;
    }
    if (mod.tags.lookup(pkg.addr)) {
      serve(pkg, now);
      return;
    }
    mod.mshr.emplace(line, std::vector<Package>{pkg});
    m_.tracePkg("dram", pkg, now);
    m_.dramRequest(moduleIdx, line, now);
  }

  // Performs the functional access and sends the response.
  void serve(Package pkg, SimTime now) {
    SparseMemory& mem = m_.fm.memory();
    switch (pkg.kind) {
      case PkgKind::kLoadWord:
      case PkgKind::kPrefetch:
      case PkgKind::kReadOnlyLoad:
        pkg.value = mem.readWord(pkg.addr);
        break;
      case PkgKind::kLoadByte:
        pkg.value = mem.readByte(pkg.addr);
        break;
      case PkgKind::kStoreWord:
      case PkgKind::kStoreNbWord:
        mem.writeWord(pkg.addr, pkg.value);
        break;
      case PkgKind::kStoreByte:
        mem.writeByte(pkg.addr, static_cast<std::uint8_t>(pkg.value));
        break;
      case PkgKind::kPsm:
        pkg.value = mem.fetchAdd(pkg.addr, pkg.value);
        break;
    }
    m_.tracePkg("cache", pkg, now);
    m_.sendResponse(pkg, now + m_.cfg.cacheHitLatency * clock().period());
  }

  ModelCore& m_;
  std::vector<std::unique_ptr<Module>> mods_;
  TimedQueue<Fill> fillq_;
};

// ---------------------------------------------------------------------------
// DramActor: per-channel latency + bandwidth model ("DRAM is modeled as
// simple latency").
// ---------------------------------------------------------------------------

class DramActor : public TickingActor {
 public:
  DramActor(ModelCore& m, Scheduler& sched, ClockDomain& clk)
      : TickingActor("dram", sched, clk), m_(m) {
    chq_.resize(static_cast<std::size_t>(m.cfg.dramChannels));
    busyUntil_.assign(static_cast<std::size_t>(m.cfg.dramChannels), 0);
  }

  void request(int module, std::uint64_t line, SimTime now) {
    std::size_t ch =
        static_cast<std::size_t>(module % m_.cfg.dramChannels);
    chq_[ch].push(now, Req{module, line});
    ++m_.stats.dramRequests;
    wakeAt(now);
  }

 protected:
  SimTime tick(SimTime now) override {
    SimTime next = -1;
    auto consider = [&](SimTime t) {
      if (t >= 0 && (next < 0 || t < next)) next = t;
    };
    for (std::size_t ch = 0; ch < chq_.size(); ++ch) {
      if (chq_[ch].ready(now) && now >= busyUntil_[ch]) {
        Req r = chq_[ch].pop(now);
        busyUntil_[ch] =
            now + m_.cfg.dramServiceInterval * clock().period();
        m_.caches->fill(r.module, r.line,
                        now + m_.cfg.dramLatency * clock().period());
      }
      if (!chq_[ch].empty()) {
        SimTime t = chq_[ch].nextReadyTime();
        if (t < busyUntil_[ch]) t = busyUntil_[ch];
        consider(t);
      }
    }
    return next;
  }

 private:
  struct Req {
    int module;
    std::uint64_t line;
  };
  ModelCore& m_;
  std::vector<TimedQueue<Req>> chq_;
  std::vector<SimTime> busyUntil_;
};

// ---------------------------------------------------------------------------
// SpawnStarter: fires when the instruction broadcast completes; flips every
// TCU into dispatch mode.
// ---------------------------------------------------------------------------

class SpawnStarter : public Actor {
 public:
  explicit SpawnStarter(ModelCore& m) : Actor("spawnstarter"), m_(m) {}
  void notify(SimTime now) override {
    for (auto& c : m_.clusters) {
      c->beginSpawn(m_.master->ctx, now);
      c->wakeAt(now + 1);
    }
  }

 private:
  ModelCore& m_;
};

// ---------------------------------------------------------------------------
// SpawnJoiner: fires at the edge the last TCU parks; completes
// the join by waking the master out of kWaitSpawn. Scheduled by noteParked.
// ---------------------------------------------------------------------------

class SpawnJoiner : public Actor {
 public:
  explicit SpawnJoiner(ModelCore& m) : Actor("spawnjoiner"), m_(m) {}
  void notify(SimTime now) override {
    m_.spawnActive = false;
    m_.master->resumeFromSpawn(now);
  }

 private:
  ModelCore& m_;
};

// ---------------------------------------------------------------------------
// SamplerActor: periodic activity plug-in callback.
// ---------------------------------------------------------------------------

class SamplerActor : public TickingActor {
 public:
  SamplerActor(ModelCore& m, RuntimeControl& rc, ActivityPlugin* plugin,
               std::uint64_t periodCycles, ClockDomain& clk)
      : TickingActor("sampler", m.sched, clk),
        m_(m),
        rc_(rc),
        plugin_(plugin),
        periodCycles_(periodCycles) {}

 protected:
  SimTime tick(SimTime now) override {
    if (m_.halted) return -1;
    plugin_->onInterval(rc_);
    return now + static_cast<SimTime>(periodCycles_) * clock().period();
  }

 private:
  ModelCore& m_;
  RuntimeControl& rc_;
  ActivityPlugin* plugin_;
  std::uint64_t periodCycles_;
};

// ---------------------------------------------------------------------------
// ReturnPort implementation.
// ---------------------------------------------------------------------------

SimTime ReturnPort::drain(SimTime now, ModelCore& m,
                          TimedQueue<Package>& inbox) {
  for (;;) {
    if (q.empty()) return -1;
    // The head's delivery edge: the first ICN edge at or after its ready
    // time, but never an edge whose rate budget was already spent (the
    // cursor), so a rate-limited batch spills to the *next* edge exactly as
    // the central ICN actor used to deliver it.
    SimTime e = m.icnClk.nextEdge(q.nextReadyTime() - 1);
    if (e < cursor) e = cursor;
    if (e > now) return e;
    int slots = m.cfg.clusterReturnRate;
    while (slots > 0 && q.ready(e)) {
      Package pkg = q.pop(e);
      m.tracePkg("icn", pkg, e);
      inbox.push(e, pkg);
      --slots;
    }
    cursor = m.icnClk.nextEdge(e);
  }
}

// ---------------------------------------------------------------------------
// ModelCore implementation.
// ---------------------------------------------------------------------------

ModelCore::ModelCore(FuncModel& funcModel, const XmtConfig& config,
                     Stats& statsRef)
    : fm(funcModel),
      cfg(config),
      stats(statsRef),
      masterClk("core", config.coreGhz),
      icnClk("icn", config.icnGhz),
      cacheClk("cache", config.cacheGhz),
      dramClk("dram", config.dramGhz) {
  cfg.validate();
  stats.perCluster.assign(static_cast<std::size_t>(cfg.clusters),
                          ClusterActivity{});

  for (int i = 0; i < cfg.clusters; ++i)
    clusterClk.push_back(std::make_unique<ClockDomain>(
        "cluster" + std::to_string(i), cfg.coreGhz));
  caches = std::make_unique<CacheActor>(*this, sched, cacheClk);
  dram = std::make_unique<DramActor>(*this, sched, dramClk);
  psUnit = std::make_unique<PsUnitActor>(*this, sched, masterClk);
  master = std::make_unique<MasterActor>(*this, sched, masterClk);
  for (int i = 0; i < cfg.clusters; ++i)
    clusters.push_back(std::make_unique<ClusterActor>(
        *this, i, sched, *clusterClk[static_cast<std::size_t>(i)]));
  spawnStarter = std::make_unique<SpawnStarter>(*this);
  spawnJoiner = std::make_unique<SpawnJoiner>(*this);
}

void ModelCore::commit(int cluster, int tcu, const Instruction& in,
                       std::uint32_t pc, std::uint32_t addr, SimTime now) {
  stats.countInstruction(in);
  if (cluster >= 0) {
    auto& a = stats.perCluster[static_cast<std::size_t>(cluster)];
    ++a.instructions;
  }
  if (stats.instructions > cfg.maxInstructions)  // runaway guard
    throw SimError("instruction limit exceeded (" +
                   std::to_string(cfg.maxInstructions) + ")");
  if (observer) observer->onCommit({now, cluster, tcu, pc, in, addr});
}

void ModelCore::tracePkg(const char* stage, const Package& pkg, SimTime now) {
  if (observer) observer->onPackage(stage, pkg, now);
}

// Deterministic per-package latency for the asynchronous interconnect:
// mean = the synchronous pipeline depth, jittered by a hash of the package
// id. Continuous time — not aligned to any clock edge, which is exactly
// what the discrete-event engine supports and a discrete-time loop cannot.
SimTime ModelCore::asyncIcnLatency(std::uint64_t pkgId, int meanCycles) {
  double meanPs =
      static_cast<double>(meanCycles) * static_cast<double>(icnClk.period());
  std::uint64_t h = pkgId * 0x9e3779b97f4a7c15ull;
  h ^= h >> 31;
  double unit = static_cast<double>(h % 10007) / 10007.0;  // [0, 1)
  double factor = 1.0 + cfg.icnAsyncJitter * (2.0 * unit - 1.0);
  auto lat = static_cast<SimTime>(meanPs * factor);
  return lat < 1 ? 1 : lat;
}

void ModelCore::sendPackage(Package pkg, SimTime now) {
  ++stats.icnPackets;
  ++inFlight;
  int module = hashLineToModule(
      pkg.addr / static_cast<std::uint32_t>(cfg.cacheLineBytes),
      cfg.cacheModules, cfg.addressHashing);
  SimTime ready =
      cfg.icnAsync
          ? now + asyncIcnLatency(pkg.id, cfg.effectiveIcnSendLatency())
          : now + cfg.effectiveIcnSendLatency() * icnClk.period();
  caches->inject(pkg, ready, module);
}

void ModelCore::sendResponse(const Package& pkg, SimTime readyAt) {
  if (cfg.icnAsync) {
    // Asynchronous routers forward when ready: no return-port clocking or
    // rate limiting; delivery lands at a continuous-time instant.
    deliverResponse(
        pkg, readyAt + asyncIcnLatency(pkg.id ^ 0xa5a5u,
                                       cfg.effectiveIcnReturnLatency()));
    return;
  }
  routeReturn(pkg, readyAt + cfg.effectiveIcnReturnLatency() * icnClk.period());
}

// Direct (continuous-time) delivery — asynchronous-ICN configurations only.
void ModelCore::deliverResponse(const Package& pkg, SimTime now) {
  if (pkg.srcCluster == kMasterCluster) {
    master->pkgInbox.push(now, pkg);
    master->wakeAt(now);
  } else {
    auto& c = clusters[static_cast<std::size_t>(pkg.srcCluster)];
    c->pkgInbox.push(now, pkg);
    c->wakeAt(now);
  }
}

// Synchronous return path: hand the package to the destination's return
// port with its tree-egress ready time; the destination replays the ICN
// edge metering when it ticks. The wake targets the earliest possible
// delivery edge (the port may postpone under rate pressure and re-arm).
void ModelCore::routeReturn(const Package& pkg, SimTime ready) {
  if (pkg.srcCluster == kMasterCluster) {
    master->retPort.q.push(ready, pkg);
    master->wakeAt(icnClk.nextEdge(ready - 1));
  } else {
    auto& c = *clusters[static_cast<std::size_t>(pkg.srcCluster)];
    c.retPort.q.push(ready, pkg);
    c.wakeAt(icnClk.nextEdge(ready - 1));
  }
}

void ModelCore::sendPsRequest(const PsReq& req, SimTime now) {
  ++inFlight;
  SimTime ready = now + cfg.psLatency * masterClk.period();
  psUnit->inbox.push(ready, req.cluster, req);
  psUnit->wakeAt(ready);
}

void ModelCore::deliverPsResponse(const PsResp& resp, SimTime readyAt) {
  auto& c = *clusters[static_cast<std::size_t>(resp.cluster)];
  c.psInbox.push(readyAt, resp);
  c.wakeAt(readyAt);
}

void ModelCore::dramRequest(int module, std::uint64_t line, SimTime now) {
  dram->request(module, line, now);
}

void ModelCore::scheduleSpawnStart(SimTime when) {
  sched.schedule(spawnStarter.get(), when, kPhaseNegotiate);
}

// Called at the PS unit when a dispatch request overruns $high. The TCU
// architecturally parks when its cluster consumes the response — the first
// cluster-clock edge covering the response's ready time — so the join
// completes at the latest such edge, exactly when the old cluster-side
// detection resumed the master.
void ModelCore::noteParked(int cluster, SimTime respReady) {
  SimTime at =
      clusterClk[static_cast<std::size_t>(cluster)]->nextEdge(respReady - 1);
  if (at > parkLastTime) parkLastTime = at;
  ++parkedCount;
  if (parkedCount == cfg.totalTcus())
    sched.schedule(spawnJoiner.get(), parkLastTime, kPhaseTransfer);
}

void ModelCore::doHalt(std::int32_t code) {
  halted = true;
  haltCode = code;
  sched.requestStop();
}

void ModelCore::syncCacheStats() {
  stats.cacheHits = caches->tagHits();
  stats.cacheMisses = caches->tagMisses();
  stats.masterCacheHits = master->cacheHits();
  stats.masterCacheMisses = master->cacheMisses();
  std::uint64_t roH = 0, roM = 0;
  for (const auto& c : clusters) {
    roH += c->roHits();
    roM += c->roMisses();
  }
  stats.roCacheHits = roH;
  stats.roCacheMisses = roM;
  stats.cycles = static_cast<std::uint64_t>(masterClk.cyclesAt(sched.now()));
  stats.simTime = sched.now();
}

bool ModelCore::quiescent() const {
  return !spawnActive && !halted && inFlight == 0 &&
         master->runnable() && master->outstandingStores() == 0;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// CycleModel facade.
// ---------------------------------------------------------------------------

CycleModel::CycleModel(FuncModel& funcModel, const XmtConfig& config,
                       Stats& stats)
    : core_(std::make_unique<detail::ModelCore>(funcModel, config, stats)) {}

CycleModel::~CycleModel() = default;

void CycleModel::addActivityPlugin(ActivityPlugin* plugin,
                                   std::uint64_t periodCycles) {
  XMT_CHECK(plugin != nullptr && periodCycles > 0);
  core_->samplers.push_back(std::make_unique<detail::SamplerActor>(
      *core_, *this, plugin, periodCycles, core_->masterClk));
  if (core_->started)
    core_->samplers.back()->wakeAt(core_->sched.now() + 1);
}

CycleRunResult CycleModel::run(std::uint64_t maxCycles,
                               SimObserver* observer) {
  detail::ModelCore& m = *core_;
  m.observer = observer;
  if (!m.started) {
    m.started = true;
    m.master->start();
    for (auto& s : m.samplers) s->wakeAt(1);
  }
  // A previous run()'s cycle-budget stop may still sit in the event list if
  // that run ended early on a halt or checkpoint stop; withdraw it so it
  // cannot cut this run short.
  m.sched.cancelStops();
  if (maxCycles > 0) {
    std::int64_t target = m.masterClk.cyclesAt(m.sched.now()) +
                          static_cast<std::int64_t>(maxCycles);
    m.sched.scheduleStop(m.masterClk.timeOfCycle(target));
  }
  bool stopped = m.sched.run();
  if (!stopped && !m.halted)
    throw SimError("simulation deadlock: event list drained before halt");
  m.syncCacheStats();
  CycleRunResult r;
  r.halted = m.halted;
  r.haltCode = m.haltCode;
  r.cycles = m.stats.cycles;
  r.simTime = m.sched.now();
  return r;
}

bool CycleModel::halted() const { return core_->halted; }
bool CycleModel::quiescent() const { return core_->quiescent(); }

const Context& CycleModel::masterContext() const {
  return core_->master->ctx;
}

void CycleModel::setMasterContext(const Context& ctx) {
  core_->master->ctx = ctx;
  core_->masterRestored = true;
}

void CycleModel::requestCheckpointStop(std::uint64_t minCycles) {
  core_->checkpointRequested = true;
  core_->checkpointMinCycles = minCycles;
  core_->checkpointTaken = false;
}

bool CycleModel::checkpointStopTaken() const {
  return core_->checkpointTaken;
}

const Stats& CycleModel::stats() const { return core_->stats; }
const XmtConfig& CycleModel::config() const { return core_->cfg; }
SimTime CycleModel::now() const { return core_->sched.now(); }

std::uint64_t CycleModel::coreCycles() const {
  return static_cast<std::uint64_t>(
      core_->masterClk.cyclesAt(core_->sched.now()));
}

void CycleModel::setClusterFrequency(int cluster, double ghz) {
  XMT_CHECK(cluster >= 0 && cluster < core_->cfg.clusters);
  core_->clusterClk[static_cast<std::size_t>(cluster)]->setFrequency(
      ghz, core_->sched.now());
  core_->clusters[static_cast<std::size_t>(cluster)]->wakeAt(
      core_->sched.now() + 1);
}

double CycleModel::clusterFrequency(int cluster) const {
  XMT_CHECK(cluster >= 0 && cluster < core_->cfg.clusters);
  return core_->clusterClk[static_cast<std::size_t>(cluster)]
      ->frequencyGhz();
}

void CycleModel::setClusterEnabled(int cluster, bool enabled) {
  XMT_CHECK(cluster >= 0 && cluster < core_->cfg.clusters);
  core_->clusterClk[static_cast<std::size_t>(cluster)]->setEnabled(
      enabled, core_->sched.now());
  core_->clusters[static_cast<std::size_t>(cluster)]->wakeAt(
      core_->sched.now() + 1);
}

void CycleModel::setIcnFrequency(double ghz) {
  core_->icnClk.setFrequency(ghz, core_->sched.now());
  // Return metering lives in the destinations' ports now: re-arm them so
  // pending deliveries re-anchor to the new edge grid.
  core_->master->wakeAt(core_->sched.now() + 1);
  for (auto& c : core_->clusters) c->wakeAt(core_->sched.now() + 1);
}

void CycleModel::setCacheFrequency(double ghz) {
  core_->cacheClk.setFrequency(ghz, core_->sched.now());
  core_->caches->wakeAt(core_->sched.now() + 1);
}

void CycleModel::setDramFrequency(double ghz) {
  core_->dramClk.setFrequency(ghz, core_->sched.now());
  core_->dram->wakeAt(core_->sched.now() + 1);
}

void CycleModel::requestStop() { core_->sched.requestStop(); }

Scheduler& CycleModel::scheduler() { return core_->sched; }

}  // namespace xmt
