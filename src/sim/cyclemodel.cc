#include "src/sim/cyclemodel.h"

#include <algorithm>
#include <bit>
#include <map>

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

// The earlier of two wake-up times, where -1 means none.
inline SimTime earliest(SimTime a, SimTime b) {
  return a < 0 || (b >= 0 && b < a) ? b : a;
}

enum class Phase : std::uint8_t {
  kIdle, kRunning, kWaitUntil, kBlocked, kParked,
  kWaitSpawn,  // master only: the cluster TCUs run the spawn block
};

// The pipeline state of one in-order TCU. The Master TCU and every cluster
// TCU are the same TCU with different surroundings (see TcuActor).
struct TcuState {
  Context ctx;
  Phase phase = Phase::kIdle;
  WaitKind wait = WaitKind::kNone;
  SimTime readyAt = 0;
  SimTime waitStart = 0;
  std::uint8_t waitReg = 0;
  std::uint64_t waitPkgId = 0;
  int outstandingStores = 0;
  // The fence wait ends in the owner's continuation (the cluster's
  // join -> dispatch, the master's halt), not in a resume.
  bool drainPending = false;
  // Word-aligned addresses of the in-flight non-blocking stores, one entry
  // per store (a word stored twice appears twice), in no particular order.
  std::vector<std::uint32_t> storeAddrs;

  // XMT memory-model rule 1: same-source same-address operations are never
  // reordered, so a load must not overtake this TCU's own in-flight
  // non-blocking store to the same word.
  bool storeInFlight(std::uint32_t addr) const {
    return std::find(storeAddrs.begin(), storeAddrs.end(), addr & ~3u) !=
           storeAddrs.end();
  }
};

// The package a memory instruction sends (the master sends rolw as kLoadWord:
// it has no read-only cache).
inline PkgKind pkgKindOf(Op op) {
  switch (op) {
    case Op::kLw: return PkgKind::kLoadWord;
    case Op::kLbu: return PkgKind::kLoadByte;
    case Op::kRolw: return PkgKind::kReadOnlyLoad;
    case Op::kPref: return PkgKind::kPrefetch;
    case Op::kSw: return PkgKind::kStoreWord;
    case Op::kSb: return PkgKind::kStoreByte;
    case Op::kSwnb: return PkgKind::kStoreNbWord;
    case Op::kPsm: return PkgKind::kPsm;
    default: throw InternalError("memory op without a package");
  }
}

// ---------------------------------------------------------------------------
// ReturnPort: the per-destination return tree of the synchronous
// mesh-of-trees. Replaces the former central IcnActor: each destination
// (cluster or master) owns its port and *replays* the ICN-edge rate metering
// locally when it ticks. The delivered sequence is a pure function of the
// (readyTime-ordered) contents, not of the order packages were pushed.
// ---------------------------------------------------------------------------

struct ModelCore;
class TcuActor;

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
  // Reply destinations indexed by srcCluster - kMasterCluster: the master,
  // then cluster 0, 1, ...
  std::vector<TcuActor*> replyTo;
  std::unique_ptr<CacheActor> caches;
  std::unique_ptr<DramActor> dram;
  std::unique_ptr<PsUnitActor> psUnit;
  std::unique_ptr<SpawnStarter> spawnStarter;
  std::unique_ptr<SpawnJoiner> spawnJoiner;
  std::vector<std::unique_ptr<SamplerActor>> samplers;

  SimObserver* observer = nullptr;  // null when the run is unobserved

  // The program text decoded once: each word's step class and functional
  // unit, which the master and cluster pipelines switch on.
  struct Decoded {
    const Instruction* in;
    FuncModel::StepClass cls;
    FuKind fu;
  };
  std::vector<Decoded> decodedText;  // one entry per Program::text word

  const Decoded& fetch(std::uint32_t pc) const {
    std::uint32_t i = (pc - kTextBase) / 4;
    if (pc < kTextBase || pc % 4 != 0 || i >= decodedText.size()) {
      fm.fetch(pc);  // throws the bad-address SimError
      throw InternalError("fetch outside the text segment");
    }
    return decodedText[i];
  }

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
  Package makePkg(PkgKind kind, std::uint32_t addr, std::uint32_t value,
                  int cluster, int tcu, std::uint8_t destReg, SimTime now);
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
// TcuActor: what the Master TCU and the cluster TCUs share. It receives
// their replies (return port + inbox) and holds the one TCU pipeline:
// block/resume, the issue path for fence, psm, stores and load misses, and
// the ack handler for their replies. MasterActor adds its private cache,
// local ps, spawn and halt; ClusterActor adds memory slots, the MDU/FPU
// pools, prefetch buffers, the read-only cache and join -> dispatch.
// ---------------------------------------------------------------------------

class TcuActor : public TickingActor {
 public:
  TcuActor(std::string name, ModelCore& m, int cluster, Scheduler& sched,
           ClockDomain& clk)
      : TickingActor(std::move(name), sched, clk), m_(m), cluster_(cluster) {}

  TimedQueue<Package> pkgInbox;
  ReturnPort retPort;

 protected:
  /// Hands every reply due by `now` to `onResponse(pkg)` and retires its
  /// package. Returns the return port's next delivery edge (-1 when empty).
  template <typename OnResponse>
  SimTime takeResponses(SimTime now, OnResponse&& onResponse) {
    SimTime next = retPort.q.empty() ? -1 : retPort.drain(now, m_, pkgInbox);
    while (pkgInbox.ready(now)) {
      Package pkg = pkgInbox.pop(now);
      onResponse(pkg);
      XMT_CHECK(m_.inFlight > 0);
      --m_.inFlight;
    }
    return next;
  }

  void commit(int tcu, const Instruction& in, std::uint32_t pc,
              std::uint32_t addr, SimTime now) {
    m_.commit(cluster_, tcu, in, pc, addr, now);
  }

  // Moves past an instruction that needs nothing more, and commits it.
  void advance(TcuState& t, int tcu, const Instruction& in, std::uint32_t pc,
               std::uint32_t addr, SimTime now) {
    t.ctx.pc += 4;
    commit(tcu, in, pc, addr, now);
  }

  void stall(TcuState& t, int cycles, SimTime now) {
    t.phase = Phase::kWaitUntil;
    t.readyAt = now + cycles * clock().period();
  }

  void block(TcuState& t, WaitKind k, SimTime now) {
    t.phase = Phase::kBlocked;
    t.wait = k;
    t.waitStart = now;
  }

  void chargeMemWait(const TcuState& t, SimTime now) {
    m_.stats.memWaitCycles +=
        static_cast<std::uint64_t>((now - t.waitStart) / clock().period());
  }

  void resume(TcuState& t, SimTime now) {
    if (isMemWait(t.wait)) chargeMemWait(t, now);
    t.wait = WaitKind::kNone;
    t.phase = Phase::kRunning;
  }

  void issueFence(TcuState& t, int tcu, const Instruction& in,
                  std::uint32_t pc, SimTime now) {
    advance(t, tcu, in, pc, 0, now);
    if (t.outstandingStores != 0) block(t, WaitKind::kFence, now);
  }

  /// join and halt are implicit fences. Returns true when no non-blocking
  /// store is in flight; otherwise blocks on a fence wait whose end
  /// ackResponse reports to the owner's continuation.
  bool drained(TcuState& t, SimTime now) {
    if (t.outstandingStores == 0) return true;
    block(t, WaitKind::kFence, now);
    t.drainPending = true;
    return false;
  }

  /// The one issue path for psm, sw/sb, swnb, pref and load misses: sends
  /// the package, blocks the TCU on its reply (swnb and pref do not wait)
  /// and commits. Callers make their own checks first. Returns the
  /// package id.
  std::uint64_t issueMem(TcuState& t, int tcu, PkgKind kind,
                         const Instruction& in, std::uint32_t pc,
                         std::uint32_t addr, SimTime now) {
    std::uint32_t value = 0;
    std::uint8_t destReg = in.rt;
    WaitKind wait = WaitKind::kNone;
    switch (kind) {
      case PkgKind::kLoadWord:
      case PkgKind::kLoadByte:
        wait = WaitKind::kLoad;
        break;
      case PkgKind::kReadOnlyLoad:
        wait = WaitKind::kRoFill;
        break;
      case PkgKind::kPrefetch:
        destReg = 0;
        break;
      case PkgKind::kStoreWord:
      case PkgKind::kStoreByte:
        wait = WaitKind::kStoreAck;
        value = t.ctx.reg(in.rt);
        destReg = 0;
        break;
      case PkgKind::kStoreNbWord:
        value = t.ctx.reg(in.rt);
        destReg = 0;
        ++t.outstandingStores;
        t.storeAddrs.push_back(addr & ~3u);
        ++m_.stats.nonBlockingStores;
        break;
      case PkgKind::kPsm:
        wait = WaitKind::kPsm;
        value = t.ctx.reg(in.rt);
        ++m_.stats.psmRequests;
        break;
    }
    Package p = m_.makePkg(kind, addr, value, cluster_, tcu, destReg, now);
    m_.sendPackage(p, now);
    if (wait != WaitKind::kNone) {
      block(t, wait, now);
      t.waitPkgId = p.id;  // a read-only fill is matched by package id
      t.waitReg = in.rt;
    }
    advance(t, tcu, in, pc, addr, now);
    return p.id;
  }

  /// The one ack handler for load, store, swnb and psm replies. Returns
  /// true when the reply drained a fence wait that ends in the owner's
  /// continuation (TcuState::drainPending) rather than in a resume.
  bool ackResponse(TcuState& t, const Package& pkg, SimTime now) {
    switch (pkg.kind) {
      case PkgKind::kLoadWord:
      case PkgKind::kLoadByte:
        XMT_CHECK(t.phase == Phase::kBlocked && t.wait == WaitKind::kLoad);
        t.ctx.setReg(pkg.destReg, pkg.value);
        break;
      case PkgKind::kStoreWord:
      case PkgKind::kStoreByte:
        XMT_CHECK(t.phase == Phase::kBlocked &&
                  t.wait == WaitKind::kStoreAck);
        break;
      case PkgKind::kPsm:
        XMT_CHECK(t.phase == Phase::kBlocked && t.wait == WaitKind::kPsm);
        t.ctx.setReg(pkg.destReg, pkg.value);
        break;
      case PkgKind::kStoreNbWord: {
        XMT_CHECK(t.outstandingStores > 0);
        --t.outstandingStores;
        auto it = std::find(t.storeAddrs.begin(), t.storeAddrs.end(),
                            pkg.addr & ~3u);
        XMT_CHECK(it != t.storeAddrs.end());
        *it = t.storeAddrs.back();
        t.storeAddrs.pop_back();
        if (t.phase != Phase::kBlocked || t.wait != WaitKind::kFence ||
            t.outstandingStores != 0)
          return false;
        if (t.drainPending) {
          t.drainPending = false;
          return true;
        }
        break;
      }
      default:
        throw InternalError("unexpected reply kind at a TCU");
    }
    resume(t, now);
    return false;
  }

  ModelCore& m_;
  const int cluster_;  // kMasterCluster for the master
};

// ---------------------------------------------------------------------------
// ClusterActor: macro-actor over one cluster's TCUs, shared MDU/FPU pools,
// the read-only cache, and the per-TCU prefetch buffers.
// ---------------------------------------------------------------------------

class ClusterActor : public TcuActor {
 public:
  ClusterActor(ModelCore& m, int id, Scheduler& sched, ClockDomain& clk)
      : TcuActor("cluster" + std::to_string(id), m, id, sched, clk),
        roCache_(m.cfg.roCacheLines, 1, m.cfg.cacheLineBytes),
        pbPolicy_(m.cfg.prefetchPolicy == "lru" ? PbPolicy::kLru
                                                : PbPolicy::kFifo),
        mduBusy_(static_cast<std::size_t>(m.cfg.mduPerCluster), 0),
        fpuBusy_(static_cast<std::size_t>(m.cfg.fpuPerCluster), 0) {
    tcus_.resize(static_cast<std::size_t>(m.cfg.tcusPerCluster));
    for (auto& t : tcus_)
      t.pb.resize(static_cast<std::size_t>(m.cfg.prefetchEntries));
  }

  TimedQueue<PsResp> psInbox;

  /// Spawn onset: broadcast master registers, reset per-section caches,
  /// request virtual-thread IDs for every TCU.
  void beginSpawn(const Context& masterCtx, SimTime now) {
    roCache_.invalidateAll();
    for (std::size_t i = 0; i < tcus_.size(); ++i) {
      Tcu& t = tcus_[i];
      XMT_CHECK(t.outstandingStores == 0);
      t.ctx.regs = masterCtx.regs;
      for (auto& e : t.pb) e = PbEntry{};
      requestDispatch(t, static_cast<int>(i), now);
    }
  }

  std::uint64_t roHits() const { return roCache_.hits; }
  std::uint64_t roMisses() const { return roCache_.misses; }

 protected:
  SimTime tick(SimTime now) override {
    SimTime rpNext =
        takeResponses(now, [&](const Package& p) { onResponse(p, now); });
    while (psInbox.ready(now)) {
      PsResp r = psInbox.pop(now);
      handlePsResp(r, now);
    }

    // One pass in round-robin order from rr_, as the ranges [rr_, n) and
    // [0, rr_). Issuing one TCU never changes another's phase, so each
    // TCU's contribution to the next wake is final once it has had its turn.
    SimTime next = rpNext;
    int memSlots = m_.cfg.clusterInjectRate;
    bool anyIssued = false;
    bool anyRunning = false;
    const int n = static_cast<int>(tcus_.size());
    auto pass = [&](int begin, int end) {
      for (int i = begin; i < end; ++i) {
        Tcu& t = tcus_[static_cast<std::size_t>(i)];
        if (t.phase == Phase::kWaitUntil && now >= t.readyAt)
          t.phase = Phase::kRunning;
        if (t.phase == Phase::kRunning && issueOne(t, i, now, memSlots))
          anyIssued = true;
        if (t.phase == Phase::kRunning)
          anyRunning = true;
        else if (t.phase == Phase::kWaitUntil)
          next = earliest(next, t.readyAt);
      }
    };
    pass(rr_, n);
    pass(0, rr_);
    if (++rr_ == n) rr_ = 0;
    if (anyIssued)
      ++m_.stats.perCluster[static_cast<std::size_t>(cluster_)].activeCycles;
    next = earliest(next, pkgInbox.nextReadyTime());
    next = earliest(next, psInbox.nextReadyTime());
    if (anyRunning) next = earliest(next, clock().nextEdge(now));
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

  struct Tcu : TcuState {
    std::vector<PbEntry> pb;
  };

  enum class PbPolicy : std::uint8_t { kFifo, kLru };

  void requestDispatch(Tcu& t, int tcuIdx, SimTime now) {
    PsReq req;
    req.cluster = static_cast<std::int16_t>(cluster_);
    req.tcu = static_cast<std::int16_t>(tcuIdx);
    req.gr = kGrNextId;
    req.inc = 1;
    req.isDispatch = true;
    m_.sendPsRequest(req, now);
    block(t, WaitKind::kDispatch, now);
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
      if (pbPolicy_ == PbPolicy::kLru) {
        if (e.lastUse < victim->lastUse) victim = &e;
      } else {  // fifo
        if (e.allocSeq < victim->allocSeq) victim = &e;
      }
    }
    return victim;
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
    const ModelCore::Decoded& d = m_.fetch(pc);
    const Instruction& in = *d.in;
    auto& act = m_.stats.perCluster[static_cast<std::size_t>(cluster_)];

    switch (d.cls) {
      case FuncModel::StepClass::kSimple: {
        FuKind fu = d.fu;
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
          stall(t, lat, now);
          if (fu == FuKind::kMdu) ++act.mduOps; else ++act.fpuOps;
        } else {
          m_.fm.execSimple(t.ctx, in);
          ++act.aluOps;
        }
        commit(tcuIdx, in, pc, 0, now);
        return true;
      }

      case FuncModel::StepClass::kMemory:
      case FuncModel::StepClass::kPsm:
        return issueMemory(t, tcuIdx, in, pc, now, memSlots);

      case FuncModel::StepClass::kPs: {
        PsReq req;
        req.cluster = static_cast<std::int16_t>(cluster_);
        req.tcu = static_cast<std::int16_t>(tcuIdx);
        req.destReg = in.rd;
        req.gr = in.rt;
        req.inc = t.ctx.reg(in.rd);
        m_.sendPsRequest(req, now);
        block(t, WaitKind::kPs, now);
        advance(t, tcuIdx, in, pc, 0, now);
        return true;
      }

      case FuncModel::StepClass::kSpawn:
        throw SimError(
            "nested spawn reached the spawn hardware (the compiler must "
            "serialize nested spawns)");

      case FuncModel::StepClass::kJoin:
        // Virtual thread complete. The end of a virtual thread orders
        // memory operations (XMT memory model), so join is an implicit
        // fence: outstanding non-blocking stores drain before the TCU's
        // dispatch hardware performs the ps + chkid sequence for the next
        // thread ID.
        commit(tcuIdx, in, pc, 0, now);
        if (drained(t, now)) requestDispatch(t, tcuIdx, now);
        return true;

      case FuncModel::StepClass::kHalt:
        throw SimError("halt executed inside a spawn block");
    }
    return false;
  }

  // The cluster's own checks in front of the shared issue path: local hits
  // in the prefetch buffer and read-only cache, the rule-1 store stall, and
  // the per-cycle memory slots.
  bool issueMemory(Tcu& t, int tcuIdx, const Instruction& in,
                   std::uint32_t pc, SimTime now, int& memSlots) {
    std::uint32_t addr = m_.fm.effectiveAddr(t.ctx, in);
    switch (in.op) {
      case Op::kFence:
        issueFence(t, tcuIdx, in, pc, now);
        return true;

      case Op::kPref:
        if (!t.pb.empty() && findPb(t, addr) == nullptr) {
          if (memSlots == 0) return false;
          if (PbEntry* e = allocPb(t)) {
            *e = PbEntry{};
            e->addr = addr;
            e->pending = true;
            e->allocSeq = ++pbSeq_;
            e->lastUse = pbSeq_;
            e->pkgId = sendMem(t, tcuIdx, in, pc, addr, now, memSlots);
            return true;
          }
        }
        // Already buffered, no buffer, or every entry pending: no-op.
        advance(t, tcuIdx, in, pc, addr, now);
        return true;

      case Op::kLw:
      case Op::kLbu:
        if (t.storeInFlight(addr)) return false;
        if (in.op == Op::kLw) {
          PbEntry* e = findPb(t, addr);
          if (e != nullptr && e->valid) {
            t.ctx.setReg(in.rt, e->value);
            e->valid = false;  // consume on use
            e->addr = 0;
            ++m_.stats.prefetchBufferHits;
            advance(t, tcuIdx, in, pc, addr, now);
            return true;
          }
          if (e != nullptr && e->pending) {
            block(t, WaitKind::kPbFill, now);
            t.waitPkgId = e->pkgId;
            t.waitReg = in.rt;
            advance(t, tcuIdx, in, pc, addr, now);
            return true;
          }
        }
        break;

      case Op::kRolw:
        if (roCache_.contains(addr)) {
          roCache_.lookup(addr);  // count the hit, touch LRU
          t.ctx.setReg(in.rt, m_.fm.memory().readWord(addr));
          stall(t, 2, now);
          advance(t, tcuIdx, in, pc, addr, now);
          return true;
        }
        break;

      default:
        break;
    }
    if (memSlots == 0) return false;  // a rolw retries without a counted miss
    if (in.op == Op::kRolw) roCache_.lookup(addr);  // count the miss
    sendMem(t, tcuIdx, in, pc, addr, now, memSlots);
    return true;
  }

  std::uint64_t sendMem(Tcu& t, int tcuIdx, const Instruction& in,
                        std::uint32_t pc, std::uint32_t addr, SimTime now,
                        int& memSlots) {
    --memSlots;
    ++m_.stats.perCluster[static_cast<std::size_t>(cluster_)].memOps;
    return issueMem(t, tcuIdx, pkgKindOf(in.op), in, pc, addr, now);
  }

  void onResponse(const Package& pkg, SimTime now) {
    Tcu& t = tcus_[static_cast<std::size_t>(pkg.srcTcu)];
    switch (pkg.kind) {
      case PkgKind::kPrefetch:
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
        return;
      case PkgKind::kReadOnlyLoad:
        roCache_.install(pkg.addr);
        if (t.phase == Phase::kBlocked && t.wait == WaitKind::kRoFill &&
            t.waitPkgId == pkg.id) {
          t.ctx.setReg(t.waitReg, pkg.value);
          resume(t, now);
        }
        return;
      default:
        if (ackResponse(t, pkg, now)) {
          // The join's store drain counts as memory wait; the master's
          // halt drain does not (DESIGN.md §3).
          chargeMemWait(t, now);
          requestDispatch(t, static_cast<int>(pkg.srcTcu), now);
        }
    }
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
        resume(t, now);  // a dispatch wait is not memory wait
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

  std::vector<Tcu> tcus_;
  TagCache roCache_;
  const PbPolicy pbPolicy_;  // cfg.prefetchPolicy, resolved once
  std::vector<SimTime> mduBusy_;
  std::vector<SimTime> fpuBusy_;
  int rr_ = 0;
  std::uint64_t pbSeq_ = 0;
};

// ---------------------------------------------------------------------------
// MasterActor: the serial Master TCU with its private (write-through) cache
// and dedicated functional units.
// ---------------------------------------------------------------------------

class MasterActor : public TcuActor {
 public:
  MasterActor(ModelCore& m, Scheduler& sched, ClockDomain& clk)
      : TcuActor("master", m, kMasterCluster, sched, clk),
        cache_(m.cfg.masterCacheKB * 1024 / m.cfg.cacheLineBytes,
               m.cfg.cacheAssoc, m.cfg.cacheLineBytes) {
    tcu.phase = Phase::kRunning;
  }

  TcuState tcu;

  void start() {
    if (!m_.masterRestored) {
      tcu.ctx.pc = m_.fm.program().entry;
      tcu.ctx.setReg(kSp, kStackTop);
    }
    tcu.phase = Phase::kRunning;
    wakeAt(scheduler().now() + 1);
  }

  void resumeFromSpawn(SimTime now) {
    XMT_CHECK(tcu.phase == Phase::kWaitSpawn);
    tcu.ctx.pc = m_.spawnEnd;
    cache_.invalidateAll();  // TCUs may have written anywhere
    stall(tcu, 1, now);
    wakeAt(tcu.readyAt);
  }

  std::uint64_t cacheHits() const { return cache_.hits; }
  std::uint64_t cacheMisses() const { return cache_.misses; }

 protected:
  SimTime tick(SimTime now) override {
    SimTime rpNext =
        takeResponses(now, [&](const Package& p) { onResponse(p, now); });
    if (tcu.phase == Phase::kWaitUntil && now >= tcu.readyAt)
      tcu.phase = Phase::kRunning;
    if (tcu.phase == Phase::kRunning && !m_.halted) {
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
    if (tcu.phase == Phase::kRunning) return clock().nextEdge(now);
    return earliest(tcu.phase == Phase::kWaitUntil ? tcu.readyAt
                                                   : pkgInbox.nextReadyTime(),
                    rpNext);
  }

 private:
  void issue(SimTime now) {
    const std::uint32_t pc = tcu.ctx.pc;
    const ModelCore::Decoded& d = m_.fetch(pc);
    const Instruction& in = *d.in;
    switch (d.cls) {
      case FuncModel::StepClass::kSimple: {
        FuKind fu = d.fu;
        m_.fm.execSimple(tcu.ctx, in);
        if (fu == FuKind::kMdu)
          stall(tcu, m_.cfg.mduLatency, now);
        else if (fu == FuKind::kFpu)
          stall(tcu, m_.cfg.fpuLatency, now);
        commit(0, in, pc, 0, now);
        return;
      }
      case FuncModel::StepClass::kPs: {
        // The master sits next to the global register file / PS unit.
        std::uint32_t old = m_.fm.psFetchAdd(in.rt, tcu.ctx.reg(in.rd));
        tcu.ctx.setReg(in.rd, old);
        ++m_.stats.psRequests;
        stall(tcu, 2, now);
        advance(tcu, 0, in, pc, 0, now);
        return;
      }
      case FuncModel::StepClass::kMemory:
      case FuncModel::StepClass::kPsm:
        issueMemory(in, pc, now);
        return;
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
        tcu.phase = Phase::kWaitSpawn;
        m_.scheduleSpawnStart(now + bcastCycles * clock().period());
        commit(0, in, pc, 0, now);
        return;
      }
      case FuncModel::StepClass::kJoin:
        throw SimError("join executed in serial (master) mode");
      case FuncModel::StepClass::kHalt:
        // Halt implies a fence: outstanding non-blocking stores must reach
        // memory before the final memory dump.
        commit(0, in, pc, 0, now);
        if (drained(tcu, now))
          m_.doHalt(static_cast<std::int32_t>(tcu.ctx.reg(kV0)));
        return;
    }
  }

  // The master's own checks in front of the shared issue path: the rule-1
  // store stall and private-cache hits.
  void issueMemory(const Instruction& in, std::uint32_t pc, SimTime now) {
    std::uint32_t addr = m_.fm.effectiveAddr(tcu.ctx, in);
    PkgKind kind = PkgKind::kLoadWord;
    switch (in.op) {
      case Op::kFence:
        issueFence(tcu, 0, in, pc, now);
        return;
      case Op::kPref:  // the master has no prefetch buffer
        advance(tcu, 0, in, pc, addr, now);
        return;
      case Op::kLw:
      case Op::kLbu:
      case Op::kRolw:  // no read-only cache: a rolw is an lw
        if (tcu.storeInFlight(addr)) return;  // retry after drain
        if (cache_.lookup(addr)) {
          tcu.ctx.setReg(in.rt, in.op == Op::kLbu
                                    ? m_.fm.memory().readByte(addr)
                                    : m_.fm.memory().readWord(addr));
          stall(tcu, 2, now);
          advance(tcu, 0, in, pc, addr, now);
          return;
        }
        if (in.op == Op::kLbu) kind = PkgKind::kLoadByte;
        break;
      default:
        kind = pkgKindOf(in.op);
    }
    issueMem(tcu, 0, kind, in, pc, addr, now);
  }

  void onResponse(const Package& pkg, SimTime now) {
    if (pkg.kind == PkgKind::kLoadWord || pkg.kind == PkgKind::kLoadByte)
      cache_.install(pkg.addr);
    // The halt's store drain is not charged as memory wait (DESIGN.md §3).
    if (ackResponse(tcu, pkg, now))
      m_.doHalt(static_cast<std::int32_t>(tcu.ctx.reg(kV0)));
  }

  TagCache cache_;
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
      : TickingActor("caches", sched, clk),
        m_(m),
        queued_(static_cast<std::size_t>((m.cfg.cacheModules + 63) / 64), 0) {
    mods_.reserve(static_cast<std::size_t>(m.cfg.cacheModules));
    int lines = m.cfg.cacheModuleKB * 1024 / m.cfg.cacheLineBytes;
    for (int i = 0; i < m.cfg.cacheModules; ++i)
      mods_.push_back(std::make_unique<Module>(lines, m.cfg.cacheAssoc,
                                               m.cfg.cacheLineBytes));
  }

  void inject(const Package& pkg, SimTime readyAt, int module) {
    mods_[static_cast<std::size_t>(module)]->inq.push(readyAt,
                                                      pkg.srcCluster, pkg);
    queued_[static_cast<std::size_t>(module / 64)] |= 1ull << (module % 64);
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
    // Only modules with queued requests, in ascending module order: the
    // order of same-time return-port and DRAM pushes depends on it.
    SimTime next = fillq_.nextReadyTime();
    bool anyReady = false;
    for (std::size_t w = 0; w < queued_.size(); ++w) {
      for (std::uint64_t bits = queued_[w]; bits != 0; bits &= bits - 1) {
        int mi = static_cast<int>(w) * 64 + std::countr_zero(bits);
        Module& mod = *mods_[static_cast<std::size_t>(mi)];
        if (mod.inq.ready(now)) {
          Package pkg = mod.inq.pop(now);  // one request per module per cycle
          process(mod, mi, pkg, now);
        }
        if (mod.inq.empty())
          queued_[w] &= ~(1ull << (mi % 64));
        else if (mod.inq.ready(now))
          anyReady = true;
        else
          next = earliest(next, mod.inq.nextReadyTime());
      }
    }
    if (anyReady) next = earliest(next, clock().nextEdge(now));
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
  std::vector<std::uint64_t> queued_;  // bit per module: inq is non-empty
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
        next = earliest(next, t);
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
      c->beginSpawn(m_.master->tcu.ctx, now);
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
  for (const Instruction& in : fm.program().text)
    decodedText.push_back({&in, FuncModel::classify(in), opInfo(in.op).fu});
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
  replyTo.push_back(master.get());
  for (auto& c : clusters) replyTo.push_back(c.get());
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

Package ModelCore::makePkg(PkgKind kind, std::uint32_t addr,
                           std::uint32_t value, int cluster, int tcu,
                           std::uint8_t destReg, SimTime now) {
  Package p;
  p.kind = kind;
  p.addr = addr;
  p.value = value;
  p.srcCluster = static_cast<std::int16_t>(cluster);
  p.srcTcu = static_cast<std::int16_t>(tcu);
  p.destReg = destReg;
  p.id = ++pkgSeq;
  p.issueTime = now;
  return p;
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
  TcuActor& dst = *replyTo[static_cast<std::size_t>(pkg.srcCluster -
                                                    kMasterCluster)];
  dst.pkgInbox.push(now, pkg);
  dst.wakeAt(now);
}

// Synchronous return path: hand the package to the destination's return
// port with its tree-egress ready time; the destination replays the ICN
// edge metering when it ticks. The wake targets the earliest possible
// delivery edge (the port may postpone under rate pressure and re-arm).
void ModelCore::routeReturn(const Package& pkg, SimTime ready) {
  TcuActor& dst = *replyTo[static_cast<std::size_t>(pkg.srcCluster -
                                                    kMasterCluster)];
  dst.retPort.q.push(ready, pkg);
  dst.wakeAt(icnClk.nextEdge(ready - 1));
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
         master->tcu.phase == Phase::kRunning &&
         master->tcu.outstandingStores == 0;
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
  return core_->master->tcu.ctx;
}

void CycleModel::setMasterContext(const Context& ctx) {
  core_->master->tcu.ctx = ctx;
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
  for (auto* a : core_->replyTo) a->wakeAt(core_->sched.now() + 1);
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
