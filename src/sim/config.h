// XMT machine configuration.
//
// "XMTSim is highly configurable and provides control over many parameters
// including number of TCUs, the cache size, DRAM bandwidth and relative
// clock frequencies of components." The two built-in configurations mirror
// the paper: the 64-TCU FPGA prototype (Paraleap, also the simulator's
// verification target) and the envisioned 1024-TCU XMT chip.
//
// All latencies are expressed in cycles of the owning component's clock
// domain; frequencies are per-domain and can be changed at runtime through
// the activity-plug-in interface (DVFS).
#pragma once

#include <cstdint>
#include <string>

#include "src/common/config.h"

namespace xmt {

struct XmtConfig {
  std::string name = "custom";

  // Topology.
  int clusters = 8;
  int tcusPerCluster = 8;
  int cacheModules = 8;
  int dramChannels = 2;

  // Clock domains (GHz). Clusters share coreGhz until a DVFS plug-in
  // retunes them individually.
  double coreGhz = 1.0;
  double icnGhz = 1.0;
  double cacheGhz = 1.0;
  double dramGhz = 0.5;

  // Interconnection network. 0 = derive from topology:
  // 2 + ceil(log2(clusters)) + ceil(log2(cacheModules)) pipeline stages,
  // the depth of a mesh-of-trees traversal.
  int icnSendLatency = 0;
  int icnReturnLatency = 0;
  int clusterInjectRate = 2;   // packages a cluster may inject per core cycle
  int clusterReturnRate = 2;   // responses a cluster may retire per ICN cycle
  bool addressHashing = true;  // LS-unit hashing to avoid module hotspots

  // Asynchronous interconnect (Section III-F: the GALS NoC study). When
  // enabled, packages traverse the network in continuous time — mean
  // latency matching the synchronous pipeline depth, with deterministic
  // per-package jitter — instead of being clocked and rate-limited at the
  // return ports. Only a discrete-EVENT engine can model this; a
  // discrete-time simulator cannot.
  bool icnAsync = false;
  double icnAsyncJitter = 0.25;  // +- fraction of the mean latency

  // Shared L1 cache modules.
  int cacheHitLatency = 4;     // cache cycles
  int cacheLineBytes = 32;
  int cacheModuleKB = 32;
  int cacheAssoc = 4;

  // DRAM ("modeled as simple latency" + per-channel bandwidth).
  int dramLatency = 60;          // dram cycles until fill
  int dramServiceInterval = 4;   // dram cycles between requests per channel

  // Cluster resources.
  int mduPerCluster = 1;
  int mduLatency = 8;
  int fpuPerCluster = 1;
  int fpuLatency = 6;
  int prefetchEntries = 4;
  std::string prefetchPolicy = "fifo";  // "fifo" or "lru" (cf. paper ref [8])
  int roCacheLines = 64;                // read-only cache, direct-mapped
  int masterCacheKB = 8;

  // Prefix-sum unit and spawn hardware.
  int psLatency = 2;            // one-way TCU -> PS unit, core cycles
  int psReturnLatency = 2;      // PS unit -> TCU
  int spawnBroadcastBase = 12;  // fixed broadcast setup cost, core cycles
  int broadcastInstrPerCycle = 4;  // broadcast bus width

  // Run guards.
  std::uint64_t maxInstructions = 500'000'000;

  int totalTcus() const { return clusters * tcusPerCluster; }
  int effectiveIcnSendLatency() const;
  int effectiveIcnReturnLatency() const;

  /// Throws ConfigError if any parameter is out of range.
  void validate() const;

  /// The 64-TCU FPGA prototype (Paraleap-like).
  static XmtConfig fpga64();
  /// The envisioned 1024-TCU XMT chip.
  static XmtConfig chip1024();
  /// Lookup by name: "fpga64", "chip1024", or "custom" (defaults).
  static XmtConfig byName(const std::string& name);

  /// Builds a configuration from a ConfigMap: optional "base" key selects a
  /// preset; any other key overrides the matching field.
  static XmtConfig fromConfigMap(const ConfigMap& map);
  ConfigMap toConfigMap() const;

  bool operator==(const XmtConfig&) const = default;
};

}  // namespace xmt
