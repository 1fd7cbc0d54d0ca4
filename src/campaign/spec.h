// Campaign sweep specification: a declarative grid over machine
// configurations, simulation modes and workloads.
//
// The paper studies XMT by sweeping TCU counts, cache sizes, DRAM
// bandwidth and clock ratios across benchmarks (Sections IV-V). A
// CampaignSpec captures one such study as a ConfigMap-format file:
//
//   campaign = tcu_scaling
//   base     = fpga64              # preset for un-swept machine fields
//   config.dram_latency = 40       # fixed override on every point
//   sweep.clusters = 2,4,8,16      # swept XmtConfig keys (comma lists)
//   sweep.tcus_per_cluster = 4,8
//   mode     = cycle               # or sweep.mode = cycle,functional
//   workload = vadd                # or sweep.workload = vadd,histogram
//   workload.n = 2048              # workload params; sweep.workload.n = ...
//   baseline = clusters=2,tcus_per_cluster=4   # speedup reference
//
// expand() produces the cartesian grid in a canonical deterministic order
// (dimensions sorted by name, values in spec order, last dimension
// fastest); a point's position in that order is its stable identity, and
// fingerprint() identifies the whole spec — together they make campaign
// result stores resumable.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/config.h"
#include "src/sim/config.h"
#include "src/sim/simulator.h"
#include "src/workloads/registry.h"

namespace xmt::campaign {

/// One swept axis of the grid. `name` is an XmtConfig key, "mode",
/// "workload", or "workload.<param>".
struct Dimension {
  std::string name;
  std::vector<std::string> values;
};

/// One fully resolved grid point.
struct CampaignPoint {
  int index = 0;     // position in canonical grid order
  std::string key;   // canonical "dim=value dim=value" (dims sorted by name)
  std::vector<std::pair<std::string, std::string>> dims;  // sorted by name
  XmtConfig config;  // validated machine configuration
  SimMode mode = SimMode::kCycleAccurate;
  workloads::WorkloadInstance workload;
};

class CampaignSpec {
 public:
  /// Parses and validates a spec. Throws ConfigError (with field()) on
  /// unknown keys, unknown workloads/params, empty sweep lists, or
  /// baseline selectors that do not match the grid.
  static CampaignSpec fromConfigMap(const ConfigMap& map);
  static CampaignSpec fromText(const std::string& text);
  static CampaignSpec fromFile(const std::string& path);

  const std::string& name() const { return name_; }
  const std::vector<Dimension>& dimensions() const { return dims_; }
  std::size_t pointCount() const;

  /// The full grid in canonical order. Every point's XmtConfig has been
  /// validated; a configuration made invalid by a sweep combination
  /// surfaces here as ConfigError naming the offending point key.
  std::vector<CampaignPoint> expand() const;

  /// Baseline dimension assignments ("" selector: empty). Keys are
  /// dimension names; a point is a baseline for its group when it carries
  /// every listed value.
  const std::vector<std::pair<std::string, std::string>>& baseline() const {
    return baseline_;
  }

  /// Canonical sorted key=value text of the spec (round-trippable).
  std::string canonicalText() const { return map_.toText(); }

  /// FNV-1a 64 fingerprint of (toolchain version, canonicalText());
  /// identifies the spec in the on-disk manifest so resumes never mix
  /// grids — and never trust results a different toolchain computed.
  std::uint64_t fingerprint() const;

  /// fingerprint() under an explicit toolchain version string (exposed so
  /// tests can prove a version bump invalidates resume manifests).
  std::uint64_t fingerprintWith(const std::string& version) const;

 private:
  std::string name_ = "campaign";
  ConfigMap map_;                 // original spec (canonical identity)
  ConfigMap fixedConfig_;         // base + config.* overrides
  ConfigMap fixedWorkloadParams_; // workload.* fixed params
  std::string fixedMode_ = "cycle";
  std::string fixedWorkload_;
  std::vector<Dimension> dims_;   // sorted by name
  std::vector<std::pair<std::string, std::string>> baseline_;
};

}  // namespace xmt::campaign
