#include "src/campaign/spec.h"

#include <algorithm>
#include <cctype>

#include "src/common/digest.h"
#include "src/common/error.h"
#include "src/common/version.h"
#include "src/sim/statsjson.h"

namespace xmt::campaign {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> splitList(const std::string& key,
                                   const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    std::size_t comma = value.find(',', start);
    std::string item = trim(value.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start));
    if (item.empty())
      throw ConfigError(key, "empty entry in value list '" + value + "'");
    out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) throw ConfigError(key, "empty value list");
  return out;
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> knownConfigKeys() {
  return XmtConfig{}.toConfigMap().keys();  // includes "base"
}

bool isConfigKey(const std::string& key) {
  static const std::vector<std::string> kKnown = knownConfigKeys();
  return std::find(kKnown.begin(), kKnown.end(), key) != kKnown.end();
}

}  // namespace

CampaignSpec CampaignSpec::fromText(const std::string& text) {
  return fromConfigMap(ConfigMap::fromText(text));
}

CampaignSpec CampaignSpec::fromFile(const std::string& path) {
  return fromConfigMap(ConfigMap::fromFile(path));
}

CampaignSpec CampaignSpec::fromConfigMap(const ConfigMap& map) {
  CampaignSpec spec;
  spec.map_ = map;
  std::string baselineText;

  for (const auto& key : map.keys()) {
    std::string value = map.getString(key, "");
    if (key == "campaign") {
      spec.name_ = value;
    } else if (key == "base") {
      XmtConfig::byName(value);  // validates the preset name
      spec.fixedConfig_.set("base", value);
    } else if (key == "mode") {
      simModeByName(value);  // validates
      spec.fixedMode_ = value;
    } else if (key == "workload") {
      spec.fixedWorkload_ = value;
    } else if (key == "baseline") {
      baselineText = value;
    } else if (startsWith(key, "config.")) {
      std::string k = key.substr(7);
      if (!isConfigKey(k))
        throw ConfigError(key, "not an XmtConfig parameter");
      spec.fixedConfig_.set(k, value);
    } else if (startsWith(key, "workload.")) {
      spec.fixedWorkloadParams_.set(key.substr(9), value);
    } else if (startsWith(key, "sweep.")) {
      std::string dim = key.substr(6);
      if (dim != "mode" && dim != "workload" &&
          !startsWith(dim, "workload.") && !isConfigKey(dim))
        throw ConfigError(key, "not a sweepable dimension (XmtConfig key, "
                               "'mode', 'workload' or 'workload.<param>')");
      Dimension d{dim, splitList(key, value)};
      for (std::size_t i = 0; i < d.values.size(); ++i)
        for (std::size_t j = i + 1; j < d.values.size(); ++j)
          if (d.values[i] == d.values[j])
            throw ConfigError(key, "duplicate value '" + d.values[i] + "'");
      if (dim == "mode")
        for (const auto& v : d.values) simModeByName(v);
      if (dim == "workload")
        for (const auto& v : d.values) workloads::findWorkload(v);
      spec.dims_.push_back(std::move(d));
    } else {
      throw ConfigError(key, "unknown campaign spec key");
    }
  }

  std::sort(spec.dims_.begin(), spec.dims_.end(),
            [](const Dimension& a, const Dimension& b) {
              return a.name < b.name;
            });

  // A key may be fixed or swept, not both.
  for (const auto& d : spec.dims_) {
    bool fixedToo =
        (d.name == "mode" && map.has("mode")) ||
        (d.name == "workload" && map.has("workload")) ||
        (startsWith(d.name, "workload.")
             ? map.has(d.name)
             : map.has("config." + d.name));
    if (fixedToo)
      throw ConfigError("sweep." + d.name, "also set as a fixed key");
  }

  // The selected workload(s) must exist and accept every param in play.
  std::vector<std::string> workloadNames;
  if (!spec.fixedWorkload_.empty())
    workloadNames.push_back(spec.fixedWorkload_);
  std::vector<std::string> paramNames = spec.fixedWorkloadParams_.keys();
  for (const auto& d : spec.dims_) {
    if (d.name == "workload")
      workloadNames = d.values;
    else if (startsWith(d.name, "workload."))
      paramNames.push_back(d.name.substr(9));
  }
  if (workloadNames.empty())
    throw ConfigError("workload", "spec selects no workload");
  for (const auto& wname : workloadNames) {
    const auto& entry = workloads::findWorkload(wname);
    for (const auto& p : paramNames)
      if (std::find(entry.params.begin(), entry.params.end(), p) ==
          entry.params.end())
        throw ConfigError("workload." + p,
                          "not a parameter of workload '" + wname + "'");
  }

  if (!baselineText.empty()) {
    for (const auto& part : splitList("baseline", baselineText)) {
      auto eq = part.find('=');
      if (eq == std::string::npos)
        throw ConfigError("baseline", "expected dim=value, got '" + part + "'");
      std::string dim = trim(part.substr(0, eq));
      std::string val = trim(part.substr(eq + 1));
      auto it = std::find_if(
          spec.dims_.begin(), spec.dims_.end(),
          [&](const Dimension& d) { return d.name == dim; });
      if (it == spec.dims_.end())
        throw ConfigError("baseline", "'" + dim + "' is not a swept dimension");
      if (std::find(it->values.begin(), it->values.end(), val) ==
          it->values.end())
        throw ConfigError("baseline", "'" + val + "' is not a value of '" +
                                          dim + "'");
      spec.baseline_.emplace_back(dim, val);
    }
    std::sort(spec.baseline_.begin(), spec.baseline_.end());
  }

  if (spec.pointCount() > 100000)
    throw ConfigError("sweep", "grid has " +
                                   std::to_string(spec.pointCount()) +
                                   " points; the limit is 100000");
  return spec;
}

std::size_t CampaignSpec::pointCount() const {
  std::size_t n = 1;
  for (const auto& d : dims_) n *= d.values.size();
  return n;
}

std::uint64_t CampaignSpec::fingerprint() const {
  return fingerprintWith(kToolchainVersion);
}

std::uint64_t CampaignSpec::fingerprintWith(const std::string& version) const {
  return fnv1a64(version + "\n" + map_.toText());
}

std::vector<CampaignPoint> CampaignSpec::expand() const {
  std::vector<CampaignPoint> points;
  points.reserve(pointCount());
  std::vector<std::size_t> odo(dims_.size(), 0);
  for (std::size_t index = 0; index < pointCount(); ++index) {
    CampaignPoint p;
    p.index = static_cast<int>(index);
    for (std::size_t d = 0; d < dims_.size(); ++d)
      p.dims.emplace_back(dims_[d].name, dims_[d].values[odo[d]]);

    for (const auto& [name, value] : p.dims) {
      if (!p.key.empty()) p.key += ' ';
      p.key += name + "=" + value;
    }
    if (p.key.empty()) p.key = "default";

    ConfigMap cm = fixedConfig_;
    std::string modeName = fixedMode_;
    p.workload.name = fixedWorkload_;
    p.workload.params = fixedWorkloadParams_;
    for (const auto& [name, value] : p.dims) {
      if (name == "mode") modeName = value;
      else if (name == "workload") p.workload.name = value;
      else if (startsWith(name, "workload."))
        p.workload.params.set(name.substr(9), value);
      else cm.set(name, value);
    }
    p.mode = simModeByName(modeName);
    try {
      p.config = XmtConfig::fromConfigMap(cm);
    } catch (const Error& e) {
      throw ConfigError("point '" + p.key + "': " + e.what());
    }
    workloads::validateWorkloadParams(
        workloads::findWorkload(p.workload.name), p.workload.params);

    points.push_back(std::move(p));
    // Odometer: last (canonically-sorted) dimension advances fastest.
    for (std::size_t d = dims_.size(); d-- > 0;) {
      if (++odo[d] < dims_[d].values.size()) break;
      odo[d] = 0;
    }
  }
  return points;
}

}  // namespace xmt::campaign
