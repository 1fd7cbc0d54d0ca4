#include "harness.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "src/common/json.h"

namespace xbench {

Tracer::Scope::Scope(Tracer& t, std::string_view name) : t_(t) {
  if (!t_.enabled_) return;
  Span s;
  s.name = name;
  s.parent = t_.open_;
  s.op = t_.op_;
  s.startUs = t_.nowUs();
  index_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(std::move(s));
  t_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = t_.spans_[static_cast<std::size_t>(index_)];
  s.endUs = t_.nowUs();
  t_.open_ = s.parent;
}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::map<std::uint64_t, double> Tracer::perOpMs(const std::string& name) const {
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans_)
    if (s.name == name) out[s.op] += (s.endUs - s.startUs) / 1000.0;
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans_) {
    xmt::Json j = xmt::Json::object();
    j.set("name", xmt::Json::str(s.name));
    j.set("op", xmt::Json::number(s.op));
    j.set("parent", xmt::Json::number(s.parent));
    j.set("start_us", xmt::Json::real(s.startUs));
    j.set("end_us", xmt::Json::real(s.endUs));
    f << j.dump() << '\n';
  }
}

CpuRotation::CpuRotation() {
  sched_getaffinity(0, sizeof allowed_, &allowed_);
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() { release(); }

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

void CpuRotation::release() {
  sched_setaffinity(0, sizeof allowed_, &allowed_);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double medianOf(const std::map<std::uint64_t, double>& perOp) {
  std::vector<double> v;
  v.reserve(perOp.size());
  for (const auto& [op, ms] : perOp) v.push_back(ms);
  return median(std::move(v));
}

Tail tailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    t.percentile = 100;
  } else {
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  }
  return t;
}

RunTail runTailOf(const std::vector<double>& inOrder) {
  RunTail r;
  const std::size_t n = inOrder.size();
  for (std::size_t i = 0; i < kTailRounds; ++i) {
    const auto lo = static_cast<std::ptrdiff_t>(i * n / kTailRounds);
    const auto hi = static_cast<std::ptrdiff_t>((i + 1) * n / kTailRounds);
    Tail t = tailOf({inOrder.begin() + lo, inOrder.begin() + hi});
    r.rounds.push_back(t.value);
    if (i == 0) r.tail = t;
  }
  r.tail.value = median(r.rounds);
  return r;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace xbench
