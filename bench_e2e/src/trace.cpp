#include "trace.hpp"

#include <bit>
#include <chrono>
#include <cstdio>

#include "util/strings.hpp"

namespace bench {

std::uint64_t nowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {

std::uint32_t threadOrdinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

constexpr std::size_t kSubBits = 3;  // 8 sub-buckets per power of two

std::size_t bucketOf(std::uint64_t ns) {
  if (ns < (1u << kSubBits)) return static_cast<std::size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const int shift = msb - static_cast<int>(kSubBits);
  const std::size_t sub = (ns >> shift) & ((1u << kSubBits) - 1);
  return static_cast<std::size_t>(msb - static_cast<int>(kSubBits) + 1)
             << kSubBits |
         sub;
}

double bucketUpperNs(std::size_t b) {
  if (b < (1u << kSubBits)) return static_cast<double>(b + 1);
  const int shift = static_cast<int>(b >> kSubBits) - 1;
  const std::uint64_t sub = b & ((1u << kSubBits) - 1);
  return static_cast<double>(((1ull << kSubBits) + sub + 1) << shift);
}

}  // namespace

std::uint32_t SpanRecorder::push(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t SpanRecorder::begin(std::string name, std::uint32_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.tid = threadOrdinal();
  s.startNs = nowNs();
  return push(std::move(s));
}

void SpanRecorder::end(std::uint32_t id) {
  if (id == 0) return;
  const std::uint64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id - 1];
  s.durNs = t - s.startNs;
}

void SpanRecorder::complete(std::string name, std::uint32_t parent,
                            std::uint64_t startNs, std::uint64_t durNs,
                            std::string args) {
  if (!enabled_) return;
  Span s;
  s.name = std::move(name);
  s.args = std::move(args);
  s.parent = parent;
  s.tid = threadOrdinal();
  s.startNs = startNs;
  s.durNs = durNs;
  push(std::move(s));
}

bool SpanRecorder::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u%s%s}}",
                 i == 0 ? "" : ",\n", owlcl::jsonEscape(s.name).c_str(), s.tid,
                 static_cast<double>(s.startNs) / 1e3,
                 static_cast<double>(s.durNs) / 1e3, i + 1, s.parent,
                 s.args.empty() ? "" : ",", s.args.c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void LatencyHistogram::record(std::uint64_t ns) {
  Shard& s = shards_[threadOrdinal() % kShards];
  s.buckets[bucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.totalNs.fetch_add(ns, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.count.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t LatencyHistogram::totalNs() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.totalNs.load(std::memory_order_relaxed);
  return n;
}

double LatencyHistogram::quantileNs(double q) const {
  std::array<std::uint64_t, kBuckets> merged{};
  std::uint64_t total = 0;
  for (const Shard& s : shards_)
    for (std::size_t b = 0; b < kBuckets; ++b) {
      merged[b] += s.buckets[b].load(std::memory_order_relaxed);
      total += s.buckets[b].load(std::memory_order_relaxed);
    }
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += merged[b];
    if (seen >= target) return bucketUpperNs(b);
  }
  return bucketUpperNs(kBuckets - 1);
}

bool TimingPlugin::isSatisfiable(owlcl::ConceptId c, std::uint64_t* costNs) {
  const std::uint64_t t = nowNs();
  const bool v = inner_.isSatisfiable(c, costNs);
  note(t, c, owlcl::kInvalidConcept);
  return v;
}

bool TimingPlugin::isSubsumedBy(owlcl::ConceptId sub, owlcl::ConceptId sup,
                                std::uint64_t* costNs) {
  const std::uint64_t t = nowNs();
  const bool v = inner_.isSubsumedBy(sub, sup, costNs);
  note(t, sub, sup);
  return v;
}

owlcl::TestVerdict TimingPlugin::trySatisfiable(owlcl::ConceptId c,
                                                std::uint64_t* costNs) {
  const std::uint64_t t = nowNs();
  const owlcl::TestVerdict v = inner_.trySatisfiable(c, costNs);
  note(t, c, owlcl::kInvalidConcept);
  return v;
}

owlcl::TestVerdict TimingPlugin::trySubsumedBy(owlcl::ConceptId sub,
                                               owlcl::ConceptId sup,
                                               std::uint64_t* costNs) {
  const std::uint64_t t = nowNs();
  const owlcl::TestVerdict v = inner_.trySubsumedBy(sub, sup, costNs);
  note(t, sub, sup);
  return v;
}

void TimingPlugin::note(std::uint64_t startNs, owlcl::ConceptId sub,
                        owlcl::ConceptId sup) {
  const std::uint64_t dur = nowNs() - startNs;
  hist_.record(dur);
  if (dur < slowNs_ || !spans_.enabled()) return;
  std::string args = "\"sub\":\"" + owlcl::jsonEscape(tbox_.conceptName(sub)) + "\"";
  if (sup != owlcl::kInvalidConcept)
    args += ",\"sup\":\"" + owlcl::jsonEscape(tbox_.conceptName(sup)) + "\"";
  spans_.complete(sup == owlcl::kInvalidConcept ? "reasoner.sat" : "reasoner.subs",
                  parent_, startNs, dur, std::move(args));
}

}  // namespace bench
