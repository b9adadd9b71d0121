// Bench-side tracing for bench_e2e: a span recorder, a sharded latency
// histogram, and a timing decorator around the ReasonerPlugin boundary.
//
// Everything here lives in the benchmark, not in the library: spans are
// recorded around the benchmark's own calls into each layer, kept in memory
// and written as Chrome trace-event JSON when the run ends. Reasoner calls
// number in the millions, so the decorator folds them into a count and a
// histogram and emits a span only for a call slower than a threshold.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/plugin.hpp"
#include "owl/tbox.hpp"

namespace bench {

/// Monotonic nanoseconds since the first call in this process.
std::uint64_t nowNs();

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled: every call is a no-op).
  std::uint32_t begin(std::string name, std::uint32_t parent = 0);
  void end(std::uint32_t id);
  /// Records an already-finished span (used from reasoner worker threads).
  /// `args` is the body of a JSON object, e.g. "\"sub\":\"A\"".
  void complete(std::string name, std::uint32_t parent, std::uint64_t startNs,
                std::uint64_t durNs, std::string args);

  /// Writes every span as Chrome trace-event JSON ("X" events, µs units).
  bool writeChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string args;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    std::uint32_t parent = 0;
    std::uint32_t tid = 0;
  };
  std::uint32_t push(Span s);

  bool enabled_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint32_t parent = 0)
      : rec_(rec), id_(rec.begin(std::move(name), parent)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint32_t id_;
};

/// Log-linear latency histogram: 8 sub-buckets per power of two, so a
/// quantile is exact to within 12.5 %. Sharded per thread so concurrent
/// reasoner workers never share a counter line.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns);
  std::uint64_t count() const;
  std::uint64_t totalNs() const;
  /// Upper edge of the bucket holding quantile q (0 when empty).
  double quantileNs(double q) const;

 private:
  static constexpr std::size_t kSub = 8;
  static constexpr std::size_t kBuckets = 64 * kSub;
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> totalNs{0};
  };
  std::array<Shard, kShards> shards_;
};

/// ReasonerPlugin decorator timing every sat?/subs? call into `hist`. A
/// call slower than `slowNs` also becomes a span naming its concepts.
class TimingPlugin : public owlcl::ReasonerPlugin {
 public:
  TimingPlugin(owlcl::ReasonerPlugin& inner, const owlcl::TBox& tbox,
               LatencyHistogram& hist, SpanRecorder& spans,
               std::uint64_t slowNs, std::uint32_t parentSpan)
      : inner_(inner), tbox_(tbox), hist_(hist), spans_(spans),
        slowNs_(slowNs), parent_(parentSpan) {}

  bool isSatisfiable(owlcl::ConceptId c, std::uint64_t* costNs) override;
  bool isSubsumedBy(owlcl::ConceptId sub, owlcl::ConceptId sup,
                    std::uint64_t* costNs) override;
  owlcl::TestVerdict trySatisfiable(owlcl::ConceptId c,
                                    std::uint64_t* costNs) override;
  owlcl::TestVerdict trySubsumedBy(owlcl::ConceptId sub, owlcl::ConceptId sup,
                                   std::uint64_t* costNs) override;
  std::uint64_t testCount() const override { return inner_.testCount(); }
  owlcl::ReasonerStats reasonerStats() const override {
    return inner_.reasonerStats();
  }
  std::vector<owlcl::ReasonerStats> perWorkerReasonerStats() const override {
    return inner_.perWorkerReasonerStats();
  }

 private:
  /// Records one call; `sup` is kInvalidConcept for sat?.
  void note(std::uint64_t startNs, owlcl::ConceptId sub, owlcl::ConceptId sup);

  owlcl::ReasonerPlugin& inner_;
  const owlcl::TBox& tbox_;
  LatencyHistogram& hist_;
  SpanRecorder& spans_;
  std::uint64_t slowNs_;
  std::uint32_t parent_;
};

}  // namespace bench
