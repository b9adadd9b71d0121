// The batched merge sweep's row mask (MergeColumns, driven through
// TableauReasoner's RowRefuter hooks) must be exactly the per-pair
// pseudoModelsMergable predicate: checked over every ordered pair of two
// generated Table V corpora, with the models built concurrently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "parallel/bit_kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/pseudo_model.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace owlcl {
namespace {

PaperOntologyRow qcrRow(const std::string& name) {
  for (const PaperOntologyRow& row : oreQcr2014Suite())
    if (row.config.name == name) return row;
  ADD_FAILURE() << "no Table V row " << name;
  return {};
}

void expectMaskEqualsPairPredicate(const std::string& rowName) {
  const GeneratedOntology g = generateOntology(qcrRow(rowName).config);
  TableauReasonerConfig tc;
  tc.mergeModels = true;
  TableauReasoner reasoner(*g.tbox, tc);
  RowRefuter* refuter = reasoner.rowRefuter();
  ASSERT_NE(refuter, nullptr);
  const SharedModelStore& store = *reasoner.modelStore();
  const std::size_t n = g.tbox->conceptCount();

  {
    ThreadPool pool(4);
    for (ConceptId c = 0; c < n; ++c)
      pool.submit([refuter, c] { refuter->prepare(c); });
    pool.waitIdle();
  }

  const DynamicBitset all(n, true);
  DynamicBitset mask(n);
  const BitKernels& bk = activeBitKernels();
  std::size_t rows = 0, refutedPairs = 0, mismatches = 0;
  for (ConceptId x = 0; x < n; ++x) {
    const std::size_t count = refuter->refuteRow(
        x, all.words(), mask.mutableWords(), mask.wordCountUsed(), bk);
    ASSERT_EQ(count, mask.count()) << rowName << " row " << x;
    const PseudoModel* negX = store.find(x, true);
    if (negX == nullptr) {
      EXPECT_EQ(count, 0u) << rowName << " row " << x << " has no ¬x model";
      continue;
    }
    ++rows;
    refutedPairs += count;
    for (ConceptId y = 0; y < n; ++y) {
      const PseudoModel* posY = store.find(y, false);
      const bool perPair =
          y != x && posY != nullptr && pseudoModelsMergable(*posY, *negX);
      if (mask.test(y) != perPair && ++mismatches <= 5)
        ADD_FAILURE() << rowName << ": row " << x << ", y " << y
                      << ": mask " << mask.test(y) << ", per pair "
                      << perPair;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // Non-vacuous: nearly every concept has both models, and most pairs of
  // these corpora are merge-refutable.
  EXPECT_GT(rows, n * 9 / 10);
  EXPECT_GT(refutedPairs, n * n / 2);
  EXPECT_EQ(reasoner.mergeRefutedCount(), refutedPairs);
}

TEST(MergeColumns, RowMaskEqualsPairPredicateOnDdiv2) {
  expectMaskEqualsPairPredicate("ddiv2_functional");
}

TEST(MergeColumns, RowMaskEqualsPairPredicateOnNskisimple) {
  expectMaskEqualsPairPredicate("nskisimple_functional");
}

TEST(MergeColumns, RowMaskEqualsPairPredicateOnRandomModels) {
  // The generated corpora's {¬x} models rarely carry role signatures, so
  // synthetic models over small alphabets make each of the column checks
  // (and absent models on either side) decide many pairs.
  constexpr std::size_t n = 300;
  SharedModelStore store(n);
  Xoshiro256 rng(7);
  const auto ids = [&rng](std::uint64_t alphabet) {
    std::vector<std::uint32_t> v;
    for (std::uint64_t k = rng.below(4); k > 0; --k)
      v.push_back(static_cast<std::uint32_t>(rng.below(alphabet)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  for (ConceptId c = 0; c < n; ++c)
    for (const bool negated : {false, true}) {
      if (rng.below(10) == 0) continue;  // no model for this slot
      PseudoModel m;
      m.valid = true;
      m.pos = ids(40);
      m.neg = ids(40);
      m.existsRoles = ids(6);
      m.forallRoles = ids(6);
      m.atmostRoles = ids(6);
      ASSERT_TRUE(store.claim(c, negated));
      store.publish(c, negated, std::move(m));
    }

  const MergeColumns cols(store, n);
  const DynamicBitset all(n, true);
  DynamicBitset mask(n);
  std::size_t refuted = 0, kept = 0;
  for (ConceptId x = 0; x < n; ++x) {
    const PseudoModel* negX = store.find(x, true);
    if (negX == nullptr) continue;
    const std::size_t count =
        cols.refute(*negX, all.words(), mask.mutableWords(),
                    mask.wordCountUsed(), activeBitKernels());
    ASSERT_EQ(count, mask.count());
    for (ConceptId y = 0; y < n; ++y) {
      const PseudoModel* posY = store.find(y, false);
      const bool perPair =
          posY != nullptr && pseudoModelsMergable(*posY, *negX);
      ASSERT_EQ(mask.test(y), perPair) << "row " << x << ", y " << y;
      ++(perPair ? refuted : kept);
    }
  }
  EXPECT_GT(refuted, n);
  EXPECT_GT(kept, n);
}

TEST(MergeColumns, CandidatesOutsideTheSnapshotStayClear) {
  // Only bits of the candidate snapshot may come back refuted, and the
  // words past the columns come back zero.
  const GeneratedOntology g =
      generateOntology(qcrRow("ddiv2_functional").config);
  TableauReasonerConfig tc;
  tc.mergeModels = true;
  TableauReasoner reasoner(*g.tbox, tc);
  RowRefuter* refuter = reasoner.rowRefuter();
  const std::size_t n = g.tbox->conceptCount();
  for (ConceptId c = 0; c < n; ++c) refuter->prepare(c);

  DynamicBitset candidates(n);
  for (ConceptId y = 0; y < n; y += 3) candidates.set(y);
  const std::size_t words = candidates.wordCountUsed() + 2;
  std::vector<std::uint64_t> in(words, ~std::uint64_t{0});
  for (std::size_t w = 0; w < candidates.wordCountUsed(); ++w)
    in[w] = candidates.words()[w];
  std::vector<std::uint64_t> out(words, ~std::uint64_t{0});
  std::size_t total = 0;
  for (ConceptId x = 0; x < n; ++x) {
    total += refuter->refuteRow(x, in.data(), out.data(), words,
                                activeBitKernels());
    for (std::size_t w = 0; w < candidates.wordCountUsed(); ++w)
      ASSERT_EQ(out[w] & ~candidates.words()[w], 0u) << "row " << x;
    ASSERT_EQ(out[words - 2], 0u);
    ASSERT_EQ(out[words - 1], 0u);
  }
  EXPECT_GT(total, 0u);
}

TEST(MergeColumns, NoHooksWithoutModelMerging) {
  const GeneratedOntology g =
      generateOntology(qcrRow("ddiv2_functional").config);
  TableauReasoner reasoner(*g.tbox);
  EXPECT_EQ(reasoner.rowRefuter(), nullptr);
  EXPECT_EQ(reasoner.modelStore(), nullptr);
}

}  // namespace
}  // namespace owlcl
