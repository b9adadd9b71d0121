#include "owl/expr.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace owlcl {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprFactory f;
  ExprId a = f.atom(0);
  ExprId b = f.atom(1);
  ExprId c = f.atom(2);
  RoleId r = 0;
};

TEST_F(ExprTest, HashConsingGivesSameId) {
  EXPECT_EQ(f.atom(0), a);
  EXPECT_EQ(f.conj(a, b), f.conj(b, a));  // sorted operands
  EXPECT_EQ(f.exists(r, a), f.exists(r, a));
  EXPECT_NE(f.exists(r, a), f.forall(r, a));
}

TEST_F(ExprTest, TopBottomIdentities) {
  EXPECT_EQ(f.conj(a, f.top()), a);
  EXPECT_EQ(f.conj(a, f.bottom()), f.bottom());
  EXPECT_EQ(f.disj(a, f.bottom()), a);
  EXPECT_EQ(f.disj(a, f.top()), f.top());
}

TEST_F(ExprTest, ConjFlattensAndDedups) {
  const ExprId ab = f.conj(a, b);
  const ExprId abc = f.conj(ab, c);
  const std::vector<ExprId> all = {a, b, c};
  EXPECT_EQ(abc, f.conj(all));
  EXPECT_EQ(f.conj(a, a), a);
  EXPECT_EQ(f.node(abc).childCount, 3u);
}

TEST_F(ExprTest, DirectComplementClash) {
  const ExprId na = f.negate(a);
  EXPECT_EQ(f.conj(a, na), f.bottom());
  EXPECT_EQ(f.disj(a, na), f.top());
  const std::vector<ExprId> mix = {a, b, na};
  EXPECT_EQ(f.conj(mix), f.bottom());
}

TEST_F(ExprTest, DoubleNegationEliminated) {
  EXPECT_EQ(f.negate(f.negate(a)), a);
  EXPECT_EQ(f.negate(f.top()), f.bottom());
  EXPECT_EQ(f.negate(f.bottom()), f.top());
}

TEST_F(ExprTest, QuantifierSimplifications) {
  EXPECT_EQ(f.exists(r, f.bottom()), f.bottom());
  EXPECT_EQ(f.forall(r, f.top()), f.top());
  EXPECT_EQ(f.atLeast(0, r, a), f.top());
  EXPECT_EQ(f.atLeast(1, r, a), f.exists(r, a));
  EXPECT_EQ(f.atLeast(2, r, f.bottom()), f.bottom());
  EXPECT_EQ(f.atMost(3, r, f.bottom()), f.top());
}

TEST_F(ExprTest, ComplementOfPushesNegationInward) {
  // ¬(A ⊓ B) = ¬A ⊔ ¬B
  const ExprId comp = f.complementOf(f.conj(a, b));
  EXPECT_EQ(comp, f.disj(f.negate(a), f.negate(b)));
  // ¬∃r.A = ∀r.¬A
  EXPECT_EQ(f.complementOf(f.exists(r, a)), f.forall(r, f.negate(a)));
  // ¬∀r.A = ∃r.¬A
  EXPECT_EQ(f.complementOf(f.forall(r, a)), f.exists(r, f.negate(a)));
}

TEST_F(ExprTest, ComplementOfQcrs) {
  // ¬(≥3 r.A) = ≤2 r.A
  EXPECT_EQ(f.complementOf(f.atLeast(3, r, a)), f.atMost(2, r, a));
  // ¬(≤2 r.A) = ≥3 r.A
  EXPECT_EQ(f.complementOf(f.atMost(2, r, a)), f.atLeast(3, r, a));
  // ¬(≤0 r.A) = ≥1 r.A = ∃r.A
  EXPECT_EQ(f.complementOf(f.atMost(0, r, a)), f.exists(r, a));
}

TEST_F(ExprTest, ComplementIsInvolutive) {
  const ExprId e = f.disj(f.conj(a, f.negate(b)), f.exists(r, f.forall(r, c)));
  EXPECT_EQ(f.complementOf(f.complementOf(e)), f.toNnf(e));
}

TEST_F(ExprTest, ToNnfRemovesInnerNegations) {
  const ExprId e = f.negate(f.conj(a, f.negate(f.exists(r, b))));
  const ExprId nnf = f.toNnf(e);
  // ¬(A ⊓ ¬∃r.B) = ¬A ⊔ ∃r.B
  EXPECT_EQ(nnf, f.disj(f.negate(a), f.exists(r, b)));
}

TEST_F(ExprTest, ExprSizeCountsNodes) {
  EXPECT_EQ(f.exprSize(a), 1u);
  EXPECT_EQ(f.exprSize(f.conj(a, b)), 3u);
  EXPECT_EQ(f.exprSize(f.exists(r, f.conj(a, b))), 4u);
}

// The hash-consing table doubles many times on the way to 200 k nodes;
// ids stay in creation order and a second pass finds every node again.
TEST(ExprTableGrowth, IdsStableAcrossTableGrowths) {
  constexpr ConceptId kAtoms = 100'000;
  ExprFactory f;
  std::vector<ExprId> first;
  first.reserve(kAtoms);
  for (ConceptId i = 0; i < kAtoms; ++i) {
    const ExprId ex = f.exists(RoleId{0}, f.atom(i));
    EXPECT_EQ(ex, 3 + 2 * i) << "ids must follow creation order";
    first.push_back(ex);
  }
  const std::size_t size = f.size();
  for (ConceptId i = 0; i < kAtoms; ++i)
    ASSERT_EQ(f.exists(RoleId{0}, f.atom(i)), first[i]) << "atom " << i;
  EXPECT_EQ(f.size(), size);
  EXPECT_EQ(f.atom(0), 2u);
  EXPECT_EQ(f.node(first[kAtoms - 1]).kind, ExprKind::kExists);
}

TEST(ExprTableGrowth, ForallInternedFindsEveryForallWhenFrozen) {
  ExprFactory f;
  std::vector<std::pair<RoleId, ExprId>> keys;
  std::vector<ExprId> ids;
  for (ConceptId i = 0; i < 5'000; ++i)
    for (RoleId r = 0; r < 3; ++r) {
      keys.emplace_back(r, f.atom(i));
      ids.push_back(f.forall(r, keys.back().second));
    }
  f.freeze();
  for (std::size_t k = 0; k < keys.size(); ++k)
    ASSERT_EQ(f.forallInterned(keys[k].first, keys[k].second), ids[k]) << k;
  EXPECT_EQ(f.forallInterned(RoleId{0}, f.top()), f.top());
  // ∀3.A0 was never interned: a missing closure node is a hard failure.
  EXPECT_DEATH(f.forallInterned(RoleId{3}, f.atom(0)), "forallInterned");
}

TEST_F(ExprTest, FreezeBlocksNewInterning) {
  const ExprId ab = f.conj(a, b);
  f.freeze();
  EXPECT_EQ(f.conj(a, b), ab);             // already interned: fine
  EXPECT_EQ(f.conj(b, a), ab);             // same canonical form: fine
  EXPECT_DEATH(f.exists(r, ab), "freeze");  // new node: rejected
}

}  // namespace
}  // namespace owlcl
