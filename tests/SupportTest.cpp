//===--- SupportTest.cpp - Tests for the support library ------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/Scc.h"
#include "support/StringExtras.h"

#include <gtest/gtest.h>

using namespace mix;

TEST(SourceLocTest, InvalidByDefault) {
  SourceLoc Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "<unknown>");
}

TEST(SourceLocTest, Formatting) {
  SourceLoc Loc(3, 14);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "3:14");
}

TEST(SourceLocTest, Ordering) {
  EXPECT_LT(SourceLoc(1, 9), SourceLoc(2, 1));
  EXPECT_LT(SourceLoc(2, 1), SourceLoc(2, 2));
  EXPECT_FALSE(SourceLoc(2, 2) < SourceLoc(2, 2));
}

TEST(DiagnosticsTest, CountsBySeverity) {
  DiagnosticEngine Diags;
  EXPECT_TRUE(Diags.empty());
  Diags.error({1, 1}, "bad");
  Diags.warning({2, 1}, "iffy");
  Diags.note({2, 2}, "because");
  EXPECT_EQ(Diags.size(), 3u);
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.warningCount(), 1u);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(DiagnosticsTest, Rendering) {
  DiagnosticEngine Diags;
  Diags.error({1, 2}, "something went wrong");
  EXPECT_EQ(Diags.diagnostics()[0].str(), "1:2: error: something went wrong");
}

TEST(DiagnosticsTest, ClearResetsCounts) {
  DiagnosticEngine Diags;
  Diags.error({1, 1}, "x");
  Diags.clear();
  EXPECT_TRUE(Diags.empty());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(StringExtrasTest, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringExtrasTest, StartsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(startsWith("anything", ""));
}

TEST(StringExtrasTest, Split) {
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(StringExtrasTest, Trim) {
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(SccTest, SinksFirstWithSortedMembers) {
  // 0 -> {1, 2}, 1 <-> 3, 2 -> 2 (self-loop), 3 -> 4; node 5 isolated.
  std::vector<std::vector<size_t>> Adj = {{1, 2}, {3}, {2}, {1, 4}, {}, {}};
  std::vector<std::vector<size_t>> Sccs = tarjanSccs(Adj.size(), Adj);
  std::vector<std::vector<size_t>> Expected = {{4}, {1, 3}, {2}, {0}, {5}};
  EXPECT_EQ(Sccs, Expected);
  EXPECT_TRUE(tarjanSccs(0, {}).empty());
}

TEST(SccTest, DeepGraphsDoNotRecurse) {
  // A 200k-node path and the same path closed into one cycle.
  size_t N = 200000;
  std::vector<std::vector<size_t>> Adj(N);
  for (size_t I = 0; I + 1 != N; ++I)
    Adj[I].push_back(I + 1);
  std::vector<std::vector<size_t>> Path = tarjanSccs(N, Adj);
  ASSERT_EQ(Path.size(), N);
  EXPECT_EQ(Path.front(), std::vector<size_t>{N - 1});
  EXPECT_EQ(Path.back(), std::vector<size_t>{0});
  Adj[N - 1].push_back(0);
  std::vector<std::vector<size_t>> Cycle = tarjanSccs(N, Adj);
  ASSERT_EQ(Cycle.size(), 1u);
  EXPECT_EQ(Cycle[0].size(), N);
}
