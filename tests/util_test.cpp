#include <gtest/gtest.h>

#include <set>

#include "socet/util/bitvector.hpp"
#include "socet/util/error.hpp"
#include "socet/util/ids.hpp"
#include "socet/util/rng.hpp"
#include "socet/util/table.hpp"

namespace socet::util {
namespace {

// ---------------------------------------------------------------- BitVector

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.width(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(BitVector, WidthConstructorZeroFills) {
  BitVector v(130);
  EXPECT_EQ(v.width(), 130u);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, ValueConstructorSetsLowBits) {
  BitVector v(8, 0b1010'0110);
  EXPECT_TRUE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_FALSE(v.get(0));
  EXPECT_TRUE(v.get(7));
  EXPECT_EQ(v.to_u64(), 0b1010'0110u);
}

TEST(BitVector, ValueConstructorRejectsOverflow) {
  EXPECT_THROW(BitVector(3, 8), Error);
  EXPECT_NO_THROW(BitVector(3, 7));
  EXPECT_NO_THROW(BitVector(64, ~0ULL));
}

TEST(BitVector, FromStringMsbFirst) {
  auto v = BitVector::from_string("101");
  EXPECT_EQ(v.width(), 3u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_EQ(v.to_string(), "101");
}

TEST(BitVector, FromStringRejectsBadInput) {
  EXPECT_THROW(BitVector::from_string(""), Error);
  EXPECT_THROW(BitVector::from_string("10x"), Error);
}

TEST(BitVector, SetAndGetAcrossWordBoundary) {
  BitVector v(100);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_FALSE(v.get(62));
  EXPECT_FALSE(v.get(65));
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
}

TEST(BitVector, GetOutOfRangeThrows) {
  BitVector v(4);
  EXPECT_THROW((void)v.get(4), Error);
  EXPECT_THROW(v.set(4, true), Error);
}

TEST(BitVector, SliceExtractsRange) {
  auto v = BitVector::from_string("11010010");
  auto s = v.slice(1, 4);  // bits 4..1 = "1001"
  EXPECT_EQ(s.to_string(), "1001");
}

TEST(BitVector, SliceOutOfRangeThrows) {
  BitVector v(8);
  EXPECT_THROW(v.slice(5, 4), Error);
}

TEST(BitVector, AppendConcatenates) {
  auto lo = BitVector::from_string("01");
  auto hi = BitVector::from_string("11");
  lo.append(hi);
  EXPECT_EQ(lo.width(), 4u);
  // `hi` lands above `lo`: result MSB-first is "1101".
  EXPECT_EQ(lo.to_string(), "1101");
}

TEST(BitVector, EqualityComparesWidthAndBits) {
  EXPECT_EQ(BitVector(8, 5), BitVector(8, 5));
  EXPECT_NE(BitVector(8, 5), BitVector(9, 5));
  EXPECT_NE(BitVector(8, 5), BitVector(8, 6));
}

TEST(BitVector, RandomIsDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  auto va = BitVector::random(128, a);
  auto vb = BitVector::random(128, b);
  auto vc = BitVector::random(128, c);
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(BitVector, ToU64RejectsWideVectors) {
  BitVector v(65);
  EXPECT_THROW((void)v.to_u64(), Error);
}

// ---------------------------------------------------------------------- Ids

struct FooTag {};
struct BarTag {};

TEST(Id, InvalidByDefault) {
  Id<FooTag> id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, Id<FooTag>::invalid());
}

TEST(Id, ValueRoundTrip) {
  Id<FooTag> id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(Id, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<Id<FooTag>, Id<BarTag>>);
}

TEST(Id, OrderingAndHash) {
  std::set<Id<FooTag>> ids{Id<FooTag>(3), Id<FooTag>(1), Id<FooTag>(2)};
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids.begin()->value(), 1u);
  EXPECT_EQ(std::hash<Id<FooTag>>{}(Id<FooTag>(5)),
            std::hash<Id<FooTag>>{}(Id<FooTag>(5)));
}

// ---------------------------------------------------------------------- Rng

TEST(Rng, DeterministicSequence) {
  Rng a(1), b(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.next_below(4));
  EXPECT_EQ(seen.size(), 4u);
}

// -------------------------------------------------------------------- Table

TEST(Table, RendersAlignedText) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "20"});
  const auto text = t.to_text();
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 20    |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// -------------------------------------------------------------------- Error

TEST(Error, RequireThrowsWithMessage) {
  try {
    require(false, "boom");
    FAIL() << "require did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Error, AssertMacroThrows) {
  EXPECT_THROW(SOCET_ASSERT(1 == 2, "math broke"), Error);
  EXPECT_NO_THROW(SOCET_ASSERT(1 == 1, "fine"));
}

}  // namespace
}  // namespace socet::util
