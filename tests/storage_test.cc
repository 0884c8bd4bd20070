#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "storage/database.h"
#include "storage/table.h"
#include "storage/tuple.h"

namespace cqp::storage {
namespace {

using catalog::AttributeDef;
using catalog::RelationDef;
using catalog::Value;
using catalog::ValueType;

RelationDef TwoColSchema() {
  return RelationDef("R", {AttributeDef{"id", ValueType::kInt},
                           AttributeDef{"name", ValueType::kString}});
}

// ---------- Tuple ----------

TEST(TupleTest, EqualityAndHash) {
  Tuple a({Value(int64_t{1}), Value("x")});
  Tuple b({Value(int64_t{1}), Value("x")});
  Tuple c({Value(int64_t{1}), Value("y")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
}

TEST(TupleTest, ByteSizeSumsValues) {
  Tuple t({Value(int64_t{1}), Value("abcd")});
  EXPECT_EQ(t.ByteSize(), 8u + 8u);
}

// ---------- Table block model ----------

TEST(TableTest, RejectsWrongArity) {
  Table t(TwoColSchema());
  EXPECT_FALSE(t.Insert(Tuple({Value(int64_t{1})})).ok());
}

TEST(TableTest, RejectsWrongType) {
  Table t(TwoColSchema());
  EXPECT_FALSE(t.Insert(Tuple({Value("x"), Value("y")})).ok());
}

TEST(TableTest, EmptyTableHasZeroBlocks) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.blocks(), 0u);
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(TableTest, BlockCountGrowsWithData) {
  Table t(TwoColSchema());
  // Each row: 8 (int) + 4+12 (string) = 24 bytes -> 341 rows per 8 KiB.
  std::string name(12, 'x');
  for (int i = 0; i < 341; ++i) {
    ASSERT_TRUE(t.Insert(Tuple({Value(int64_t{i}), Value(name)})).ok());
  }
  EXPECT_EQ(t.blocks(), 1u);
  ASSERT_TRUE(t.Insert(Tuple({Value(int64_t{341}), Value(name)})).ok());
  EXPECT_EQ(t.blocks(), 2u);
}

TEST(TableTest, OversizedRowGetsOwnBlocks) {
  Table t(TwoColSchema());
  std::string huge(3 * kBlockSizeBytes, 'x');
  ASSERT_TRUE(t.Insert(Tuple({Value(int64_t{1}), Value(huge)})).ok());
  EXPECT_GE(t.blocks(), 3u);
}

// ---------- Database ----------

TEST(DatabaseTest, CreateAndLookupCaseInsensitive) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TwoColSchema()).ok());
  EXPECT_TRUE(db.HasTable("r"));
  EXPECT_TRUE(db.GetTable("R").ok());
  EXPECT_TRUE(db.GetTable("r").ok());
  EXPECT_FALSE(db.GetTable("S").ok());
}

TEST(DatabaseTest, DuplicateCreateFails) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TwoColSchema()).ok());
  auto again = db.CreateTable(TwoColSchema());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, StatsRequireAnalyze) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TwoColSchema()).ok());
  EXPECT_FALSE(db.GetStats("R").ok());
  db.Analyze();
  EXPECT_TRUE(db.GetStats("R").ok());
}

TEST(DatabaseTest, AnalyzeComputesNdvMinMaxAndMcv) {
  Database db;
  Table* t = *db.CreateTable(TwoColSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        t->Insert(Tuple({Value(int64_t{i % 3}), Value(i < 7 ? "hot" : "cold")}))
            .ok());
  }
  db.Analyze();
  const catalog::RelationStats* stats = *db.GetStats("R");
  EXPECT_EQ(stats->row_count, 10u);
  ASSERT_EQ(stats->attributes.size(), 2u);
  EXPECT_EQ(stats->attributes[0].ndv(), 3u);
  EXPECT_DOUBLE_EQ(*stats->attributes[0].min_numeric(), 0.0);
  EXPECT_DOUBLE_EQ(*stats->attributes[0].max_numeric(), 2.0);
  EXPECT_EQ(stats->attributes[1].ndv(), 2u);
  // MCV of the name column: "hot" with count 7 first.
  ASSERT_FALSE(stats->attributes[1].mcvs().empty());
  EXPECT_EQ(stats->attributes[1].mcvs()[0].value.AsString(), "hot");
  EXPECT_EQ(stats->attributes[1].mcvs()[0].count, 7u);
}

TEST(DatabaseTest, McvLimitRespected) {
  Database db;
  Table* t = *db.CreateTable(
      RelationDef("S", {AttributeDef{"v", ValueType::kInt}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->Insert(Tuple({Value(int64_t{i})})).ok());
  }
  db.Analyze(/*mcv_limit=*/5);
  const catalog::RelationStats* stats = *db.GetStats("S");
  EXPECT_EQ(stats->attributes[0].mcvs().size(), 5u);
  EXPECT_EQ(stats->attributes[0].ndv(), 100u);
}

TEST(DatabaseTest, TableNamesSorted) {
  Database db;
  ASSERT_TRUE(db.CreateTable(RelationDef("ZEBRA", {})).ok());
  ASSERT_TRUE(db.CreateTable(RelationDef("ALPHA", {})).ok());
  std::vector<std::string> names = db.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "ALPHA");
  EXPECT_EQ(names[1], "ZEBRA");
}

TEST(DatabaseTest, BlocksMatchStats) {
  Database db;
  Table* t = *db.CreateTable(TwoColSchema());
  std::string name(100, 'y');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t->Insert(Tuple({Value(int64_t{i}), Value(name)})).ok());
  }
  db.Analyze();
  const catalog::RelationStats* stats = *db.GetStats("R");
  EXPECT_EQ(stats->blocks, t->blocks());
  EXPECT_GT(t->blocks(), 10u);  // 112 B/row * 1000 rows > 10 blocks
}

}  // namespace
}  // namespace cqp::storage
