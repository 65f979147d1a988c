#include "catalog/catalog.h"

#include "catalog/mvcc.h"
#include "exec/dml.h"
#include "gtest/gtest.h"

namespace xnf {
namespace {

Schema TwoColumns() {
  Schema s;
  Column id("id", Type::kInt);
  id.primary_key = true;
  s.AddColumn(id);
  s.AddColumn(Column("v", Type::kString));
  return s;
}

TEST(Catalog, CreateAndGetTable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("T1", TwoColumns()).ok());
  TableInfo* t = catalog.GetTable("t1");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->name, "t1");
  // Case-insensitive lookup.
  EXPECT_EQ(catalog.GetTable("T1"), t);
  EXPECT_EQ(catalog.GetTable("other"), nullptr);
}

TEST(Catalog, PrimaryKeyGetsImplicitUniqueIndex) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TwoColumns()).ok());
  TableInfo* t = catalog.GetTable("t");
  ASSERT_EQ(t->indexes.size(), 1u);
  EXPECT_TRUE(t->indexes[0]->unique());
  EXPECT_EQ(t->indexes[0]->key_columns(), (std::vector<size_t>{0}));
}

TEST(Catalog, DuplicateNamesRejectedAcrossKinds) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("x", TwoColumns()).ok());
  EXPECT_EQ(catalog.CreateTable("X", TwoColumns()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.CreateView("x", "SELECT 1", false).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.CreateView("v", "SELECT 1", false).ok());
  EXPECT_EQ(catalog.CreateTable("v", TwoColumns()).code(),
            StatusCode::kAlreadyExists);
}

TEST(Catalog, IndexBackfillsExistingRows) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TwoColumns()).ok());
  TableInfo* t = catalog.GetTable("t");
  ASSERT_TRUE(t->storage->Insert({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(t->storage->Insert({Value::Int(2), Value::String("b")}).ok());
  ASSERT_TRUE(
      catalog.CreateIndex("t_v", "t", {"v"}, false, Index::Kind::kHash).ok());
  Index* idx = t->FindIndexOn({1});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->Lookup({Value::String("b")}).size(), 1u);
}

TEST(Catalog, UniqueIndexBackfillFailureRejectsIndex) {
  Catalog catalog;
  Schema s;
  s.AddColumn(Column("v", Type::kInt));
  ASSERT_TRUE(catalog.CreateTable("t", s).ok());
  TableInfo* t = catalog.GetTable("t");
  ASSERT_TRUE(t->storage->Insert({Value::Int(7)}).ok());
  ASSERT_TRUE(t->storage->Insert({Value::Int(7)}).ok());
  Status st = catalog.CreateIndex("t_v", "t", {"v"}, true,
                                  Index::Kind::kHash);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t->FindIndexOn({0}), nullptr);
}

TEST(Catalog, IndexOnUnknownColumnOrTable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TwoColumns()).ok());
  EXPECT_EQ(catalog.CreateIndex("i", "t", {"zap"}, false,
                                Index::Kind::kHash).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.CreateIndex("i", "nope", {"v"}, false,
                                Index::Kind::kHash).code(),
            StatusCode::kNotFound);
}

TEST(Catalog, ViewRegistry) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateView("v1", "SELECT 1", false).ok());
  ASSERT_TRUE(catalog.CreateView("v2", "OUT OF x AS t TAKE *", true).ok());
  EXPECT_FALSE(catalog.GetView("v1")->is_xnf);
  EXPECT_TRUE(catalog.GetView("V2")->is_xnf);
  ASSERT_TRUE(catalog.DropView("v1").ok());
  EXPECT_EQ(catalog.GetView("v1"), nullptr);
  EXPECT_EQ(catalog.DropView("v1").code(), StatusCode::kNotFound);
}

TEST(Catalog, DropTable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TwoColumns()).ok());
  ASSERT_TRUE(catalog.DropTable("T").ok());
  EXPECT_EQ(catalog.GetTable("t"), nullptr);
  EXPECT_EQ(catalog.DropTable("t").code(), StatusCode::kNotFound);
  // Name can be reused after drop.
  EXPECT_TRUE(catalog.CreateTable("t", TwoColumns()).ok());
}

TEST(Catalog, NameListings) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("b", TwoColumns()).ok());
  ASSERT_TRUE(catalog.CreateTable("a", TwoColumns()).ok());
  ASSERT_TRUE(catalog.CreateView("z", "SELECT 1", false).ok());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(catalog.ViewNames(), (std::vector<std::string>{"z"}));
}

TEST(Catalog, HeapsShareBufferPool) {
  BufferPool pool(0);
  Catalog catalog(&pool);
  ASSERT_TRUE(catalog.CreateTable("t1", TwoColumns()).ok());
  ASSERT_TRUE(catalog.CreateTable("t2", TwoColumns()).ok());
  ASSERT_TRUE(catalog.GetTable("t1")
                  ->storage->Insert({Value::Int(1), Value::String("x")})
                  .ok());
  ASSERT_TRUE(catalog.GetTable("t2")
                  ->storage->Insert({Value::Int(1), Value::String("x")})
                  .ok());
  EXPECT_EQ(pool.accesses(), 2u);
  // Distinct file ids: two distinct pages resident.
  EXPECT_EQ(pool.resident_pages(), 2u);
}

// Every catalog owns a transaction manager from construction, so even a
// bare catalog's row-level DML is an autocommit transaction.
TEST(Catalog, OwnsTransactionManagerFromConstruction) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TwoColumns()).ok());
  ASSERT_NE(catalog.txn_manager(), nullptr);
  exec::DmlExecutor dml(&catalog);
  ASSERT_TRUE(
      dml.InsertRow(catalog.GetTable("t"), {Value::Int(1), Value::String("a")})
          .ok());
  const TransactionManager& mgr = *catalog.txn_manager();
  EXPECT_EQ(mgr.stats().txns_committed, 1u);
  EXPECT_EQ(mgr.epoch(), 1u);
  EXPECT_EQ(mgr.active_transactions(), 0u);
}

}  // namespace
}  // namespace xnf
