#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/trace.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

// Deterministic synthetic data large enough to cross the parallel-scan
// threshold (>= 8 pages at 64 tuples/page) and the parallel hash-join build
// threshold (>= 2 * 1024 build rows).
constexpr int kBigRows = 4096;
constexpr int kDimRows = 3000;

int ValOf(int id) { return (id * 37) % 101; }
int GrpOf(int id) { return id % 50; }

std::unique_ptr<Database> MakeDb(int threads) {
  Database::Options options;
  options.threads = threads;
  auto db = std::make_unique<Database>(options);
  MustExecute(db.get(), "CREATE TABLE big (id INT, grp INT, val INT)");
  MustExecute(db.get(), "CREATE TABLE dim (grp INT, val INT)");
  auto insert_chunked = [&](const std::string& table, int rows,
                            const std::function<std::string(int)>& tuple) {
    for (int base = 0; base < rows; base += 500) {
      std::string stmt = "INSERT INTO " + table + " VALUES ";
      for (int i = base; i < std::min(rows, base + 500); ++i) {
        if (i != base) stmt += ",";
        stmt += tuple(i);
      }
      MustExecute(db.get(), stmt);
    }
  };
  insert_chunked("big", kBigRows, [](int i) {
    return "(" + std::to_string(i) + "," + std::to_string(GrpOf(i)) + "," +
           std::to_string(ValOf(i)) + ")";
  });
  insert_chunked("dim", kDimRows, [](int i) {
    return "(" + std::to_string(i % 50) + "," + std::to_string(ValOf(i)) +
           ")";
  });
  return db;
}

std::string QueryText(Database* db, const std::string& sql) {
  auto rs = db->Query(sql);
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  return rs.ok() ? rs->ToString() : std::string();
}

// Flattens an EXPLAIN [ANALYZE] result (one row per plan line) to a string.
std::string ExplainText(Database* db, const std::string& stmt) {
  auto result = db->Execute(stmt);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::string out;
  if (!result.ok()) return out;
  for (const Row& row : result->rows.rows) {
    out += row[0].AsString() + "\n";
  }
  return out;
}

TEST(ParallelExec, FilteredScanIdenticalAtAnyDop) {
  // No ORDER BY: the morsel-order merge must reproduce the serial scan
  // order exactly, so results are compared row-for-row, unsorted.
  auto serial = MakeDb(1);
  std::string expected =
      QueryText(serial.get(), "SELECT id, val FROM big WHERE val > 50");
  int expected_rows = 0;
  for (int i = 0; i < kBigRows; ++i) {
    if (ValOf(i) > 50) ++expected_rows;
  }
  ASSERT_GT(expected_rows, 0);
  for (int dop : {2, 8}) {
    auto db = MakeDb(dop);
    EXPECT_EQ(QueryText(db.get(), "SELECT id, val FROM big WHERE val > 50"),
              expected)
        << "dop=" << dop;
  }
}

TEST(ParallelExec, HashJoinIdenticalAtAnyDop) {
  const std::string sql =
      "SELECT b.id, b.val, d.val FROM big b, dim d "
      "WHERE b.grp = d.grp AND b.val > 90 AND d.val > 95";
  auto serial = MakeDb(1);
  std::string expected = QueryText(serial.get(), sql);
  ASSERT_FALSE(expected.empty());
  for (int dop : {2, 8}) {
    auto db = MakeDb(dop);
    EXPECT_EQ(QueryText(db.get(), sql), expected) << "dop=" << dop;
  }
}

TEST(ParallelExec, AggregationOverParallelScanIdenticalAtAnyDop) {
  const std::string sql =
      "SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp ORDER BY grp";
  auto serial = MakeDb(1);
  std::string expected = QueryText(serial.get(), sql);
  for (int dop : {2, 8}) {
    auto db = MakeDb(dop);
    EXPECT_EQ(QueryText(db.get(), sql), expected) << "dop=" << dop;
  }
}

TEST(ParallelExec, PreparedQueryIdenticalAcrossThreadSettings) {
  const std::string sql = "SELECT id, val FROM big WHERE val > ? AND grp = ?";
  auto serial = MakeDb(1);
  auto parallel = MakeDb(8);
  ASSERT_OK_AND_ASSIGN(auto p1, serial->Prepare(sql));
  ASSERT_OK_AND_ASSIGN(auto p8, parallel->Prepare(sql));
  for (int64_t grp : {0, 7, 49}) {
    std::vector<Value> params = {Value::Int(40), Value::Int(grp)};
    ASSERT_OK_AND_ASSIGN(ResultSet r1, p1->Execute(params));
    ASSERT_OK_AND_ASSIGN(ResultSet r8, p8->Execute(params));
    EXPECT_EQ(r1.ToString(), r8.ToString()) << "grp=" << grp;
  }
}

TEST(ParallelExec, SetThreadsSwapsThePoolBetweenQueries) {
  auto db = MakeDb(1);
  EXPECT_EQ(db->threads(), 1);
  std::string expected =
      QueryText(db.get(), "SELECT id FROM big WHERE val > 50");
  db->set_threads(8);
  EXPECT_EQ(db->threads(), 8);
  EXPECT_EQ(QueryText(db.get(), "SELECT id FROM big WHERE val > 50"),
            expected);
}

TEST(ParallelExec, XnfEvaluationIdenticalAtAnyDop) {
  // The node/edge derived queries run in definition order on the statement
  // thread at every DOP (DOP only parallelizes inside each query), so the
  // instance (tuple order, connection order), the counters, the profile
  // order, and the derived queries a fault stops at are DOP-invariant, and
  // an installed trace sink does not change the evaluation path.
  const std::string xnf = R"(
      OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
        ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
      TAKE *
    )";
  auto profile_names = [](const co::Evaluator::Stats& stats) {
    std::vector<std::string> names;
    for (const co::Evaluator::QueryProfile& p : stats.profiles) {
      names.push_back(p.name);
    }
    return names;
  };
  // Hits on the armed site after `xnf.node.query=nth(1)` fails the query.
  auto node_fault_hits = [&](Database* db) -> uint64_t {
    EXPECT_OK(Failpoints::Enable("xnf.node.query", "nth(1)"));
    EXPECT_FALSE(db->QueryCo(xnf).ok());
    uint64_t hits = Failpoints::hits("xnf.node.query");
    Failpoints::DisableAll();
    return hits;
  };
  std::string expected;
  std::vector<std::string> expected_profiles;
  uint64_t expected_hits = 0;
  {
    Database::Options options;
    options.threads = 1;
    Database db(options);
    CreateCompanyDb(&db);
    ASSERT_OK_AND_ASSIGN(co::CoInstance instance, db.QueryCo(xnf));
    expected = instance.ToString();
    ASSERT_FALSE(expected.empty());
    expected_profiles = profile_names(db.last_xnf_stats());
    expected_hits = node_fault_hits(&db);
    EXPECT_EQ(expected_hits, 1u);
  }
  for (int dop : {2, 8}) {
    Database::Options options;
    options.threads = dop;
    Database db(options);
    CreateCompanyDb(&db);
    ASSERT_OK_AND_ASSIGN(co::CoInstance instance, db.QueryCo(xnf));
    EXPECT_EQ(instance.ToString(), expected) << "dop=" << dop;
    // Counter totals and profile order match too.
    EXPECT_EQ(db.last_xnf_stats().node_queries, 3);
    EXPECT_EQ(db.last_xnf_stats().edge_queries, 2);
    EXPECT_EQ(profile_names(db.last_xnf_stats()), expected_profiles)
        << "dop=" << dop;
    // The fault stops evaluation at the same derived query.
    EXPECT_EQ(node_fault_hits(&db), expected_hits) << "dop=" << dop;
  }
  {
    Database::Options options;
    options.threads = 4;
    Database db(options);
    CreateCompanyDb(&db);
    CollectingTraceSink sink;
    db.set_trace_sink(&sink);
    ASSERT_OK_AND_ASSIGN(co::CoInstance traced, db.QueryCo(xnf));
    db.set_trace_sink(nullptr);
    ASSERT_FALSE(sink.spans().empty());
    const co::Evaluator::Stats traced_stats = db.last_xnf_stats();
    ASSERT_OK_AND_ASSIGN(co::CoInstance untraced, db.QueryCo(xnf));
    EXPECT_EQ(traced.ToString(), untraced.ToString());
    EXPECT_EQ(traced.ToString(), expected);
    EXPECT_EQ(traced_stats.node_queries, db.last_xnf_stats().node_queries);
    EXPECT_EQ(traced_stats.edge_queries, db.last_xnf_stats().edge_queries);
    EXPECT_EQ(profile_names(traced_stats),
              profile_names(db.last_xnf_stats()));
  }
}

TEST(ParallelExec, ExplainAnalyzeReportsDopAndMergedCounters) {
  auto db = MakeDb(8);
  std::string plan = ExplainText(
      db.get(), "EXPLAIN ANALYZE SELECT id, val FROM big WHERE val > 50");
  // The scan ran parallel and says so.
  EXPECT_NE(plan.find("SeqScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("dop="), std::string::npos) << plan;
  // Worker-merged rows_out is the exact filtered total.
  int expected_rows = 0;
  for (int i = 0; i < kBigRows; ++i) {
    if (ValOf(i) > 50) ++expected_rows;
  }
  EXPECT_NE(plan.find("rows=" + std::to_string(expected_rows)),
            std::string::npos)
      << plan;

  // Serial execution never prints a dop marker (keeps existing output
  // stable).
  auto serial = MakeDb(1);
  std::string serial_plan = ExplainText(
      serial.get(), "EXPLAIN ANALYZE SELECT id, val FROM big WHERE val > 50");
  EXPECT_EQ(serial_plan.find("dop="), std::string::npos) << serial_plan;
}

TEST(ParallelExec, ExplainAnalyzeHashJoinBuildDop) {
  auto db = MakeDb(8);
  std::string plan = ExplainText(
      db.get(),
      "EXPLAIN ANALYZE SELECT b.id FROM big b, dim d WHERE b.grp = d.grp");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("dop="), std::string::npos) << plan;
}

}  // namespace
}  // namespace xnf::testing
